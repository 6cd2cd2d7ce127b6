// Package index implements the three pre-computed index families of the
// paper's Table 5: group-based indices I(q,l), query-based indices I(g,l)
// and location-based indices I(g,q). Each index is an inverted list of
// (member, unfairness) postings sorted by descending unfairness, supporting
// the two access modes Fagin-style algorithms need: sorted access (next
// posting) and random access (value of a given member).
//
// Completion invariant: every posting list over a dimension contains an
// entry for every member of that dimension that appears anywhere in the
// source table, with unfairness 0 for triples the evaluator left undefined.
// This mirrors Algorithm 1's unconditional division by |Q|·|L| and is what
// makes the threshold bound valid in both top-k directions.
//
// Storage is columnar. A family keeps one member dictionary, its sorted
// member keys, so a member's id is its position and id order is key
// order: value ties, broken by ascending id, come out in ascending key
// order. Every list of the family stores its member ids in posting order
// as int32 and its values as float64, back to back in two arrays the
// family shares, so a posting costs 12 bytes and a list 16 more. A list
// that holds every member stores its values by member id, which makes
// random access one indexed load after the dictionary lookup. A ragged
// list (NewLists) stores them in posting order, and random access scans
// its ids: ragged lists are a partition's share of a list, so short.
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"fairjob/internal/core"
)

// Entry is one posting: a dimension member (group key, query, or location)
// and its unfairness value.
type Entry struct {
	Key   string
	Value float64
}

// family is the storage every list of one family shares.
type family struct {
	keys []string         // member dictionary, ascending; id = position
	ids  map[string]int32 // key → member id
	// order holds each list's member ids in posting order and vals its
	// values, by member id in a complete list and in posting order in a
	// ragged one. A list owns the same range of both.
	order []int32
	vals  []float64
}

// newFamily sets up storage for postings postings over the sorted keys;
// ids, if not nil, already holds every key and is renumbered in place.
func newFamily(keys []string, ids map[string]int32, postings int) *family {
	if ids == nil {
		ids = make(map[string]int32, len(keys))
	}
	for i, k := range keys {
		ids[k] = int32(i)
	}
	return &family{
		keys:  keys,
		ids:   ids,
		order: make([]int32, 0, postings),
		vals:  make([]float64, 0, postings),
	}
}

// posting is one list member while its list is being built.
type posting struct {
	id int32
	v  float64
}

// canonical is the posting-list order: descending value, ties broken by
// ascending member id, which is ascending key.
func canonical(a, b posting) int {
	if a.v != b.v {
		if a.v > b.v {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// add appends one list, given its postings in ascending id order, and
// returns it. ps is reordered.
func (f *family) add(ps []posting) Inverted {
	off := len(f.vals)
	complete := len(ps) == len(f.keys)
	if complete {
		for _, p := range ps {
			f.vals = append(f.vals, p.v)
		}
	}
	slices.SortFunc(ps, canonical)
	for _, p := range ps {
		f.order = append(f.order, p.id)
		if !complete {
			f.vals = append(f.vals, p.v)
		}
	}
	return Inverted{f: f, off: int32(off), n: int32(len(ps))}
}

// Inverted is a posting list sorted by descending Value (ties broken by
// ascending Key so ordering is deterministic). It supports sorted access
// via At and random access via Find.
type Inverted struct {
	f      *family
	off, n int32
}

// complete reports whether the list holds every member of its family's
// dictionary, and so stores its values by member id.
func (iv *Inverted) complete() bool { return int(iv.n) == len(iv.f.keys) }

// Len returns the number of postings.
func (iv *Inverted) Len() int { return int(iv.n) }

// At performs a sorted access: the posting at position pos (0 = highest
// unfairness). ok is false past the end of the list.
func (iv *Inverted) At(pos int) (Entry, bool) {
	if pos < 0 || pos >= int(iv.n) {
		return Entry{}, false
	}
	f, off := iv.f, int(iv.off)
	id := int(f.order[off+pos])
	slot := pos
	if iv.complete() {
		slot = id
	}
	return Entry{Key: f.keys[id], Value: f.vals[off+slot]}, true
}

// Find performs a random access: the unfairness value recorded for key.
// ok is false when the list holds no posting for key.
func (iv *Inverted) Find(key string) (float64, bool) {
	f, off := iv.f, int(iv.off)
	id, ok := f.ids[key]
	if !ok {
		return 0, false
	}
	if iv.complete() {
		return f.vals[off+int(id)], true
	}
	for pos, x := range f.order[off : off+int(iv.n)] {
		if x == id {
			return f.vals[off+pos], true
		}
	}
	return 0, false
}

// Entries returns a copy of the posting list in sorted order.
func (iv *Inverted) Entries() []Entry {
	out := make([]Entry, iv.n)
	for pos := range out {
		out[pos], _ = iv.At(pos)
	}
	return out
}

// NewLists builds posting lists that need not hold the same members: list
// i holds exactly the postings of lists[i], given in any order, and a key
// it lacks Finds as (0, false). A nil or empty lists[i] yields an empty
// list. The lists share one member dictionary, the sorted union of their
// keys, and sort exactly as the Build* families do. Each key may appear
// at most once per list.
func NewLists(lists [][]Entry) []*Inverted {
	ids := make(map[string]int32)
	total, nonEmpty := 0, 0
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			nonEmpty++
		}
		for _, e := range l {
			ids[e.Key] = 0
		}
	}
	keys := make([]string, 0, len(ids))
	for k := range ids {
		keys = append(keys, k)
	}
	slices.Sort(keys)

	f := newFamily(keys, ids, total)
	empty := &Inverted{f: f}
	ivs := make([]Inverted, 0, nonEmpty)
	out := make([]*Inverted, len(lists))
	var ps []posting
	for i, l := range lists {
		if len(l) == 0 {
			out[i] = empty
			continue
		}
		ps = ps[:0]
		for _, e := range l {
			ps = append(ps, posting{f.ids[e.Key], e.Value})
		}
		slices.SortFunc(ps, func(a, b posting) int { return cmp.Compare(a.id, b.id) })
		// A duplicate would give the list two postings for one member and
		// Find no single answer.
		for j := 1; j < len(ps); j++ {
			if ps[j].id == ps[j-1].id {
				panic(fmt.Sprintf("index: list %d holds key %q twice", i, keys[ps[j].id]))
			}
		}
		ivs = append(ivs, f.add(ps))
		out[i] = &ivs[len(ivs)-1]
	}
	return out
}

// completeLists builds one family of lists that each hold every member
// of keys: one list per (outer, inner) pair, outer-major, with member
// m's value in list (o, i) given by value(o, i, m).
func completeLists(keys []string, nOuter, nInner int, value func(o, i, m int) float64) []Inverted {
	f := newFamily(keys, nil, nOuter*nInner*len(keys))
	lists := make([]Inverted, 0, nOuter*nInner)
	ps := make([]posting, len(keys))
	for o := 0; o < nOuter; o++ {
		for i := 0; i < nInner; i++ {
			for m := range ps {
				ps[m] = posting{int32(m), value(o, i, m)}
			}
			lists = append(lists, f.add(ps))
		}
	}
	return lists
}

// list returns the list of (a, b) in lists laid out a-major over the
// sorted dimensions as and bs, or nil when either is not a member.
func list[A, B cmp.Ordered](lists []Inverted, as []A, a A, bs []B, b B) *Inverted {
	i, okA := slices.BinarySearch(as, a)
	j, okB := slices.BinarySearch(bs, b)
	if !okA || !okB {
		return nil
	}
	return &lists[i*len(bs)+j]
}

// GroupIndex holds one inverted list of groups per (query, location) pair:
// the I(q,l) family.
type GroupIndex struct {
	lists []Inverted // (q, l) at qi·|L| + li
	// Dimension metadata, sorted, shared by consumers.
	GroupKeys []string
	Queries   []core.Query
	Locations []core.Location
	groups    map[string]core.Group
}

// QueryIndex holds one inverted list of queries per (group, location)
// pair: the I(g,l) family.
type QueryIndex struct {
	lists     []Inverted // (g, l) at gi·|L| + li
	GroupKeys []string
	Queries   []core.Query
	Locations []core.Location
}

// LocationIndex holds one inverted list of locations per (group, query)
// pair: the I(g,q) family.
type LocationIndex struct {
	lists     []Inverted // (g, q) at gi·|Q| + qi
	GroupKeys []string
	Queries   []core.Query
	Locations []core.Location
}

func dims(t *core.Table) (gks []string, gmap map[string]core.Group, qs []core.Query, ls []core.Location) {
	groups := t.Groups()
	gks = make([]string, len(groups))
	gmap = make(map[string]core.Group, len(groups))
	for i, g := range groups {
		gks[i] = g.Key()
		gmap[gks[i]] = g
	}
	return gks, gmap, t.Queries(), t.Locations()
}

// strs converts a sorted dimension to the member keys of its dictionary.
func strs[T ~string](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = string(x)
	}
	return out
}

// value returns the table's value for the triple, or 0 when undefined
// (the completion invariant).
func value(t *core.Table, g string, q core.Query, l core.Location) float64 {
	v, ok := t.GetKey(g, q, l)
	if !ok {
		return 0
	}
	return v
}

// BuildGroupIndex builds the I(q,l) family from an unfairness table.
func BuildGroupIndex(t *core.Table) *GroupIndex {
	gks, gmap, qs, ls := dims(t)
	return &GroupIndex{
		lists: completeLists(gks, len(qs), len(ls), func(q, l, g int) float64 {
			return value(t, gks[g], qs[q], ls[l])
		}),
		GroupKeys: gks, Queries: qs, Locations: ls, groups: gmap,
	}
}

// Get returns the inverted list of groups for (q, l), or nil when the pair
// was not indexed.
func (gi *GroupIndex) Get(q core.Query, l core.Location) *Inverted {
	return list(gi.lists, gi.Queries, q, gi.Locations, l)
}

// Group resolves a group key to the core.Group recorded in the source
// table.
func (gi *GroupIndex) Group(key string) (core.Group, bool) {
	g, ok := gi.groups[key]
	return g, ok
}

// BuildQueryIndex builds the I(g,l) family from an unfairness table.
func BuildQueryIndex(t *core.Table) *QueryIndex {
	gks, _, qs, ls := dims(t)
	return &QueryIndex{
		lists: completeLists(strs(qs), len(gks), len(ls), func(g, l, q int) float64 {
			return value(t, gks[g], qs[q], ls[l])
		}),
		GroupKeys: gks, Queries: qs, Locations: ls,
	}
}

// Get returns the inverted list of queries for (groupKey, l).
func (qi *QueryIndex) Get(g string, l core.Location) *Inverted {
	return list(qi.lists, qi.GroupKeys, g, qi.Locations, l)
}

// BuildLocationIndex builds the I(g,q) family from an unfairness table.
func BuildLocationIndex(t *core.Table) *LocationIndex {
	gks, _, qs, ls := dims(t)
	return &LocationIndex{
		lists: completeLists(strs(ls), len(gks), len(qs), func(g, q, l int) float64 {
			return value(t, gks[g], qs[q], ls[l])
		}),
		GroupKeys: gks, Queries: qs, Locations: ls,
	}
}

// Get returns the inverted list of locations for (groupKey, q).
func (li *LocationIndex) Get(g string, q core.Query) *Inverted {
	return list(li.lists, li.GroupKeys, g, li.Queries, q)
}

// BuildAll builds the three Table-5 index families from one unfairness
// table, one family per goroutine (the families are independent and each
// build only reads the table). Every index this package builds is
// immutable once its Build* constructor returns — there is no mutating
// method on any index type — so the returned families may be shared by
// any number of concurrent readers; internal/serve relies on this to
// freeze them into query-serving snapshots.
func BuildAll(t *core.Table) (*GroupIndex, *QueryIndex, *LocationIndex) {
	var (
		gi *GroupIndex
		qi *QueryIndex
		li *LocationIndex
		wg sync.WaitGroup
	)
	wg.Add(3)
	go func() { defer wg.Done(); gi = BuildGroupIndex(t) }()
	go func() { defer wg.Done(); qi = BuildQueryIndex(t) }()
	go func() { defer wg.Done(); li = BuildLocationIndex(t) }()
	wg.Wait()
	return gi, qi, li
}
