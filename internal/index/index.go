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
// ids already holds every key and is renumbered in place.
func newFamily(keys []string, ids map[string]int32, postings int) *family {
	return &family{
		keys:  keys,
		ids:   number(keys, ids),
		order: make([]int32, 0, postings),
		vals:  make([]float64, 0, postings),
	}
}

// number sets each key's id in ids to its position in keys and returns
// ids, a new map when nil.
func number(keys []string, ids map[string]int32) map[string]int32 {
	if ids == nil {
		ids = make(map[string]int32, len(keys))
	}
	for i, k := range keys {
		ids[k] = int32(i)
	}
	return ids
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
	f.appendOrder(ps)
	if !complete {
		for _, p := range ps {
			f.vals = append(f.vals, p.v)
		}
	}
	return Inverted{f: f, off: int32(off), n: int32(len(ps))}
}

// appendOrder sorts ps into posting order and appends their member ids
// to the family's order array.
func (f *family) appendOrder(ps []posting) {
	slices.SortFunc(ps, canonical)
	for _, p := range ps {
		f.order = append(f.order, p.id)
	}
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

// sortLists cuts the family's values, laid out list by list and by
// member id within a list, into nLists lists that each hold every
// member, and appends each list's member ids in posting order.
func (f *family) sortLists(nLists int) []Inverted {
	n := len(f.keys)
	lists := make([]Inverted, nLists)
	ps := make([]posting, n)
	for i := range lists {
		off := i * n
		for m := range ps {
			ps[m] = posting{int32(m), f.vals[off+m]}
		}
		f.appendOrder(ps)
		lists[i] = Inverted{f: f, off: int32(off), n: int32(n)}
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

// strs converts a sorted dimension to the member keys of its dictionary.
func strs[T ~string](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = string(x)
	}
	return out
}

// filling is one family of complete lists while build fills it. Its
// values are laid out list by list and by member id within a list, so
// the cell at positions (g, q, l) of the sorted dimensions has value
// slot(g, q, l); the sorted lists go to *dst.
type filling struct {
	f      *family
	nLists int
	slot   func(g, q, l int) int
	dst    *[]Inverted
}

// build builds the families of t that group, query and location select.
// One Range pass over the table fills every selected family's values,
// and a member whose cell is undefined keeps 0, the completion
// invariant. Then each family's lists are sorted on a goroutine of its
// own. The families share the sorted dimensions and, per dimension, the
// member dictionary that numbers the members of the family over it.
func build(t *core.Table, group, query, location bool) (gi *GroupIndex, qi *QueryIndex, li *LocationIndex) {
	groups, qs, ls := t.Groups(), t.Queries(), t.Locations()
	gks := make([]string, len(groups))
	gmap := make(map[string]core.Group, len(groups))
	for i, g := range groups {
		gks[i] = g.Key()
		gmap[gks[i]] = g
	}
	qks, lks := strs(qs), strs(ls)
	gid, qid, lid := number(gks, nil), number(qks, nil), number(lks, nil)
	ng, nq, nl := len(gks), len(qs), len(ls)

	var fs []filling
	add := func(keys []string, ids map[string]int32, nLists int, dst *[]Inverted, slot func(g, q, l int) int) {
		n := nLists * len(keys)
		f := &family{keys: keys, ids: ids, order: make([]int32, 0, n), vals: make([]float64, n)}
		fs = append(fs, filling{f, nLists, slot, dst})
	}
	if group {
		gi = &GroupIndex{GroupKeys: gks, Queries: qs, Locations: ls, groups: gmap}
		add(gks, gid, nq*nl, &gi.lists, func(g, q, l int) int { return (q*nl+l)*ng + g })
	}
	if query {
		qi = &QueryIndex{GroupKeys: gks, Queries: qs, Locations: ls}
		add(qks, qid, ng*nl, &qi.lists, func(g, q, l int) int { return (g*nl+l)*nq + q })
	}
	if location {
		li = &LocationIndex{GroupKeys: gks, Queries: qs, Locations: ls}
		add(lks, lid, ng*nq, &li.lists, func(g, q, l int) int { return (g*nq+q)*nl + l })
	}
	t.Range(func(tr core.Triple, v float64) {
		g, q, l := int(gid[tr.GroupKey]), int(qid[string(tr.Query)]), int(lid[string(tr.Location)])
		for _, x := range fs {
			x.f.vals[x.slot(g, q, l)] = v
		}
	})
	core.RunIndexed(len(fs), len(fs), func(i int) {
		*fs[i].dst = fs[i].f.sortLists(fs[i].nLists)
	})
	return gi, qi, li
}

// BuildGroupIndex builds the I(q,l) family from an unfairness table.
func BuildGroupIndex(t *core.Table) *GroupIndex {
	gi, _, _ := build(t, true, false, false)
	return gi
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
	_, qi, _ := build(t, false, true, false)
	return qi
}

// Get returns the inverted list of queries for (groupKey, l).
func (qi *QueryIndex) Get(g string, l core.Location) *Inverted {
	return list(qi.lists, qi.GroupKeys, g, qi.Locations, l)
}

// BuildLocationIndex builds the I(g,q) family from an unfairness table.
func BuildLocationIndex(t *core.Table) *LocationIndex {
	_, _, li := build(t, false, false, true)
	return li
}

// Get returns the inverted list of locations for (groupKey, q).
func (li *LocationIndex) Get(g string, q core.Query) *Inverted {
	return list(li.lists, li.GroupKeys, g, li.Queries, q)
}

// BuildAll builds the three Table-5 index families from one unfairness
// table: one pass over its cells fills all three, and each family's
// lists are sorted on a goroutine of its own. Every index this package
// builds is immutable once its Build* constructor returns — there is no
// mutating method on any index type — so the returned families may be
// shared by any number of concurrent readers; internal/serve relies on
// this to freeze them into query-serving snapshots.
func BuildAll(t *core.Table) (*GroupIndex, *QueryIndex, *LocationIndex) {
	return build(t, true, true, true)
}
