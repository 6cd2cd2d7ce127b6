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
// order. Every list of the family stores only its member ids, in posting
// order as int32, back to back in one array the family shares: 4 bytes a
// posting and 16 a list. The families store no values: they read the
// sealed table's (core.Table.Sealed) rows in place, which are one value
// cube, a float64 per (query, location, group) cell laid out in that
// order by the cell's positions in the sorted dimensions. Every family a
// build makes shares it, and a snapshot that indexes its sealed table
// holds each value once. A list reads member id's value at
// cube[base + id·stride], where base is the list's own and stride is 1
// for I(q,l), |G| for I(g,q) and |L|·|G| for I(g,l). So a random access
// is one indexed load after the dictionary lookup, and a sorted access
// is the id at the list's offset plus pos, then that load. A ragged list
// (NewLists) keeps its values in posting order in its family's own
// array, and random access scans its ids: ragged lists are a partition's
// share of a list, so short.
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
	// stride is positive in a family of complete lists, which hold every
	// member and read member id's value at vals[base+id·stride], and 0 in
	// a family of NewLists's ragged lists. (A built family's stride is 0
	// only when the table is empty, and then it has no lists.)
	stride int32
	// order holds each list's member ids in posting order.
	order []int32
	// vals holds the values. A built family's is the sealed table's value
	// cube, which every family built with it shares. NewLists's families
	// share their own: a complete list keeps its values by member id
	// (stride 1) and a ragged one in posting order, each at the range of
	// vals its ids hold in order.
	vals []float64
}

// newFamily sets up storage for postings postings over the sorted keys,
// for NewLists's ragged lists; ids already holds every key and is
// renumbered in place.
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
// returns it. A list holding every member reads its values by member id
// through whole, the family of stride 1 over f's arrays. ps is reordered.
func (f *family) add(ps []posting, whole *family) Inverted {
	off := int32(len(f.vals))
	if len(ps) == len(f.keys) {
		for _, p := range ps {
			f.vals = append(f.vals, p.v)
		}
		f.appendOrder(ps)
		return Inverted{f: whole, off: off, aux: off}
	}
	f.appendOrder(ps)
	for _, p := range ps {
		f.vals = append(f.vals, p.v)
	}
	return Inverted{f: f, off: off, aux: int32(len(ps))}
}

// appendOrder sorts ps into posting order and appends their member ids
// to the family's order array.
func (f *family) appendOrder(ps []posting) {
	sortPostings(ps)
	for _, p := range ps {
		f.order = append(f.order, p.id)
	}
}

// insertionMax is the longest list sortPostings sorts by insertion. In a
// sweep of list lengths 8–512 with random values in ascending id order
// (go test -bench, 2-vCPU Xeon, go1.24.0), insertion beat
// slices.SortFunc up to 112 postings, tied it at 128 and lost from 144
// on; with 30% of the values tied at 0 it still won at 128.
const insertionMax = 128

// sortPostings sorts ps into canonical order. A list of up to
// insertionMax postings is insertion-sorted with the comparison written
// inline, which saves slices.SortFunc's call through canonical per
// comparison; a longer one goes to slices.SortFunc, so the worst case
// stays O(n log n). canonical is a total order on postings of distinct
// ids and values other than NaN, which no measure yields, so both sorts
// give one order.
func sortPostings(ps []posting) {
	if len(ps) > insertionMax {
		slices.SortFunc(ps, canonical)
		return
	}
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i
		for ; j > 0; j-- {
			q := ps[j-1]
			if q.v > p.v || q.v == p.v && q.id < p.id {
				break
			}
			ps[j] = q
		}
		ps[j] = p
	}
}

// Inverted is a posting list sorted by descending Value (ties broken by
// ascending Key so ordering is deterministic). It supports sorted access
// via At and random access via Find.
type Inverted struct {
	f   *family
	off int32 // the list's first posting in f.order
	// aux is what the family leaves open about the list, so a list costs
	// 16 bytes: in a family of complete lists, the list's base in f.vals;
	// in a family of ragged lists, whose values start at off, its length.
	aux int32
}

// Len returns the number of postings.
func (iv *Inverted) Len() int {
	if iv.f.stride > 0 {
		return len(iv.f.keys)
	}
	return int(iv.aux)
}

// At performs a sorted access: the posting at position pos (0 = highest
// unfairness). ok is false past the end of the list.
func (iv *Inverted) At(pos int) (Entry, bool) {
	f := iv.f
	if uint(pos) >= uint(iv.Len()) {
		return Entry{}, false
	}
	i := int(iv.off) + pos
	id := f.order[i]
	if f.stride > 0 {
		i = int(iv.aux + id*f.stride)
	}
	return Entry{f.keys[id], f.vals[i]}, true
}

// Find performs a random access: the unfairness value recorded for key.
// ok is false when the list holds no posting for key.
func (iv *Inverted) Find(key string) (float64, bool) {
	f := iv.f
	id, ok := f.ids[key]
	if !ok {
		return 0, false
	}
	if f.stride > 0 {
		return f.vals[iv.aux+id*f.stride], true
	}
	off := int(iv.off)
	for pos, x := range f.order[off : off+int(iv.aux)] {
		if x == id {
			return f.vals[off+pos], true
		}
	}
	return 0, false
}

// Entries returns a copy of the posting list in sorted order.
func (iv *Inverted) Entries() []Entry {
	out := make([]Entry, iv.Len())
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
	whole := &family{stride: 1}
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
		ivs = append(ivs, f.add(ps, whole))
		out[i] = &ivs[len(ivs)-1]
	}
	whole.keys, whole.ids, whole.order, whole.vals = f.keys, f.ids, f.order, f.vals
	return out
}

// sortLists cuts the family's value cube into its lists, each holding
// every member, and appends each list's member ids in posting order. The
// lists run a-major over na × nb, and list (a, b) reads member m's value
// at a·sa + b·sb + m·stride.
func (f *family) sortLists(na, sa, nb, sb int) []Inverted {
	n, stride := len(f.keys), int(f.stride)
	lists := make([]Inverted, 0, na*nb)
	ps := make([]posting, n)
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b++ {
			base := a*sa + b*sb
			for m := range ps {
				ps[m] = posting{int32(m), f.vals[base+m*stride]}
			}
			off := len(f.order)
			f.appendOrder(ps)
			lists = append(lists, Inverted{f: f, off: int32(off), aux: int32(base)})
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
	tbl       *core.Table // sealed; resolves group keys
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

// build builds the families of t that group, query and location select.
// They read t's sealed copy in place: its rows are the value cube, laid
// out (query, location, group) by the cell's positions in the sorted
// dimensions, where a member whose cell is undefined reads 0, the
// completion invariant. A table that is not sealed is sealed once here.
// Each family's lists are sorted from the cube on a goroutine of its own.
// The families share the cube, the sorted dimensions and, per dimension,
// the member dictionary that numbers the members of the family over it.
func build(t *core.Table, group, query, location bool) (gi *GroupIndex, qi *QueryIndex, li *LocationIndex) {
	t = t.Sealed()
	groups, qs, ls := t.Groups(), t.Queries(), t.Locations()
	gks := make([]string, len(groups))
	for i, g := range groups {
		gks[i] = g.Key()
	}
	ng, nq, nl := len(gks), len(qs), len(ls)
	// The cell at sorted positions (g, q, l) is cube[q·sq + l·sl + g].
	sq, sl, cube := nl*ng, ng, t.Cube()

	// Each selected family's lists run a-major over na × nb, list (a, b)
	// starting at a·sa + b·sb in the cube; sort them into *dst.
	var sorts []func()
	add := func(keys []string, stride, na, sa, nb, sb int, dst *[]Inverted) {
		f := &family{keys: keys, ids: number(keys, nil), order: make([]int32, 0, na*nb*len(keys)), vals: cube, stride: int32(stride)}
		sorts = append(sorts, func() { *dst = f.sortLists(na, sa, nb, sb) })
	}
	if group {
		gi = &GroupIndex{GroupKeys: gks, Queries: qs, Locations: ls, tbl: t}
		add(gks, 1, nq, sq, nl, sl, &gi.lists)
	}
	if query {
		qi = &QueryIndex{GroupKeys: gks, Queries: qs, Locations: ls}
		add(strs(qs), sq, ng, 1, nl, sl, &qi.lists)
	}
	if location {
		li = &LocationIndex{GroupKeys: gks, Queries: qs, Locations: ls}
		add(strs(ls), sl, ng, 1, nq, sq, &li.lists)
	}
	core.RunIndexed(len(sorts), len(sorts), func(i int) { sorts[i]() })
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

// List returns list i in stored order, (q, l) at qi·|L| + li over the
// sorted Queries and Locations, for 0 ≤ i < |Q|·|L|.
func (gi *GroupIndex) List(i int) *Inverted {
	return &gi.lists[i]
}

// Group resolves a group key to the core.Group recorded in the source
// table.
func (gi *GroupIndex) Group(key string) (core.Group, bool) {
	return gi.tbl.GroupByKey(key)
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

// List returns list i in stored order, (g, l) at gi·|L| + li over the
// sorted GroupKeys and Locations, for 0 ≤ i < |G|·|L|.
func (qi *QueryIndex) List(i int) *Inverted {
	return &qi.lists[i]
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

// List returns list i in stored order, (g, q) at gi·|Q| + qi over the
// sorted GroupKeys and Queries, for 0 ≤ i < |G|·|Q|.
func (li *LocationIndex) List(i int) *Inverted {
	return &li.lists[i]
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
