package core

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
)

// Query is a job-related query (a job category on TaskRabbit, a search
// formulation on Google job search).
type Query string

// Location is a geographic location such as "San Francisco, CA".
type Location string

// Triple identifies one unfairness value d<g,q,l>. GroupKey is the
// canonical key of the group's label.
type Triple struct {
	GroupKey string
	Query    Query
	Location Location
}

// maxMembers bounds each dimension's member count.
const maxMembers = 1 << 21

// Table stores unfairness values d<g,q,l> for every evaluated triple. It
// is the substrate the three index families and both problem solvers read
// from. A Table is cheap to copy by reference; it is not safe for
// concurrent mutation. The evaluators' sharded EvaluateAll pipelines
// compute cells concurrently but fill their table on one goroutine.
//
// Storage is interned and page-major, the F-Box's own unit: each
// dimension keeps an append-only dictionary that numbers its members in
// order of first Set, and the values of one (query, location) page form
// one row, a slot per group id with a defined bit per slot. A dense page
// index maps a page's query and location ids to its row; rows are
// numbered in order of their page's first Set. A group first Set when a
// row has no free slot widens every row, at least doubling the width,
// so the widening is amortised; Clone trims the copy's rows to the
// groups the table holds. A table holds at most 2^21 (2,097,152) groups,
// queries and locations each, which keeps a row at most 16 MB wide;
// interning one more panics, naming the dimension. Sealed numbers a
// read-only copy in key order instead, with a row for every (query,
// location) pair, so that its rows are the dense value cube Cube lends
// the index families.
type Table struct {
	gs     dict[string] // group keys
	groups []Group      // by group id
	qs     dict[Query]
	ls     dict[Location]

	rowOf  []int32   // page index: rowOf[q*stride+l] is page (q, l)'s row + 1, or 0
	stride int       // location ids per query in rowOf; at least len(ls.keys)
	width  int       // slots per row; at least len(groups)
	vals   []float64 // vals[r*width+g]: row r's slot g
	def    []uint64  // words(width) words per row; bit g: slot g is defined
	n      int       // defined slots
	sealed bool      // read-only, numbered in key order, a row per page
}

// dict is an append-only member dictionary: a member's id is its
// position in keys.
type dict[K ~string] struct {
	ids  map[K]int32
	keys []K
}

func newDict[K ~string](n int) dict[K] {
	return dict[K]{ids: make(map[K]int32, n), keys: make([]K, 0, n)}
}

// intern returns k's id, numbering k next when it is new. dim names the
// dimension in the panic past maxMembers.
func (d *dict[K]) intern(k K, dim string) int32 {
	if id, ok := d.ids[k]; ok {
		return id
	}
	id := memberID(len(d.keys), dim)
	d.ids[k] = id
	d.keys = append(d.keys, k)
	return id
}

// memberID returns the id of a dimension's n-th member, counting from 0,
// and panics past the dimension's bound.
func memberID(n int, dim string) int32 {
	if n >= maxMembers {
		panic(fmt.Sprintf("core: table holds more than %d %s", maxMembers, dim))
	}
	return int32(n)
}

// sorted returns the members in ascending order.
func (d *dict[K]) sorted() []K {
	out := make([]K, len(d.keys))
	copy(out, d.keys)
	slices.Sort(out)
	return out
}

// sortedCopy returns a copy of d that numbers its members in key order,
// and, by id in d, each member's id in the copy.
func (d *dict[K]) sortedCopy() (dict[K], []int32) {
	c := dict[K]{ids: make(map[K]int32, len(d.keys)), keys: d.sorted()}
	for id, k := range c.keys {
		c.ids[k] = int32(id)
	}
	to := make([]int32, len(d.keys))
	for id, k := range d.keys {
		to[id] = c.ids[k]
	}
	return c, to
}

func (d *dict[K]) clone() dict[K] {
	return dict[K]{ids: maps.Clone(d.ids), keys: slices.Clone(d.keys)}
}

// words returns the number of 64-bit words that hold n defined bits.
func words(n int) int { return (n + 63) / 64 }

// grow extends s by n zeros, reallocating as append does. It allocates
// nothing while s has room, even in an instrumented (-race) build, which
// makes append(s, make([]E, n)...) allocate its temporary.
func grow[E any](s []E, n int) []E {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// NewTable returns an empty unfairness table.
func NewTable() *Table {
	return NewTableSized(0, 0, 0, 0)
}

// NewTableSized returns an empty table presized for the given counts of
// values, groups, queries and locations. Sizing is a capacity hint, not a
// bound — the table still grows past it. groups sets the row width, so
// rows widen only past that many groups; values then reserves
// ⌈values/groups⌉ rows (none when groups is 0, since a row's width is
// not known yet), and queries × locations size the page index. A writer
// that knows its cardinalities up front (the evaluators' fill, a bulk
// loader) avoids every regrowth of the fill.
func NewTableSized(values, groups, qs, ls int) *Table {
	rows := 0
	if groups > 0 {
		rows = (values + groups - 1) / groups
	}
	return &Table{
		gs:     newDict[string](groups),
		groups: make([]Group, 0, groups),
		qs:     newDict[Query](qs),
		ls:     newDict[Location](ls),
		rowOf:  make([]int32, 0, qs*ls),
		stride: ls,
		width:  groups,
		vals:   make([]float64, 0, rows*groups),
		def:    make([]uint64, 0, rows*words(groups)),
	}
}

// Set records d<g,q,l> = v, overwriting any previous value.
func (t *Table) Set(g Group, q Query, l Location, v float64) {
	t.SetKey(g.Key(), g, q, l, v)
}

// SetKey is Set for callers that already hold g's canonical key, such
// as the GroupKey of a Triple that Range yields; it skips building the
// key string. key must equal g.Key(). Both panic on a sealed table.
func (t *Table) SetKey(key string, g Group, q Query, l Location, v float64) {
	if t.sealed {
		panic("core: Set on a sealed table; write to its Clone")
	}
	t.set(t.groupID(key, g), t.qs.intern(q, "queries"), t.ls.intern(l, "locations"), v)
}

// groupID interns a group key, recording g beside a new one and widening
// the rows when it does not fit them.
func (t *Table) groupID(key string, g Group) int32 {
	id := t.gs.intern(key, "groups")
	if int(id) == len(t.groups) {
		t.groups = append(t.groups, g)
		if len(t.groups) > t.width {
			w := max(len(t.groups), 2*t.width)
			t.vals, t.def = t.relaid(w)
			t.width = w
		}
	}
	return id
}

// set records v in slot g of page (q, l)'s row, adding the row when the
// page has none.
func (t *Table) set(g, q, l int32, v float64) {
	r := t.rowAt(q, l)
	w := &t.def[r*words(t.width)+int(g)/64]
	if bit := uint64(1) << (g % 64); *w&bit == 0 {
		*w |= bit
		t.n++
	}
	t.vals[r*t.width+int(g)] = v
}

// row returns page (q, l)'s row, or -1 when the page has none.
func (t *Table) row(q, l int32) int {
	if i := int(q)*t.stride + int(l); int(l) < t.stride && i < len(t.rowOf) {
		return int(t.rowOf[i]) - 1
	}
	return -1
}

// rowAt returns page (q, l)'s row, appending an empty one when the page
// has none. A location id past the index's stride regrids the index, at
// least doubling the stride.
func (t *Table) rowAt(q, l int32) int {
	if int(l) >= t.stride {
		s := max(int(l)+1, 2*t.stride)
		t.rowOf, t.stride = t.regrid(s), s
	}
	i := int(q)*t.stride + int(l)
	if i >= len(t.rowOf) {
		t.rowOf = grow(t.rowOf, (int(q)+1)*t.stride-len(t.rowOf))
	}
	if r := t.rowOf[i]; r > 0 {
		return int(r) - 1
	}
	r := t.rows()
	t.rowOf[i] = int32(r + 1)
	t.vals = grow(t.vals, t.width)
	t.def = grow(t.def, words(t.width))
	return r
}

// rows returns the number of rows.
func (t *Table) rows() int {
	if t.width == 0 {
		return 0
	}
	return len(t.vals) / t.width
}

// regrid returns a copy of the page index laid out stride location ids
// per query, covering every interned query.
func (t *Table) regrid(stride int) []int32 {
	idx := make([]int32, len(t.qs.keys)*stride)
	for q := 0; q < len(t.rowOf)/max(t.stride, 1); q++ {
		copy(idx[q*stride:(q+1)*stride], t.rowOf[q*t.stride:(q+1)*t.stride])
	}
	return idx
}

// relaid returns a copy of the rows laid out width slots wide. A slot
// keeps its bit position within its row's words, so a row's words copy
// whole; width must hold every group.
func (t *Table) relaid(width int) ([]float64, []uint64) {
	if width == t.width {
		return slices.Clone(t.vals), slices.Clone(t.def) // no zeroing before the copy
	}
	rows, ow, nw := t.rows(), words(t.width), words(width)
	vals, def := make([]float64, rows*width), make([]uint64, rows*nw)
	for r := 0; r < rows; r++ {
		copy(vals[r*width:(r+1)*width], t.vals[r*t.width:(r+1)*t.width])
		copy(def[r*nw:(r+1)*nw], t.def[r*ow:(r+1)*ow])
	}
	return vals, def
}

// Clone returns a writable deep copy of the table, sealed or not: the copy
// and the original share no mutable state, so one side may keep writing
// while the other is frozen behind an immutable snapshot. Group values and
// member strings are immutable and shared. The copy's rows are as wide as
// its groups and its page index as wide as its locations, so it holds no
// slack beyond the empty rows a sealed table keeps for undefined pages.
func (t *Table) Clone() *Table {
	c := &Table{
		gs:     t.gs.clone(),
		groups: slices.Clone(t.groups),
		qs:     t.qs.clone(),
		ls:     t.ls.clone(),
		stride: len(t.ls.keys),
		width:  len(t.groups),
		n:      t.n,
	}
	c.rowOf = t.regrid(c.stride)
	c.vals, c.def = t.relaid(c.width)
	return c
}

// Sealed returns a read-only copy of the table numbered in key order: a
// member's id is its position in Groups(), Queries() or Locations(), and
// page (q, l) of those ids is row q·|L| + l, a row for every pair of the
// sorted dimensions, its undefined slots holding 0. So the rows, back to
// back, are the (query, location, group) value cube Cube returns. Set and
// SetKey on the copy panic; its Clone is writable. The copy shares no
// mutable state with t, and a table that is already sealed returns itself.
func (t *Table) Sealed() *Table {
	if t.sealed {
		return t
	}
	gs, gid := t.gs.sortedCopy()
	qs, qid := t.qs.sortedCopy()
	ls, lid := t.ls.sortedCopy()
	ng, pages := len(gs.keys), len(qs.keys)*len(ls.keys)
	s := &Table{
		gs: gs, groups: make([]Group, ng), qs: qs, ls: ls,
		rowOf: make([]int32, pages), stride: len(ls.keys), width: ng,
		vals: make([]float64, pages*ng), def: make([]uint64, pages*words(ng)),
		n: t.n, sealed: true,
	}
	for id, g := range t.groups {
		s.groups[gid[id]] = g
	}
	for r := range s.rowOf {
		s.rowOf[r] = int32(r + 1)
	}
	nw := words(ng)
	t.walk(func(g, q, l int32, v float64) {
		g, r := gid[g], int(qid[q])*s.stride+int(lid[l])
		s.def[r*nw+int(g)/64] |= 1 << (g % 64)
		s.vals[r*ng+int(g)] = v
	})
	return s
}

// Cube returns a sealed table's values by sorted position: the value of
// (Groups()[g], Queries()[q], Locations()[l]) is at (q·|L| + l)·|G| + g,
// and an undefined cell's is 0. The slice is the table's own, so a reader
// must not write it. Cube panics on a table that is not sealed.
func (t *Table) Cube() []float64 {
	if !t.sealed {
		panic("core: Cube of a table that is not sealed")
	}
	return t.vals
}

// Get returns d<g,q,l> and whether it was recorded.
func (t *Table) Get(g Group, q Query, l Location) (float64, bool) {
	return t.GetKey(g.Key(), q, l)
}

// GetKey is Get for callers that hold a group key rather than a Group.
func (t *Table) GetKey(groupKey string, q Query, l Location) (float64, bool) {
	g, okG := t.gs.ids[groupKey]
	qi, okQ := t.qs.ids[q]
	li, okL := t.ls.ids[l]
	if !okG || !okQ || !okL {
		return 0, false
	}
	r := t.row(qi, li)
	if r < 0 || t.def[r*words(t.width)+int(g)/64]&(1<<(g%64)) == 0 {
		return 0, false
	}
	return t.vals[r*t.width+int(g)], true
}

// Len returns the number of recorded triples.
func (t *Table) Len() int { return t.n }

// Groups returns the distinct groups appearing in the table, sorted by
// key.
func (t *Table) Groups() []Group {
	keys := t.gs.sorted()
	out := make([]Group, len(keys))
	for i, k := range keys {
		out[i] = t.groups[t.gs.ids[k]]
	}
	return out
}

// GroupByKey resolves a group key recorded in the table.
func (t *Table) GroupByKey(key string) (Group, bool) {
	id, ok := t.gs.ids[key]
	if !ok {
		return Group{}, false
	}
	return t.groups[id], true
}

// Queries returns the distinct queries in the table, sorted.
func (t *Table) Queries() []Query { return t.qs.sorted() }

// Locations returns the distinct locations in the table, sorted.
func (t *Table) Locations() []Location { return t.ls.sorted() }

// Range calls fn for every recorded triple in an unspecified order.
func (t *Table) Range(fn func(tr Triple, v float64)) {
	t.walk(func(g, q, l int32, v float64) {
		fn(Triple{t.gs.keys[g], t.qs.keys[q], t.ls.keys[l]}, v)
	})
}

// walk calls fn with the member ids and value of every defined slot,
// page by page in page-index order.
func (t *Table) walk(fn func(g, q, l int32, v float64)) {
	nw := words(t.width)
	for i, r := range t.rowOf {
		if r == 0 {
			continue
		}
		q, l, r := int32(i/t.stride), int32(i%t.stride), int(r)-1
		for k, w := range t.def[r*nw : (r+1)*nw] {
			for ; w != 0; w &= w - 1 {
				g := k*64 + bits.TrailingZeros64(w)
				fn(int32(g), q, l, t.vals[r*t.width+g])
			}
		}
	}
}

// AggregateGroup returns d<g,Q,L> (§3.4): the average of d<g,q,l> over the
// given queries and locations, counting only recorded triples. The boolean
// is false when no triple was recorded for g over Q×L.
func (t *Table) AggregateGroup(g Group, qs []Query, ls []Location) (float64, bool) {
	return t.mean([]string{g.Key()}, qs, ls)
}

// AggregateQuery returns d<G,q,L>: the average unfairness of query q over
// the given groups and locations.
func (t *Table) AggregateQuery(q Query, gs []Group, ls []Location) (float64, bool) {
	return t.mean(keysOf(gs), []Query{q}, ls)
}

// AggregateLocation returns d<G,Q,l>: the average unfairness of location l
// over the given groups and queries.
func (t *Table) AggregateLocation(l Location, gs []Group, qs []Query) (float64, bool) {
	return t.mean(keysOf(gs), qs, []Location{l})
}

// mean averages the recorded cells of gks × qs × ls, summing them in
// that nesting order.
func (t *Table) mean(gks []string, qs []Query, ls []Location) (float64, bool) {
	var sum float64
	var n int
	for _, g := range gks {
		for _, q := range qs {
			for _, l := range ls {
				if v, ok := t.GetKey(g, q, l); ok {
					sum += v
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

func keysOf(gs []Group) []string {
	keys := make([]string, len(gs))
	for i, g := range gs {
		keys[i] = g.Key()
	}
	return keys
}

// String summarizes the table's dimensions.
func (t *Table) String() string {
	return fmt.Sprintf("Table{%d groups × %d queries × %d locations, %d triples}",
		len(t.groups), len(t.qs.keys), len(t.ls.keys), t.n)
}
