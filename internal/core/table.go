package core

import (
	"fmt"
	"maps"
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

// idBits is the width of a member id in a packed cell key, so a
// dimension holds at most maxMembers members.
const (
	idBits     = 21
	maxMembers = 1 << idBits
	idMask     = maxMembers - 1
)

// Table stores unfairness values d<g,q,l> for every evaluated triple. It
// is the substrate the three index families and both problem solvers read
// from. A Table is cheap to copy by reference; it is not safe for
// concurrent mutation. Concurrent writers must each fill a private table
// and combine them with Merge, which is how the evaluators' sharded
// EvaluateAll pipelines work.
//
// Storage is interned: each dimension keeps an append-only dictionary
// that numbers its members in order of first Set, and a cell is keyed by
// its three member ids packed at 21 bits each into one uint64. A table
// therefore holds at most 2^21 (2,097,152) groups, queries and locations
// each. Interning one more panics, naming the dimension: an id that did
// not fit would alias another cell's key and Get would return the wrong
// value.
type Table struct {
	cells  map[uint64]float64
	gs     dict[string] // group keys
	groups []Group      // by group id
	qs     dict[Query]
	ls     dict[Location]
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
// and panics when it does not fit in a packed key.
func memberID(n int, dim string) int32 {
	if n >= maxMembers {
		panic(fmt.Sprintf("core: table holds more than %d %s", maxMembers, dim))
	}
	return int32(n)
}

// remap interns keys and returns their ids in d, position for position.
func (d *dict[K]) remap(keys []K, dim string) []int32 {
	ids := make([]int32, len(keys))
	for i, k := range keys {
		ids[i] = d.intern(k, dim)
	}
	return ids
}

// sorted returns the members in ascending order.
func (d *dict[K]) sorted() []K {
	out := make([]K, len(d.keys))
	copy(out, d.keys)
	slices.Sort(out)
	return out
}

func (d *dict[K]) clone() dict[K] {
	return dict[K]{ids: maps.Clone(d.ids), keys: slices.Clone(d.keys)}
}

func (d *dict[K]) reset() {
	clear(d.ids)
	d.keys = d.keys[:0]
}

// pack builds a cell key from its member ids; unpack splits it.
func pack(g, q, l int32) uint64 {
	return uint64(g)<<(2*idBits) | uint64(q)<<idBits | uint64(l)
}

func unpack(k uint64) (g, q, l int32) {
	return int32(k >> (2 * idBits)), int32(k >> idBits & idMask), int32(k & idMask)
}

// NewTable returns an empty unfairness table.
func NewTable() *Table {
	return NewTableSized(0, 0, 0, 0)
}

// NewTableSized returns an empty table whose maps are presized for the
// given entry counts. Sizing is a capacity hint, not a bound — the table
// still grows past it — but a writer that knows its cardinalities up
// front (the sharded evaluators' merge step, a bulk loader) avoids every
// incremental rehash of the fill.
func NewTableSized(values, groups, qs, ls int) *Table {
	return &Table{
		cells:  make(map[uint64]float64, values),
		gs:     newDict[string](groups),
		groups: make([]Group, 0, groups),
		qs:     newDict[Query](qs),
		ls:     newDict[Location](ls),
	}
}

// Set records d<g,q,l> = v, overwriting any previous value.
func (t *Table) Set(g Group, q Query, l Location, v float64) {
	t.SetKey(g.Key(), g, q, l, v)
}

// SetKey is Set for callers that already hold g's canonical key, such
// as the GroupKey of a Triple that Range yields; it skips building the
// key string. key must equal g.Key().
func (t *Table) SetKey(key string, g Group, q Query, l Location, v float64) {
	t.cells[pack(t.groupID(key, g), t.qs.intern(q, "queries"), t.ls.intern(l, "locations"))] = v
}

// groupID interns a group key, recording g beside a new one.
func (t *Table) groupID(key string, g Group) int32 {
	id := t.gs.intern(key, "groups")
	if int(id) == len(t.groups) {
		t.groups = append(t.groups, g)
	}
	return id
}

// Merge copies every triple of other into t, overwriting values t already
// holds for the same triple. It is the combination step of the sharded
// evaluation pipeline: each worker fills a private table and the shards
// are merged in shard order, so later shards win overlaps exactly as
// later iterations win in a serial fill. Merge mutates t only; other is
// read but never modified, and a nil or empty other is a no-op.
//
// Each member of other is interned once, in other's id order, so
// merging contiguous shards in shard order numbers the members exactly
// as the serial fill does.
func (t *Table) Merge(other *Table) {
	if other == nil {
		return
	}
	gids := make([]int32, len(other.groups))
	for id, g := range other.groups {
		gids[id] = t.groupID(other.gs.keys[id], g)
	}
	qids := t.qs.remap(other.qs.keys, "queries")
	lids := t.ls.remap(other.ls.keys, "locations")
	for k, v := range other.cells {
		g, q, l := unpack(k)
		t.cells[pack(gids[g], qids[q], lids[l])] = v
	}
}

// MergeTables combines shard tables in shard order into one table. With
// one shard it returns that shard directly (no copy); with more it
// allocates the result presized to the combined entry counts and merges
// every shard into it, so the combination performs exactly one map fill
// with zero incremental rehashes — the cost that made the sharded
// evaluators' workers>1 merge path pay pure overhead (BENCH_PR7). Nil
// shards are skipped; shard order is preserved, so later shards win
// overlapping triples exactly as Table.Merge documents.
func MergeTables(shards []*Table) *Table {
	first := -1
	var nv, ng, nq, nl int
	for i, s := range shards {
		if s == nil {
			continue
		}
		if first < 0 {
			first = i
		}
		nv += len(s.cells)
		ng += len(s.groups)
		nq += len(s.qs.keys)
		nl += len(s.ls.keys)
	}
	if first < 0 {
		return NewTable()
	}
	if nv == len(shards[first].cells) {
		// Every other shard is nil or empty: reuse the one filled table.
		return shards[first]
	}
	out := NewTableSized(nv, ng, nq, nl)
	for _, s := range shards {
		out.Merge(s)
	}
	return out
}

// reset empties the table in place, keeping its capacity — the
// recycling step of the shard-table pool.
func (t *Table) reset() {
	clear(t.cells)
	t.gs.reset()
	t.groups = t.groups[:0]
	t.qs.reset()
	t.ls.reset()
}

// Clone returns a deep copy of the table: the copy and the original share
// no mutable state, so one side may keep writing while the other is frozen
// behind an immutable snapshot. Group values and member strings are
// immutable and shared.
func (t *Table) Clone() *Table {
	return &Table{
		cells:  maps.Clone(t.cells),
		gs:     t.gs.clone(),
		groups: slices.Clone(t.groups),
		qs:     t.qs.clone(),
		ls:     t.ls.clone(),
	}
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
	v, ok := t.cells[pack(g, qi, li)]
	return v, ok
}

// Len returns the number of recorded triples.
func (t *Table) Len() int { return len(t.cells) }

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
	for k, v := range t.cells {
		g, q, l := unpack(k)
		fn(Triple{t.gs.keys[g], t.qs.keys[q], t.ls.keys[l]}, v)
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
		len(t.groups), len(t.qs.keys), len(t.ls.keys), len(t.cells))
}
