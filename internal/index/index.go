// Package index implements the three pre-computed index families of the
// paper's Table 5: group-based indices I(q,l), query-based indices I(g,l)
// and location-based indices I(g,q). Each index is an inverted list of
// (member, unfairness) postings sorted by descending unfairness, and each
// family answers the two access modes Fagin-style algorithms need itself:
// sorted access At(list, pos), the posting at a position of a list, and
// random access Find(list, key), the value of a given member. A family is
// Problem 1's list source (topk.ListSource) as it stands; ListOf numbers
// the list of a pair of the other two dimensions.
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
// order as int32, back to back in one array, and where its values start
// in the value cube, also as int32: 4 bytes a posting and 4 a list. The
// families store no values: they read the sealed table's
// (core.Table.Sealed) rows in place, which are one value cube, a float64
// per (query, location, group) cell laid out in that order by the cell's
// positions in the sorted dimensions. Every family a build makes shares
// it, and a snapshot that indexes its sealed table holds each value once.
// A family's lists run a-major over its two other dimensions, list
// a·|B| + b, and a list reads member id's value at base + id·stride,
// where stride is 1 for I(q,l), |G| for I(g,q) and |L|·|G| for I(g,l).
// So a random access is one indexed load after the dictionary lookup, and
// a sorted access is the id at list·|members| + pos, then that load.
//
// SortPostings is the one posting order: the families sort with it, and
// so does anything else that must produce lists in the same order.
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fairjob/internal/core"
)

// Entry is one posting: a dimension member (group key, query, or location)
// and its unfairness value.
type Entry struct {
	Key   string
	Value float64
}

// family is one built index family: its lists' member ids in posting
// order, and where each list reads its members' values in the cube, so
// the family itself answers sorted and random access on every list.
type family struct {
	keys []string         // member dictionary, ascending; id = position
	ids  map[string]int32 // key → member id
	// order holds list i's member ids in posting order at
	// [i·len(keys), (i+1)·len(keys)).
	order []int32
	// cube is the sealed table's value cube, which every family a build
	// makes shares. List i reads member id's value at
	// cube[bases[i] + id·stride].
	cube   []float64
	bases  []int32
	stride int
}

// NumLists returns the number of posting lists: the product of the sizes
// of the family's two other dimensions.
func (f *family) NumLists() int { return len(f.bases) }

// ListLen returns the length of every list, the number of members, which
// the completion invariant makes the same for all of them.
func (f *family) ListLen() int { return len(f.keys) }

// At performs a sorted access: the posting at position pos of list i (0 =
// highest unfairness). ok is false past the end of the list.
func (f *family) At(i, pos int) (Entry, bool) {
	n := len(f.keys)
	if uint(pos) >= uint(n) {
		return Entry{}, false
	}
	id := f.order[i*n+pos]
	return Entry{f.keys[id], f.cube[int(f.bases[i])+int(id)*f.stride]}, true
}

// Find performs a random access: the unfairness value list i records for
// key. ok is false when key is not a member of the family.
func (f *family) Find(i int, key string) (float64, bool) {
	id, ok := f.ids[key]
	if !ok {
		return 0, false
	}
	return f.cube[int(f.bases[i])+int(id)*f.stride], true
}

// sortLists sorts every list of the family from the cube into order.
func (f *family) sortLists() {
	n := len(f.keys)
	f.order = make([]int32, 0, len(f.bases)*n)
	ps := make([]Posting, n)
	for _, base := range f.bases {
		for m := range ps {
			ps[m] = Posting{int32(m), f.cube[int(base)+m*f.stride]}
		}
		SortPostings(ps)
		for _, p := range ps {
			f.order = append(f.order, p.ID)
		}
	}
}

// number maps each key to its position in keys.
func number(keys []string) map[string]int32 {
	ids := make(map[string]int32, len(keys))
	for i, k := range keys {
		ids[k] = int32(i)
	}
	return ids
}

// Posting is one list member while its list is being sorted: its member
// id, a position in the list's sorted member dictionary, and its value.
type Posting struct {
	ID    int32
	Value float64
}

// canonical is the posting-list order: descending value, ties broken by
// ascending member id, which is ascending key.
func canonical(a, b Posting) int {
	if a.Value != b.Value {
		if a.Value > b.Value {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// insertionMax is the longest list SortPostings sorts by insertion. In a
// sweep of list lengths 8–512 with random values in ascending id order
// (go test -bench, 2-vCPU Xeon, go1.24.0), insertion beat
// slices.SortFunc up to 112 postings, tied it at 128 and lost from 144
// on; with 30% of the values tied at 0 it still won at 128.
const insertionMax = 128

// SortPostings sorts ps into the posting-list order: descending value,
// ties broken by ascending member id, which is ascending key when ids
// number a sorted dictionary. A list of up to insertionMax postings is
// insertion-sorted with the comparison written inline, which saves
// slices.SortFunc's call through canonical per comparison; a longer one
// goes to slices.SortFunc, so the worst case stays O(n log n). canonical
// is a total order on postings of distinct ids and values other than
// NaN, which no measure yields, so both sorts give one order. It
// allocates nothing.
func SortPostings(ps []Posting) {
	if len(ps) > insertionMax {
		slices.SortFunc(ps, canonical)
		return
	}
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i
		for ; j > 0; j-- {
			q := ps[j-1]
			if q.Value > p.Value || q.Value == p.Value && q.ID < p.ID {
				break
			}
			ps[j] = q
		}
		ps[j] = p
	}
}

// listOf returns the number of list (a, b) in a family whose lists run
// a-major over the sorted dimensions as and bs, and false when either is
// not a member.
func listOf[A, B cmp.Ordered](as []A, a A, bs []B, b B) (int, bool) {
	i, okA := slices.BinarySearch(as, a)
	j, okB := slices.BinarySearch(bs, b)
	if !okA || !okB {
		return 0, false
	}
	return i*len(bs) + j, true
}

// GroupIndex holds one inverted list of groups per (query, location) pair:
// the I(q,l) family, list (q, l) at qi·|L| + li. Its members are group
// keys.
type GroupIndex struct {
	family
	// Dimension metadata, sorted, shared by consumers.
	GroupKeys []string
	Queries   []core.Query
	Locations []core.Location
	groups    []core.Group // by member id
}

// QueryIndex holds one inverted list of queries per (group, location)
// pair: the I(g,l) family, list (g, l) at gi·|L| + li.
type QueryIndex struct {
	family
	GroupKeys []string
	Queries   []core.Query
	Locations []core.Location
}

// LocationIndex holds one inverted list of locations per (group, query)
// pair: the I(g,q) family, list (g, q) at gi·|Q| + qi.
type LocationIndex struct {
	family
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
// completion invariant. A table that is not sealed is sealed once here,
// and of that copy the families keep only the cube. Each family's lists
// are sorted from the cube on a goroutine of its own. The families share
// the cube, the sorted dimensions and, per dimension, the member
// dictionary that numbers the members of the family over it.
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

	// The families keep cube positions as int32, 4 bytes a list.
	if len(cube) > math.MaxInt32 {
		panic(fmt.Sprintf("index: a table of %d cells is past the %d an index holds", len(cube), math.MaxInt32))
	}

	// Each selected family's lists run a-major over na × nb, list (a, b)
	// starting at a·sa + b·sb in the cube; sort them into f.order.
	var sorts []func()
	add := func(f *family, keys []string, stride, na, sa, nb, sb int) {
		bases := make([]int32, 0, na*nb)
		for a := 0; a < na; a++ {
			for b := 0; b < nb; b++ {
				bases = append(bases, int32(a*sa+b*sb))
			}
		}
		*f = family{keys: keys, ids: number(keys), cube: cube, bases: bases, stride: stride}
		sorts = append(sorts, f.sortLists)
	}
	if group {
		gi = &GroupIndex{GroupKeys: gks, Queries: qs, Locations: ls, groups: groups}
		add(&gi.family, gks, 1, nq, sq, nl, sl)
	}
	if query {
		qi = &QueryIndex{GroupKeys: gks, Queries: qs, Locations: ls}
		add(&qi.family, strs(qs), sq, ng, 1, nl, sl)
	}
	if location {
		li = &LocationIndex{GroupKeys: gks, Queries: qs, Locations: ls}
		add(&li.family, strs(ls), sl, ng, 1, nq, sq)
	}
	core.RunIndexed(len(sorts), len(sorts), func(i int) { sorts[i]() })
	return gi, qi, li
}

// BuildGroupIndex builds the I(q,l) family from an unfairness table.
func BuildGroupIndex(t *core.Table) *GroupIndex {
	gi, _, _ := build(t, true, false, false)
	return gi
}

// ListOf returns the number of the list of groups for (q, l), and false
// when the pair was not indexed.
func (gi *GroupIndex) ListOf(q core.Query, l core.Location) (int, bool) {
	return listOf(gi.Queries, q, gi.Locations, l)
}

// Group resolves a group key to the core.Group recorded in the source
// table.
func (gi *GroupIndex) Group(key string) (core.Group, bool) {
	id, ok := gi.ids[key]
	if !ok {
		return core.Group{}, false
	}
	return gi.groups[id], true
}

// BuildQueryIndex builds the I(g,l) family from an unfairness table.
func BuildQueryIndex(t *core.Table) *QueryIndex {
	_, qi, _ := build(t, false, true, false)
	return qi
}

// ListOf returns the number of the list of queries for (g, l), and false
// when the pair was not indexed.
func (qi *QueryIndex) ListOf(g string, l core.Location) (int, bool) {
	return listOf(qi.GroupKeys, g, qi.Locations, l)
}

// BuildLocationIndex builds the I(g,q) family from an unfairness table.
func BuildLocationIndex(t *core.Table) *LocationIndex {
	_, _, li := build(t, false, false, true)
	return li
}

// ListOf returns the number of the list of locations for (g, q), and
// false when the pair was not indexed.
func (li *LocationIndex) ListOf(g string, q core.Query) (int, bool) {
	return listOf(li.GroupKeys, g, li.Queries, q)
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
