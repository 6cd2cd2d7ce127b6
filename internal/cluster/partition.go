// Package cluster partitions the unfairness table by (query, location)
// across N engine instances and serves Problems 1–3 through a
// scatter-gather Coordinator: distributed TA over per-partition sorted
// access for quantify, where each node sorts a list fragment from the
// one array of cells it owns when a scan asks for it, one table gathered
// from every partition's cells for compare, and owner-routing for
// page-local mitigate. The robustness machinery is the point — per-leg
// deadline budgets carved from the request deadline,
// deterministic-jitter hedging against slow partitions, backoff retries
// for transient leg errors, generation pins for all-or-nothing snapshot
// consistency, and graceful degradation to a typed partial result when
// a partition is gone. The Transport boundary is simulated-RPC today
// (in-process function calls); a later network split is a transport
// swap, not a rewrite.
package cluster

import (
	"hash/fnv"

	"fairjob/internal/compare"
	"fairjob/internal/core"
)

// Route returns the partition owning the (q, l) pair, by rendezvous
// (highest-random-weight) hashing: each partition scores the pair with
// an independent hash and the highest score wins. Routing is a pure
// function of the pair and the partition count — every node and the
// coordinator agree without coordination — and changing n by one moves
// only ~1/n of the pairs, which is what makes a later resize an
// incremental migration rather than a full reshuffle.
func Route(q core.Query, l core.Location, n int) int {
	if n <= 1 {
		return 0
	}
	best, bestScore := 0, uint64(0)
	var buf [20]byte
	for p := 0; p < n; p++ {
		h := fnv.New64a()
		h.Write([]byte(q))
		h.Write([]byte{0x1f})
		h.Write([]byte(l))
		h.Write([]byte{0x1f})
		b := buf[:0]
		for v := p; ; v /= 10 {
			b = append(b, byte('0'+v%10))
			if v < 10 {
				break
			}
		}
		h.Write(b)
		if s := h.Sum64(); s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// Universe is the full table's dimension metadata, shared by every node
// and the coordinator. Partitioning splits the CELLS by (query,
// location) ownership, but the dimensions stay global: a partition's
// list fragments are completed against the universe (a group defined
// only on another partition's pairs still appears, at value 0, in this
// partition's fragments), which is what preserves the index completion
// invariant the Fagin algorithms rely on. The universe is sealed at
// cluster construction; refreshes may change cell values but not
// dimension membership.
type Universe struct {
	// GroupKeys, Queries and Locations are the sorted dimensions, in
	// exactly the order the index families iterate them — list ids are
	// derived from positions in these slices.
	GroupKeys []string
	Queries   []core.Query
	Locations []core.Location

	groups map[string]core.Group
	// keys and ids hold each dimension, indexed by compare.Dimension: its
	// sorted member keys, and each key's position among them, the
	// universe id list ids are derived from.
	keys [3][]string
	ids  [3]map[string]int
}

// NewUniverse freezes tbl's dimension metadata.
func NewUniverse(tbl *core.Table) *Universe {
	u := &Universe{
		Queries:   tbl.Queries(),
		Locations: tbl.Locations(),
		groups:    make(map[string]core.Group),
	}
	for _, g := range tbl.Groups() {
		key := g.Key()
		u.GroupKeys = append(u.GroupKeys, key)
		u.groups[key] = g
	}
	u.keys = [3][]string{u.GroupKeys, strs(u.Queries), strs(u.Locations)}
	for dim, keys := range u.keys {
		u.ids[dim] = make(map[string]int, len(keys))
		for i, k := range keys {
			u.ids[dim][k] = i
		}
	}
	return u
}

// strs converts a sorted dimension to its member keys.
func strs[T ~string](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = string(x)
	}
	return out
}

// counts returns the universe's member count per dimension: groups (the
// I(q,l) family's members), queries (I(g,l)'s) and locations (I(g,q)'s).
func (u *Universe) counts() (g, q, l int) {
	return len(u.GroupKeys), len(u.Queries), len(u.Locations)
}

// family returns the shape of the list family dim selects: its number of
// lists and their members' count, and false for a dimension that selects
// none.
func (u *Universe) family(dim compare.Dimension) (lists, members int, ok bool) {
	G, Q, L := u.counts()
	switch dim {
	case compare.ByGroup:
		return Q * L, G, true
	case compare.ByQuery:
		return G * L, Q, true
	case compare.ByLocation:
		return G * Q, L, true
	}
	return 0, 0, false
}

// cell locates member m of list i of the family dim selects: the cell's
// (query, location) pair, at qi·|L| + li, and its group.
func (u *Universe) cell(dim compare.Dimension, i, m int) (pair, g int) {
	_, Q, L := u.counts()
	switch dim {
	case compare.ByGroup: // list qi·|L| + li
		return i, m
	case compare.ByQuery: // list gi·|L| + li
		return m*L + i%L, i / L
	default: // list gi·|Q| + qi
		return i%Q*L + m, i / Q
	}
}

// owners routes every pair of the universe once: the partition owning
// (Queries[qi], Locations[li]) at n partitions is at qi·|L| + li. The
// nodes' owned pairs and the coordinator's list geometry read it.
func (u *Universe) owners(n int) []int32 {
	owner := make([]int32, 0, len(u.Queries)*len(u.Locations))
	for _, q := range u.Queries {
		for _, l := range u.Locations {
			owner = append(owner, int32(Route(q, l, n)))
		}
	}
	return owner
}

// SplitTable partitions tbl's cells by (query, location) ownership into
// n sub-tables. Every defined cell lands on exactly one partition —
// Route(q, l, n) — so the union of the sub-tables is the original
// table, the invariant behind coordinator≡single-engine equivalence.
// Each page is routed once, and each cell is set by the group key tbl
// already holds. Every sub-table is presized with tbl's member counts,
// so its rows are as wide as tbl's groups from the start.
func SplitTable(tbl *core.Table, n int) []*core.Table {
	subs := make([]*core.Table, n)
	gs, qs, ls := len(tbl.Groups()), len(tbl.Queries()), len(tbl.Locations())
	for p := range subs {
		subs[p] = core.NewTableSized(tbl.Len()/n, gs, qs, ls)
	}
	owner := make(map[page]int)
	tbl.Range(func(tr core.Triple, v float64) {
		pg := page{tr.Query, tr.Location}
		p, ok := owner[pg]
		if !ok {
			p = Route(tr.Query, tr.Location, n)
			owner[pg] = p
		}
		g, _ := tbl.GroupByKey(tr.GroupKey) // every cell's group is recorded
		subs[p].SetKey(tr.GroupKey, g, tr.Query, tr.Location, v)
	})
	return subs
}

// tableOf fills one table with the cells of OpCells replies: the inverse
// of SplitTable, for the coordinator's compare and its degraded engine.
// The table is presized for every cell of the universe, so no fill
// regrows it, and each cell is set by the group key it carries and the
// universe's Group for that key, so no key is built per cell.
func (u *Universe) tableOf(replies [][]Cell) *core.Table {
	G, Q, L := u.counts()
	tbl := core.NewTableSized(G*Q*L, G, Q, L)
	for _, cells := range replies {
		for _, c := range cells {
			if g, ok := u.groups[c.G]; ok { // always: the universe is sealed
				tbl.SetKey(c.G, g, c.Q, c.L, c.V)
			}
		}
	}
	return tbl
}

// page is one (query, location) pair: a result page and the cells
// evaluated from it.
type page struct {
	q core.Query
	l core.Location
}

// SplitRankings partitions marketplace pages by the same (query,
// location) routing as the cells, so the node owning a page's cells
// also serves its mitigate requests.
func SplitRankings(rankings []*core.MarketplaceRanking, n int) [][]*core.MarketplaceRanking {
	subs := make([][]*core.MarketplaceRanking, n)
	for _, r := range rankings {
		if r == nil {
			continue
		}
		p := Route(r.Query, r.Location, n)
		subs[p] = append(subs[p], r)
	}
	return subs
}
