// Package cluster partitions the unfairness table by (query, location)
// across N engine instances and serves Problems 1–3 through a
// scatter-gather Coordinator: distributed TA over per-partition sorted
// access for quantify, a gathered cell store for compare, and
// owner-routing for page-local mitigate. The robustness machinery is
// the point — per-leg deadline budgets carved from the request
// deadline, deterministic-jitter hedging against slow partitions,
// backoff retries for transient leg errors, generation pins for
// all-or-nothing snapshot consistency, and graceful degradation to a
// typed partial result when a partition is gone. The Transport boundary
// is simulated-RPC today (in-process function calls); a later network
// split is a transport swap, not a rewrite.
package cluster

import (
	"hash/fnv"

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
	// gid, qid and lid give each member's position in its sorted
	// dimension: the universe id list ids are derived from.
	gid map[string]int
	qid map[core.Query]int
	lid map[core.Location]int
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
	u.gid, u.qid, u.lid = positions(u.GroupKeys), positions(u.Queries), positions(u.Locations)
	return u
}

// positions maps each member of a sorted dimension to its position.
func positions[K comparable](members []K) map[K]int {
	m := make(map[K]int, len(members))
	for i, k := range members {
		m[k] = i
	}
	return m
}

// Group resolves a canonical group key recorded in the universe.
func (u *Universe) Group(key string) (core.Group, bool) {
	g, ok := u.groups[key]
	return g, ok
}

// counts returns the universe's member count per dimension: groups (the
// I(q,l) family's members), queries (I(g,l)'s) and locations (I(g,q)'s).
func (u *Universe) counts() (g, q, l int) {
	return len(u.GroupKeys), len(u.Queries), len(u.Locations)
}

// SplitTable partitions tbl's cells by (query, location) ownership into
// n sub-tables. Every defined cell lands on exactly one partition —
// Route(q, l, n) — so the union of the sub-tables is the original
// table, the invariant behind coordinator≡single-engine equivalence.
// Each page is routed once, and each cell is set by the group key tbl
// already holds.
func SplitTable(tbl *core.Table, n int) []*core.Table {
	subs := make([]*core.Table, n)
	for p := range subs {
		subs[p] = core.NewTableSized(tbl.Len()/n, 0, 0, 0)
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
