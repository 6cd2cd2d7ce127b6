package cluster

import (
	"context"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/topk"
)

// cellStore adapts the cells gathered from partitions into a
// compare.CellSource: Problem 2 comparisons run the exact single-table
// math over it, because the union of the partitions' defined cells IS
// the single table's defined cells.
type cellStore struct {
	uni   *Universe
	cells map[core.Triple]float64
}

func newCellStore(uni *Universe, gathered []Cell) *cellStore {
	cs := &cellStore{uni: uni, cells: make(map[core.Triple]float64, len(gathered))}
	for _, c := range gathered {
		cs.cells[core.Triple{GroupKey: c.G, Query: c.Q, Location: c.L}] = c.V
	}
	return cs
}

func (cs *cellStore) Dims() ([]string, []core.Query, []core.Location) {
	return cs.uni.GroupKeys, cs.uni.Queries, cs.uni.Locations
}

func (cs *cellStore) Cell(g string, q core.Query, l core.Location) (float64, bool) {
	v, ok := cs.cells[core.Triple{GroupKey: g, Query: q, Location: l}]
	return v, ok
}

// geom is the coordinator's precomputed geometry for one list family:
// how many global lists the family has, how long each merged list is,
// and which partitions hold fragments of each list. It depends only on
// the sealed universe and the partition count, so it is computed once.
type geom struct {
	numLists, listLen int
	frags             [][]fragInfo
}

// fragInfo names one partition's fragment of a merged list: which
// partition, and how many entries its fragment holds (known up front
// from the routing function, which is what lets the merge stop asking a
// partition that is exhausted without a sentinel round-trip).
type fragInfo struct {
	p, n int
}

// buildGeoms derives the three families' geometry from the universe and
// routing. Mirrors the fragment construction in Node.buildFragments:
// the group family's lists are single-owner (the pair's owner holds all
// |G| members), the query/location families' lists are split across the
// partitions owning the member's pair.
func buildGeoms(uni *Universe, n int) map[compare.Dimension]*geom {
	G, Q, L := uni.counts()

	// owner[qi][li] memoizes the routing for both passes.
	owner := make([][]int, Q)
	for qi, q := range uni.Queries {
		owner[qi] = make([]int, L)
		for li, l := range uni.Locations {
			owner[qi][li] = Route(q, l, n)
		}
	}

	gGeom := &geom{numLists: Q * L, listLen: G, frags: make([][]fragInfo, Q*L)}
	for qi := 0; qi < Q; qi++ {
		for li := 0; li < L; li++ {
			gGeom.frags[qi*L+li] = []fragInfo{{p: owner[qi][li], n: G}}
		}
	}

	// Per-axis fragment sizes: how many queries each partition owns at a
	// given location, and how many locations at a given query.
	qGeom := &geom{numLists: G * L, listLen: Q, frags: make([][]fragInfo, G*L)}
	lGeom := &geom{numLists: G * Q, listLen: L, frags: make([][]fragInfo, G*Q)}
	for li := 0; li < L; li++ {
		counts := make([]int, n)
		for qi := 0; qi < Q; qi++ {
			counts[owner[qi][li]]++
		}
		var fis []fragInfo
		for p, c := range counts {
			if c > 0 {
				fis = append(fis, fragInfo{p: p, n: c})
			}
		}
		for gi := 0; gi < G; gi++ {
			qGeom.frags[gi*L+li] = fis
		}
	}
	for qi := 0; qi < Q; qi++ {
		counts := make([]int, n)
		for li := 0; li < L; li++ {
			counts[owner[qi][li]]++
		}
		var fis []fragInfo
		for p, c := range counts {
			if c > 0 {
				fis = append(fis, fragInfo{p: p, n: c})
			}
		}
		for gi := 0; gi < G; gi++ {
			lGeom.frags[gi*Q+qi] = fis
		}
	}

	return map[compare.Dimension]*geom{
		compare.ByGroup:    gGeom,
		compare.ByQuery:    qGeom,
		compare.ByLocation: lGeom,
	}
}

// fragState is the per-request scan cursor into one partition's
// fragment of one merged list.
type fragState struct {
	p         int           // partition
	remaining int           // entries not yet fetched
	pos       int           // next fetch offset in the fragment
	buf       []index.Entry // fetched but not yet merged
	failed    bool          // partition lost for this request
}

// mergedList is the lazily merged view of one global list: entries
// already merged in canonical order, plus the live fragment cursors.
type mergedList struct {
	entries []index.Entry
	frags   []fragState
	inited  bool
}

// scatterSource is the per-request topk.ListSource the coordinator's
// distributed TA runs over. Sorted access (At) streams blocks from each
// partition's fragment and k-way merges them in the canonical entry
// order, so position p of merged list i is byte-identical to position p
// of the single index's list i. Random access (Find) scatters one
// OpLookup per partition and caches the merged row. All methods run on
// the request goroutine — topk algorithms are sequential — so no locks.
//
// A fragment whose partition dies mid-scan is marked failed and the
// request's run context is canceled (via reqCtx.markDead); the topk run
// then unwinds with a context error and the coordinator degrades.
type scatterSource struct {
	rc   *reqCtx
	ctx  context.Context
	dim  compare.Dimension
	g    *geom
	rows map[string]map[int]float64
	list []mergedList
}

func newScatterSource(ctx context.Context, rc *reqCtx, dim compare.Dimension, g *geom) *scatterSource {
	return &scatterSource{
		rc:   rc,
		ctx:  ctx,
		dim:  dim,
		g:    g,
		rows: make(map[string]map[int]float64),
		list: make([]mergedList, g.numLists),
	}
}

func (s *scatterSource) NumLists() int { return s.g.numLists }
func (s *scatterSource) ListLen() int  { return s.g.listLen }

func (s *scatterSource) At(i, pos int) (index.Entry, bool) {
	if i < 0 || i >= len(s.list) || pos < 0 || pos >= s.g.listLen {
		return index.Entry{}, false
	}
	ml := &s.list[i]
	if !ml.inited {
		for _, fi := range s.g.frags[i] {
			ml.frags = append(ml.frags, fragState{p: fi.p, remaining: fi.n})
		}
		ml.inited = true
	}
	for len(ml.entries) <= pos {
		if !s.mergeOne(i, ml) {
			return index.Entry{}, false
		}
	}
	return ml.entries[pos], true
}

// mergeOne advances merged list i by one entry: refill any empty
// fragment buffers, then pop the minimum head in canonical order.
// Returns false when every live fragment is exhausted.
func (s *scatterSource) mergeOne(i int, ml *mergedList) bool {
	best := -1
	for fi := range ml.frags {
		f := &ml.frags[fi]
		if f.failed {
			continue
		}
		if len(f.buf) == 0 && f.remaining > 0 {
			reply, err := s.rc.call(s.ctx, f.p, Call{
				Op:    OpScan,
				Dim:   s.dim,
				List:  i,
				Start: f.pos,
				Count: min(f.remaining, scanBlock),
			})
			if err != nil {
				f.failed = true
				continue
			}
			f.buf = reply.Entries
			f.pos += len(reply.Entries)
			f.remaining -= len(reply.Entries)
			if len(f.buf) == 0 {
				f.remaining = 0 // defensive: shorter fragment than geometry
				continue
			}
		}
		if len(f.buf) == 0 {
			continue
		}
		if best < 0 || topk.LessEntries(f.buf[0], ml.frags[best].buf[0]) {
			best = fi
		}
	}
	if best < 0 {
		return false
	}
	f := &ml.frags[best]
	ml.entries = append(ml.entries, f.buf[0])
	f.buf = f.buf[1:]
	return true
}

// Find merges the key's row across partitions on first access and
// caches it: one scatter answers every subsequent random access for the
// key, which is exactly the access pattern TA's random-access phase
// generates.
func (s *scatterSource) Find(i int, key string) (float64, bool) {
	row, ok := s.rows[key]
	if !ok {
		row = make(map[int]float64)
		for p := 0; p < s.rc.n; p++ {
			reply, err := s.rc.call(s.ctx, p, Call{Op: OpLookup, Dim: s.dim, Key: key})
			if err != nil {
				continue // markDead already canceled the run
			}
			for _, lv := range reply.Row {
				row[lv.List] = lv.Value
			}
		}
		s.rows[key] = row
	}
	v, ok := row[i]
	return v, ok
}
