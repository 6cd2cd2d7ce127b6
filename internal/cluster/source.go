package cluster

import (
	"context"

	"fairjob/internal/compare"
	"fairjob/internal/index"
	"fairjob/internal/topk"
)

// geom is the coordinator's precomputed geometry for one list family:
// how many global lists the family has, how long each merged list is,
// and which partitions hold fragments of each list. It depends only on
// the sealed universe and the partition count, so it is computed once.
type geom struct {
	numLists, listLen int
	// owner is set for the group family, whose list i is pair i's and
	// lies whole on the pair's owner: its fragments are frags[owner[i]].
	// A query or location family's fragments follow the list's location
	// or query: list i's are frags[i mod len(frags)].
	owner []int32
	frags [][]fragInfo
	// cursors is the number of fragments of all the lists together.
	cursors int
}

// fragments returns list i's fragments.
func (g *geom) fragments(i int) []fragInfo {
	if g.owner != nil {
		return g.frags[g.owner[i]]
	}
	return g.frags[i%len(g.frags)]
}

// fragInfo names one partition's fragment of a merged list: which
// partition, and how many entries its fragment holds (known up front
// from the routing function, which is what lets the merge stop asking a
// partition that is exhausted without a sentinel round-trip).
type fragInfo struct {
	p, n int
}

// buildGeoms derives the three families' geometry from the universe and
// owner, the partition of every universe pair at qi·|L| + li (see
// Universe.owners), mirroring what a node scans (see Node.scan): a
// group-family list is single-owner (the pair's owner holds all |G|
// members), and a query- or location-family list is split across the
// partitions owning its members' pairs.
func buildGeoms(uni *Universe, owner []int32, n int) map[compare.Dimension]*geom {
	G, Q, L := uni.counts()
	whole := make([][]fragInfo, n)
	for p := range whole {
		whole[p] = []fragInfo{{p: p, n: G}}
	}
	// split counts, for each a of na, the members b of nb each partition
	// owns the pair of, and returns the fragments per a and their total.
	split := func(na, nb int, pair func(a, b int) int) ([][]fragInfo, int) {
		frags, total := make([][]fragInfo, na), 0
		counts := make([]int, n)
		for a := range frags {
			clear(counts)
			for b := 0; b < nb; b++ {
				counts[owner[pair(a, b)]]++
			}
			for p, c := range counts {
				if c > 0 {
					frags[a] = append(frags[a], fragInfo{p: p, n: c})
				}
			}
			total += len(frags[a])
		}
		return frags, total
	}
	atLoc, byLoc := split(L, Q, func(li, qi int) int { return qi*L + li })
	atQuery, byQuery := split(Q, L, func(qi, li int) int { return qi*L + li })
	return map[compare.Dimension]*geom{
		compare.ByGroup:    {numLists: Q * L, listLen: G, owner: owner, frags: whole, cursors: Q * L},
		compare.ByQuery:    {numLists: G * L, listLen: Q, frags: atLoc, cursors: G * byLoc},
		compare.ByLocation: {numLists: G * Q, listLen: L, frags: atQuery, cursors: G * byQuery},
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
	// entries and cursors are the request's two slabs, sized from the
	// geometry: merged list i fills entries[i·listLen, (i+1)·listLen),
	// and takes its fragments' cursors off the front of cursors on its
	// first access.
	entries []index.Entry
	cursors []fragState
}

func newScatterSource(ctx context.Context, rc *reqCtx, dim compare.Dimension, g *geom) *scatterSource {
	return &scatterSource{
		rc:      rc,
		ctx:     ctx,
		dim:     dim,
		g:       g,
		rows:    make(map[string]map[int]float64),
		list:    make([]mergedList, g.numLists),
		entries: make([]index.Entry, g.numLists*g.listLen),
		cursors: make([]fragState, g.cursors),
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
		fis := s.g.fragments(i)
		ml.frags, s.cursors = s.cursors[:len(fis):len(fis)], s.cursors[len(fis):]
		for k, fi := range fis {
			ml.frags[k] = fragState{p: fi.p, remaining: fi.n}
		}
		at := i * s.g.listLen
		ml.entries = s.entries[at:at:(at + s.g.listLen)]
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
