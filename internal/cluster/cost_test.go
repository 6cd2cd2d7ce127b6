package cluster_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/testutil"
)

// wireCount is a cluster.Transport that forwards to a coordinator's own
// nodes and counts what one request sends, the way the benchmark counts
// it: a call to a partition is counted once per op, not again for a hedge
// duplicate or a retry of it, and its cells are taken from its first
// successful reply. So the counts do not move with the hedge timers.
type wireCount struct {
	inner cluster.Transport

	mu       sync.Mutex
	sent     map[wireCall]bool
	answered map[wireCall]bool
	ops      map[cluster.Op]int
	cells    int
}

// wireCall is one call of a request: within a request the coordinator
// sends each op to a partition once, unless it hedges or retries it.
type wireCall struct {
	p  int
	op cluster.Op
}

// countedCoordinator builds an n-partition coordinator over tbl, node
// caches off, whose transport is a wireCount over its own nodes.
func countedCoordinator(tbl *core.Table, n int) (*cluster.Coordinator, *wireCount) {
	w := &wireCount{}
	c := cluster.New(tbl, cluster.Options{Partitions: n, NodeCacheSize: -1, Transport: w})
	nodes := make([]*cluster.Node, n)
	for p := range nodes {
		nodes[p] = c.Node(p)
	}
	w.inner = cluster.NewLocalTransport(nodes)
	w.reset()
	return c, w
}

// reset starts a new request's count.
func (w *wireCount) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sent, w.answered, w.ops, w.cells = map[wireCall]bool{}, map[wireCall]bool{}, map[cluster.Op]int{}, 0
}

func (w *wireCount) Send(ctx context.Context, p int, call cluster.Call) (cluster.Reply, error) {
	k := wireCall{p, call.Op}
	w.mu.Lock()
	if !w.sent[k] {
		w.sent[k] = true
		w.ops[call.Op]++
	}
	w.mu.Unlock()
	reply, err := w.inner.Send(ctx, p, call)
	w.mu.Lock()
	if err == nil && !w.answered[k] {
		w.answered[k] = true
		w.cells += len(reply.Cells)
	}
	w.mu.Unlock()
	return reply, err
}

// TestCompareCostByShape pins what a Problem 2 request costs on every
// serving path, for every (of, by) pair under both semantics, on a
// seeded table of the benchmark crawl's shape (11 groups × 96 queries ×
// 56 locations, about 5% of the cells undefined) with caches off:
//
//   - Comparison.Accesses is its closed form, 2·(|side1| + |side2|) with
//     each side the scope with the compared axis pinned (4·|Q|·|L| for a
//     group compare, 4·|G|·|L| for a query compare, 4·|G|·|Q| for a
//     location compare), and the engine and the coordinator at one and
//     four partitions read the same count and the same answer;
//   - at four partitions the coordinator sends exactly one OpCells to
//     each partition and no other op, and the replies carry every defined
//     cell once; at one partition it sends one OpServe and nothing else;
//   - outside the race detector, a four-partition compare allocates at
//     most maxBytesPerCell bytes per defined cell: the replies themselves
//     (56 bytes a cell) plus the one table the coordinator reads them
//     into, about 66 in all. A map of the gathered cells, about 325,
//     fails it.
//
// Run with -v to print the table.
func TestCompareCostByShape(t *testing.T) {
	const maxBytesPerCell = 100
	tbl := crawlShaped()
	gks, qs, ls := groupKeys(tbl), tbl.Queries(), tbl.Locations()
	G, Q, L := len(gks), len(qs), len(ls)
	engine := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{Workers: 1, CacheSize: -1})
	one, wire1 := countedCoordinator(tbl, 1)
	four, wire4 := countedCoordinator(tbl, 4)
	measureBytes := !testutil.RaceEnabled()

	shapes := []struct {
		of, by   compare.Dimension
		r1, r2   string
		accesses int
	}{
		{compare.ByGroup, compare.ByQuery, gks[0], gks[1], 4 * Q * L},
		{compare.ByGroup, compare.ByLocation, gks[0], gks[1], 4 * Q * L},
		{compare.ByQuery, compare.ByGroup, string(qs[0]), string(qs[1]), 4 * G * L},
		{compare.ByQuery, compare.ByLocation, string(qs[0]), string(qs[1]), 4 * G * L},
		{compare.ByLocation, compare.ByGroup, string(ls[0]), string(ls[1]), 4 * G * Q},
		{compare.ByLocation, compare.ByQuery, string(ls[0]), string(ls[1]), 4 * G * Q},
	}
	t.Logf("%-20s %-12s %9s %11s %11s %13s", "shape", "semantics", "accesses", "p4 OpCells", "p4 cells", "p4 bytes/cell")
	for _, sh := range shapes {
		for _, definedOnly := range []bool{false, true} {
			req := serve.Request{Problem: serve.Compare, Of: sh.of, By: sh.by, R1: sh.r1, R2: sh.r2, DefinedOnly: definedOnly}
			name := fmt.Sprintf("%v by %v", sh.of, sh.by)
			semantics := "completion"
			if definedOnly {
				semantics = "defined-only"
			}

			want := engine.Do(req)
			if want.Err != nil {
				t.Fatalf("%s, %s: engine: %v", name, semantics, want.Err)
			}
			if got := want.Comparison.Accesses; got != sh.accesses {
				t.Errorf("%s, %s: engine reads %d cells, want %d", name, semantics, got, sh.accesses)
			}
			for _, path := range []struct {
				n     int
				op    cluster.Op // the only op the compare sends, once per partition
				coord *cluster.Coordinator
				wire  *wireCount
			}{{1, cluster.OpServe, one, wire1}, {4, cluster.OpCells, four, wire4}} {
				path.wire.reset()
				got := path.coord.Do(req)
				if got.Err != nil {
					t.Fatalf("%s, %s at %d partitions: %v", name, semantics, path.n, got.Err)
				}
				if g, w := fmt.Sprintf("%+v", *got.Comparison), fmt.Sprintf("%+v", *want.Comparison); g != w {
					t.Errorf("%s, %s at %d partitions: answer differs from the engine's:\n got: %s\nwant: %s", name, semantics, path.n, g, w)
				}
				w := path.wire
				if len(w.ops) != 1 || w.ops[path.op] != path.n {
					t.Errorf("%s, %s at %d partitions: sends %v, want %d %v and no other op", name, semantics, path.n, w.ops, path.n, path.op)
				}
				if path.n == 4 && w.cells != tbl.Len() {
					t.Errorf("%s, %s at 4 partitions: the OpCells replies carry %d cells, want %d", name, semantics, w.cells, tbl.Len())
				}
			}

			cellsCalls, cells := wire4.ops[cluster.OpCells], wire4.cells
			bytesPerCell := "-"
			if measureBytes {
				b := testutil.BytesPerRun(5, func() { four.Do(req) }) / float64(tbl.Len())
				bytesPerCell = fmt.Sprintf("%.1f", b)
				if b > maxBytesPerCell {
					t.Errorf("%s, %s at 4 partitions: allocates %.1f bytes per defined cell, want at most %d", name, semantics, b, maxBytesPerCell)
				}
			}
			t.Logf("%-20s %-12s %9d %11d %11d %13s", name, semantics, want.Comparison.Accesses, cellsCalls, cells, bytesPerCell)
		}
	}
}
