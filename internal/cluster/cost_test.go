package cluster_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/mitigate"
	"fairjob/internal/serve"
	"fairjob/internal/testutil"
	"fairjob/internal/topk"
)

// wireCount is a cluster.Transport that forwards to a coordinator's own
// nodes and counts what one request sends, the way the benchmark counts
// it: a call is keyed by what it asks for (a scan by its block, a lookup
// by its key, cells and serve once per partition), so it is counted once
// and not again for a hedge duplicate or a retry of it, and its entries
// are taken from its first successful reply. So the counts do not move
// with the hedge timers.
type wireCount struct {
	inner cluster.Transport

	mu       sync.Mutex
	sent     map[wireCall]bool
	answered map[wireCall]bool
	ops      map[cluster.Op]int
	entries  int
	// off makes Send forward without counting, so an allocation count
	// reads the coordinator alone.
	off atomic.Bool
}

// wireCall is one call of a request: within a request the coordinator
// sends a call to a partition once, unless it hedges or retries it.
type wireCall struct {
	p                  int
	op                 cluster.Op
	gen                uint64
	dim                compare.Dimension
	list, start, count int
	key                string
}

// countedCoordinator builds an n-partition coordinator over tbl and the
// marketplace pages, node caches off, whose transport is a wireCount
// over its own nodes.
func countedCoordinator(tbl *core.Table, pages []*core.MarketplaceRanking, n int) (*cluster.Coordinator, *wireCount) {
	w := &wireCount{}
	c := cluster.NewWithRankings(tbl, nil, pages, cluster.Options{Partitions: n, NodeCacheSize: -1, Transport: w})
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
	w.sent, w.answered, w.ops, w.entries = map[wireCall]bool{}, map[wireCall]bool{}, map[cluster.Op]int{}, 0
}

func (w *wireCount) Send(ctx context.Context, p int, call cluster.Call) (cluster.Reply, error) {
	if w.off.Load() {
		return w.inner.Send(ctx, p, call)
	}
	k := wireCall{p, call.Op, call.PinGen, call.Dim, call.List, call.Start, call.Count, call.Key}
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
		w.entries += len(reply.Entries) + len(reply.Row) + len(reply.Cells)
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
	one, wire1 := countedCoordinator(tbl, nil, 1)
	four, wire4 := countedCoordinator(tbl, nil, 4)
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
				if path.n == 4 && w.entries != tbl.Len() {
					t.Errorf("%s, %s at 4 partitions: the OpCells replies carry %d cells, want %d", name, semantics, w.entries, tbl.Len())
				}
			}

			cellsCalls, cells := wire4.ops[cluster.OpCells], wire4.entries
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

// quantifyCost is what one Problem 1 request costs: its Response.Stats,
// which every serving path reports alike, the scans and lookups a
// four-partition coordinator sends and the entries their replies carry,
// and its allocations per request on the engine and on the coordinator
// at one and four partitions.
type quantifyCost struct {
	sorted, random, rounds  int
	scans, lookups, entries int
	allocs                  [3]float64
}

// TestQuantifyCostByShape pins what a Problem 1 request costs on every
// serving path, on the table of TestCompareCostByShape (the benchmark
// crawl's shape, 11 groups × 96 queries × 56 locations, about 5% of the
// cells undefined) with caches off. The shapes are every dimension,
// algorithm and direction at k = 3, and the group quantify restricted to
// four candidates under every algorithm. Per shape:
//
//   - Response.Stats is pinned, and the engine and the coordinator at one
//     and four partitions return the same results and the same Stats;
//   - at one partition the coordinator sends one OpServe and nothing
//     else; at four it sends only OpScan and OpLookup, and the calls of
//     each and the entries their replies carry are pinned;
//   - outside the race detector, the allocations per request on each
//     path stay under a ceiling at the reading the pins were taken at
//     (allocCeiling).
//
// Each mitigator's request, on the paper's page, is pinned the same way:
// the same answer on the engine and at four partitions, where it is one
// OpServe to the page's owner, and an allocation ceiling on each.
//
// A count here may only fall, or rise with its reason written down. Run
// with -v to print the table.
func TestQuantifyCostByShape(t *testing.T) {
	tbl := crawlShaped()
	pages := []*core.MarketplaceRanking{clusterRanking()}
	gks := groupKeys(tbl)
	engine := serve.NewEngine(serve.NewSnapshotWithRankings(tbl, nil, pages), serve.Options{Workers: 1, CacheSize: -1})
	one, wire1 := countedCoordinator(tbl, pages, 1)
	four, wire4 := countedCoordinator(tbl, pages, 4)
	measureAllocs := !testutil.RaceEnabled()
	// allocs returns the allocations of one request on each path, or
	// zeros under the race detector.
	allocs := func(req serve.Request) (a [3]float64) {
		if !measureAllocs {
			return a
		}
		for _, w := range []*wireCount{wire1, wire4} {
			w.off.Store(true)
			defer w.off.Store(false)
		}
		for i, do := range []func(serve.Request) serve.Response{engine.Do, one.Do, four.Do} {
			a[i] = testing.AllocsPerRun(3, func() { do(req) })
		}
		return a
	}
	checkAllocs := func(name string, got, read [3]float64) {
		t.Helper()
		if !measureAllocs {
			return
		}
		for i, path := range []string{"the engine", "1 partition", "4 partitions"} {
			if ceiling := allocCeiling(read[i]); got[i] > ceiling {
				t.Errorf("%s on %s: %.0f allocations per request, want at most %.0f (%.0f when pinned)", name, path, got[i], ceiling, read[i])
			}
		}
	}

	type shape struct {
		dim        compare.Dimension
		algo       topk.Algorithm
		dir        topk.Direction
		candidates []string
	}
	var shapes []shape
	for _, dim := range []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation} {
		for _, algo := range topk.Algorithms() {
			for _, dir := range []topk.Direction{topk.MostUnfair, topk.LeastUnfair} {
				shapes = append(shapes, shape{dim, algo, dir, nil})
			}
		}
	}
	for _, algo := range topk.Algorithms() {
		shapes = append(shapes, shape{compare.ByGroup, algo, topk.MostUnfair, gks[:4]})
	}

	t.Logf("%-36s %7s %7s %6s %8s %8s %8s %9s %9s %9s", "shape", "sorted", "random", "rounds", "p4 scan", "p4 look", "p4 ent", "allocs e", "allocs p1", "allocs p4")
	for _, sh := range shapes {
		req := serve.Request{Problem: serve.Quantify, Dim: sh.dim, K: 3, Direction: sh.dir, Algorithm: sh.algo, Candidates: sh.candidates}
		name := fmt.Sprintf("%v %v %v", sh.dim, sh.algo, sh.dir)
		if sh.candidates != nil {
			name += " candidates"
		}
		want, ok := quantifyCosts[name]
		if !ok {
			t.Errorf("%s: no pinned cost", name)
		}

		ref := engine.Do(req)
		if ref.Err != nil {
			t.Fatalf("%s: engine: %v", name, ref.Err)
		}
		if got := (topk.Stats{SortedAccesses: want.sorted, RandomAccesses: want.random, Rounds: want.rounds}); ref.Stats != got {
			t.Errorf("%s: engine Stats %+v, want %+v", name, ref.Stats, got)
		}
		for _, path := range []struct {
			n     int
			coord *cluster.Coordinator
			wire  *wireCount
		}{{1, one, wire1}, {4, four, wire4}} {
			path.wire.reset()
			got := path.coord.Do(req)
			if got.Err != nil {
				t.Fatalf("%s at %d partitions: %v", name, path.n, got.Err)
			}
			if g, w := fmt.Sprintf("%+v %+v", got.Results, got.Stats), fmt.Sprintf("%+v %+v", ref.Results, ref.Stats); g != w {
				t.Errorf("%s at %d partitions: answer differs from the engine's:\n got: %s\nwant: %s", name, path.n, g, w)
			}
		}
		if len(wire1.ops) != 1 || wire1.ops[cluster.OpServe] != 1 {
			t.Errorf("%s at 1 partition: sends %v, want one %v and no other op", name, wire1.ops, cluster.OpServe)
		}
		scans, lookups, stray := wire4.ops[cluster.OpScan], wire4.ops[cluster.OpLookup], 0
		for op, n := range wire4.ops {
			if op != cluster.OpScan && op != cluster.OpLookup {
				stray += n
			}
		}
		if stray > 0 || scans != want.scans || lookups != want.lookups || wire4.entries != want.entries {
			t.Errorf("%s at 4 partitions: sends %v carrying %d entries, want %d %v, %d %v and %d entries",
				name, wire4.ops, wire4.entries, want.scans, cluster.OpScan, want.lookups, cluster.OpLookup, want.entries)
		}
		a := allocs(req)
		checkAllocs(name, a, want.allocs)
		t.Logf("%-36s %7d %7d %6d %8d %8d %8d %9.0f %9.0f %9.0f", name, ref.Stats.SortedAccesses, ref.Stats.RandomAccesses, ref.Stats.Rounds, scans, lookups, wire4.entries, a[0], a[1], a[2])
	}

	base := serve.Request{Problem: serve.Mitigate, Group: "ethnicity=Asian&gender=Female", Query: "Home Cleaning", Location: "San Francisco, CA"}
	fair, greedy, exposure := base, base, base
	fair.Mitigator, fair.MinProportion, fair.Alpha = mitigate.FairTopK, 0.3, 0.25
	greedy.Mitigator = mitigate.DetGreedy
	exposure.Mitigator, exposure.SwapBudget = mitigate.ExposureParity, 10
	for _, req := range []serve.Request{fair, greedy, exposure} {
		name := fmt.Sprintf("mitigate %v", req.Mitigator)
		ref := engine.Do(req)
		if ref.Err != nil {
			t.Fatalf("%s: engine: %v", name, ref.Err)
		}
		wire4.reset()
		got := four.Do(req)
		if got.Err != nil {
			t.Fatalf("%s at 4 partitions: %v", name, got.Err)
		}
		if g, w := fmt.Sprintf("%+v", *got.Mitigation), fmt.Sprintf("%+v", *ref.Mitigation); g != w {
			t.Errorf("%s at 4 partitions: answer differs from the engine's:\n got: %s\nwant: %s", name, g, w)
		}
		if len(wire4.ops) != 1 || wire4.ops[cluster.OpServe] != 1 {
			t.Errorf("%s at 4 partitions: sends %v, want one %v to the page's owner and no other op", name, wire4.ops, cluster.OpServe)
		}
		a := allocs(req)
		checkAllocs(name, a, mitigateAllocs[req.Mitigator])
		t.Logf("%-36s %7s %7s %6s %8s %8s %8s %9.0f %9.0f %9.0f", name, "-", "-", "-", "-", "-", "-", a[0], a[1], a[2])
	}
}

// quantifyCosts holds TestQuantifyCostByShape's pins, by shape name:
// Stats, the four-partition wire counts, and the allocations per
// request read when the pins were taken, which allocCeiling turns into
// ceilings.
var quantifyCosts = map[string]quantifyCost{
	"group TA most-unfair":               {32256, 59125, 6, 5376, 44, 118272, [3]float64{13, 22, 16821}},
	"group TA least-unfair":              {32256, 59125, 6, 5376, 44, 118272, [3]float64{14, 25, 16823}},
	"group FA most-unfair":               {59136, 59136, 11, 5376, 44, 118272, [3]float64{13, 25, 16822}},
	"group FA least-unfair":              {59136, 59136, 11, 5376, 44, 118272, [3]float64{14, 26, 16822}},
	"group naive most-unfair":            {59136, 0, 11, 5376, 0, 59136, [3]float64{12, 24, 16156}},
	"group naive least-unfair":           {59136, 0, 11, 5376, 0, 59136, [3]float64{13, 25, 16157}},
	"group NRA most-unfair":              {59136, 0, 11, 5376, 0, 59136, [3]float64{25, 37, 16168}},
	"group NRA least-unfair":             {59136, 0, 11, 5376, 0, 59136, [3]float64{29, 41, 16173}},
	"query TA most-unfair":               {28336, 59040, 46, 2464, 384, 118272, [3]float64{19, 31, 10222}},
	"query TA least-unfair":              {28952, 59040, 47, 2464, 384, 118272, [3]float64{20, 32, 10223}},
	"query FA most-unfair":               {57904, 59136, 94, 2464, 384, 118272, [3]float64{19, 31, 10222}},
	"query FA least-unfair":              {59136, 59136, 96, 2464, 384, 118272, [3]float64{20, 32, 10222}},
	"query naive most-unfair":            {59136, 0, 96, 2464, 0, 59136, [3]float64{12, 24, 7420}},
	"query naive least-unfair":           {59136, 0, 96, 2464, 0, 59136, [3]float64{13, 25, 7420}},
	"query NRA most-unfair":              {59136, 0, 96, 2464, 0, 59136, [3]float64{122, 134, 7529}},
	"query NRA least-unfair":             {59136, 0, 96, 2464, 0, 59136, [3]float64{120, 132, 7527}},
	"location TA most-unfair":            {29568, 59080, 28, 4224, 224, 118272, [3]float64{17, 29, 14618}},
	"location TA least-unfair":           {29568, 59080, 28, 4224, 224, 118272, [3]float64{18, 30, 14619}},
	"location FA most-unfair":            {59136, 59136, 56, 4224, 224, 118272, [3]float64{17, 29, 14618}},
	"location FA least-unfair":           {59136, 59136, 56, 4224, 224, 118272, [3]float64{18, 30, 14619}},
	"location naive most-unfair":         {59136, 0, 56, 4224, 0, 59136, [3]float64{12, 24, 12700}},
	"location naive least-unfair":        {59136, 0, 56, 4224, 0, 59136, [3]float64{13, 25, 12700}},
	"location NRA most-unfair":           {59136, 0, 56, 4224, 0, 59136, [3]float64{74, 86, 12762}},
	"location NRA least-unfair":          {59136, 0, 56, 4224, 0, 59136, [3]float64{78, 90, 12765}},
	"group TA most-unfair candidates":    {16128, 21500, 3, 5376, 16, 80640, [3]float64{16142, 16154, 32528}},
	"group FA most-unfair candidates":    {21504, 21504, 4, 5376, 16, 80640, [3]float64{16142, 16154, 32527}},
	"group naive most-unfair candidates": {21504, 0, 4, 5376, 0, 59136, [3]float64{16142, 16154, 32286}},
	"group NRA most-unfair candidates":   {21504, 0, 4, 5376, 0, 59136, [3]float64{16147, 16159, 32290}},
}

// mitigateAllocs holds the allocations per request of each mitigator's
// request on the engine and at one and four partitions, read when the
// pins were taken.
var mitigateAllocs = map[mitigate.Kind][3]float64{
	mitigate.FairTopK:       {138, 149, 149},
	mitigate.DetGreedy:      {209, 220, 220},
	mitigate.ExposureParity: {131, 142, 142},
}

// allocCeiling is the most allocations per request a path may make
// against a reading of read. The engine's and one partition's counts
// repeat exactly; two more allow for a pool emptied by a collection.
// At four partitions about 1% of headroom covers the legs' hedge timers,
// which moved three runs' readings by up to 2 of 7k–33k.
func allocCeiling(read float64) float64 { return read*1.01 + 2 }
