package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/mitigate"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// partitionCounts is the equivalence sweep: 1 exercises the single-leg
// fast path, 2–3 small splits, 5 and 8 exceed-the-dimensions splits
// where some partitions own few or oddly-shaped pair sets.
var partitionCounts = []int{1, 2, 3, 5, 8}

// clusterTable synthesizes the shared fixture table (same shape as the
// serve package's randomTable).
func clusterTable(rng *stats.RNG, ng, nq, nl int, missing float64) *core.Table {
	tbl := core.NewTable()
	for g := 0; g < ng; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%02d", g)})
		for q := 0; q < nq; q++ {
			for l := 0; l < nl; l++ {
				if rng.Float64() < missing {
					continue
				}
				tbl.Set(grp, core.Query(fmt.Sprintf("q%02d", q)), core.Location(fmt.Sprintf("l%02d", l)), rng.Float64())
			}
		}
	}
	return tbl
}

// clusterRanking is the paper's Tables 2–3 page, the Problem 3 fixture.
func clusterRanking() *core.MarketplaceRanking {
	type row struct {
		id, gender, eth string
		score           float64
	}
	rows := []row{
		{"w3", "Female", "White", 0.9}, {"w8", "Male", "Black", 0.8},
		{"w6", "Male", "Black", 0.7}, {"w2", "Male", "White", 0.6},
		{"w1", "Female", "Asian", 0.5}, {"w4", "Male", "Asian", 0.4},
		{"w7", "Female", "Black", 0.3}, {"w5", "Female", "Black", 0.2},
		{"w9", "Male", "White", 0.1}, {"w10", "Female", "White", 0.0},
	}
	r := &core.MarketplaceRanking{Query: "Home Cleaning", Location: "San Francisco, CA"}
	for i, x := range rows {
		r.Workers = append(r.Workers, core.RankedWorker{
			ID:    x.id,
			Attrs: core.Assignment{"gender": x.gender, "ethnicity": x.eth},
			Rank:  i + 1,
			Score: x.score,
		})
	}
	return r
}

// fingerprint reduces a response to a deterministic byte string over
// every answer-bearing field. Gen is excluded on purpose: snapshot
// generations are process-unique, so a coordinator's partitions and a
// standalone engine legitimately disagree on them while agreeing on
// every answer byte.
func fingerprint(r serve.Response) string {
	errMsg := ""
	if r.Err != nil {
		errMsg = r.Err.Error()
	}
	mit := ""
	if r.Mitigation != nil {
		mit = fmt.Sprintf("%+v", *r.Mitigation)
	}
	return fmt.Sprintf("results=%+v stats=%+v cmp=%+v mit=%s err=%q", r.Results, r.Stats, r.Comparison, mit, errMsg)
}

// clusterBattery is the mixed Problem 1/2/3 workload: every dimension,
// algorithm, direction and comparison semantics, a candidate-restricted
// quantify, and the three mitigators on the paper page.
func clusterBattery(tbl *core.Table) []serve.Request {
	var reqs []serve.Request
	for _, dim := range []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation} {
		for _, algo := range topk.Algorithms() {
			for _, dir := range []topk.Direction{topk.MostUnfair, topk.LeastUnfair} {
				for _, k := range []int{1, 3} {
					reqs = append(reqs, serve.Request{
						Problem: serve.Quantify, Dim: dim, K: k, Direction: dir, Algorithm: algo,
					})
				}
			}
		}
	}
	var gks []string
	for _, g := range tbl.Groups() {
		gks = append(gks, g.Key())
	}
	qs, ls := tbl.Queries(), tbl.Locations()
	if len(gks) >= 3 {
		reqs = append(reqs, serve.Request{
			Problem: serve.Quantify, Dim: compare.ByGroup, K: 2,
			Algorithm: topk.TA, Candidates: gks[:3],
		})
	}
	if len(gks) >= 2 {
		for _, definedOnly := range []bool{false, true} {
			reqs = append(reqs,
				serve.Request{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByQuery, DefinedOnly: definedOnly},
				serve.Request{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByLocation, DefinedOnly: definedOnly},
			)
		}
	}
	if len(qs) >= 2 {
		reqs = append(reqs, serve.Request{Problem: serve.Compare, Of: compare.ByQuery, R1: string(qs[0]), R2: string(qs[1]), By: compare.ByGroup})
	}
	if len(ls) >= 2 {
		reqs = append(reqs, serve.Request{Problem: serve.Compare, Of: compare.ByLocation, R1: string(ls[0]), R2: string(ls[1]), By: compare.ByGroup})
	}
	// Operands the table does not hold: every path must fail with the
	// engine's error, not answer over cells that do not exist.
	for _, definedOnly := range []bool{false, true} {
		reqs = append(reqs,
			serve.Request{Problem: serve.Compare, Of: compare.ByQuery, R1: "nope", R2: string(qs[0]), By: compare.ByGroup, DefinedOnly: definedOnly},
			serve.Request{Problem: serve.Compare, Of: compare.ByLocation, R1: string(ls[0]), R2: "nowhere", By: compare.ByQuery, DefinedOnly: definedOnly},
		)
	}
	base := serve.Request{Problem: serve.Mitigate, Group: "ethnicity=Asian&gender=Female", Query: "Home Cleaning", Location: "San Francisco, CA"}
	fair, greedy, exposure := base, base, base
	fair.Mitigator, fair.MinProportion, fair.Alpha = mitigate.FairTopK, 0.3, 0.25
	greedy.Mitigator = mitigate.DetGreedy
	exposure.Mitigator, exposure.SwapBudget = mitigate.ExposureParity, 10
	reqs = append(reqs, fair, greedy, exposure)
	return reqs
}

// TestCoordinatorEquivalence is the core correctness gate: at every
// tested partition count, the coordinator's answer to every battery
// request is byte-identical (results, access-cost stats, comparisons,
// mitigations, error text) to a standalone engine over the unsplit
// table. Caches are disabled on both sides so every answer is a real
// computation.
func TestCoordinatorEquivalence(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(7), 6, 5, 4, 0.15)
	rankings := []*core.MarketplaceRanking{clusterRanking()}
	single := serve.NewEngine(
		serve.NewSnapshotWithRankings(tbl, nil, rankings),
		serve.Options{CacheSize: -1, Workers: 1},
	)
	reqs := clusterBattery(tbl)
	want := make([]string, len(reqs))
	for i, req := range reqs {
		want[i] = fingerprint(single.Do(req))
	}

	for _, n := range partitionCounts {
		t.Run(fmt.Sprintf("partitions=%d", n), func(t *testing.T) {
			coord := cluster.NewWithRankings(tbl, nil, rankings, cluster.Options{
				Partitions:    n,
				NodeCacheSize: -1,
			})
			for i, req := range reqs {
				if got := fingerprint(coord.Do(req)); got != want[i] {
					t.Errorf("request %d (%v) diverged at %d partitions:\n got: %s\nwant: %s",
						i, req.Problem, n, got, want[i])
				}
			}
		})
	}
}

// TestCoordinatorEquivalenceAfterRefresh refreshes every node with
// seeded edits to ~30% of its own cells, then demands the battery answer
// byte-identically to a fresh engine over the edited table. The first
// request after the refreshes holds a stale pin for every partition, so
// it exercises the re-pin path: the flipped attempt stops before it has
// met every stale pin, and the re-pinned attempt must still see only
// current generations.
func TestCoordinatorEquivalenceAfterRefresh(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(7), 6, 5, 4, 0.15)
	rankings := []*core.MarketplaceRanking{clusterRanking()}
	type edit struct {
		g core.Group
		q core.Query
		l core.Location
		v float64
	}
	for _, n := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("partitions=%d", n), func(t *testing.T) {
			coord := cluster.NewWithRankings(tbl, nil, rankings, cluster.Options{
				Partitions:    n,
				NodeCacheSize: -1,
			})
			rng := stats.NewRNG(uint64(100 + n))
			edited := tbl.Clone()
			own := make([][]edit, n)
			for _, g := range tbl.Groups() {
				for _, q := range tbl.Queries() {
					for _, l := range tbl.Locations() {
						if _, ok := tbl.Get(g, q, l); !ok || rng.Float64() >= 0.3 {
							continue
						}
						e := edit{g, q, l, rng.Float64()}
						edited.Set(e.g, e.q, e.l, e.v)
						p := cluster.Route(q, l, n)
						own[p] = append(own[p], e)
					}
				}
			}
			for p := 0; p < n; p++ {
				coord.Node(p).Refresh(func(sub *core.Table) {
					for _, e := range own[p] {
						sub.Set(e.g, e.q, e.l, e.v)
					}
				})
			}

			single := serve.NewEngine(
				serve.NewSnapshotWithRankings(edited, nil, rankings),
				serve.Options{CacheSize: -1, Workers: 1},
			)
			for i, req := range clusterBattery(edited) {
				if got, want := fingerprint(coord.Do(req)), fingerprint(single.Do(req)); got != want {
					t.Errorf("request %d (%v) diverged after refresh at %d partitions:\n got: %s\nwant: %s",
						i, req.Problem, n, got, want)
				}
			}
		})
	}
}

// TestCoordinatorPagesMatchEngine pins the coordinator's page inventory,
// which it reads off its nodes, to a snapshot's: at every partition count
// and over no pages, only nil pages, and pages whose (query, location)
// pairs repeat, Pages and HasRankings equal those of
// serve.NewSnapshotWithRankings over the same rankings.
func TestCoordinatorPagesMatchEngine(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(31), 3, 4, 4, 0)
	rng := stats.NewRNG(32)
	repeated := []*core.MarketplaceRanking{nil, clusterRanking()}
	for i := 0; i < 40; i++ {
		repeated = append(repeated, &core.MarketplaceRanking{
			Query:    core.Query(fmt.Sprintf("q%02d", rng.Intn(6))),
			Location: core.Location(fmt.Sprintf("l%02d", rng.Intn(5))),
		})
	}
	repeated = append(repeated, clusterRanking(), nil)
	for name, rankings := range map[string][]*core.MarketplaceRanking{
		"no pages":       nil,
		"nil pages":      {nil, nil},
		"repeated pairs": repeated,
	} {
		snap := serve.NewSnapshotWithRankings(tbl, nil, rankings)
		for _, n := range partitionCounts {
			c := cluster.NewWithRankings(tbl, nil, rankings, cluster.Options{Partitions: n, NodeCacheSize: -1})
			if got, want := c.HasRankings(), snap.HasRankings(); got != want {
				t.Errorf("%s, %d partitions: HasRankings = %v, want %v", name, n, got, want)
			}
			if got, want := c.Pages(), snap.Pages(); !slices.Equal(got, want) {
				t.Errorf("%s, %d partitions: Pages = %v, want %v", name, n, got, want)
			}
		}
	}
}

// TestMitigateOwnerDownFailsAtOnce: a mitigate is one OpServe to its
// page's owner, so it degrades only when the owner is lost, and no
// survivor holds the page. With the owner down, at one and four
// partitions, the answer must be a typed partial naming the owner alone,
// with the owner's failure as its cause, and the coordinator must gather
// no survivor's cells for it.
func TestMitigateOwnerDownFailsAtOnce(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(5), 4, 6, 5, 0.1)
	req := serve.Request{Problem: serve.Mitigate, Mitigator: mitigate.DetGreedy, Group: "ethnicity=Asian&gender=Female", Query: "Home Cleaning", Location: "San Francisco, CA"}
	for _, n := range []int{1, 4} {
		c, wire := countedCoordinator(tbl, []*core.MarketplaceRanking{clusterRanking()}, n)
		if resp := c.Do(req); resp.Err != nil {
			t.Fatalf("%d partitions, owner up: %v", n, resp.Err)
		}
		owner := cluster.Route(core.Query(req.Query), core.Location(req.Location), n)
		wire.inner = downTransport{wire.inner, owner}
		wire.reset()
		resp := c.Do(req)
		var pres *cluster.PartialResultError
		if !errors.As(resp.Err, &pres) {
			t.Fatalf("%d partitions, owner %d down: want a *PartialResultError, got %v", n, owner, resp.Err)
		}
		if !slices.Equal(pres.Missing, []int{owner}) || pres.Cause == nil {
			t.Errorf("%d partitions, owner %d down: Missing %v, Cause %v; want [%d] and the owner's failure", n, owner, pres.Missing, pres.Cause, owner)
		}
		if cells := wire.ops[cluster.OpCells]; cells != 0 {
			t.Errorf("%d partitions, owner %d down: sends %d %v to build a degraded engine that cannot hold the page", n, owner, cells, cluster.OpCells)
		}
	}
}

// downTransport forwards to inner, except that every send to partition
// down fails as a downed partition's does.
type downTransport struct {
	inner cluster.Transport
	down  int
}

func (t downTransport) Send(ctx context.Context, p int, call cluster.Call) (cluster.Reply, error) {
	if p == t.down {
		return cluster.Reply{}, fmt.Errorf("%w: partition %d down", cluster.ErrPartitionUnavailable, p)
	}
	return t.inner.Send(ctx, p, call)
}

// TestCoordinatorSplitCoversTable pins the partitioning invariant the
// equivalence rests on: every defined cell lands on exactly one
// partition, and the union of the sub-tables is the original table.
func TestCoordinatorSplitCoversTable(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(11), 5, 4, 3, 0.2)
	for _, n := range partitionCounts {
		subs := cluster.SplitTable(tbl, n)
		total := 0
		for _, sub := range subs {
			total += sub.Len()
		}
		if total != tbl.Len() {
			t.Fatalf("n=%d: sub-tables hold %d cells, original has %d", n, total, tbl.Len())
		}
		tbl.Range(func(tr core.Triple, v float64) {
			p := cluster.Route(tr.Query, tr.Location, n)
			got, ok := subs[p].GetKey(tr.GroupKey, tr.Query, tr.Location)
			if !ok || got != v {
				t.Fatalf("n=%d: cell %+v not on its owner %d (ok=%v got=%v want=%v)", n, tr, p, ok, got, v)
			}
		})
	}
}

// TestSplitTableAllocations pins SplitTable's cost to its sub-tables
// and its pages, not to its cells: it routes each (query, location)
// page once and sets each cell by the group key the table already
// holds, so splitting allocates fewer objects than the table has pages.
// Building a key string per cell costs several objects per cell.
func TestSplitTableAllocations(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(3), 11, 24, 14, 0.05)
	pages := len(tbl.Queries()) * len(tbl.Locations())
	allocs := testing.AllocsPerRun(5, func() { cluster.SplitTable(tbl, 4) })
	t.Logf("SplitTable into 4: %.0f allocations for %d cells on %d pages", allocs, tbl.Len(), pages)
	if allocs >= float64(pages) {
		t.Errorf("SplitTable allocates %.0f objects for %d pages; want fewer than one per page", allocs, pages)
	}
}

// TestRouteIsStable pins the routing function's determinism and range.
func TestRouteIsStable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for q := 0; q < 10; q++ {
			for l := 0; l < 10; l++ {
				qq, ll := core.Query(fmt.Sprintf("q%d", q)), core.Location(fmt.Sprintf("l%d", l))
				p1 := cluster.Route(qq, ll, n)
				p2 := cluster.Route(qq, ll, n)
				if p1 != p2 {
					t.Fatalf("Route not deterministic: %d vs %d", p1, p2)
				}
				if p1 < 0 || p1 >= n {
					t.Fatalf("Route(%q, %q, %d) = %d out of range", qq, ll, n, p1)
				}
			}
		}
	}
}

// FuzzClusterEquivalence drives the coordinator≡engine property over
// fuzzed table shapes, seeds and partition counts: whatever the data,
// a split-and-merged quantify and compare must answer byte-identically
// to the unsplit engine.
func FuzzClusterEquivalence(f *testing.F) {
	f.Add(uint64(1), 4, 3, 3, 2)
	f.Add(uint64(7), 6, 5, 4, 3)
	f.Add(uint64(42), 3, 2, 2, 5)
	f.Add(uint64(99), 5, 6, 2, 8)
	f.Fuzz(func(t *testing.T, seed uint64, ng, nq, nl, parts int) {
		if ng < 1 || ng > 8 || nq < 1 || nq > 8 || nl < 1 || nl > 8 || parts < 1 || parts > 9 {
			t.Skip()
		}
		tbl := clusterTable(stats.NewRNG(seed), ng, nq, nl, 0.2)
		if tbl.Len() == 0 {
			t.Skip()
		}
		single := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{CacheSize: -1, Workers: 1})
		coord := cluster.New(tbl, cluster.Options{Partitions: parts, NodeCacheSize: -1})

		var reqs []serve.Request
		for _, dim := range []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation} {
			reqs = append(reqs,
				serve.Request{Problem: serve.Quantify, Dim: dim, K: 2, Algorithm: topk.TA},
				serve.Request{Problem: serve.Quantify, Dim: dim, K: 3, Direction: topk.LeastUnfair, Algorithm: topk.NRA},
			)
		}
		var gks []string
		for _, g := range tbl.Groups() {
			gks = append(gks, g.Key())
		}
		if len(gks) >= 2 {
			reqs = append(reqs, serve.Request{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByQuery})
		}
		for i, req := range reqs {
			want := fingerprint(single.Do(req))
			got := fingerprint(coord.Do(req))
			if got != want {
				t.Errorf("request %d diverged (seed=%d parts=%d):\n got: %s\nwant: %s", i, seed, parts, got, want)
			}
		}
	})
}
