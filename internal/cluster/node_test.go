package cluster_test

import (
	"context"
	"runtime"
	"testing"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/mitigate"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/testutil"
	"fairjob/internal/topk"
)

// crawlShaped is a table of the benchmark crawl's shape: 11 groups, 96
// queries and 56 locations, with about the crawl's share of cells
// defined.
func crawlShaped() *core.Table {
	return clusterTable(stats.NewRNG(9), 11, 96, 56, 0.05)
}

// liveHeap returns the bytes of live heap after two full collections,
// the way the benchmark measures heap_mb: the second empties the pools
// the first only demoted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNodeFootprint bounds what a 4-partition coordinator holds on a
// crawl-shaped table after serving a mixed battery and refreshing every
// node once. Above one partition a node reads only its fragments, its
// cells and its pages, so its snapshot must never build the three index
// families: with them this coordinator held 13.9 MB, without them it
// holds 4.5 MB. At one partition every request is an OpServe, so the
// node must hold no fragments and refuse scans and lookups, and the
// coordinator must build no list geometry for streaming scans: on this
// table the geometry alone is about 5,800 allocations, the rest of a
// one-partition build about 860.
func TestNodeFootprint(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector's shadow memory and pool drops blur the live heap")
	}
	const bound = 8e6
	tbl := crawlShaped()
	pages := []*core.MarketplaceRanking{clusterRanking()}
	gks, qs := groupKeys(tbl), tbl.Queries()
	battery := []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByQuery, K: 3, Direction: topk.LeastUnfair, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByLocation, K: 3, Algorithm: topk.NRA},
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA, Candidates: gks[:3]},
		{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByLocation},
		{Problem: serve.Compare, Of: compare.ByQuery, R1: string(qs[0]), R2: string(qs[1]), By: compare.ByGroup, DefinedOnly: true},
		{Problem: serve.Mitigate, Mitigator: mitigate.DetGreedy, Group: "ethnicity=Asian&gender=Female", Query: "Home Cleaning", Location: "San Francisco, CA"},
	}

	base := liveHeap()
	c := cluster.NewWithRankings(tbl, nil, pages, cluster.Options{Partitions: 4, NodeCacheSize: -1})
	for i, req := range battery {
		if resp := c.Do(req); resp.Err != nil {
			t.Fatalf("request %d (%v): %v", i, req.Problem, resp.Err)
		}
	}
	for p := 0; p < c.Partitions(); p++ {
		c.Node(p).Refresh(nil)
	}
	held := float64(liveHeap() - base)
	runtime.KeepAlive(c)
	t.Logf("4 partitions: the coordinator holds %.2f MB for %d cells", held/1e6, tbl.Len())
	if held > bound {
		t.Errorf("a 4-partition coordinator holds %.2f MB after a battery and a refresh, want at most %.0f MB: are the nodes building index families?", held/1e6, bound/1e6)
	}

	one := cluster.NewWithRankings(tbl, nil, pages, cluster.Options{Partitions: 1, NodeCacheSize: -1})
	for i, req := range battery {
		if resp := one.Do(req); resp.Err != nil {
			t.Fatalf("request %d (%v) on one partition: %v", i, req.Problem, resp.Err)
		}
	}
	for _, op := range []cluster.Op{cluster.OpScan, cluster.OpLookup} {
		call := cluster.Call{Op: op, Dim: compare.ByGroup, Count: 32, Key: gks[0]}
		if _, err := one.Node(0).Handle(context.Background(), call); err == nil {
			t.Errorf("%v on a single partition's node succeeded: it holds list fragments", op)
		}
	}
	const maxAllocs = 1500
	allocs := testing.AllocsPerRun(3, func() {
		cluster.NewWithRankings(tbl, nil, pages, cluster.Options{Partitions: 1, NodeCacheSize: -1})
	})
	t.Logf("1 partition: a build allocates %.0f objects", allocs)
	if allocs > maxAllocs {
		t.Errorf("a 1-partition build allocates %.0f objects, want at most %d: is it building list geometry?", allocs, maxAllocs)
	}
}

// TestScanReplyAllocatesOnce pins an OpScan reply to one allocation: the
// entries slice is sized before it is filled, where growing it by append
// took five or six for a block of 11 to 24 entries. The cluster is the
// benchmark's shape at four partitions, and every family is scanned in
// the coordinator's block size.
func TestScanReplyAllocatesOnce(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	c := cluster.New(crawlShaped(), cluster.Options{Partitions: 4, NodeCacheSize: -1})
	ctx := context.Background()
	for _, dim := range []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation} {
		for p := 0; p < c.Partitions(); p++ {
			// The partition's first non-empty fragment of the family.
			call := cluster.Call{Op: cluster.OpScan, Dim: dim, Count: 32}
			for ; ; call.List++ {
				reply, err := c.Node(p).Handle(ctx, call)
				if err != nil {
					t.Fatalf("%v partition %d: no non-empty fragment: %v", dim, p, err)
				}
				if len(reply.Entries) > 0 {
					break
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := c.Node(p).Handle(ctx, call); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Errorf("%v partition %d: an OpScan of list %d allocates %.0f times, want 1", dim, p, call.List, allocs)
			}
		}
	}
}

// groupKeys returns tbl's group keys, sorted.
func groupKeys(tbl *core.Table) []string {
	var gks []string
	for _, g := range tbl.Groups() {
		gks = append(gks, g.Key())
	}
	return gks
}
