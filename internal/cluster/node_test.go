package cluster_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
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
// node once. Above one partition a node holds its table clone, one array
// of its cells, which fragments are sorted from when scanned, and its
// pages, so its snapshot must never build the three index families, and
// the node must keep no sorted fragments: with the families this
// coordinator held 13.9 MB, with sorted fragments 3.8 MB, and with
// neither it holds about 1.4 MB. At one partition every request is an
// OpServe, so the node must hold no cells beside its snapshot and refuse
// scans and lookups, and the coordinator must route no pairs and build
// no list geometry for streaming scans: on this table the geometry
// alone was about 5,800 allocations, the rest of a one-partition build
// about 470.
func TestNodeFootprint(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector's shadow memory and pool drops blur the live heap")
	}
	const bound = 2.5e6
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
		t.Errorf("a 4-partition coordinator holds %.2f MB after a battery and a refresh, want at most %.1f MB: are the nodes building index families or sorted fragments?", held/1e6, bound/1e6)
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

// TestNodeScansMatchEngineLists: above one partition a node keeps its
// cells in one array and sorts a fragment each time it is scanned. On a
// crawl-shaped table, whose undefined cells tie with each other at 0, at
// every partition count of the equivalence sweep above one:
//
//   - for every family, list and partition, the OpScan blocks of 1, 7
//     and 32 entries, joined, are the engine's list of that number with
//     only the partition's members left in it (an empty fragment scans
//     empty);
//   - for every member of every family, each partition's OpLookup row is
//     the engine's Find of the member on each list the partition holds a
//     fragment of, in list order;
//   - a scan of a list out of range and either op on an unknown
//     dimension fail, and a lookup of a key outside the universe returns
//     no row.
//
// They hold again after every node's Refresh edits about a third of the
// cells it owns: new values, zeros that join the ties, and cells that
// were undefined.
func TestNodeScansMatchEngineLists(t *testing.T) {
	tbl := crawlShaped()
	for _, n := range partitionCounts[1:] {
		t.Run(fmt.Sprintf("partitions=%d", n), func(t *testing.T) {
			c := cluster.New(tbl, cluster.Options{Partitions: n, NodeCacheSize: -1})
			checkNodeLists(t, c, tbl)

			rng := stats.NewRNG(uint64(200 + n))
			edited := tbl.Clone()
			own := make([][]func(*core.Table), n)
			for _, g := range tbl.Groups() {
				for _, q := range tbl.Queries() {
					for _, l := range tbl.Locations() {
						if rng.Float64() >= 0.3 {
							continue
						}
						v := rng.Float64()
						if rng.Intn(4) == 0 {
							v = 0
						}
						set := func(t *core.Table) { t.Set(g, q, l, v) }
						set(edited)
						p := cluster.Route(q, l, n)
						own[p] = append(own[p], set)
					}
				}
			}
			for p := 0; p < n; p++ {
				c.Node(p).Refresh(func(sub *core.Table) {
					for _, set := range own[p] {
						set(sub)
					}
				})
			}
			checkNodeLists(t, c, edited)
		})
	}
}

// checkNodeLists checks every node of c against the engine's families
// built over ref (see TestNodeScansMatchEngineLists).
func checkNodeLists(t *testing.T, c *cluster.Coordinator, ref *core.Table) {
	t.Helper()
	ctx := context.Background()
	n := c.Partitions()
	gi, qi, li := index.BuildAll(ref)
	gks, qs, ls := gi.GroupKeys, gi.Queries, gi.Locations
	L := len(ls)
	families := []struct {
		dim     compare.Dimension
		fam     topk.ListSource
		members []string
		// owner is the partition holding key's posting on list i.
		owner func(i int, key string) int
	}{
		{compare.ByGroup, gi, gks, func(i int, _ string) int { return cluster.Route(qs[i/L], ls[i%L], n) }},
		{compare.ByQuery, qi, strs(qs), func(i int, key string) int { return cluster.Route(core.Query(key), ls[i%L], n) }},
		{compare.ByLocation, li, strs(ls), func(i int, key string) int { return cluster.Route(qs[i%len(qs)], core.Location(key), n) }},
	}
	for _, f := range families {
		want := make([][]index.Entry, n) // list i's postings by partition
		for i := 0; i < f.fam.NumLists(); i++ {
			for p := range want {
				want[p] = want[p][:0]
			}
			for pos := 0; pos < f.fam.ListLen(); pos++ {
				e, _ := f.fam.At(i, pos)
				p := f.owner(i, e.Key)
				want[p] = append(want[p], e)
			}
			for p := 0; p < n; p++ {
				blocks := []int{1, 7, 32}
				if len(want[p]) == 0 {
					blocks = blocks[2:]
				}
				for _, block := range blocks {
					var got []index.Entry
					for {
						reply, err := c.Node(p).Handle(ctx, cluster.Call{Op: cluster.OpScan, Dim: f.dim, List: i, Start: len(got), Count: block})
						if err != nil {
							t.Fatalf("%v list %d, partition %d: %v", f.dim, i, p, err)
						}
						if len(reply.Entries) == 0 {
							break
						}
						got = append(got, reply.Entries...)
					}
					if !slices.Equal(got, want[p]) {
						t.Fatalf("%v list %d, partition %d, blocks of %d: scans\n%v\nwant the engine's list filtered to the partition\n%v", f.dim, i, p, block, got, want[p])
					}
				}
			}
		}
		for p := 0; p < n; p++ {
			for _, call := range []cluster.Call{
				{Op: cluster.OpScan, Dim: f.dim, List: -1, Count: 32},
				{Op: cluster.OpScan, Dim: f.dim, List: f.fam.NumLists(), Count: 32},
				{Op: cluster.OpScan, Dim: compare.Dimension(3), Count: 32},
				{Op: cluster.OpLookup, Dim: compare.Dimension(3), Key: f.members[0]},
			} {
				if reply, err := c.Node(p).Handle(ctx, call); err == nil {
					t.Fatalf("partition %d: %+v answered %+v, want an error", p, call, reply)
				}
			}
			if reply, err := c.Node(p).Handle(ctx, cluster.Call{Op: cluster.OpLookup, Dim: f.dim, Key: "nobody"}); err != nil || reply.Row != nil {
				t.Fatalf("%v, partition %d: a lookup of a key outside the universe = %v, %v; want no row", f.dim, p, reply.Row, err)
			}
		}
		for _, key := range f.members {
			rows := make([][]cluster.ListValue, n)
			for i := 0; i < f.fam.NumLists(); i++ {
				v, _ := f.fam.Find(i, key)
				p := f.owner(i, key)
				rows[p] = append(rows[p], cluster.ListValue{List: i, Value: v})
			}
			for p := 0; p < n; p++ {
				reply, err := c.Node(p).Handle(ctx, cluster.Call{Op: cluster.OpLookup, Dim: f.dim, Key: key})
				if err != nil {
					t.Fatalf("%v key %s, partition %d: %v", f.dim, key, p, err)
				}
				if !slices.Equal(reply.Row, rows[p]) {
					t.Fatalf("%v key %s, partition %d: looks up\n%v\nwant the engine's values on the partition's lists\n%v", f.dim, key, p, reply.Row, rows[p])
				}
			}
		}
	}
}

// strs converts a sorted dimension to its member keys.
func strs[T ~string](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = string(x)
	}
	return out
}
