package serve_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// deferredFixture is anchoredPagedSnapshot's table and page: a random
// table the Problem 1 and 2 requests read, and the paper page the
// mitigate requests re-rank.
func deferredFixture() (*core.Table, []*core.MarketplaceRanking) {
	return randomTable(stats.NewRNG(21), 6, 8, 8, 0.1), []*core.MarketplaceRanking{servePaperRanking()}
}

// fullBattery is every request shape a snapshot answers: quantify over
// every dimension, algorithm and direction, and over groups also with
// candidates (the only dimension that takes them); compare over every
// (of, by) pair in both semantics; and the three mitigators on the
// paper page. It reads the dimensions from snap.
func fullBattery(snap *serve.Snapshot) []serve.Request {
	members := map[compare.Dimension][]string{compare.ByGroup: snap.GroupKeys()}
	for _, q := range snap.Queries() {
		members[compare.ByQuery] = append(members[compare.ByQuery], string(q))
	}
	for _, l := range snap.Locations() {
		members[compare.ByLocation] = append(members[compare.ByLocation], string(l))
	}
	dims := []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation}
	var reqs []serve.Request
	for _, dim := range dims {
		for _, algo := range topk.Algorithms() {
			for _, dir := range []topk.Direction{topk.MostUnfair, topk.LeastUnfair} {
				restrictions := [][]string{nil}
				if dim == compare.ByGroup {
					restrictions = append(restrictions, members[dim][:3])
				}
				for _, cands := range restrictions {
					reqs = append(reqs, serve.Request{
						Problem: serve.Quantify, Dim: dim, K: 2, Direction: dir, Algorithm: algo, Candidates: cands,
					})
				}
			}
		}
	}
	for _, of := range dims {
		for _, by := range dims {
			if of == by {
				continue
			}
			for _, definedOnly := range []bool{false, true} {
				reqs = append(reqs, serve.Request{
					Problem: serve.Compare, Of: of, By: by, DefinedOnly: definedOnly,
					R1: members[of][0], R2: members[of][1],
				})
			}
		}
	}
	for _, g := range servedGoldens() {
		reqs = append(reqs, g.req)
	}
	return reqs
}

// fullFingerprint is fingerprint plus the mitigation outcome.
func fullFingerprint(r serve.Response) string {
	mit := ""
	if r.Mitigation != nil {
		mit = fmt.Sprintf("%+v", *r.Mitigation)
	}
	return fingerprint(r) + " mit=" + mit
}

// answers serves reqs one by one on a cache-less engine over snap.
func answers(snap *serve.Snapshot, reqs []serve.Request) []string {
	eng := serve.NewEngine(snap, serve.Options{Workers: 1, CacheSize: -1})
	out := make([]string, len(reqs))
	for i, req := range reqs {
		out[i] = fullFingerprint(eng.Do(req))
	}
	return out
}

// TestDeferredSnapshotMatchesEager pins that deferring the query
// structures changes when they are built, never an answer: a deferred
// snapshot answers the full battery byte-identically to an eager one
// over the same table and pages. It builds nothing until the first
// quantify or compare, so its mitigate requests run first and must leave
// it unbuilt.
func TestDeferredSnapshotMatchesEager(t *testing.T) {
	tbl, pages := deferredFixture()
	eager := serve.NewSnapshotWithRankings(tbl, nil, pages)
	reqs := fullBattery(eager)
	want := answers(eager, reqs)

	var builds atomic.Int64
	defer serve.CountQueryBuilds(&builds)()
	deferred := serve.NewDeferredSnapshot(tbl, nil, pages)
	if n := builds.Load(); n != 0 {
		t.Fatalf("NewDeferredSnapshot built the query structures %d times, want 0", n)
	}
	eng := serve.NewEngine(deferred, serve.Options{Workers: 1, CacheSize: -1})
	got := make([]string, len(reqs))
	// Mitigate requests first: they read only the pages and the schema.
	for pass, mitigates := range []bool{true, false} {
		for i, req := range reqs {
			if (req.Problem == serve.Mitigate) == mitigates {
				got[i] = fullFingerprint(eng.Do(req))
			}
		}
		if pass == 0 && builds.Load() != 0 {
			t.Fatalf("mitigate requests built the query structures %d times, want 0", builds.Load())
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("the battery built the query structures %d times, want 1", n)
	}
	for i := range reqs {
		if got[i] != want[i] {
			t.Errorf("request %d (%v) diverged on the deferred snapshot:\n got: %s\nwant: %s", i, reqs[i].Problem, got[i], want[i])
		}
	}
}

// TestDeferredSnapshotBuildsOnce releases 32 goroutines onto a fresh
// deferred snapshot at once, each making its first request: they share
// one build and every answer is the eager snapshot's. Under -race this
// also checks that the goroutines waiting on the build read the
// structures it published without a race.
func TestDeferredSnapshotBuildsOnce(t *testing.T) {
	const goroutines = 32
	tbl, pages := deferredFixture()
	eager := serve.NewSnapshotWithRankings(tbl, nil, pages)
	reqs := fullBattery(eager)
	want := answers(eager, reqs)

	var builds atomic.Int64
	defer serve.CountQueryBuilds(&builds)()
	eng := serve.NewEngine(serve.NewDeferredSnapshot(tbl, nil, pages), serve.Options{CacheSize: -1})
	start := make(chan struct{})
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = fullFingerprint(eng.Do(reqs[g]))
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d concurrent first requests built the query structures %d times, want 1", goroutines, n)
	}
	for g := range got {
		if got[g] != want[g] {
			t.Errorf("request %d diverged:\n got: %s\nwant: %s", g, got[g], want[g])
		}
	}
}

// TestWithUpdatesKeepsDeferral pins that a refresh keeps its receiver's
// choice: an eager snapshot's successor is built before WithUpdates
// returns, so an engine's readers never wait on a build, and a deferred
// snapshot's successor builds nothing until its first quantify or
// compare, which then answers over the edited table.
func TestWithUpdatesKeepsDeferral(t *testing.T) {
	tbl, pages := deferredFixture()
	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g00"})
	edit := func(t *core.Table) { t.Set(g, "q00", "l00", 0.99) }
	edited := tbl.Clone()
	edit(edited)
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA}
	want := fullFingerprint(serve.NewEngine(serve.NewSnapshot(edited), serve.Options{CacheSize: -1}).Do(req))

	var builds atomic.Int64
	defer serve.CountQueryBuilds(&builds)()
	eager := serve.NewSnapshotWithRankings(tbl, nil, pages)
	eager.WithUpdates(edit)
	if n := builds.Load(); n != 2 {
		t.Fatalf("an eager snapshot and its successor built %d times before any request, want 2", n)
	}

	builds.Store(0)
	next := serve.NewDeferredSnapshot(tbl, nil, pages).WithUpdates(edit)
	eng := serve.NewEngine(next, serve.Options{CacheSize: -1})
	if resp := eng.Do(servedGoldens()[0].req); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if v, ok := next.Cell("cohort=g00", "q00", "l00"); !ok || v != 0.99 || next.Len() != edited.Len() {
		t.Fatalf("deferred successor's cells: (%v, %v), %d cells; want the edit and %d cells", v, ok, next.Len(), edited.Len())
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("a deferred snapshot's successor built %d times on construction, mitigate and cell reads, want 0", n)
	}
	if got := fullFingerprint(eng.Do(req)); got != want {
		t.Errorf("deferred successor's quantify:\n got: %s\nwant: %s", got, want)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("a deferred successor's first quantify built %d times, want 1", n)
	}
}
