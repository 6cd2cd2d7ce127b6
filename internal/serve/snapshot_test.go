package serve_test

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/testutil"
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

// TestWithUpdatesSealsEditedTable pins that an eager snapshot's refresh
// keeps one sealed table: an edit that overwrites a cell and adds a group,
// a query and a location, each sorting between existing members so every
// dimension is renumbered, gives a snapshot whose table is sealed and
// which answers the full battery as a fresh snapshot of the edited table
// does. A deferred snapshot's refresh keeps a page-major table.
func TestWithUpdatesSealsEditedTable(t *testing.T) {
	tbl, pages := deferredFixture()
	added := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g02x"})
	old := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g01"})
	edit := func(t *core.Table) {
		t.Set(old, "q00", "l00", 0.99)
		t.Set(added, "q03", "l02", 0.7)
		t.Set(old, "q03x", "l04", 0.4)
		t.Set(added, "q05", "l01x", 0.2)
	}
	edited := tbl.Clone()
	edit(edited)
	fresh := serve.NewSnapshotWithRankings(edited, nil, pages)

	next := serve.NewSnapshotWithRankings(tbl, nil, pages).WithUpdates(edit)
	if got := serve.SnapshotTable(next); got.Sealed() != got {
		t.Fatal("an eager snapshot's refresh keeps a table that is not sealed")
	}
	if len(next.GroupKeys()) != 7 || len(next.Queries()) != 9 || len(next.Locations()) != 9 {
		t.Fatalf("the refresh holds %d groups, %d queries and %d locations, want 7, 9 and 9",
			len(next.GroupKeys()), len(next.Queries()), len(next.Locations()))
	}
	reqs := fullBattery(fresh)
	want, got := answers(fresh, reqs), answers(next, reqs)
	for i := range reqs {
		if got[i] != want[i] {
			t.Errorf("request %d (%v) diverged on the refreshed snapshot:\n got: %s\nwant: %s", i, reqs[i].Problem, got[i], want[i])
		}
	}
	if got := serve.SnapshotTable(serve.NewDeferredSnapshot(tbl, nil, pages).WithUpdates(edit)); got.Sealed() == got {
		t.Error("a deferred snapshot's refresh keeps a sealed table, want a page-major one")
	}
}

// TestSnapshotFootprint bounds what NewSnapshot allocates per (group,
// query, location) slot of a crawl-shaped table: a sealed copy of the
// table, 8 bytes of value a slot plus its defined bits, page index and
// dictionaries, and the three index families' orders and lists' cube
// positions, which read the copy's values in place: about 22.3 bytes. A
// 16-byte header and an 8-byte source pointer per list read about 25,
// and a table clone beside a value cube filled for the families, a
// second copy of every value, about 8 more.
func TestSnapshotFootprint(t *testing.T) {
	const ng, nq, nl = 11, 96, 56
	tbl := randomTable(stats.NewRNG(5), ng, nq, nl, 0.05)
	per := testutil.BytesPerRun(3, func() { serve.NewSnapshot(tbl) }) / (ng * nq * nl)
	t.Logf("NewSnapshot of %v: %.1f bytes per slot", tbl, per)
	if per > 23 {
		t.Errorf("NewSnapshot allocates %.1f bytes per slot, want at most 23: does the snapshot hold its values twice, or a header per list?", per)
	}
}

// TestSnapshotPagesFootprint pins what a snapshot's marketplace pages
// hold beyond the pages themselves: at most 16 bytes of live heap a page,
// where a slice sorted by (query, location) holds 8. A map keyed by the
// pair held about 73. The pages come location-major, as the crawl's do,
// so the snapshot has to sort them.
func TestSnapshotPagesFootprint(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector's shadow memory and pool drops blur the live heap")
	}
	const nq, nl = 96, 56
	pages := make([]*core.MarketplaceRanking, 0, nq*nl)
	for l := 0; l < nl; l++ {
		for q := 0; q < nq; q++ {
			pages = append(pages, &core.MarketplaceRanking{Query: core.Query(fmt.Sprintf("q%02d", q)), Location: core.Location(fmt.Sprintf("l%02d", l))})
		}
	}
	tbl := randomTable(stats.NewRNG(3), 2, 2, 2, 0)
	held := func(pages []*core.MarketplaceRanking) float64 {
		snaps := make([]*serve.Snapshot, 8)
		base := liveHeap()
		for i := range snaps {
			snaps[i] = serve.NewDeferredSnapshot(tbl, nil, pages)
		}
		h := float64(liveHeap()) - float64(base)
		runtime.KeepAlive(snaps)
		return h / float64(len(snaps))
	}
	per := (held(pages) - held(nil)) / float64(len(pages))
	t.Logf("%d pages: %.1f bytes a page", len(pages), per)
	if per > 16 {
		t.Errorf("a snapshot's pages hold %.1f bytes a page, want at most 16", per)
	}
}

// liveHeap returns the bytes of live heap after two full collections:
// the second empties the pools the first only demoted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSnapshotPagesOrderAndRepeats pins the page semantics a snapshot
// keeps whatever order its pages come in: nil pages are skipped, a
// (query, location) given twice keeps the last page given, Pages lists
// every pair once, sorted by query and then location, Ranking finds each
// sealed page and nothing else, the caller's slice keeps its order, and
// WithUpdates and a deferred snapshot see the same pages.
func TestSnapshotPagesOrderAndRepeats(t *testing.T) {
	page := func(q, l string) *core.MarketplaceRanking {
		return &core.MarketplaceRanking{Query: core.Query(q), Location: core.Location(l)}
	}
	first, last := page("b", "x"), page("b", "x")
	in := []*core.MarketplaceRanking{page("c", "x"), first, nil, page("a", "y"), page("b", "w"), last, page("a", "x"), nil}
	given := append([]*core.MarketplaceRanking(nil), in...)
	sealed := []*core.MarketplaceRanking{in[6], in[3], in[4], last, in[0]}
	wantPages := [][2]string{{"a", "x"}, {"a", "y"}, {"b", "w"}, {"b", "x"}, {"c", "x"}}

	tbl := randomTable(stats.NewRNG(4), 2, 2, 2, 0)
	snap := serve.NewSnapshotWithRankings(tbl, nil, in)
	for name, s := range map[string]*serve.Snapshot{
		"eager":    snap,
		"refresh":  snap.WithUpdates(nil),
		"deferred": serve.NewDeferredSnapshot(tbl, nil, in),
	} {
		if !s.HasRankings() {
			t.Fatalf("%s: HasRankings = false", name)
		}
		if got := s.Pages(); !slices.Equal(got, wantPages) {
			t.Errorf("%s: Pages = %v, want %v", name, got, wantPages)
		}
		for _, r := range sealed {
			if got, ok := s.Ranking(r.Query, r.Location); !ok || got != r {
				t.Errorf("%s: Ranking(%s, %s) = %p, %v; want the page %p", name, r.Query, r.Location, got, ok, r)
			}
		}
		for _, k := range [][2]string{{"a", "w"}, {"b", "y"}, {"d", "x"}, {"", ""}, {"x", "b"}} {
			if got, ok := s.Ranking(core.Query(k[0]), core.Location(k[1])); ok || got != nil {
				t.Errorf("%s: Ranking(%s, %s) = %p, true; want no page", name, k[0], k[1], got)
			}
		}
	}
	if !slices.Equal(in, given) {
		t.Errorf("the snapshot reordered the caller's pages")
	}
	if none := serve.NewSnapshotWithRankings(tbl, nil, []*core.MarketplaceRanking{nil}); none.HasRankings() || len(none.Pages()) != 0 {
		t.Errorf("a snapshot given only nil pages: HasRankings = %v, Pages = %v", none.HasRankings(), none.Pages())
	}

	// Random page lists over a 5 × 4 grid, so pairs repeat often, against
	// a map that keeps the last page given per pair.
	for seed := uint64(1); seed <= 30; seed++ {
		rng := stats.NewRNG(seed)
		in := make([]*core.MarketplaceRanking, rng.Intn(60))
		last := make(map[[2]string]*core.MarketplaceRanking)
		for i := range in {
			if rng.Bernoulli(0.1) {
				continue
			}
			k := [2]string{fmt.Sprintf("q%d", rng.Intn(5)), fmt.Sprintf("l%d", rng.Intn(4))}
			in[i] = page(k[0], k[1])
			last[k] = in[i]
		}
		want := make([][2]string, 0, len(last))
		for k := range last {
			want = append(want, k)
		}
		slices.SortFunc(want, func(a, b [2]string) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		s := serve.NewDeferredSnapshot(tbl, nil, in)
		if got := s.Pages(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Pages = %v, want %v", seed, got, want)
		}
		for q := 0; q < 5; q++ {
			for l := 0; l < 4; l++ {
				k := [2]string{fmt.Sprintf("q%d", q), fmt.Sprintf("l%d", l)}
				if got, ok := s.Ranking(core.Query(k[0]), core.Location(k[1])); got != last[k] || ok != (last[k] != nil) {
					t.Fatalf("seed %d: Ranking(%s, %s) = %p, %v; want %p", seed, k[0], k[1], got, ok, last[k])
				}
			}
		}
	}
}
