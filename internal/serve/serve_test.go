package serve_test

import (
	"fmt"
	"math"
	"testing"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

func indexOf(tbl *core.Table) *index.GroupIndex { return index.BuildGroupIndex(tbl) }

// randomTable synthesizes a small unfairness table with ng groups, nq
// queries and nl locations, leaving a fraction of triples undefined. The
// RNG makes it deterministic per seed.
func randomTable(rng *stats.RNG, ng, nq, nl int, missing float64) *core.Table {
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

// fingerprint renders a response to a deterministic byte string: equal
// fingerprints mean byte-identical results. The error is reduced to its
// message and the CacheHit flag is ignored (a hit must be byte-identical
// to the miss that populated it — that is exactly what the tests assert).
func fingerprint(r serve.Response) string {
	errMsg := ""
	if r.Err != nil {
		errMsg = r.Err.Error()
	}
	return fmt.Sprintf("results=%+v stats=%+v cmp=%+v err=%q", r.Results, r.Stats, r.Comparison, errMsg)
}

// battery builds a mixed Problem 1 / Problem 2 workload exercising every
// dimension, algorithm, direction and both comparison semantics.
func battery(snap *serve.Snapshot) []serve.Request {
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
	gks := snap.GroupKeys()
	if len(gks) >= 3 {
		reqs = append(reqs, serve.Request{
			Problem: serve.Quantify, Dim: compare.ByGroup, K: 2,
			Algorithm: topk.TA, Candidates: gks[:3],
		})
	}
	qs, ls := snap.Queries(), snap.Locations()
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
	return reqs
}

func TestSnapshotIsSealedAgainstSourceMutation(t *testing.T) {
	rng := stats.NewRNG(1)
	tbl := randomTable(rng, 5, 4, 3, 0.1)
	snap := serve.NewSnapshot(tbl)
	eng := serve.NewEngine(snap, serve.Options{})

	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA}
	before := fingerprint(eng.Do(req))

	// Mutating the source table after sealing must not be observable.
	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g00"})
	for _, q := range tbl.Queries() {
		for _, l := range tbl.Locations() {
			tbl.Set(g, q, l, 99.0)
		}
	}
	eng2 := serve.NewEngine(snap, serve.Options{CacheSize: -1})
	after := fingerprint(eng2.Do(req))
	if before != after {
		t.Fatalf("snapshot observed source-table mutation:\nbefore: %s\nafter:  %s", before, after)
	}
}

func TestWithUpdatesIsCopyOnWrite(t *testing.T) {
	rng := stats.NewRNG(2)
	s1 := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g00"})
	s2 := s1.WithUpdates(func(tbl *core.Table) {
		tbl.Set(g, "q00", "l00", 1.0)
		tbl.Set(g, "qNEW", "l00", 0.5)
	})

	if s2.Gen() <= s1.Gen() {
		t.Fatalf("generations not monotonic: old %d, new %d", s1.Gen(), s2.Gen())
	}
	if len(s2.Queries()) != len(s1.Queries())+1 {
		t.Fatalf("updated snapshot has %d queries, want %d", len(s2.Queries()), len(s1.Queries())+1)
	}
	// The old snapshot must answer exactly as before the update.
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByQuery, K: 2, Algorithm: topk.Naive}
	r1 := serve.NewEngine(s1, serve.Options{CacheSize: -1}).Do(req)
	for _, res := range r1.Results {
		if res.Key == "qNEW" {
			t.Fatal("old snapshot leaked a query added by WithUpdates")
		}
	}
}

func TestGenerationsAreUniqueAcrossSnapshots(t *testing.T) {
	rng := stats.NewRNG(3)
	tbl := randomTable(rng, 3, 2, 2, 0)
	seen := map[uint64]bool{}
	s := serve.NewSnapshot(tbl)
	seen[s.Gen()] = true
	for i := 0; i < 5; i++ {
		s = s.WithUpdates(nil)
		if seen[s.Gen()] {
			t.Fatalf("generation %d reused", s.Gen())
		}
		seen[s.Gen()] = true
	}
	other := serve.NewSnapshot(tbl)
	if seen[other.Gen()] {
		t.Fatalf("independent snapshot reused generation %d", other.Gen())
	}
}

func TestCacheHitEqualsCacheMiss(t *testing.T) {
	rng := stats.NewRNG(4)
	snap := serve.NewSnapshot(randomTable(rng, 6, 4, 3, 0.2))
	eng := serve.NewEngine(snap, serve.Options{})
	for _, req := range battery(snap) {
		miss := eng.Do(req)
		hit := eng.Do(req)
		if miss.Err == nil && !hit.CacheHit {
			t.Fatalf("second identical request was not a cache hit: %+v", req)
		}
		if fingerprint(miss) != fingerprint(hit) {
			t.Fatalf("cache hit diverged from miss for %+v:\nmiss: %s\nhit:  %s", req, fingerprint(miss), fingerprint(hit))
		}
	}
	cs := eng.CacheStats()
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %d/%d", cs.Hits, cs.Misses)
	}
	if cs.Entries == 0 {
		t.Fatal("cache served hits but reports zero entries")
	}
}

func TestCacheInvalidatedBySnapshotGeneration(t *testing.T) {
	rng := stats.NewRNG(5)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{})
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}

	first := eng.Do(req)
	if first.CacheHit {
		t.Fatal("first request cannot be a hit")
	}
	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g99"})
	eng.Refresh(func(tbl *core.Table) {
		for _, q := range []core.Query{"q00", "q01", "q02"} {
			for _, l := range []core.Location{"l00", "l01", "l02"} {
				tbl.Set(g, q, l, 1.0)
			}
		}
	})
	second := eng.Do(req)
	if second.CacheHit {
		t.Fatal("request served stale cache entry across a generation bump")
	}
	if second.Gen == first.Gen {
		t.Fatal("refresh did not change the served generation")
	}
	if second.Results[0].Key != g.Key() {
		t.Fatalf("refreshed table's dominant group not served: got %q", second.Results[0].Key)
	}
}

func TestCacheEvictionKeepsServingCorrectResults(t *testing.T) {
	rng := stats.NewRNG(6)
	snap := serve.NewSnapshot(randomTable(rng, 6, 3, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{CacheSize: 2})
	reqs := []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 1, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA},
	}
	baseline := make([]string, len(reqs))
	for i, r := range reqs {
		baseline[i] = fingerprint(eng.Do(r))
	}
	// Cycling through 3 distinct requests with capacity 2 keeps evicting;
	// every answer must still match its baseline.
	for round := 0; round < 5; round++ {
		for i, r := range reqs {
			if got := fingerprint(eng.Do(r)); got != baseline[i] {
				t.Fatalf("round %d request %d diverged after eviction:\nwant %s\ngot  %s", round, i, baseline[i], got)
			}
		}
	}
}

func TestDoBatchMatchesSequentialDo(t *testing.T) {
	rng := stats.NewRNG(7)
	snap := serve.NewSnapshot(randomTable(rng, 7, 5, 4, 0.15))
	seqEng := serve.NewEngine(snap, serve.Options{Workers: 1, CacheSize: -1})
	batchEng := serve.NewEngine(snap, serve.Options{Workers: 8})

	reqs := battery(snap)
	want := make([]string, len(reqs))
	for i, r := range reqs {
		want[i] = fingerprint(seqEng.Do(r))
	}
	got := batchEng.DoBatch(reqs)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d responses for %d requests", len(got), len(reqs))
	}
	for i := range reqs {
		if fingerprint(got[i]) != want[i] {
			t.Fatalf("batch response %d diverged:\nwant %s\ngot  %s", i, want[i], fingerprint(got[i]))
		}
	}
	if len(batchEng.DoBatch(nil)) != 0 {
		t.Fatal("empty batch must return an empty response slice")
	}
}

func TestQuantifyAgreesWithDirectTopK(t *testing.T) {
	rng := stats.NewRNG(8)
	tbl := randomTable(rng, 6, 4, 3, 0.1)
	snap := serve.NewSnapshot(tbl)
	eng := serve.NewEngine(snap, serve.Options{})

	resp := eng.Do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 4, Algorithm: topk.TA})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	direct, err := topk.GroupFairness(indexOf(tbl), nil, nil, 4, topk.MostUnfair)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(direct) {
		t.Fatalf("lengths differ: %d vs %d", len(resp.Results), len(direct))
	}
	for i := range direct {
		if resp.Results[i].Key != direct[i].Key || math.Abs(resp.Results[i].Value-direct[i].Value) > 1e-15 {
			t.Fatalf("rank %d: engine %+v, direct %+v", i, resp.Results[i], direct[i])
		}
	}
}

// TestTAServedCost pins the served cost of the paper's Algorithm 1 on a
// fixed table of the benchmark crawl's shape (11 groups × 96 queries ×
// 56 locations, 5% of cells undefined): on a full-scope quantify, TA's
// random accesses are exactly n × (m − 1) for n members and m lists. The
// lists are complete and the scores flat, so TA sees every member before
// its threshold stops it and resolves each one it sees in every other
// list. With members this few against lists this many, Naive's one
// sorted pass over every posting reads less than TA's sorted plus random
// accesses; README's "Where Algorithm 1 pays off" explains when TA wins.
func TestTAServedCost(t *testing.T) {
	const ng, nq, nl = 11, 96, 56
	eng := serve.NewEngine(serve.NewSnapshot(randomTable(stats.NewRNG(21), ng, nq, nl, 0.05)), serve.Options{CacheSize: -1})
	for _, tc := range []struct {
		dim      compare.Dimension
		members  int
		lists    int
		postings int
	}{
		{compare.ByGroup, ng, nq * nl, ng * nq * nl},
		{compare.ByQuery, nq, ng * nl, ng * nq * nl},
		{compare.ByLocation, nl, ng * nq, ng * nq * nl},
	} {
		req := serve.Request{Problem: serve.Quantify, Dim: tc.dim, K: 3, Algorithm: topk.TA}
		ta := eng.Do(req)
		req.Algorithm = topk.Naive
		naive := eng.Do(req)
		if ta.Err != nil || naive.Err != nil {
			t.Fatalf("%v: TA err %v, Naive err %v", tc.dim, ta.Err, naive.Err)
		}
		t.Logf("%v quantify: m = %d lists, n = %d members; TA %d sorted + %d random in %d rounds; Naive %d sorted",
			tc.dim, tc.lists, tc.members, ta.Stats.SortedAccesses, ta.Stats.RandomAccesses, ta.Stats.Rounds, naive.Stats.SortedAccesses)
		if want := tc.members * (tc.lists - 1); ta.Stats.RandomAccesses != want {
			t.Errorf("%v quantify: TA made %d random accesses, want n × (m − 1) = %d", tc.dim, ta.Stats.RandomAccesses, want)
		}
		if naive.Stats.SortedAccesses != tc.postings {
			t.Errorf("%v quantify: Naive made %d sorted accesses, want every posting, %d", tc.dim, naive.Stats.SortedAccesses, tc.postings)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	rng := stats.NewRNG(9)
	snap := serve.NewSnapshot(randomTable(rng, 3, 2, 2, 0))
	eng := serve.NewEngine(snap, serve.Options{})
	bad := []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 0, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.Dimension(9), K: 1, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 1, Algorithm: topk.Algorithm(9)},
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 1, Direction: topk.Direction(9), Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByQuery, K: 1, Algorithm: topk.TA, Candidates: []string{"q00"}},
		{Problem: serve.Compare, Of: compare.ByGroup, R1: "", R2: "x", By: compare.ByQuery},
		{Problem: serve.Compare, Of: compare.ByGroup, R1: "a", R2: "b", By: compare.ByGroup},
		{Problem: serve.Compare, Of: compare.Dimension(9), R1: "a", R2: "b", By: compare.ByQuery},
		{Problem: serve.Compare, Of: compare.ByGroup, R1: "a", R2: "b", By: compare.Dimension(9)},
		{Problem: serve.Problem(9)},
	}
	for i, req := range bad {
		if resp := eng.Do(req); resp.Err == nil {
			t.Fatalf("bad request %d accepted: %+v", i, req)
		}
	}
	// Errors must not be cached.
	if cs := eng.CacheStats(); cs.Hits != 0 {
		t.Fatalf("error responses were cached: %d hits", cs.Hits)
	}
}

func TestDimensionOf(t *testing.T) {
	rng := stats.NewRNG(10)
	snap := serve.NewSnapshot(randomTable(rng, 3, 2, 2, 0))
	gk := snap.GroupKeys()[0]
	if d, ok := snap.DimensionOf(gk); !ok || d != compare.ByGroup {
		t.Fatalf("DimensionOf(%q) = %v, %v", gk, d, ok)
	}
	if d, ok := snap.DimensionOf("q00"); !ok || d != compare.ByQuery {
		t.Fatalf("DimensionOf(q00) = %v, %v", d, ok)
	}
	if d, ok := snap.DimensionOf("l01"); !ok || d != compare.ByLocation {
		t.Fatalf("DimensionOf(l01) = %v, %v", d, ok)
	}
	if _, ok := snap.DimensionOf("nonexistent"); ok {
		t.Fatal("DimensionOf resolved a value absent from every dimension")
	}
}
