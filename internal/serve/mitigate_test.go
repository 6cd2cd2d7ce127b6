package serve_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fairjob/internal/core"
	"fairjob/internal/mitigate"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/testutil"
)

// The Problem 3 serving fixture: the paper's Tables 2–3 ranking (ten
// workers for "Home Cleaning" in San Francisco, scores 0.9 … 0.0) sealed
// into a snapshot with pages, targeted at the under-exposed Asian Female
// group. The golden before/after values are the package-level pins of
// internal/mitigate, re-asserted here through the full request path.
const (
	paperQuery    = "Home Cleaning"
	paperLocation = "San Francisco, CA"
	targetAF      = "ethnicity=Asian&gender=Female"
	beforeAF      = 0.07309294039141703
)

// servePaperRanking reconstructs the Tables 2–3 page (the same rows as
// experiment's paperRanking, restricted to the default schema's
// attributes).
func servePaperRanking() *core.MarketplaceRanking {
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
	r := &core.MarketplaceRanking{Query: paperQuery, Location: paperLocation}
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

// paperSnapshot seals the paper page into a mitigation-capable snapshot
// whose unfairness table is the page's own exposure evaluation — the
// exact pipeline cmd/fairjob's mitigate mode runs.
func paperSnapshot() *serve.Snapshot {
	r := servePaperRanking()
	ev := &core.MarketplaceEvaluator{Schema: core.DefaultSchema(), Measure: core.MeasureExposure, UseScores: true}
	tbl := ev.EvaluateAll([]*core.MarketplaceRanking{r}, nil)
	return serve.NewSnapshotWithRankings(tbl, nil, []*core.MarketplaceRanking{r})
}

// anchoredPagedSnapshot is anchoredSnapshot's table plus the paper page,
// so the wide-event schema gate can drive mitigate requests through the
// same engine as the Problem 1/2 battery.
func anchoredPagedSnapshot(seed uint64) *serve.Snapshot {
	rng := stats.NewRNG(seed)
	tbl := randomTable(rng, 6, 8, 8, 0.1)
	return serve.NewSnapshotWithRankings(tbl, nil, []*core.MarketplaceRanking{servePaperRanking()})
}

// TestSnapshotOwnsPagesWithoutCopying pins that the snapshot keeps the
// caller's pages instead of copying them: building it must allocate no
// more for 50 workers per page than for 10.
func TestSnapshotOwnsPagesWithoutCopying(t *testing.T) {
	pages := func(workers int) []*core.MarketplaceRanking {
		out := make([]*core.MarketplaceRanking, 20)
		for i := range out {
			r := &core.MarketplaceRanking{Query: core.Query(fmt.Sprintf("q%d", i)), Location: paperLocation}
			for w := 0; w < workers; w++ {
				r.Workers = append(r.Workers, core.RankedWorker{
					ID:    fmt.Sprintf("w%d", w),
					Attrs: core.Assignment{"gender": "Female", "ethnicity": "Asian"},
					Rank:  w + 1,
				})
			}
			out[i] = r
		}
		return out
	}
	allocs := func(workers int) float64 {
		ps := pages(workers)
		return testing.AllocsPerRun(50, func() {
			serve.NewSnapshotWithRankings(core.NewTable(), nil, ps)
		})
	}
	if few, many := allocs(10), allocs(50); many > few {
		t.Fatalf("NewSnapshotWithRankings allocates %.0f times for 50 workers per page, %.0f for 10: pages are being copied", many, few)
	}
}

// servedGoldens are the pinned end-to-end outcomes per mitigator — the
// same numbers internal/mitigate pins at the package level, which is the
// point: the serving layer must add packaging, not arithmetic.
func servedGoldens() []struct {
	name  string
	req   serve.Request
	ids   []string
	after float64
} {
	base := serve.Request{Problem: serve.Mitigate, Group: targetAF, Query: paperQuery, Location: paperLocation}
	fair, greedy, exposure := base, base, base
	fair.Mitigator, fair.MinProportion, fair.Alpha = mitigate.FairTopK, 0.3, 0.25
	greedy.Mitigator = mitigate.DetGreedy
	exposure.Mitigator, exposure.SwapBudget = mitigate.ExposureParity, 10
	return []struct {
		name  string
		req   serve.Request
		ids   []string
		after float64
	}{
		{"fair", fair, []string{"w3", "w8", "w6", "w1", "w2", "w4", "w7", "w5", "w9", "w10"}, 0.05933017331766394},
		{"greedy", greedy, []string{"w3", "w8", "w2", "w1", "w7", "w6", "w4", "w5", "w9", "w10"}, 0.06108813758266332},
		{"exposure", exposure, []string{"w8", "w3", "w1", "w6", "w2", "w9", "w7", "w4", "w5", "w10"}, 0.006405063932327981},
	}
}

// TestServeMitigateGolden is the served-path acceptance test: a
// ProblemMitigate request on the Figure-5-anchored table must show
// before > after for every mitigator, reproduce the pinned permutation,
// and — the controlled-experiment property — report an After equal to an
// independent direct measurement of the permuted ranking through
// core.MarketplaceEvaluator, the code path mitigation never touches.
func TestServeMitigateGolden(t *testing.T) {
	snap := paperSnapshot()
	eng := serve.NewEngine(snap, serve.Options{})
	orig := servePaperRanking()
	af := core.NewGroup(
		core.Predicate{Attr: "ethnicity", Value: "Asian"},
		core.Predicate{Attr: "gender", Value: "Female"},
	)
	ev := &core.MarketplaceEvaluator{Schema: core.DefaultSchema(), Measure: core.MeasureExposure, UseScores: true}

	for _, g := range servedGoldens() {
		t.Run(g.name, func(t *testing.T) {
			resp := eng.Do(g.req)
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if resp.Gen != snap.Gen() {
				t.Fatalf("response generation %d, snapshot %d", resp.Gen, snap.Gen())
			}
			m := resp.Mitigation
			if m == nil {
				t.Fatal("mitigate response carries no Mitigation")
			}
			if m.Group != targetAF {
				t.Fatalf("mitigated group %q, want %q", m.Group, targetAF)
			}
			testutil.Approx(t, "before", m.Before, beforeAF, testutil.DefaultTol)
			testutil.Approx(t, "after", m.After, g.after, testutil.DefaultTol)
			if m.After >= m.Before {
				t.Fatalf("unfairness did not drop: before %v, after %v", m.Before, m.After)
			}
			if m.Moved <= 0 {
				t.Fatalf("Moved = %d on a permutation that changed the page", m.Moved)
			}
			if got := strings.Join(m.IDs, ","); got != strings.Join(g.ids, ",") {
				t.Fatalf("re-ranked page:\n got %s\nwant %s", got, strings.Join(g.ids, ","))
			}

			// Independent re-measurement: materialize the permuted page
			// (original scores and attributes, new ranks) and measure it
			// with the marketplace evaluator directly.
			perm := &core.MarketplaceRanking{Query: orig.Query, Location: orig.Location}
			for pos, oi := range m.Permutation {
				w := orig.Workers[oi]
				w.Rank = pos + 1
				perm.Workers = append(perm.Workers, w)
			}
			direct, ok := ev.Unfairness(perm, af)
			if !ok {
				t.Fatal("direct re-measurement undefined")
			}
			testutil.Approx(t, "served-after vs direct re-measurement", m.After, direct, 1e-12)
		})
	}
}

// TestServeMitigateCacheAndRefresh pins the caching contract for
// Problem 3: identical requests hit, a different mitigator misses, and a
// refresh bumps the generation so the same request recomputes — with the
// identical answer, since the pages ride along unchanged.
func TestServeMitigateCacheAndRefresh(t *testing.T) {
	eng := serve.NewEngine(paperSnapshot(), serve.Options{})
	req := servedGoldens()[0].req

	first := eng.Do(req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	hit := eng.Do(req)
	if !hit.CacheHit {
		t.Fatal("identical mitigate request missed the cache")
	}
	testutil.Approx(t, "cached after", hit.Mitigation.After, first.Mitigation.After, 0)

	other := req
	other.Mitigator = mitigate.DetGreedy
	if resp := eng.Do(other); resp.Err != nil || resp.CacheHit {
		t.Fatalf("different mitigator must recompute: err=%v hit=%v", resp.Err, resp.CacheHit)
	}

	eng.Refresh(nil)
	again := eng.Do(req)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if again.CacheHit {
		t.Fatal("request hit the cache across a generation bump")
	}
	if again.Gen <= first.Gen {
		t.Fatalf("generation did not advance: %d → %d", first.Gen, again.Gen)
	}
	testutil.Approx(t, "after across refresh", again.Mitigation.After, first.Mitigation.After, 0)
}

// TestServeMitigateErrors walks every refusal path: validation rejects
// (malformed shape) and snapshot-dependent errors (no pages, unknown
// page, untracked attribute).
func TestServeMitigateErrors(t *testing.T) {
	good := serve.Request{
		Problem: serve.Mitigate, Mitigator: mitigate.FairTopK,
		Group: targetAF, Query: paperQuery, Location: paperLocation,
	}
	mod := func(f func(*serve.Request)) serve.Request { r := good; f(&r); return r }

	cases := []struct {
		name string
		req  serve.Request
		want string
	}{
		{"empty group", mod(func(r *serve.Request) { r.Group = "" }), "target group"},
		{"empty query", mod(func(r *serve.Request) { r.Query = "" }), "query and a location"},
		{"empty location", mod(func(r *serve.Request) { r.Location = "" }), "query and a location"},
		{"unknown mitigator", mod(func(r *serve.Request) { r.Mitigator = mitigate.Kind(9) }), "unknown mitigator"},
		{"proportion out of range", mod(func(r *serve.Request) { r.MinProportion = 1.5 }), "MinProportion"},
		{"alpha out of range", mod(func(r *serve.Request) { r.Alpha = 1.0 }), "Alpha"},
		{"negative budget", mod(func(r *serve.Request) { r.SwapBudget = -1 }), "SwapBudget"},
		{"unknown page", mod(func(r *serve.Request) { r.Query = "Plumbing" }), "no page"},
		{"untracked attribute", mod(func(r *serve.Request) { r.Group = "age=Old" }), "does not track"},
		{"malformed group key", mod(func(r *serve.Request) { r.Group = "not-a-key" }), "group key"},
	}
	eng := serve.NewEngine(paperSnapshot(), serve.Options{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := eng.Do(c.req)
			if resp.Err == nil {
				t.Fatalf("request accepted: %+v", c.req)
			}
			if !strings.Contains(resp.Err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", resp.Err, c.want)
			}
			if resp.Mitigation != nil {
				t.Fatal("failed request still carries a Mitigation")
			}
		})
	}

	// A snapshot built without pages refuses every mitigate request with
	// a pointer at the right constructor.
	bare := serve.NewEngine(serve.NewSnapshot(core.NewTable()), serve.Options{})
	if resp := bare.Do(good); resp.Err == nil || !strings.Contains(resp.Err.Error(), "NewSnapshotWithRankings") {
		t.Fatalf("pageless snapshot error = %v", resp.Err)
	}
}

// TestServeMitigateConcurrent is the mitigation gate's race-stress test:
// many goroutines issue mitigate requests across all three re-rankers
// and several target groups while refreshes publish new generations
// mid-flight. Every response must be a valid permutation of the page
// with its invariants intact; run under -race this pins that a shared
// snapshot's pages really are read-only.
func TestServeMitigateConcurrent(t *testing.T) {
	eng := serve.NewEngine(paperSnapshot(), serve.Options{Workers: 4})
	groups := []string{
		targetAF,
		"ethnicity=Black&gender=Female",
		"gender=Female",
		"ethnicity=White",
	}
	const goroutines = 8
	const rounds = 30

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := serve.Request{
					Problem:    serve.Mitigate,
					Mitigator:  mitigate.Kinds()[(g+i)%3],
					Group:      groups[(g*rounds+i)%len(groups)],
					Query:      paperQuery,
					Location:   paperLocation,
					SwapBudget: i % 5,
				}
				resp := eng.Do(req)
				if resp.Err != nil {
					errs <- resp.Err
					return
				}
				m := resp.Mitigation
				seen := make([]bool, len(m.Permutation))
				for _, oi := range m.Permutation {
					if oi < 0 || oi >= len(seen) || seen[oi] {
						errs <- errPermutation(m.Permutation)
						return
					}
					seen[oi] = true
				}
				if len(m.Permutation) != 10 || len(m.IDs) != 10 {
					errs <- errPermutation(m.Permutation)
					return
				}
				if req.Mitigator == mitigate.ExposureParity && m.After > m.Before+1e-12 {
					errs <- errExposureRegression(m.Before, m.After)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			eng.Refresh(nil)
		}
		close(done)
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type permError struct{ perm []int }

func (e permError) Error() string { return "invalid permutation in concurrent mitigate response" }

func errPermutation(perm []int) error { return permError{perm} }

type exposureError struct{ before, after float64 }

func (e exposureError) Error() string {
	return "exposure-parity made the page worse under race stress"
}

func errExposureRegression(before, after float64) error {
	return exposureError{before, after}
}
