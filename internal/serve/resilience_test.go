package serve_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// TestDoCtxTypedCancellation pins the error taxonomy: a dead context is
// refused with the package's typed sentinels, and those sentinels still
// match the underlying context errors via errors.Is.
func TestDoCtxTypedCancellation(t *testing.T) {
	rng := stats.NewRNG(51)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{CacheSize: -1})
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	resp := eng.DoCtx(canceled, req)
	if !errors.Is(resp.Err, serve.ErrCanceled) || !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want ErrCanceled wrapping context.Canceled", resp.Err)
	}
	if resp.Gen != snap.Gen() {
		t.Fatalf("refused response lost its generation: %d", resp.Gen)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	resp = eng.DoCtx(expired, req)
	if !errors.Is(resp.Err, serve.ErrDeadlineExceeded) || !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v, want ErrDeadlineExceeded wrapping context.DeadlineExceeded", resp.Err)
	}

	reg := eng.Registry()
	if got := reg.Counter("serve_canceled_total").Value(); got != 1 {
		t.Fatalf("serve_canceled_total = %d, want 1", got)
	}
	if got := reg.Counter("serve_deadline_exceeded_total").Value(); got != 1 {
		t.Fatalf("serve_deadline_exceeded_total = %d, want 1", got)
	}
}

// TestCacheHitBypassesDeadContext pins the documented probe-before-gate
// ordering: a cached answer costs no compute, so it is served even on a
// context that is already dead.
func TestCacheHitBypassesDeadContext(t *testing.T) {
	rng := stats.NewRNG(52)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{})
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}

	warm := eng.Do(req)
	if warm.Err != nil {
		t.Fatalf("warmup: %v", warm.Err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp := eng.DoCtx(ctx, req)
	if resp.Err != nil || !resp.CacheHit {
		t.Fatalf("cached request on dead ctx: hit=%v err=%v, want a free cache hit", resp.CacheHit, resp.Err)
	}
	if fingerprint(resp) != fingerprint(warm) {
		t.Fatal("cache hit on dead ctx returned a different answer")
	}
}

// TestDrainConfigShedsAllCompute covers MaxInflight < 0, the drain
// configuration: every compute request sheds with ErrOverloaded, the shed
// counter ticks, and Ready reports the engine as unready.
func TestDrainConfigShedsAllCompute(t *testing.T) {
	rng := stats.NewRNG(53)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{CacheSize: -1, MaxInflight: -1})

	for i, req := range []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 1, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByQuery, K: 2, Algorithm: topk.Naive},
	} {
		if resp := eng.Do(req); !errors.Is(resp.Err, serve.ErrOverloaded) {
			t.Fatalf("request %d under drain: err = %v, want ErrOverloaded", i, resp.Err)
		}
	}
	if got := eng.Registry().Counter("serve_shed_total").Value(); got != 2 {
		t.Fatalf("serve_shed_total = %d, want 2", got)
	}
	if err := eng.Ready(); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("Ready under drain = %v, want an error wrapping ErrOverloaded", err)
	}
}

// TestReadyOnHealthyEngine is the happy half of the readiness probe.
func TestReadyOnHealthyEngine(t *testing.T) {
	rng := stats.NewRNG(54)
	snap := serve.NewSnapshot(randomTable(rng, 3, 2, 2, 0))
	for _, opts := range []serve.Options{{}, {MaxInflight: 4}} {
		if err := serve.NewEngine(snap, opts).Ready(); err != nil {
			t.Fatalf("Ready on idle engine (%+v) = %v, want nil", opts, err)
		}
	}
}

// TestRefreshRetriesTransientPanics drives RefreshCtx through two
// poisoned builds before a clean one: the retry policy absorbs the
// panics, refresh_retries_total counts them, no real time is slept, and
// the snapshot generation advances with the update applied.
func TestRefreshRetriesTransientPanics(t *testing.T) {
	rng := stats.NewRNG(55)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	var slept []time.Duration
	eng := serve.NewEngine(snap, serve.Options{
		CacheSize: -1,
		Retry:     serve.RetryPolicy{MaxAttempts: 4, Sleep: func(d time.Duration) { slept = append(slept, d) }},
	})
	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g00"})
	builds := 0
	next, err := eng.RefreshCtx(context.Background(), func(tbl *core.Table) {
		builds++
		if builds <= 2 {
			panic("transient store hiccup")
		}
		tbl.Set(g, "q00", "l00", 0.5)
	})
	if err != nil {
		t.Fatalf("RefreshCtx: %v", err)
	}
	if builds != 3 || len(slept) != 2 {
		t.Fatalf("builds=%d sleeps=%d, want 3 and 2", builds, len(slept))
	}
	if next.Gen() <= snap.Gen() || eng.Snapshot() != next {
		t.Fatalf("refresh did not publish a newer generation: %d -> %d", snap.Gen(), next.Gen())
	}
	if got := eng.Registry().Counter("refresh_retries_total").Value(); got != 2 {
		t.Fatalf("refresh_retries_total = %d, want 2", got)
	}
}

// TestRefreshFailureKeepsOldGeneration: when every build attempt dies,
// RefreshCtx reports ErrInternal and the engine keeps serving the
// previous snapshot — a broken refresh must never unpublish a good one.
func TestRefreshFailureKeepsOldGeneration(t *testing.T) {
	rng := stats.NewRNG(56)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{
		CacheSize: -1,
		Retry:     serve.RetryPolicy{Sleep: func(time.Duration) {}},
	})
	_, err := eng.RefreshCtx(context.Background(), func(*core.Table) { panic("poisoned update") })
	if !errors.Is(err, serve.ErrInternal) {
		t.Fatalf("RefreshCtx = %v, want an error wrapping ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("terminal error %q does not report the attempt budget", err)
	}
	if eng.Snapshot() != snap {
		t.Fatal("failed refresh replaced the serving snapshot")
	}
	resp := eng.Do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 1, Algorithm: topk.TA})
	if resp.Err != nil || resp.Gen != snap.Gen() {
		t.Fatalf("engine unhealthy after failed refresh: gen=%d err=%v", resp.Gen, resp.Err)
	}
}

// TestRefreshCtxObservesCancellation: a dead context aborts the refresh
// with the typed error before any build is attempted.
func TestRefreshCtxObservesCancellation(t *testing.T) {
	rng := stats.NewRNG(57)
	eng := serve.NewEngine(serve.NewSnapshot(randomTable(rng, 3, 2, 2, 0)), serve.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	applied := false
	_, err := eng.RefreshCtx(ctx, func(*core.Table) { applied = true })
	if !errors.Is(err, serve.ErrCanceled) {
		t.Fatalf("RefreshCtx on dead ctx = %v, want ErrCanceled", err)
	}
	if applied {
		t.Fatal("canceled refresh still ran the update")
	}
}

// TestDoBatchCtxCancellationLosesNoResponse: a batch on a dead context
// still returns one Response per Request, each carrying the typed error —
// callers can always tell which members of a batch completed.
func TestDoBatchCtxCancellationLosesNoResponse(t *testing.T) {
	rng := stats.NewRNG(58)
	snap := serve.NewSnapshot(randomTable(rng, 5, 4, 3, 0.1))
	eng := serve.NewEngine(snap, serve.Options{Workers: 4, CacheSize: -1})
	reqs := battery(snap)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := eng.DoBatchCtx(ctx, reqs)
	if len(out) != len(reqs) {
		t.Fatalf("batch returned %d responses for %d requests", len(out), len(reqs))
	}
	for i, resp := range out {
		if !errors.Is(resp.Err, serve.ErrCanceled) {
			t.Fatalf("response %d: err = %v, want ErrCanceled", i, resp.Err)
		}
		if resp.Gen != snap.Gen() {
			t.Fatalf("response %d lost its generation", i)
		}
	}
}

// TestSwapDuringBatchKeepsBatchConsistent swaps snapshots while batches
// run over a tiny, eviction-churning cache: every response in one batch
// must report the same pinned generation, and every answer must match
// that generation's baseline — a batch is one consistent read even while
// the cache is evicting entries from both generations.
func TestSwapDuringBatchKeepsBatchConsistent(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	rng := stats.NewRNG(59)
	s1 := serve.NewSnapshot(randomTable(rng, 6, 4, 4, 0.1))
	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g00"})
	s2 := s1.WithUpdates(func(tbl *core.Table) {
		for _, q := range tbl.Queries() {
			for _, l := range tbl.Locations() {
				tbl.Set(g, q, l, 0.999)
			}
		}
	})

	reqs := battery(s1)
	baseline := map[uint64][]string{}
	for _, s := range []*serve.Snapshot{s1, s2} {
		ref := serve.NewEngine(s, serve.Options{Workers: 1, CacheSize: -1})
		fps := make([]string, len(reqs))
		for i, r := range reqs {
			fps[i] = fingerprint(ref.Do(r))
		}
		baseline[s.Gen()] = fps
	}

	// CacheSize 2 over a battery of dozens of distinct requests ≈
	// constant eviction churn across both generations' keys.
	eng := serve.NewEngine(s1, serve.Options{Workers: 8, CacheSize: 2})
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				eng.Swap(s2)
			} else {
				eng.Swap(s1)
			}
		}
	}()

	for round := 0; round < rounds; round++ {
		out := eng.DoBatch(reqs)
		gen := out[0].Gen
		fps, ok := baseline[gen]
		if !ok {
			t.Fatalf("round %d: batch reported unknown generation %d", round, gen)
		}
		for i, resp := range out {
			if resp.Gen != gen {
				t.Fatalf("round %d: batch mixed generations %d and %d", round, gen, resp.Gen)
			}
			if resp.Err != nil {
				t.Fatalf("round %d request %d: %v", round, i, resp.Err)
			}
			if got := fingerprint(resp); got != fps[i] {
				t.Fatalf("round %d request %d: answer blended across generations", round, i)
			}
		}
	}
	close(stop)
	swapper.Wait()
}

// TestAdmissionBoundsConcurrentCompute runs a gated engine under heavy
// parallel load: requests either complete correctly or shed with the
// typed overload error, and nothing deadlocks or panics under -race.
func TestAdmissionBoundsConcurrentCompute(t *testing.T) {
	rng := stats.NewRNG(60)
	snap := serve.NewSnapshot(randomTable(rng, 6, 4, 4, 0.1))
	eng := serve.NewEngine(snap, serve.Options{CacheSize: -1, MaxInflight: 2})
	reqs := battery(snap)
	want := make([]string, len(reqs))
	ref := serve.NewEngine(snap, serve.Options{Workers: 1, CacheSize: -1})
	for i, r := range reqs {
		want[i] = fingerprint(ref.Do(r))
	}

	var wg sync.WaitGroup
	var completed, shedded int
	var mu sync.Mutex
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 30; n++ {
				i := (w + n) % len(reqs)
				resp := eng.Do(reqs[i])
				if errors.Is(resp.Err, serve.ErrOverloaded) {
					mu.Lock()
					shedded++
					mu.Unlock()
					continue
				}
				if resp.Err != nil {
					t.Errorf("unexpected error: %v", resp.Err)
					return
				}
				if fingerprint(resp) != want[i] {
					t.Errorf("gated engine corrupted request %d", i)
					return
				}
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if completed == 0 {
		t.Fatal("no request completed under admission control")
	}
	shed := eng.Registry().Counter("serve_shed_total").Value()
	if shed != uint64(shedded) {
		t.Fatalf("serve_shed_total = %d, but %d requests saw ErrOverloaded", shed, shedded)
	}
	if err := eng.Ready(); err != nil {
		t.Fatalf("Ready after load drained = %v, want nil", err)
	}
}
