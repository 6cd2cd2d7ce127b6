//go:build faultinject

package cluster_test

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/faultinject"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// The partition chaos suite only builds with -tags faultinject
// (scripts/check.sh runs it under -race). Each test arms one of the
// cluster failpoints keyed by partition id, drives the coordinator
// through the fault, asserts the typed degradation contract — a downed
// partition yields a *PartialResultError naming exactly the missing
// partitions, never a hang or a whole-request failure — and then clears
// the fault and asserts byte-identical convergence with a standalone
// engine.

// chaosFixture builds a coordinator over n partitions plus the
// reference single engine, both cache-less.
func chaosFixture(t *testing.T, n int, opts cluster.Options) (*cluster.Coordinator, *serve.Engine, *core.Table) {
	t.Helper()
	tbl := clusterTable(stats.NewRNG(21), 6, 5, 4, 0.15)
	opts.Partitions = n
	opts.NodeCacheSize = -1
	coord := cluster.New(tbl, opts)
	single := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{CacheSize: -1, Workers: 1})
	return coord, single, tbl
}

// chaosRequests is a compact all-problem probe: quantify on each
// dimension plus a compare.
func chaosRequests(tbl *core.Table) []serve.Request {
	var gks []string
	for _, g := range tbl.Groups() {
		gks = append(gks, g.Key())
	}
	return []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByQuery, K: 2, Algorithm: topk.NRA},
		{Problem: serve.Quantify, Dim: compare.ByLocation, K: 2, Algorithm: topk.FA},
		{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByQuery},
	}
}

// TestClusterPartitionDown: one partition hard-down must degrade every
// answer to a typed *PartialResultError naming exactly that partition —
// never hang, never fail the whole request — and the degraded payload
// must equal a standalone engine over the union of the surviving
// partitions' cells. Clearing the fault restores byte-identical full
// answers.
func TestClusterPartitionDown(t *testing.T) {
	defer faultinject.Reset()
	const n, downed = 3, 1
	coord, single, tbl := chaosFixture(t, n, cluster.Options{
		Retry: serve.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})

	faultinject.SetKeyed(faultinject.ClusterPartitionDown, func(key string) error {
		if key == strconv.Itoa(downed) {
			return errors.New("injected: partition down")
		}
		return nil
	})

	// The surviving-data reference: the original table minus the downed
	// partition's cells.
	survivor := core.NewTable()
	tbl.Range(func(tr core.Triple, v float64) {
		if cluster.Route(tr.Query, tr.Location, n) == downed {
			return
		}
		g, _ := tbl.GroupByKey(tr.GroupKey)
		survivor.Set(g, tr.Query, tr.Location, v)
	})
	degradedRef := serve.NewEngine(serve.NewSnapshot(survivor), serve.Options{CacheSize: -1, Workers: 1})

	for i, req := range chaosRequests(tbl) {
		done := make(chan serve.Response, 1)
		go func() { done <- coord.Do(req) }()
		var resp serve.Response
		select {
		case resp = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d hung with partition %d down", i, downed)
		}

		if !errors.Is(resp.Err, cluster.ErrPartialResult) {
			t.Fatalf("request %d: want ErrPartialResult, got %v", i, resp.Err)
		}
		var pres *cluster.PartialResultError
		if !errors.As(resp.Err, &pres) {
			t.Fatalf("request %d: error %v is not a *PartialResultError", i, resp.Err)
		}
		if len(pres.Missing) != 1 || pres.Missing[0] != downed || pres.Partitions != n {
			t.Fatalf("request %d: partial error names %v of %d, want [%d] of %d",
				i, pres.Missing, pres.Partitions, downed, n)
		}
		if pres.Cause != nil {
			t.Fatalf("request %d: degraded recompute itself failed: %v", i, pres.Cause)
		}

		// The degraded payload equals the survivors-only engine's answer.
		wantResp := degradedRef.Do(req)
		got := fmt.Sprintf("results=%+v cmp=%+v", resp.Results, resp.Comparison)
		want := fmt.Sprintf("results=%+v cmp=%+v", wantResp.Results, wantResp.Comparison)
		if got != want {
			t.Errorf("request %d: degraded answer diverged from survivors-only engine:\n got: %s\nwant: %s", i, got, want)
		}
	}
	if faultinject.Hits(faultinject.ClusterPartitionDown) == 0 {
		t.Fatal("down failpoint never fired")
	}

	// Fault cleared: every answer converges back to byte-identical.
	faultinject.Clear(faultinject.ClusterPartitionDown)
	for i, req := range chaosRequests(tbl) {
		got, want := fingerprint(coord.Do(req)), fingerprint(single.Do(req))
		if got != want {
			t.Errorf("request %d did not converge after fault cleared:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestClusterPartitionSlow: a stalled partition is absorbed by hedging —
// the hedge duplicate returns the full (non-partial) answer and the
// stuck primary is canceled, not waited for.
func TestClusterPartitionSlow(t *testing.T) {
	defer faultinject.Reset()
	const n = 3
	coord, single, tbl := chaosFixture(t, n, cluster.Options{Seed: 5})
	req := chaosRequests(tbl)[0]
	want := fingerprint(single.Do(req))

	// Warm the latency trackers past hedgeAfterSamples so the hedge
	// timer arms.
	for i := 0; i < 12; i++ {
		if got := fingerprint(coord.Do(req)); got != want {
			t.Fatalf("warmup request %d diverged:\n got: %s\nwant: %s", i, got, want)
		}
	}

	// Stall exactly one send per partition: the primary leg blocks until
	// the test releases it, every later leg (the hedge) passes through.
	release := make(chan struct{})
	var stalled [n]atomic.Bool
	faultinject.SetKeyed(faultinject.ClusterPartitionSlow, func(key string) error {
		p, _ := strconv.Atoi(key)
		if stalled[p].CompareAndSwap(false, true) {
			<-release
		}
		return nil
	})
	defer close(release)

	hedgesBefore := coord.Registry().Counter("cluster_hedges_total").Value()
	winsBefore := coord.Registry().Counter("cluster_hedge_wins_total").Value()
	cancelsBefore := coord.Registry().Counter("cluster_hedge_loser_cancels_total").Value()

	done := make(chan serve.Response, 1)
	go func() { done <- coord.Do(req) }()
	var resp serve.Response
	select {
	case resp = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("request hung behind a slow partition despite hedging")
	}

	if got := fingerprint(resp); got != want {
		t.Fatalf("hedged answer diverged (err=%v):\n got: %s\nwant: %s", resp.Err, got, want)
	}
	if errors.Is(resp.Err, cluster.ErrPartialResult) {
		t.Fatalf("slow partition must be absorbed by hedging, not degraded: %v", resp.Err)
	}
	if hedges := coord.Registry().Counter("cluster_hedges_total").Value(); hedges <= hedgesBefore {
		t.Fatal("no hedge was launched against the stalled partition")
	}
	if wins := coord.Registry().Counter("cluster_hedge_wins_total").Value(); wins <= winsBefore {
		t.Fatal("hedge never won against the stalled primary")
	}
	if cancels := coord.Registry().Counter("cluster_hedge_loser_cancels_total").Value(); cancels <= cancelsBefore {
		t.Fatal("stalled loser was never canceled")
	}
}

// TestClusterPartitionFlap: a partition failing every other send is
// absorbed by the per-leg retry policy — answers stay byte-identical
// and non-partial throughout the flap.
func TestClusterPartitionFlap(t *testing.T) {
	defer faultinject.Reset()
	const n, flapping = 3, 0
	coord, single, tbl := chaosFixture(t, n, cluster.Options{
		Retry: serve.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})

	var calls atomic.Uint64
	faultinject.SetKeyed(faultinject.ClusterPartitionFlap, func(key string) error {
		if key != strconv.Itoa(flapping) {
			return nil
		}
		if calls.Add(1)%2 == 1 {
			return errors.New("injected: partition flapped")
		}
		return nil
	})

	for i, req := range chaosRequests(tbl) {
		got, want := fingerprint(coord.Do(req)), fingerprint(single.Do(req))
		if got != want {
			t.Errorf("request %d diverged under flapping:\n got: %s\nwant: %s", i, got, want)
		}
	}
	if faultinject.Hits(faultinject.ClusterPartitionFlap) == 0 {
		t.Fatal("flap failpoint never fired")
	}
	if coord.Registry().Counter("cluster_leg_retries_total").Value() == 0 {
		t.Fatal("flapping partition never exercised the leg retry policy")
	}
}

// TestClusterGenPinRepin: a partition refreshed mid-request trips the
// generation pin, and the coordinator re-pins and restarts, ending with
// a consistent single-generation answer over the refreshed data.
func TestClusterGenPinRepin(t *testing.T) {
	defer faultinject.Reset()
	const n = 3
	tbl := clusterTable(stats.NewRNG(21), 6, 5, 4, 0.15)
	coord := cluster.New(tbl, cluster.Options{Partitions: n, NodeCacheSize: -1})
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA}

	// Arm the flap failpoint as a one-shot trigger: the first send to
	// partition 0 refreshes the node underneath the request's pin and
	// lets the send through, so the node itself refuses the stale pin.
	var fired atomic.Bool
	faultinject.SetKeyed(faultinject.ClusterPartitionFlap, func(key string) error {
		if key == "0" && fired.CompareAndSwap(false, true) {
			coord.Node(0).Refresh(nil) // same cells, new generation
		}
		return nil
	})

	resp := coord.Do(req)
	if resp.Err != nil {
		t.Fatalf("repinned request failed: %v", resp.Err)
	}
	if coord.Registry().Counter("cluster_repins_total").Value() == 0 {
		t.Fatal("generation flip never triggered a repin")
	}
	// The refreshed cluster still answers identically to a fresh single
	// engine (the refresh changed no cells).
	single := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{CacheSize: -1, Workers: 1})
	if got, want := fingerprint(resp), fingerprint(single.Do(req)); got != want {
		t.Fatalf("post-repin answer diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestClusterFaultPropertyConvergence is the property harness: random
// transient fault patterns (flaps and stalls drawn from a seeded RNG)
// must never change an answer — whenever no partition is permanently
// down, the coordinator converges to the exact single-engine answer.
func TestClusterFaultPropertyConvergence(t *testing.T) {
	defer faultinject.Reset()
	const n = 4
	coord, single, tbl := chaosFixture(t, n, cluster.Options{
		Retry: serve.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	reqs := chaosRequests(tbl)
	want := make([]string, len(reqs))
	for i, req := range reqs {
		want[i] = fingerprint(single.Do(req))
	}

	rng := stats.NewRNG(1234)
	var mu sync.Mutex // the handlers run concurrently; guard the RNG
	faultinject.SetKeyed(faultinject.ClusterPartitionFlap, func(key string) error {
		mu.Lock()
		flake := rng.Float64() < 0.3
		mu.Unlock()
		if flake {
			return errors.New("injected: transient flake")
		}
		return nil
	})
	faultinject.SetKeyed(faultinject.ClusterPartitionSlow, func(key string) error {
		mu.Lock()
		stall := rng.Float64() < 0.2
		mu.Unlock()
		if stall {
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})

	for round := 0; round < 10; round++ {
		for i, req := range reqs {
			// A transient pattern may exhaust one request's whole retry
			// budget; that request degrades to a TYPED partial — never a
			// silent wrong answer — and the property under test is
			// convergence: with no partition permanently down, re-issuing
			// reaches the exact single-engine answer.
			var resp serve.Response
			for try := 0; ; try++ {
				resp = coord.Do(req)
				if !errors.Is(resp.Err, cluster.ErrPartialResult) {
					break
				}
				if try == 50 {
					t.Fatalf("round %d request %d never converged: still partial after %d tries (%v)", round, i, try, resp.Err)
				}
			}
			if got := fingerprint(resp); got != want[i] {
				t.Fatalf("round %d request %d diverged under transient faults:\n got: %s\nwant: %s", round, i, got, want[i])
			}
		}
	}

	// Faults cleared: still byte-identical, and the request context path
	// is clean (no lingering degradation).
	faultinject.Reset()
	for i, req := range reqs {
		if got := fingerprint(coord.Do(req)); got != want[i] {
			t.Fatalf("request %d did not converge after faults cleared:\n got: %s\nwant: %s", i, got, want[i])
		}
	}
}

// TestClusterDeadlineNeverHangs: a coordinator facing a fully stalled
// cluster under a request deadline returns a typed deadline error
// within the budget — the fan-out never outlives its request.
func TestClusterDeadlineNeverHangs(t *testing.T) {
	defer faultinject.Reset()
	const n = 3
	coord, _, tbl := chaosFixture(t, n, cluster.Options{
		MinLegBudget: 5 * time.Millisecond,
	})
	release := make(chan struct{})
	faultinject.SetKeyed(faultinject.ClusterPartitionSlow, func(string) error {
		<-release
		return nil
	})
	defer close(release)

	req := chaosRequests(tbl)[0]
	req.Deadline = 100 * time.Millisecond
	done := make(chan serve.Response, 1)
	start := time.Now()
	go func() { done <- coord.Do(req) }()
	select {
	case resp := <-done:
		if !errors.Is(resp.Err, serve.ErrDeadlineExceeded) && !errors.Is(resp.Err, cluster.ErrPartialResult) {
			t.Fatalf("want deadline or partial error from a stalled cluster, got %v", resp.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("request outlived its %v deadline by %v", req.Deadline, time.Since(start))
	}
}
