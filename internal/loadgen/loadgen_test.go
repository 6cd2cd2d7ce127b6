package loadgen

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fairjob/internal/core"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
)

func testEngine(tb testing.TB) *serve.Engine {
	tb.Helper()
	rng := stats.NewRNG(99)
	tbl := core.NewTable()
	for g := 0; g < 8; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%02d", g)})
		for q := 0; q < 12; q++ {
			for l := 0; l < 4; l++ {
				tbl.Set(grp, core.Query(fmt.Sprintf("q%02d", q)), core.Location(fmt.Sprintf("l%02d", l)), rng.Float64())
			}
		}
	}
	return serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{Workers: 2})
}

// TestHistQuantiles reads a run's summary of 1 µs … 1 ms in 1 µs steps:
// every quantile within 10% of the exact one and at most the exact
// maximum, the maximum and the mean exact, and an empty histogram all
// zeros.
func TestHistQuantiles(t *testing.T) {
	h := obs.NewHistogram(latencyBounds)
	var maxNS int64
	for i := int64(1); i <= 1000; i++ {
		ns := i * 1000 // 1µs .. 1ms
		h.Observe(float64(ns))
		maxNS = max(maxNS, ns)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	s := summarize(h, maxNS)
	if s.Max != 1000000 {
		t.Fatalf("max = %d", s.Max)
	}
	// Buckets are 3% apart; allow 10%.
	checks := []struct {
		name      string
		got, want int64
	}{{"p50", s.P50, 500_000}, {"p90", s.P90, 900_000}, {"p99", s.P99, 990_000}, {"p999", s.P999, 999_000}}
	for _, c := range checks {
		lo := c.want - c.want/10
		hi := c.want + c.want/10
		if c.got < lo || c.got > hi {
			t.Errorf("%s = %d, want within [%d, %d]", c.name, c.got, lo, hi)
		}
		if c.got > s.Max {
			t.Errorf("%s = %d exceeds the maximum %d", c.name, c.got, s.Max)
		}
	}
	if s.Mean != 500_500 {
		t.Errorf("mean = %v, want 500500", s.Mean)
	}
	if empty := summarize(obs.NewHistogram(latencyBounds), 0); empty != (LatencySummary{}) {
		t.Errorf("empty summary = %+v, want zeros", empty)
	}
}

func TestBuildWorkload(t *testing.T) {
	eng := testEngine(t)
	wl, err := BuildWorkload(NewEngineTarget(eng), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	labels := wl.Labels()
	if len(labels) == 0 {
		t.Fatal("no workload labels")
	}
	hasQuantify, hasCompare := false, false
	for _, l := range labels {
		if l == "quantify/TA" {
			hasQuantify = true
		}
		if l == "compare/group" {
			hasCompare = true
		}
	}
	if !hasQuantify || !hasCompare {
		t.Fatalf("labels = %v, want quantify/TA and compare/group present", labels)
	}

	// Every sampled request answers OK, including cache-busting variants.
	rng := stats.NewRNG(7)
	busted := 0
	for i := 0; i < 200; i++ {
		label, req := wl.Sample(rng)
		if label == "" {
			t.Fatal("empty label")
		}
		if len(req.Candidates) > 0 {
			busted++
		}
		if resp := eng.DoCtx(context.Background(), req); resp.Err != nil {
			t.Fatalf("sampled %s errored: %v", label, resp.Err)
		}
	}
	if busted == 0 {
		t.Fatal("uniqueFrac=0.5 never produced a cache-busting variant")
	}

	// Determinism: same RNG seed, same sample sequence.
	a, b := stats.NewRNG(11), stats.NewRNG(11)
	for i := 0; i < 50; i++ {
		la, ra := wl.Sample(a)
		lb, rb := wl.Sample(b)
		if la != lb || fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("sample %d diverged: %s vs %s", i, la, lb)
		}
	}
}

func TestRunnerReport(t *testing.T) {
	eng := testEngine(t)
	wl, err := BuildWorkload(NewEngineTarget(eng), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(NewEngineTarget(eng), wl, Options{
		Rate:     300,
		Arrival:  Poisson,
		Warmup:   150 * time.Millisecond,
		Duration: 500 * time.Millisecond,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run(context.Background())
	if rep.Interrupted {
		t.Fatal("uninterrupted run reported interrupted")
	}
	if rep.Sent == 0 || rep.Completed != rep.Sent {
		t.Fatalf("sent %d, completed %d", rep.Sent, rep.Completed)
	}
	if rep.WarmupRequests == 0 {
		t.Fatal("warmup offered no requests")
	}
	if rep.Outcomes["ok"] != rep.Completed {
		t.Fatalf("outcomes %v, want all ok of %d", rep.Outcomes, rep.Completed)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99 {
		t.Fatalf("latency summary disordered: %+v", rep.Latency)
	}
	if len(rep.ByLabel) == 0 {
		t.Fatal("no per-label stats")
	}
	var labelTotal int64
	for _, ls := range rep.ByLabel {
		labelTotal += ls.Count
		if ls.Latency.P50 <= 0 {
			t.Fatalf("label %s has zero p50", ls.Label)
		}
	}
	if labelTotal != rep.Completed {
		t.Fatalf("label counts sum to %d, completed %d", labelTotal, rep.Completed)
	}
	// The offered rate should be roughly achieved against this tiny
	// engine (generous bounds: CI hosts are noisy).
	if rep.AchievedRPS < 50 || rep.AchievedRPS > 1200 {
		t.Fatalf("achieved rps = %v at offered 300", rep.AchievedRPS)
	}
}

func TestRunnerGracefulCancel(t *testing.T) {
	eng := testEngine(t)
	wl, err := BuildWorkload(NewEngineTarget(eng), 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(NewEngineTarget(eng), wl, Options{
		Rate:     200,
		Warmup:   50 * time.Millisecond,
		Duration: 30 * time.Second, // cancelled long before this
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep := r.Run(ctx)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v to flush", elapsed)
	}
	if !rep.Interrupted {
		t.Fatal("cancelled run not marked interrupted")
	}
	if rep.Sent == 0 || rep.Completed == 0 {
		t.Fatalf("interrupted run flushed nothing: sent %d completed %d", rep.Sent, rep.Completed)
	}
}

func TestNewRunnerValidation(t *testing.T) {
	eng := testEngine(t)
	wl, _ := BuildWorkload(NewEngineTarget(eng), 0)
	if _, err := NewRunner(nil, wl, Options{Rate: 1}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewRunner(NewEngineTarget(eng), wl, Options{Rate: 0}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewRunner(NewEngineTarget(eng), wl, Options{Rate: 10, UniqueFrac: 1.5}); err == nil {
		t.Fatal("unique fraction 1.5 accepted")
	}
}

func TestParseArrival(t *testing.T) {
	if a, err := ParseArrival("poisson"); err != nil || a != Poisson {
		t.Fatalf("poisson: %v %v", a, err)
	}
	if a, err := ParseArrival("constant"); err != nil || a != Constant {
		t.Fatalf("constant: %v %v", a, err)
	}
	if _, err := ParseArrival("fibonacci"); err == nil {
		t.Fatal("bad arrival accepted")
	}
}
