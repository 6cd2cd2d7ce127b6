package serve_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/testutil"
	"fairjob/internal/topk"
)

// TestEngineTelemetryCounters runs the full battery twice — a miss pass
// and a hit pass — and cross-checks every serve metric family against
// what the workload actually did: request counts, cache counters (also
// via CacheStats), per-problem latency samples, per-algorithm top-k
// access costs, and comparison access counts.
func TestEngineTelemetryCounters(t *testing.T) {
	rng := stats.NewRNG(11)
	snap := serve.NewSnapshot(randomTable(rng, 6, 4, 3, 0.2))
	reg := obs.NewRegistry()
	eng := serve.NewEngine(snap, serve.Options{Obs: reg})

	reqs := battery(snap)
	var quantifies, compares uint64
	for _, r := range reqs {
		if r.Problem == serve.Quantify {
			quantifies++
		} else {
			compares++
		}
	}
	for _, r := range reqs { // miss pass
		if resp := eng.Do(r); resp.Err != nil {
			t.Fatalf("request errored: %v", resp.Err)
		}
	}
	for _, r := range reqs { // hit pass
		if resp := eng.Do(r); !resp.CacheHit {
			t.Fatalf("second pass missed the cache: %+v", r)
		}
	}

	s := reg.Snapshot()
	total := uint64(2 * len(reqs))
	if got := s.CounterSum("serve_requests_total"); got != total {
		t.Fatalf("requests = %d, want %d", got, total)
	}
	if got := s.Counters[obs.Name("serve_requests_total", "problem", "quantify")]; got != 2*quantifies {
		t.Fatalf("quantify requests = %d, want %d", got, 2*quantifies)
	}
	if got := s.Counters["serve_cache_hits_total"]; got != uint64(len(reqs)) {
		t.Fatalf("cache hits = %d, want %d", got, len(reqs))
	}
	if got := s.Counters["serve_cache_misses_total"]; got != uint64(len(reqs)) {
		t.Fatalf("cache misses = %d, want %d", got, len(reqs))
	}
	if got := s.Counters["serve_errors_total"]; got != 0 {
		t.Fatalf("errors = %d, want 0", got)
	}

	// CacheStats must be a view over the same counters.
	cs := eng.CacheStats()
	if cs.Hits != s.Counters["serve_cache_hits_total"] || cs.Misses != s.Counters["serve_cache_misses_total"] {
		t.Fatalf("CacheStats %+v diverges from obs counters", cs)
	}
	if cs.Entries != len(reqs) {
		t.Fatalf("cache entries = %d, want %d distinct requests", cs.Entries, len(reqs))
	}

	// Every request — hit or miss — lands one latency sample.
	if h, ok := s.MergeHistograms("serve_request_seconds"); !ok || h.Count != total {
		t.Fatalf("latency samples = %d (found=%v), want %d", h.Count, ok, total)
	}

	// Each quantify miss executes one top-k algorithm and records its
	// Stats; hits answer from cache without touching the algorithms.
	var topkSamples uint64
	for _, a := range topk.Algorithms() {
		h := s.Histograms[obs.Name("topk_sorted_accesses", "algo", a.String())]
		topkSamples += h.Count
		r := s.Histograms[obs.Name("topk_random_accesses", "algo", a.String())]
		if r.Count != h.Count {
			t.Fatalf("algo %v: sorted samples %d != random samples %d", a, h.Count, r.Count)
		}
	}
	if topkSamples != quantifies {
		t.Fatalf("topk access samples = %d, want %d (one per quantify miss)", topkSamples, quantifies)
	}

	// Each compare miss records its Algorithm 3 random-access count.
	if h := s.Histograms["compare_accesses"]; h.Count != compares {
		t.Fatalf("compare access samples = %d, want %d", h.Count, compares)
	}
	if h := s.Histograms["compare_accesses"]; h.Sum <= 0 {
		t.Fatal("comparisons reported zero table accesses")
	}

	// Engine-level gauges.
	if got := s.Gauges["serve_snapshot_generation"]; got != float64(snap.Gen()) {
		t.Fatalf("generation gauge = %g, want %d", got, snap.Gen())
	}
	if got := s.Gauges["serve_cache_entries"]; got != float64(cs.Entries) {
		t.Fatalf("cache entries gauge = %g, want %d", got, cs.Entries)
	}
	if got := s.Gauges["serve_snapshot_age_seconds"]; got < 0 {
		t.Fatalf("snapshot age = %g", got)
	}
}

// TestEngineTracing checks the per-query trace lifecycle: the phase
// spans on the miss path, the cache annotation on the hit path, the
// error annotation on rejects, and the ring's bounded retention.
func TestEngineTracing(t *testing.T) {
	rng := stats.NewRNG(12)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	tz := obs.NewTracer(4)
	eng := serve.NewEngine(snap, serve.Options{Tracer: tz})

	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	eng.Do(req)                                           // miss
	eng.Do(req)                                           // hit
	eng.Do(serve.Request{Problem: serve.Quantify, K: -1}) // reject

	if tz.Finished() != 3 {
		t.Fatalf("finished traces = %d, want 3", tz.Finished())
	}
	recent := tz.Recent() // newest first: reject, hit, miss
	if len(recent) != 3 {
		t.Fatalf("recent = %d traces", len(recent))
	}
	reject, hit, miss := recent[0], recent[1], recent[2]

	// A miss records its four phases as root-level spans that follow one
	// another without overlapping.
	wantSpans := []string{"validate", "cache-lookup", "execute", "access-accounting"}
	if len(miss.Children) != len(wantSpans) {
		t.Fatalf("miss spans = %+v", miss.Children)
	}
	for i, sp := range miss.Children {
		if sp.Name != wantSpans[i] || sp.Parent != 0 {
			t.Fatalf("miss span %d = %q under %d, want %q under the root", i, sp.Name, sp.Parent, wantSpans[i])
		}
		if i > 0 {
			if prev := miss.Children[i-1]; sp.Start < prev.Start+prev.Dur {
				t.Fatalf("miss span %q starts at %v, before %q ends at %v", sp.Name, sp.Start, prev.Name, prev.Start+prev.Dur)
			}
		}
		if end := sp.Start + sp.Dur; end > miss.Total {
			t.Fatalf("miss span %q ends at %v, after the trace total %v", sp.Name, end, miss.Total)
		}
	}
	if !hasAnnotation(hit, "cache", "hit") {
		t.Fatalf("hit trace lacks cache=hit: %+v", hit.Annots)
	}
	for _, sp := range hit.Children {
		if sp.Name == "execute" {
			t.Fatal("cache hit recorded an execute span")
		}
	}
	found := false
	for _, a := range reject.Annots {
		if a.Key == "err" && strings.Contains(a.Value, "k > 0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reject trace lacks err annotation: %+v", reject.Annots)
	}
	for _, tr := range recent {
		if err := tr.CheckSpans(); err != nil {
			t.Fatalf("trace %d malformed: %v", tr.ID, err)
		}
		if tr.Gen != snap.Gen() {
			t.Fatalf("trace gen = %d, want %d", tr.Gen, snap.Gen())
		}
		if tr.Total <= 0 {
			t.Fatalf("trace total = %v", tr.Total)
		}
	}

	// The ring retains only the most recent traces.
	for i := 0; i < 10; i++ {
		eng.Do(req)
	}
	if got := len(tz.Recent()); got != 4 {
		t.Fatalf("ring retained %d traces, want capacity 4", got)
	}
}

// TestTracingAllocatesNothing pins what each opt-in engine layer costs
// one request in allocations, on the cache-hit and the cache-miss path:
// the engine with the layer on, minus the default engine. These exact
// counts stand in for the per-layer wall-clock pairs that the overhead
// gate merged into one pair per stack (scripts/check.sh). The check is
// exact: a count that falls fails too, so its pin is lowered in the
// same change; a pin may rise only with its reason written down.
//
// The tracer's pin is the zero-garbage trace pool (DESIGN.md §9): a
// traced request, its phase spans included, allocates exactly as much
// as an untraced one, because the spans live in the pooled trace. The
// tracer keeps only its first
// fast-OK trace and the logger its first success in 128, which the
// warm-up request takes, so no retained trace or logged event is
// counted.
func TestTracingAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	snap := serve.NewSnapshot(randomTable(stats.NewRNG(12), 4, 3, 3, 0))
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	allocs := func(opts serve.Options) float64 {
		eng := serve.NewEngine(snap, opts)
		eng.Do(req)
		return testing.AllocsPerRun(100, func() { eng.Do(req) })
	}
	for _, layer := range []struct {
		name      string
		on        func(*serve.Options)
		hit, miss float64 // pinned allocations on minus off
	}{
		{"tracer", func(o *serve.Options) {
			o.Tracer = obs.NewTracerTailSampled(0, obs.TailSamplingPolicy{KeepOneInN: math.MaxUint64})
		}, 0, 0},
		{"logger+slo", func(o *serve.Options) {
			o.Log = obs.NewLogger(obs.LoggerOptions{SampleN: 128})
			o.SLO = obs.NewSLOMonitor([]obs.Objective{
				{Name: "latency", Target: 0.99, LatencyBound: 50 * time.Millisecond},
				{Name: "errors", Target: 0.999},
			}, obs.SLOOptions{})
		}, 0, 0},
		// A hit is answered before the deadline and the gate (DESIGN.md
		// §10); a miss pays context.WithTimeout and its timer.
		{"deadline+admission", func(o *serve.Options) {
			o.DefaultDeadline = time.Minute
			o.MaxInflight = 64
		}, 0, 5},
	} {
		for _, path := range []struct {
			name      string
			cacheSize int
			pin       float64
		}{{"hit", 0, layer.hit}, {"miss", -1, layer.miss}} {
			opts := serve.Options{CacheSize: path.cacheSize}
			off := allocs(opts)
			layer.on(&opts)
			on := allocs(opts)
			t.Logf("%s, %s path: %v allocs on, %v off", layer.name, path.name, on, off)
			if on-off != path.pin {
				t.Errorf("%s, %s path: %v allocs on, %v off; the layer costs %v, pinned at %v",
					layer.name, path.name, on, off, on-off, path.pin)
			}
		}
	}
}

// TestBatchTelemetry checks the batch-specific metrics: one batch-size
// sample per DoBatch, and per request one queue-wait histogram sample
// plus a QueueWait stamp on its trace.
func TestBatchTelemetry(t *testing.T) {
	rng := stats.NewRNG(13)
	snap := serve.NewSnapshot(randomTable(rng, 5, 4, 3, 0.1))
	reg := obs.NewRegistry()
	tz := obs.NewTracer(64)
	eng := serve.NewEngine(snap, serve.Options{Workers: 4, Obs: reg, Tracer: tz})

	reqs := battery(snap)
	eng.DoBatch(reqs)
	s := reg.Snapshot()
	if h := s.Histograms["serve_batch_size"]; h.Count != 1 || h.Sum != float64(len(reqs)) {
		t.Fatalf("batch size histogram = count %d sum %g, want 1/%d", h.Count, h.Sum, len(reqs))
	}
	if h := s.Histograms["serve_queue_wait_seconds"]; h.Count != uint64(len(reqs)) {
		t.Fatalf("queue wait samples = %d, want %d", h.Count, len(reqs))
	}
	for _, tr := range tz.Recent() {
		if tr.QueueWait <= 0 {
			t.Fatalf("batch trace queue wait = %v, want > 0", tr.QueueWait)
		}
	}
}

// TestEvictionTelemetry cycles three requests through a two-entry cache
// and checks the eviction counter against the LRU's own tally.
func TestEvictionTelemetry(t *testing.T) {
	rng := stats.NewRNG(14)
	snap := serve.NewSnapshot(randomTable(rng, 5, 3, 3, 0))
	reg := obs.NewRegistry()
	eng := serve.NewEngine(snap, serve.Options{CacheSize: 2, Obs: reg})
	reqs := []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 1, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA},
	}
	for round := 0; round < 3; round++ {
		for _, r := range reqs {
			eng.Do(r)
		}
	}
	cs := eng.CacheStats()
	if cs.Evictions == 0 {
		t.Fatal("cycling 3 requests through a 2-entry cache evicted nothing")
	}
	if got := reg.Snapshot().Counters["serve_cache_evictions_total"]; got != cs.Evictions {
		t.Fatalf("eviction counter = %d, CacheStats = %d", got, cs.Evictions)
	}
	if cs.Entries != 2 {
		t.Fatalf("entries = %d, want full capacity 2", cs.Entries)
	}
}

// TestErrorTelemetry checks that rejects and execution failures land in
// serve_errors_total and are not cached.
func TestErrorTelemetry(t *testing.T) {
	rng := stats.NewRNG(15)
	snap := serve.NewSnapshot(randomTable(rng, 3, 2, 2, 0))
	reg := obs.NewRegistry()
	eng := serve.NewEngine(snap, serve.Options{Obs: reg})

	eng.Do(serve.Request{Problem: serve.Quantify, K: 0}) // validation reject
	// Well-formed but unsatisfiable: a candidate restriction keeping no
	// members fails inside execute, after the request counter ticked.
	eng.Do(serve.Request{
		Problem: serve.Quantify, Dim: compare.ByGroup, K: 1, Algorithm: topk.TA,
		Candidates: []string{"cohort=nonexistent"},
	})
	s := reg.Snapshot()
	if got := s.Counters["serve_errors_total"]; got != 2 {
		t.Fatalf("errors = %d, want 2", got)
	}
	// Validation rejects never reach the request counters; execution
	// errors do (the request was well-formed).
	if got := s.CounterSum("serve_requests_total"); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
	if got := s.Counters["serve_cache_hits_total"]; got != 0 {
		t.Fatalf("cache hits = %d after errors", got)
	}
}

func hasAnnotation(tr *obs.Trace, key, value string) bool {
	for _, a := range tr.Annots {
		if a.Key == key && (value == "" || a.Value == value) {
			return true
		}
	}
	return false
}
