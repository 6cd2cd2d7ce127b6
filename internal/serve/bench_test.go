package serve_test

import (
	"testing"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
)

// benchWorkload builds the serving benchmark's toy-experiment fixture: a
// table at the TaskRabbit case-study scale (11 groups × 48 queries × 10
// locations) and a 256-request mixed workload drawn from 32 distinct
// query shapes, each repeated 8× and deterministically shuffled — the
// "heavy traffic" regime where many users ask overlapping fairness
// questions.
func benchWorkload() (*serve.Snapshot, []serve.Request) {
	rng := stats.NewRNG(4242)
	snap := serve.NewSnapshot(randomTable(rng, 11, 48, 10, 0.1))
	distinct := battery(snap)
	if len(distinct) > 32 {
		distinct = distinct[:32]
	}
	reqs := make([]serve.Request, 0, len(distinct)*8)
	for rep := 0; rep < 8; rep++ {
		for i := range distinct {
			reqs = append(reqs, distinct[(i+rep*5)%len(distinct)])
		}
	}
	return snap, reqs
}

// BenchmarkServeConcurrent measures end-to-end query throughput on the
// toy-experiment table. "sequential" is the baseline the acceptance
// criterion compares against: a plain single-worker query loop with no
// result cache, i.e. what callers did before the serve layer existed.
// The engine variants use the batch API with the LRU cache enabled; each
// iteration starts a fresh engine, so every distinct request shape pays
// its miss before repeats hit. queries/s is reported as a custom metric.
func BenchmarkServeConcurrent(b *testing.B) {
	snap, reqs := benchWorkload()

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := serve.NewEngine(snap, serve.Options{Workers: 1, CacheSize: -1})
			for _, r := range reqs {
				if resp := eng.Do(r); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		}
		b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("engine-w", workers), func(b *testing.B) {
			runBatches(b, snap, reqs, serve.Options{Workers: workers})
		})
	}
}

// The two overhead pairs below are scripts/check.sh's wall-clock gate,
// one per deployed serving stack: every opt-in layer of the stack on,
// against all of them off, under a < 5% budget for the sum. Per-layer
// costs are pinned in allocations instead (TestTracingAllocatesNothing,
// TestClusterTracingAllocations), where the counts repeat exactly.

// runBatches serves reqs through a fresh engine per iteration and
// reports queries/s.
func runBatches(b *testing.B, snap *serve.Snapshot, reqs []serve.Request, opts serve.Options) {
	for i := 0; i < b.N; i++ {
		eng := serve.NewEngine(snap, opts)
		for _, resp := range eng.DoBatch(reqs) {
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// runEach serves reqs one at a time through do and reports queries/s.
func runEach(b *testing.B, reqs []serve.Request, do func(serve.Request) serve.Response) {
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if resp := do(r); resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// observability is the process-lifetime telemetry cmd/fairjob wires: a
// tail-sampled tracer and a wide-event logger, both keeping 1 in 128
// fast successes, and an SLO monitor. Both pairs build it once outside
// the loop, so they price the per-request cost, not its construction.
func observability() (*obs.Tracer, *obs.Logger, *obs.SLOMonitor) {
	tracer := obs.NewTracerTailSampled(obs.DefaultTraceCapacity, obs.TailSamplingPolicy{
		SlowThreshold: 50 * time.Millisecond,
		KeepOneInN:    128,
	})
	log := obs.NewLogger(obs.LoggerOptions{Component: "serve", SampleN: 128})
	slo := obs.NewSLOMonitor([]obs.Objective{
		{Name: "latency", Target: 0.99, LatencyBound: 50 * time.Millisecond},
		{Name: "errors", Target: 0.999},
	}, obs.SLOOptions{})
	return tracer, log, slo
}

// BenchmarkEngineOverhead prices every layer a deployed engine adds, at
// the engine-w4 configuration over benchWorkload's batch. "off" is the
// default engine. "on" adds a shared registry, the tracer, logger and
// SLO monitor of observability, a per-request deadline (so every
// request pays context.WithTimeout and the round checkpoints against a
// live Done channel), an admission gate wide enough to shed nothing, and
// a Profiler capturing on a 1s/100ms cadence — the production 60s/5s
// duty cycle compressed so several rounds land in each invocation.
func BenchmarkEngineOverhead(b *testing.B) {
	snap, reqs := benchWorkload()
	b.Run("off", func(b *testing.B) {
		runBatches(b, snap, reqs, serve.Options{Workers: 4})
	})
	b.Run("on", func(b *testing.B) {
		reg := obs.NewRegistry()
		tracer, log, slo := observability()
		prof := obs.NewProfiler(obs.ProfilerOptions{
			Registry:    reg,
			Interval:    time.Second,
			CPUDuration: 100 * time.Millisecond,
			Ring:        2,
		})
		prof.Start()
		defer prof.Stop()
		runBatches(b, snap, reqs, serve.Options{
			Workers:         4,
			Obs:             reg,
			Tracer:          tracer,
			Log:             log,
			SLO:             slo,
			DefaultDeadline: time.Minute,
			MaxInflight:     64,
		})
	})
}

// BenchmarkClusterOverhead prices the scatter-gather stack over direct
// engine serving. "off" is a single-worker engine with the result cache
// off, so every request pays real compute. "on" serves the same battery
// through a one-partition coordinator with node caches off, wired as
// fairjob loadtest -partitions wires it: a shared registry, the tracer
// and logger of observability, and a default deadline. One partition
// makes the fan-out degenerate, so the pair prices the distributed
// machinery — generation pinning, the transport hop, leg budgets, hedge
// timers, spans and the reply merge — and none of the partitioning.
// Both sides are built outside the timer: building a coordinator is a
// refresh cost, not a per-request one.
func BenchmarkClusterOverhead(b *testing.B) {
	rng := stats.NewRNG(4242)
	tbl := randomTable(rng, 11, 48, 10, 0.1)
	snap := serve.NewSnapshot(tbl)
	reqs := battery(snap)
	b.Run("off", func(b *testing.B) {
		eng := serve.NewEngine(snap, serve.Options{Workers: 1, CacheSize: -1})
		b.ResetTimer()
		runEach(b, reqs, eng.Do)
	})
	b.Run("on", func(b *testing.B) {
		tracer, log, _ := observability()
		coord := cluster.New(tbl, cluster.Options{
			Partitions:      1,
			NodeCacheSize:   -1,
			Obs:             obs.NewRegistry(),
			Tracer:          tracer,
			Log:             log,
			DefaultDeadline: time.Minute,
		})
		b.ResetTimer()
		runEach(b, reqs, coord.Do)
	})
}

// BenchmarkMitigate measures one Problem 3 request end to end — measure,
// re-rank, re-measure on the paper's ten-worker page — per mitigator,
// with the cache disabled so every iteration pays the full pipeline.
func BenchmarkMitigate(b *testing.B) {
	snap := paperSnapshot()
	for _, g := range servedGoldens() {
		b.Run(g.name, func(b *testing.B) {
			eng := serve.NewEngine(snap, serve.Options{CacheSize: -1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := eng.Do(g.req); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		})
	}
}

// BenchmarkServeSnapshotBuild measures the cost of freezing a table into
// a snapshot (clone + three index builds), the price of one
// copy-on-write refresh.
func BenchmarkServeSnapshotBuild(b *testing.B) {
	rng := stats.NewRNG(4242)
	tbl := randomTable(rng, 11, 48, 10, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve.NewSnapshot(tbl)
	}
}

// BenchmarkServeCacheHit isolates the steady-state cost of a cached
// query — the fast path heavy traffic actually exercises.
func BenchmarkServeCacheHit(b *testing.B) {
	snap, reqs := benchWorkload()
	eng := serve.NewEngine(snap, serve.Options{})
	req := reqs[0]
	eng.Do(req) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := eng.Do(req); !resp.CacheHit {
			b.Fatal("expected steady-state cache hits")
		}
	}
}

func benchName(prefix string, n int) string {
	return prefix + string(rune('0'+n))
}
