package core

import (
	"sync/atomic"
	"time"

	"fairjob/internal/obs"
)

// evalMetrics holds an evaluator's telemetry handles, resolved against
// the registry once per EvaluateAll so the sharded workers touch only
// atomics. A nil *evalMetrics (evaluator without a registry) disables
// instrumentation at the cost of one branch per shard — the per-cell hot
// path is never touched.
type evalMetrics struct {
	shardSeconds *obs.Histogram // per-shard wall time
	pages        *obs.Counter   // rankings / result sets evaluated
	cells        *obs.Counter   // defined d<g,q,l> cells produced
	runs         *obs.Counter   // EvaluateAll invocations
	workers      *obs.Gauge     // pool size of the latest run
	utilization  *obs.Gauge     // busy-time share of the latest run
	distHits     *obs.Counter   // search only: distance-cache hits
	distMisses   *obs.Counter   // search only: distance-cache misses
}

// newEvalMetrics resolves the evaluator metric family for one pipeline
// ("market" or "search") against reg; nil reg returns nil.
func newEvalMetrics(reg *obs.Registry, eval string) *evalMetrics {
	if reg == nil {
		return nil
	}
	m := &evalMetrics{
		shardSeconds: reg.Histogram(obs.Name("eval_shard_seconds", "eval", eval), nil),
		pages:        reg.Counter(obs.Name("eval_pages_total", "eval", eval)),
		cells:        reg.Counter(obs.Name("eval_cells_total", "eval", eval)),
		runs:         reg.Counter(obs.Name("eval_runs_total", "eval", eval)),
		workers:      reg.Gauge(obs.Name("eval_workers", "eval", eval)),
		utilization:  reg.Gauge(obs.Name("eval_worker_utilization", "eval", eval)),
	}
	if eval == "search" {
		m.distHits = reg.Counter("eval_distcache_hits_total")
		m.distMisses = reg.Counter("eval_distcache_misses_total")
	}
	return m
}

// evalRun aggregates one EvaluateAll execution: the wall-clock anchor
// and the summed busy time of all shards, from which worker utilization
// (busy / (wall × workers)) is derived.
type evalRun struct {
	m     *evalMetrics
	start time.Time
	busy  atomic.Int64 // summed shard nanoseconds
}

func (m *evalMetrics) begin() *evalRun {
	if m == nil {
		return nil
	}
	return &evalRun{m: m, start: time.Now()}
}

// shardDone records one finished shard: its duration, its page span and
// the defined cells it produced.
func (r *evalRun) shardDone(start time.Time, pages, cells int) {
	if r == nil {
		return
	}
	d := time.Since(start)
	r.busy.Add(d.Nanoseconds())
	r.m.shardSeconds.Observe(d.Seconds())
	r.m.pages.Add(uint64(pages))
	r.m.cells.Add(uint64(cells))
}

// finish records the run-level gauges once every shard has completed.
func (r *evalRun) finish(workers int) {
	if r == nil {
		return
	}
	r.m.runs.Inc()
	r.m.workers.Set(float64(workers))
	wall := time.Since(r.start).Seconds()
	if wall > 0 && workers > 0 {
		r.m.utilization.Set(float64(r.busy.Load()) / 1e9 / (wall * float64(workers)))
	}
}

// distCacheDone adds one result set's distance-cache tallies (search
// pipeline).
func (r *evalRun) distCacheDone(hits, misses int) {
	if r == nil || r.m.distHits == nil {
		return
	}
	r.m.distHits.Add(uint64(hits))
	r.m.distMisses.Add(uint64(misses))
}
