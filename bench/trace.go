package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/index"
	"fairjob/internal/mitigate"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// maxSpans bounds the spans one traced run keeps. A partitioned quantify
// sends thousands of transport legs, so a run would otherwise hold
// millions; spans past the bound are counted, not kept.
const maxSpans = 200_000

// span is one timed interval of the traced run. Spans of one request
// share Req (the arrival's index in the traced window); Parent is the id
// of the enclosing span, 0 for a root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

// add records a span and returns its id, 0 if the log is full.
func (l *spanLog) add(req, parent int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{req, id, parent, name, int64(start.Sub(l.epoch)), int64(end.Sub(l.epoch))})
	return id
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedReq is what the traced window records per arrival.
type tracedReq struct {
	start, end time.Time // the DoCtx call
	hit        bool
	stats      topk.Stats
	accesses   int
	wire       *wireLog // partitioned workloads only
}

// Replay sample sizes: per problem for the layer replays, and in total
// for the telemetry on/off pair, which on the partitioned workload costs
// four scatter-gathers per request.
const (
	replayPerProblem   = 40
	obsReplay          = 60
	obsReplayPartition = 12
)

// traced runs the traced window — the same workload at the same rate,
// with every request, client wait, DoCtx call and transport leg recorded
// as a span — and then the per-layer replays, and fills the per-layer
// metrics. ref is the untraced reference window the overhead is taken
// against. A partitioned workload's traced window is served by a second
// coordinator, built like the first but over a countingTransport, so the
// reference window never pays for the wrapper.
func (r *runner) traced(ctx context.Context, ref *measured, window time.Duration) error {
	w, m := r.cfg.w, r.rec.Metrics
	t, coord := r.s.target, r.s.coord
	if coord != nil {
		coord = newCountedCluster(r.in.tbl, r.in.crawl, clusterOptions(w, newTelemetry()))
		t = coord
		r.warm(ctx, t)
	}
	p := newPlan(newSource(w, r.u, r.cat, r.cfg.seed, phaseTraced), w.rate, window, r.cfg.seed, phaseTraced)
	k := r.keeper(p)
	recs := make([]tracedReq, len(p.due))
	hedges0, retries0 := clusterCounters(coord)
	send := func(ctx context.Context, i int) (bool, bool) {
		rec := &recs[i]
		c := ctx
		if coord != nil {
			rec.wire = newWireLog()
			c = withWireLog(ctx, rec.wire)
		}
		rec.start = time.Now()
		resp := t.DoCtx(c, p.req(i))
		rec.end = time.Now()
		k.keep(i, resp)
		rec.hit, rec.stats = resp.CacheHit, resp.Stats
		if resp.Comparison != nil {
			rec.accesses = resp.Comparison.Accesses
		}
		return resp.Err == nil, resp.CacheHit
	}
	run := drive(ctx, p.due, send, 0)
	hedges1, retries1 := clusterCounters(coord)
	r.offer(k, run)
	sum := run.summarize()
	n := float64(sum.sent)

	spans := &spanLog{epoch: run.start}
	var quantify, compares int
	var sorted, random, rounds, accesses int
	var ops [opCount]int
	var entries int
	var self time.Duration
	var legs hist
	for i := range recs {
		rec, o := &recs[i], run.out[i]
		if !o.sent {
			continue
		}
		due := run.start.Add(run.due[i])
		root := spans.add(i, 0, "request", due, run.start.Add(o.end))
		spans.add(i, root, "wait", due, run.start.Add(o.pickup))
		call := spans.add(i, root, "serve.DoCtx", rec.start, rec.end)
		switch p.req(i).Problem {
		case serve.Quantify:
			quantify++
			sorted += rec.stats.SortedAccesses
			random += rec.stats.RandomAccesses
			rounds += rec.stats.Rounds
		case serve.Compare:
			compares++
			accesses += rec.accesses
		}
		svc := rec.end.Sub(rec.start)
		if rec.wire == nil {
			self += svc
			continue
		}
		self += svc - rec.wire.covered()
		for op, c := range rec.wire.ops {
			ops[op] += c
		}
		entries += rec.wire.entries
		for k, leg := range rec.wire.legs {
			legs.record(int64(leg.end.Sub(leg.start)))
			spans.add(i, call, "leg."+rec.wire.legOp[k].String(), leg.start, leg.end)
		}
	}
	m["serve.service_us_p50"] = sum.service.quantile(0.50) / 1e3
	m["serve.service_us_p99"] = sum.service.quantile(0.99) / 1e3
	m["serve.queue_us_p99"] = sum.queue.quantile(0.99) / 1e3
	m["serve.hit_frac"] = float64(sum.hits) / n
	m["serve.hit_us_p50"] = sum.hitSvc.quantile(0.50) / 1e3
	m["serve.miss_us_p50"] = sum.missSvc.quantile(0.50) / 1e3
	m["topk.sorted_per_op"] = perOp(sorted, quantify)
	m["topk.random_per_op"] = perOp(random, quantify)
	m["topk.rounds_per_op"] = perOp(rounds, quantify)
	m["compare.accesses_per_op"] = perOp(accesses, compares)
	m["cluster.rpcs_per_op"] = float64(totalRPCs(ops)) / n
	m["cluster.scan_rpcs_per_op"] = float64(ops[cluster.OpScan]) / n
	m["cluster.lookup_rpcs_per_op"] = float64(ops[cluster.OpLookup]) / n
	m["cluster.cells_rpcs_per_op"] = float64(ops[cluster.OpCells]) / n
	m["cluster.serve_rpcs_per_op"] = float64(ops[cluster.OpServe]) / n
	m["cluster.entries_per_op"] = float64(entries) / n
	m["cluster.leg_us_p50"] = legs.quantile(0.50) / 1e3
	m["cluster.self_us_per_op"] = float64(self) / 1e3 / n
	m["cluster.hedges_per_op"] = float64(hedges1-hedges0) / n
	m["cluster.retries_per_op"] = float64(retries1-retries0) / n
	if base := ref.sum.service.mean(); base > 0 {
		m["bench.trace_overhead_frac"] = sum.service.mean()/base - 1
	}
	r.rec.Attempted += len(p.due)
	r.rec.Failed += sum.failed + sum.dropped

	if err := r.replay(ctx, p, run, recs, spans); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.root, "bench", "out", fmt.Sprintf("%s-%d.spans.jsonl", w.name, r.cfg.seed))
	if err := spans.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.rec.SpansFile = path
	logf("%s: traced %d requests; %d spans written to %s (%d past the bound not kept)", w.name, sum.sent, len(spans.spans), path, spans.dropped)
	return nil
}

// clusterCounters reads a coordinator's hedge and leg-retry counters;
// zero for a single engine.
func clusterCounters(c *cluster.Coordinator) (hedges, retries uint64) {
	if c == nil {
		return 0, 0
	}
	reg := c.Registry()
	return reg.Counter("cluster_hedges_total").Value(), reg.Counter("cluster_leg_retries_total").Value()
}

func perOp(total, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// replay times each inner layer by calling its public API directly on
// the requests the traced window served, outside any timed window.
func (r *runner) replay(ctx context.Context, p plan, run *phaseRun, recs []tracedReq, spans *spanLog) error {
	m := r.rec.Metrics
	v, err := newView(r.in.tbl, r.in.gi, r.in.qi, r.in.li, r.in.crawl)
	if err != nil {
		return err
	}
	// A sample of each problem, in arrival order.
	var sample []int
	var per [3]int
	for i := range p.due {
		pr := p.req(i).Problem
		if run.out[i].sent && per[pr] < replayPerProblem {
			per[pr]++
			sample = append(sample, i)
		}
	}
	var layer [3]time.Duration
	var selfMiss time.Duration
	misses := 0
	for _, i := range sample {
		req := p.req(i)
		var d time.Duration
		var name string
		switch req.Problem {
		case serve.Quantify:
			name = "replay.topk"
			start := time.Now()
			src, err := v.lists(req)
			if err == nil {
				_, _, err = topk.TopKCtx(ctx, src, req.K, req.Direction, req.Algorithm)
			}
			if err != nil {
				return fmt.Errorf("replay top-k: %w", err)
			}
			d = time.Since(start)
			spans.add(i, 0, name, start, start.Add(d))
		case serve.Compare:
			name = "replay.compare"
			start := time.Now()
			if _, err := v.compare(req); err != nil {
				return fmt.Errorf("replay compare: %w", err)
			}
			d = time.Since(start)
			spans.add(i, 0, name, start, start.Add(d))
		default:
			name = "replay.mitigate"
			_, items, opts, err := v.mitigation(req)
			if err != nil {
				return fmt.Errorf("replay mitigate: %w", err)
			}
			start := time.Now()
			out, err := mitigate.Rerank(req.Mitigator, items, opts)
			if err != nil {
				return fmt.Errorf("replay mitigate: %w", err)
			}
			mitigate.Unfairness(items, out.Permutation, opts.Target, opts.Comparable)
			d = time.Since(start)
			spans.add(i, 0, name, start, start.Add(d))
		}
		layer[req.Problem] += d
		if !recs[i].hit {
			misses++
			selfMiss += recs[i].end.Sub(recs[i].start) - d
		}
	}
	m["topk.us_per_op"] = float64(layer[serve.Quantify]) / 1e3 / float64(max(per[serve.Quantify], 1))
	m["compare.us_per_op"] = float64(layer[serve.Compare]) / 1e3 / float64(max(per[serve.Compare], 1))
	m["mitigate.us_per_op"] = float64(layer[serve.Mitigate]) / 1e3 / float64(max(per[serve.Mitigate], 1))
	if misses > 0 {
		m["serve.self_us_per_miss"] = float64(selfMiss) / 1e3 / float64(misses)
	}

	var clones, builds []time.Duration
	for k := 0; k < 3; k++ {
		start := time.Now()
		r.in.tbl.Clone()
		clones = append(clones, time.Since(start))
		spans.add(-1, 0, "replay.core.Clone", start, start.Add(clones[k]))
		start = time.Now()
		index.BuildAll(r.in.tbl)
		builds = append(builds, time.Since(start))
		spans.add(-1, 0, "replay.index.BuildAll", start, start.Add(builds[k]))
	}
	m["core.clone_ms"] = ms(medianDuration(clones))
	m["index.build_ms"] = ms(medianDuration(builds))

	m["obs.us_per_op"] = r.obsCost(ctx, p, sample, spans)
	return nil
}

// obsCost is the telemetry cost per request: the sampled requests are
// replayed against the serving configuration and against one with the
// tracer and wide-event logger off, in on-off-off-on order so that a
// drift of the host cancels, and the difference is taken per request.
// A single engine is measured twice — with its cache empty for every
// call (the miss path) and warmed with the sample (the hit path) — and
// the two are weighted by the traced window's hit share.
func (r *runner) obsCost(ctx context.Context, p plan, sample []int, spans *spanLog) float64 {
	reqs := make([]int, 0, obsReplay)
	limit := obsReplay
	if r.s.coord != nil {
		limit = obsReplayPartition
	}
	for _, i := range sample {
		if len(reqs) < limit {
			reqs = append(reqs, i)
		}
	}
	pass := func(t target, name string) time.Duration {
		var total time.Duration
		for _, i := range reqs {
			start := time.Now()
			t.DoCtx(ctx, p.req(i))
			d := time.Since(start)
			total += d
			spans.add(i, 0, name, start, start.Add(d))
		}
		return total
	}
	abba := func(on, off target) float64 {
		d := pass(on, "replay.obs.on") - pass(off, "replay.obs.off") - pass(off, "replay.obs.off") + pass(on, "replay.obs.on")
		return float64(d) / 1e3 / float64(2*len(reqs))
	}
	if r.s.coord != nil {
		off := cluster.NewWithRankings(r.in.tbl, nil, r.in.crawl, cluster.Options{Partitions: r.cfg.w.partitions, Seed: crawlSeed})
		return abba(r.s.coord, off)
	}
	snap := r.s.eng.Snapshot()
	withTelemetry := func(cache int) *serve.Engine {
		tel := newTelemetry()
		return serve.NewEngine(snap, serve.Options{Obs: tel.reg, Tracer: tel.tracer, Log: tel.log, CacheSize: cache})
	}
	miss := abba(withTelemetry(-1), serve.NewEngine(snap, serve.Options{CacheSize: -1}))
	on, off := withTelemetry(0), serve.NewEngine(snap, serve.Options{})
	for _, i := range reqs {
		on.DoCtx(ctx, p.req(i))
		off.DoCtx(ctx, p.req(i))
	}
	hit := abba(on, off)
	h := r.rec.Metrics["serve.hit_frac"]
	return h*hit + (1-h)*miss
}
