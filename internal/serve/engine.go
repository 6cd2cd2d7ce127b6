package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/faultinject"
	"fairjob/internal/mitigate"
	"fairjob/internal/obs"
	"fairjob/internal/topk"
)

// Problem selects which of the paper's two problems a request asks.
type Problem int

const (
	// Quantify is Problem 1: the k most/least unfair members of one
	// dimension, solved by a Fagin-style algorithm over the indices.
	Quantify Problem = iota
	// Compare is Problem 2: where does the fairness comparison of two
	// values reverse relative to their overall comparison (Algorithms
	// 2–3).
	Compare
	// Mitigate is Problem 3: re-rank one marketplace page to reduce the
	// target group's Exposure deviation, measuring before and after
	// against the same pinned snapshot (internal/mitigate).
	Mitigate
)

// problemCount sizes the per-problem metric arrays.
const problemCount = 3

func (p Problem) String() string {
	switch p {
	case Quantify:
		return "quantify"
	case Compare:
		return "compare"
	case Mitigate:
		return "mitigate"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// Request is one fairness query. Quantify requests use Dim, K, Direction,
// Algorithm and optionally Candidates (the §4.1 "out of these members…"
// restriction). Compare requests use R1, R2 (two members of the Of
// dimension), By (the breakdown dimension) and DefinedOnly (aggregation
// semantics; false = the completion semantics of Algorithms 1–3).
type Request struct {
	Problem Problem

	// Quantify fields.
	Dim        compare.Dimension
	K          int
	Direction  topk.Direction
	Algorithm  topk.Algorithm
	Candidates []string

	// Compare fields.
	Of          compare.Dimension
	R1, R2      string
	By          compare.Dimension
	DefinedOnly bool

	// Mitigate fields: which page (Query, Location), which group's
	// deviation to reduce (Group, a canonical group key), which
	// re-ranker (Mitigator), and its knobs — MinProportion/Alpha for
	// FA*IR (0 selects the page-proportional / package defaults),
	// SwapBudget for the exposure-parity search (0 = unbounded).
	Mitigator     mitigate.Kind
	Group         string
	Query         string
	Location      string
	MinProportion float64
	Alpha         float64
	SwapBudget    int

	// Deadline bounds this request's execution, overriding the engine's
	// Options.DefaultDeadline; 0 keeps the default. It composes with any
	// deadline already on the caller's context — the earlier one wins.
	// Deadline is not part of the cache key: an answer computed under a
	// tight deadline is the same answer.
	Deadline time.Duration
}

// key derives the cache key of the request against a snapshot generation.
func (r Request) key(gen uint64) cacheKey {
	return cacheKey{
		gen:         gen,
		problem:     r.Problem,
		dim:         int(r.Dim),
		k:           r.K,
		dir:         int(r.Direction),
		algo:        int(r.Algorithm),
		candidates:  strings.Join(r.Candidates, "\x1f"),
		r1:          r.R1,
		r2:          r.R2,
		by:          int(r.By),
		definedOnly: r.DefinedOnly,
		mitigator:   int(r.Mitigator),
		group:       r.Group,
		query:       r.Query,
		location:    r.Location,
		minProp:     math.Float64bits(r.MinProportion),
		alpha:       math.Float64bits(r.Alpha),
		budget:      r.SwapBudget,
	}
}

// Response is the answer to one Request. Quantify responses fill Results
// and Stats; Compare responses fill Comparison. Gen records which
// snapshot generation produced the answer and CacheHit whether it was
// served from the result cache. Responses may be shared between callers
// (a cache hit returns the stored value), so callers must treat Results
// and Comparison as read-only.
type Response struct {
	Results    []topk.Result
	Stats      topk.Stats
	Comparison *compare.Comparison
	Mitigation *Mitigation
	Gen        uint64
	CacheHit   bool
	Err        error
}

// Mitigation is the answer to a Problem 3 request: the measured
// Exposure deviation of the target group before and after re-ranking,
// the permutation that was applied (new position → original page
// index), and the re-ranked worker IDs for display. Both measurements
// were taken against the same snapshot generation the response reports.
type Mitigation struct {
	Mitigator     mitigate.Kind
	Group         string
	Before, After float64
	Permutation   []int
	IDs           []string
	Moved         int
}

// Delta returns Before − After: positive when mitigation reduced the
// measured unfairness.
func (m *Mitigation) Delta() float64 { return m.Before - m.After }

// Options configures an Engine.
type Options struct {
	// Workers bounds the goroutines DoBatch fans a batch across,
	// following the repository-wide convention of core.BoundedWorkers: 0
	// selects runtime.GOMAXPROCS(0), 1 runs batches inline, and the pool
	// never exceeds the batch size.
	Workers int
	// CacheSize is the LRU result cache capacity in entries: 0 selects
	// DefaultCacheSize, negative disables caching entirely.
	CacheSize int
	// Obs is the metrics registry the engine publishes its telemetry
	// into (request counts, cache hit/miss/eviction, per-problem latency
	// and queue-wait histograms, top-k access-cost histograms, snapshot
	// generation/age gauges — see DESIGN.md §9 for the full inventory).
	// Nil gives the engine a private registry, still readable through
	// Engine.Registry, so CacheStats and the telemetry summary work
	// without any wiring. The engine registers per-engine gauge
	// callbacks (cache length, snapshot age), so give each engine its
	// own registry rather than sharing one across engines.
	Obs *obs.Registry
	// Tracer, when non-nil, records a per-query trace (validate → cache
	// lookup → execute → access accounting, one child span per phase)
	// into its ring buffer. Nil disables tracing; the per-query cost is
	// then a few nil checks. A tail-sampled tracer
	// (obs.NewTracerTailSampled) keeps error and slow traces while
	// dropping most fast successes, so the interesting trace survives
	// heavy traffic.
	Tracer *obs.Tracer
	// Log, when non-nil, emits one wide event per request — every
	// outcome path, including validation rejects and shed requests —
	// carrying the request shape, snapshot generation, cache behavior,
	// queue wait, access costs and outcome (DESIGN.md §11). Nil
	// disables wide-event logging at the cost of one branch.
	Log *obs.Logger
	// SLO, when non-nil, receives one observation per admitted request
	// and contributes its burn-rate health to Engine.Ready: a sustained
	// hard burn makes the engine report unready until the alert windows
	// slide past the burst.
	SLO *obs.SLOMonitor

	// DefaultDeadline bounds every request that does not carry its own
	// Request.Deadline. 0 means no engine-wide deadline; requests then
	// run as long as their context allows.
	DefaultDeadline time.Duration
	// MaxInflight is the admission gate's compute capacity in weight
	// units (see requestWeight: naive full scans count double). 0
	// disables admission control entirely — the default, and the
	// backward-compatible behavior. Positive also bounds the wait queue
	// at 2×MaxInflight requests: one more arrival is shed with
	// ErrOverloaded. Negative sheds all compute: only cache hits are
	// served, the "drain" configuration. Cache hits never consume
	// capacity regardless.
	MaxInflight int
	// Retry is the backoff policy wrapped around snapshot builds in
	// Refresh/RefreshCtx. The zero value selects the package defaults
	// (3 attempts, 10ms base, 1s cap). The engine chains its
	// refresh_retries_total counter onto OnRetry, preserving any
	// callback set here.
	Retry RetryPolicy
}

// DefaultCacheSize is the result cache capacity when Options.CacheSize is
// zero.
const DefaultCacheSize = 1024

// Engine executes fairness queries against the current snapshot. It is
// safe for concurrent use: the snapshot hangs behind an atomic pointer
// (Swap / Refresh publish a new generation without pausing in-flight
// queries), the cache is internally locked, all algorithm state is
// per-call, and every telemetry write is an atomic operation on an
// obs metric.
type Engine struct {
	workers int
	cache   *lruCache // nil when caching is disabled
	snap    atomic.Pointer[Snapshot]

	gate            *gate // nil when admission control is disabled
	defaultDeadline time.Duration
	retry           RetryPolicy

	reg    *obs.Registry
	met    *engineMetrics
	tracer *obs.Tracer     // nil disables per-query tracing
	log    *obs.Logger     // nil disables wide-event logging
	slo    *obs.SLOMonitor // nil disables SLO accounting
}

// engineMetrics holds the engine's metric handles, resolved against the
// registry once at construction so the per-query hot path never touches
// the registry's lock or allocates a name string.
type engineMetrics struct {
	requests [problemCount]*obs.Counter   // indexed by Problem
	latency  [problemCount]*obs.Histogram // serve_request_seconds{problem=...}
	errors   *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheEvicts *obs.Counter

	// Resilience counters (DESIGN.md §10): how requests die when they do
	// not complete, and how often maintenance had to retry.
	shed           *obs.Counter // serve_shed_total
	deadlines      *obs.Counter // serve_deadline_exceeded_total
	canceled       *obs.Counter // serve_canceled_total
	panics         *obs.Counter // serve_panics_recovered_total
	refreshRetries *obs.Counter // refresh_retries_total
	inflight       *obs.Gauge   // serve_inflight

	batchSize *obs.Histogram
	queueWait *obs.Histogram

	// Per-algorithm access-cost histograms, indexed by topk.Algorithm —
	// the §6.3 / Table 6 quantities, recovered continuously instead of
	// per-benchmark.
	sorted [4]*obs.Histogram
	random [4]*obs.Histogram
	rounds [4]*obs.Histogram

	// Algorithm 3 random-access counts per comparison (Problem 2).
	compareAccesses *obs.Histogram
}

// countBuckets is the bucket layout of access-cost and batch-size
// histograms: powers of two from 1 to ~1M.
func countBuckets() []float64 { return obs.ExponentialBuckets(1, 2, 21) }

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	lat := obs.LatencyBuckets()
	counts := countBuckets()
	m := &engineMetrics{
		errors:          reg.Counter("serve_errors_total"),
		cacheHits:       reg.Counter("serve_cache_hits_total"),
		cacheMisses:     reg.Counter("serve_cache_misses_total"),
		cacheEvicts:     reg.Counter("serve_cache_evictions_total"),
		shed:            reg.Counter("serve_shed_total"),
		deadlines:       reg.Counter("serve_deadline_exceeded_total"),
		canceled:        reg.Counter("serve_canceled_total"),
		panics:          reg.Counter("serve_panics_recovered_total"),
		refreshRetries:  reg.Counter("refresh_retries_total"),
		inflight:        reg.Gauge("serve_inflight"),
		batchSize:       reg.Histogram("serve_batch_size", counts),
		queueWait:       reg.Histogram("serve_queue_wait_seconds", lat),
		compareAccesses: reg.Histogram("compare_accesses", counts),
	}
	for _, p := range []Problem{Quantify, Compare, Mitigate} {
		m.requests[p] = reg.Counter(obs.Name("serve_requests_total", "problem", p.String()))
		m.latency[p] = reg.Histogram(obs.Name("serve_request_seconds", "problem", p.String()), lat)
	}
	for _, a := range topk.Algorithms() {
		m.sorted[a] = reg.Histogram(obs.Name("topk_sorted_accesses", "algo", a.String()), counts)
		m.random[a] = reg.Histogram(obs.Name("topk_random_accesses", "algo", a.String()), counts)
		m.rounds[a] = reg.Histogram(obs.Name("topk_rounds", "algo", a.String()), counts)
	}
	return m
}

// NewEngine builds an engine serving the given snapshot.
func NewEngine(snap *Snapshot, opts Options) *Engine {
	if snap == nil {
		panic("serve: NewEngine with nil snapshot")
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		workers:         opts.Workers,
		reg:             reg,
		met:             newEngineMetrics(reg),
		tracer:          opts.Tracer,
		log:             opts.Log,
		slo:             opts.SLO,
		defaultDeadline: opts.DefaultDeadline,
		retry:           opts.Retry,
	}
	opts.SLO.Register(reg)
	switch {
	case opts.CacheSize == 0:
		e.cache = newLRU(DefaultCacheSize)
	case opts.CacheSize > 0:
		e.cache = newLRU(opts.CacheSize)
	}
	if opts.MaxInflight != 0 {
		capacity := int64(opts.MaxInflight)
		if capacity < 0 {
			capacity = 0 // shed all compute; only cache hits are served
		}
		e.gate = newGate(capacity, 2*int(capacity))
	}
	userRetry := e.retry.OnRetry
	e.retry.OnRetry = func(retry int, err error, delay time.Duration) {
		e.met.refreshRetries.Inc()
		if userRetry != nil {
			userRetry(retry, err, delay)
		}
	}
	e.snap.Store(snap)
	reg.GaugeFunc("serve_cache_entries", func() float64 {
		if e.cache == nil {
			return 0
		}
		return float64(e.cache.Len())
	})
	reg.GaugeFunc("serve_snapshot_generation", func() float64 {
		return float64(e.Snapshot().gen)
	})
	reg.GaugeFunc("serve_snapshot_age_seconds", func() float64 {
		return time.Since(e.Snapshot().created).Seconds()
	})
	if e.gate != nil {
		reg.GaugeFunc("serve_admission_queued", func() float64 {
			return float64(e.gate.queued())
		})
	}
	return e
}

// Registry returns the engine's metrics registry (the one given in
// Options.Obs, or the private default), for snapshots, summaries and
// admin-endpoint wiring.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Snapshot returns the snapshot currently being served.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Swap atomically publishes a new snapshot. Queries that already loaded
// the old snapshot finish against it; subsequent queries see the new
// generation, whose distinct cache keys make every older cache entry
// unreachable (they age out of the LRU).
func (e *Engine) Swap(snap *Snapshot) {
	if snap == nil {
		panic("serve: Swap with nil snapshot")
	}
	e.snap.Store(snap)
}

// Refresh is copy-on-write table maintenance in one step: it derives a
// new snapshot from the current one via WithUpdates(apply), publishes it,
// and returns it. It is RefreshCtx without a context, and it panics if
// the build still fails after the retry policy is exhausted — Refresh
// keeps the original "maintenance cannot fail" contract for callers that
// treat a broken refresh as a programming error.
func (e *Engine) Refresh(apply func(*core.Table)) *Snapshot {
	next, err := e.RefreshCtx(context.Background(), apply)
	if err != nil {
		panic(err)
	}
	return next
}

// RefreshCtx is Refresh with failure handling: each snapshot build is
// wrapped in the engine's RetryPolicy (exponential backoff with
// deterministic jitter; refresh_retries_total counts the retries), and a
// panic inside apply or the index rebuild is recovered into an
// *InternalError rather than crashing the maintenance goroutine. The
// serving snapshot is swapped only after a build succeeds — a failed
// refresh leaves the engine serving the previous generation, which is
// the property the chaos tests pin. A ctx that ends between attempts —
// or during a backoff sleep, which is ctx-aware — aborts with the typed
// cancellation errors.
func (e *Engine) RefreshCtx(ctx context.Context, apply func(*core.Table)) (*Snapshot, error) {
	var next *Snapshot
	err := e.retry.DoCtx(ctx, func() error {
		if err := ctx.Err(); err != nil {
			return ctxError(err)
		}
		if err := faultinject.InjectErr(faultinject.RefreshFail); err != nil {
			return err
		}
		var buildErr error
		next, buildErr = buildSnapshot(e.Snapshot(), apply)
		return buildErr
	})
	if err != nil {
		return nil, err
	}
	e.Swap(next)
	return next, nil
}

// buildSnapshot derives the next snapshot, converting a panic in the
// caller-supplied apply (or the rebuild it triggers) into an error the
// retry loop and RefreshCtx's caller can handle.
func buildSnapshot(cur *Snapshot, apply func(*core.Table)) (snap *Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &InternalError{Value: r, Stack: debug.Stack()}
		}
	}()
	return cur.WithUpdates(apply), nil
}

// Ready reports whether the engine should receive traffic: nil when a
// snapshot is loaded and the admission gate is below its shed threshold,
// an error describing the blocked state otherwise. This is the /readyz
// predicate — a saturated gate means the next compute request would shed,
// so a load balancer should prefer other replicas until the queue drains.
func (e *Engine) Ready() error {
	if e.Snapshot() == nil {
		return errors.New("serve: no snapshot loaded")
	}
	if e.gate != nil && e.gate.saturated() {
		return fmt.Errorf("serve: admission gate saturated (%d queued): %w", e.gate.queued(), ErrOverloaded)
	}
	// A sustained SLO burn also drains the replica: the engine is up, but
	// it is failing its objectives, and a load balancer should prefer
	// replicas that are not. Healthy clears once the alert windows slide
	// past the burst, so readiness recovers without a restart.
	if err := e.slo.Healthy(); err != nil {
		return err
	}
	return nil
}

// CacheStats reports the engine's result-cache counters: hits and
// misses served so far (from the obs counters), evictions performed by
// the LRU, and the number of entries currently cached.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// CacheStats returns the current cache counters. With caching disabled
// every field is zero except Misses, which still counts executions.
func (e *Engine) CacheStats() CacheStats {
	cs := CacheStats{Hits: e.met.cacheHits.Value(), Misses: e.met.cacheMisses.Value()}
	if e.cache != nil {
		cs.Evictions = e.cache.Evictions()
		cs.Entries = e.cache.Len()
	}
	return cs
}

// Do answers one request against the current snapshot, without a
// deadline beyond the engine's default.
func (e *Engine) Do(req Request) Response {
	return e.DoCtx(context.Background(), req)
}

// DoCtx answers one request under ctx: cancellation and deadlines are
// observed at the admission gate and at every algorithm round, and a
// request cut short reports ErrCanceled or ErrDeadlineExceeded in
// Response.Err (matching the underlying context error via errors.Is).
//
// A context carrying a parent span (obs.ContextWithSpan — the cluster
// coordinator's legs do this) makes the engine JOIN that trace as an
// "engine" child span instead of starting a second, unjoined trace of
// its own: one request, one trace id, with the engine's work — its
// phase spans included — visible in the caller's waterfall.
func (e *Engine) DoCtx(ctx context.Context, req Request) Response {
	if ps, ok := obs.SpanFromContext(ctx); ok {
		es := ps.StartChild("engine")
		es.SetKind("engine")
		resp := e.doOn(ctx, e.Snapshot(), req, nil, es)
		es.SetGen(resp.Gen)
		es.SetOutcome(Outcome(resp.Err))
		es.Finish()
		return resp
	}
	return e.doOn(ctx, e.Snapshot(), req, e.tracer.Start(req.Problem.String()), obs.SpanRef{})
}

// DoBatch answers a batch of requests across the bounded worker pool and
// returns the responses in request order. The snapshot is loaded once for
// the whole batch, so every response in it carries the same generation
// even if a Swap lands mid-batch — a batch is a consistent read. The
// queue-wait histogram records, per request, how long it sat in the
// batch before a worker picked it up.
func (e *Engine) DoBatch(reqs []Request) []Response {
	return e.DoBatchCtx(context.Background(), reqs)
}

// DoBatchCtx is DoBatch under a batch-wide context. Cancellation never
// loses a response: every request gets a Response, with the ones not yet
// executed reporting the typed cancellation error, so callers can tell
// exactly which members of the batch completed.
func (e *Engine) DoBatchCtx(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	e.met.batchSize.Observe(float64(len(reqs)))
	snap := e.Snapshot()
	queued := time.Now()
	w := core.BoundedWorkers(e.workers, len(reqs))
	core.RunIndexed(len(reqs), w, func(i int) {
		wait := time.Since(queued)
		e.met.queueWait.Observe(wait.Seconds())
		tr := e.tracer.Start(reqs[i].Problem.String())
		tr.SetQueueWait(wait)
		out[i] = e.doOn(ctx, snap, reqs[i], tr, obs.SpanRef{})
	})
	return out
}

// doOn answers req against a pinned snapshot, consulting the cache, and
// records its phases — validate, cache-lookup, execute,
// access-accounting — as spans under one parent: the root of tr for a
// standalone request, or parent when the request joined a caller's
// trace. tr is nil on the joined path and when tracing is disabled.
// Every request leaves through finish, and every response past
// validation — hit, miss or error — lands in the per-problem latency
// histogram.
//
// The resilient path runs in a fixed order (DESIGN.md §10): validate →
// cache probe → deadline → admission → guarded execute. The cache probe
// sits BEFORE the deadline and the gate on purpose — a cached answer
// costs no compute, so it is served even when the gate is shedding
// everything, which keeps hot queries alive through overload.
func (e *Engine) doOn(ctx context.Context, snap *Snapshot, req Request, tr *obs.Trace, parent obs.SpanRef) Response {
	var start time.Time
	if tr != nil {
		start = tr.Begin // the trace began with this request: one clock read serves both
	} else {
		start = time.Now()
	}
	tr.SetGen(snap.gen)
	phase := startPhase(tr, parent, "validate", start)
	if err := validate(req); err != nil {
		return e.finish(req, Response{Gen: snap.gen, Err: err}, tr, phase, start, false)
	}
	e.met.requests[req.Problem].Inc()
	phase = phase.Next("cache-lookup")
	var key cacheKey
	if e.cache != nil {
		key = req.key(snap.gen)
		if resp, ok := e.cache.Get(key); ok {
			e.met.cacheHits.Inc()
			tr.Annotate("cache", "hit")
			resp.CacheHit = true
			return e.finish(req, resp, tr, phase, start, true)
		}
		e.met.cacheMisses.Inc()
	}

	phase = phase.Next("execute")
	if d := req.Deadline; d > 0 || e.defaultDeadline > 0 {
		if d <= 0 {
			d = e.defaultDeadline
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	faultinject.Inject(faultinject.QueueDelay)
	if e.gate != nil {
		weight := requestWeight(req)
		if err := e.gate.acquire(ctx, weight); err != nil {
			return e.finish(req, Response{Gen: snap.gen, Err: err}, tr, phase, start, true)
		}
		defer e.gate.release(weight)
	} else if err := ctx.Err(); err != nil {
		// No gate to observe the context; still refuse dead requests
		// before spending compute on them.
		return e.finish(req, Response{Gen: snap.gen, Err: ctxError(err)}, tr, phase, start, true)
	}

	e.met.inflight.Add(1)
	// Execute under pprof labels: every CPU sample the request burns —
	// including in goroutines the evaluators or top-k scans spawn, which
	// inherit the labels — is attributed to its request kind. See
	// profileLabels for the label vocabulary.
	var resp Response
	pprof.Do(ctx, profileLabels(req, e.cacheState()), func(ctx context.Context) {
		resp = e.executeSafe(ctx, snap, req, tr)
	})
	e.met.inflight.Add(-1)

	phase = phase.Next("access-accounting")
	resp.Err = ctxError(resp.Err)
	if resp.Err == nil {
		// Only finished runs reach the access histograms (DESIGN.md §10):
		// a canceled run's partial counts describe no answer.
		switch {
		case req.Problem == Quantify:
			e.met.sorted[req.Algorithm].Observe(float64(resp.Stats.SortedAccesses))
			e.met.random[req.Algorithm].Observe(float64(resp.Stats.RandomAccesses))
			e.met.rounds[req.Algorithm].Observe(float64(resp.Stats.Rounds))
		case req.Problem == Compare && resp.Comparison != nil:
			e.met.compareAccesses.Observe(float64(resp.Comparison.Accesses))
		}
		if e.cache != nil {
			if e.cache.Put(key, resp) {
				e.met.cacheEvicts.Inc()
			}
		}
	}
	return e.finish(req, resp, tr, phase, start, true)
}

// finish is every request's one exit. It counts and annotates an
// error, closes the current phase and the trace, and for a request past
// validation records its latency with the exemplar and its SLO
// observation; then it emits the wide event and releases the trace. A
// validation reject is the caller's bug, not the engine's
// unavailability: it gets no latency sample, no request count and no
// SLO observation — but it does get a wide event, because "who sends
// malformed queries" is an operational question.
func (e *Engine) finish(req Request, resp Response, tr *obs.Trace, phase obs.SpanRef, start time.Time, validated bool) Response {
	if resp.Err != nil {
		e.met.errors.Inc()
		e.countFailure(resp.Err)
		tr.Annotate("err", resp.Err.Error())
	}
	phase.Finish()
	lat := time.Since(start)
	tr.SetOutcome(Outcome(resp.Err))
	// Finish before publishing the trace ID anywhere: the tail sampler
	// decides retention there, and only a retained trace's ID (JoinID)
	// may land in the latency exemplar and the wide event — otherwise
	// the metric → trace join would dangle for sampled-out successes.
	e.tracer.Finish(tr)
	cache := ""
	switch {
	case resp.CacheHit:
		cache = "hit"
	case validated:
		cache = e.cacheState()
	}
	if validated {
		e.met.latency[req.Problem].ObserveWithExemplar(lat.Seconds(), tr.JoinID())
		e.slo.Observe(lat, resp.Err)
	}
	e.emit(req, resp, tr, lat, cache)
	e.tracer.Release(tr)
	return resp
}

// startPhase opens the request's first pipeline phase at start, under
// the request's parent: the joined engine span when a caller's trace
// carried one in, else the root of tr. Each later phase opens with
// SpanRef.Next, so a phase boundary reads the clock once, and an
// untraced request reads it for none of them.
func startPhase(tr *obs.Trace, parent obs.SpanRef, name string, start time.Time) obs.SpanRef {
	if parent.Valid() {
		return parent.StartChildAt(name, start)
	}
	return tr.StartSpanAt(name, start)
}

// cacheState is the wide-event cache field for a request that got past
// the cache probe without a hit.
func (e *Engine) cacheState() string {
	if e.cache == nil {
		return "off"
	}
	return "miss"
}

// emit logs the request's wide event: WideEvent's mapping of the
// request and response, plus what only the engine knows — latency,
// join ID, cache state and queue wait. It runs after the trace
// finishes, so the event carries the same join ID the latency exemplar
// published — the three telemetry views join on it, and a trace the
// tail sampler dropped contributes no ID at all (the join never
// dangles). The event is built only when the logger's sampling keeps
// it.
func (e *Engine) emit(req Request, resp Response, tr *obs.Trace, lat time.Duration, cache string) {
	if e.log == nil {
		return
	}
	e.log.LogFunc(Outcome(resp.Err), func() obs.Event {
		ev := WideEvent(req, resp)
		ev.LatencyNS = lat.Nanoseconds()
		ev.TraceID = tr.JoinID()
		ev.Cache = cache
		if tr != nil {
			ev.QueueWaitNS = int64(tr.QueueWait)
		}
		return ev
	})
}

// WideEvent maps one answered request to its wide event (DESIGN.md
// §11): the outcome and error, the snapshot generation, the request
// shape, the access costs and the mitigation delta. Access costs are
// only attributed to requests that computed: a cache hit spent none, so
// its event carries cache "hit" and no cost fields. The engine and the
// cluster coordinator both build their events here and add the fields
// only they know (latency, trace join ID, queue wait, fan-out cost).
func WideEvent(req Request, resp Response) obs.Event {
	ev := obs.Event{
		Outcome: Outcome(resp.Err),
		Gen:     resp.Gen,
		Problem: req.Problem.String(),
	}
	if resp.CacheHit {
		ev.Cache = "hit"
	}
	if resp.Err != nil {
		ev.Err = resp.Err.Error()
	}
	switch req.Problem {
	case Quantify:
		ev.Dim = req.Dim.String()
		ev.K = req.K
		ev.Direction = req.Direction.String()
		ev.Algo = req.Algorithm.String()
		if !resp.CacheHit {
			ev.SortedAccesses = resp.Stats.SortedAccesses
			ev.RandomAccesses = resp.Stats.RandomAccesses
			ev.Rounds = resp.Stats.Rounds
		}
	case Compare:
		ev.Dim = req.Of.String()
		ev.R1, ev.R2 = req.R1, req.R2
		ev.By = req.By.String()
		if resp.Comparison != nil && !resp.CacheHit {
			ev.CompareAccesses = resp.Comparison.Accesses
		}
	case Mitigate:
		// The generic operand fields carry the mitigation coordinates:
		// r1 = target group key, r2 = query, by = location.
		ev.Mitigator = req.Mitigator.String()
		ev.R1, ev.R2 = req.Group, req.Query
		ev.By = req.Location
		if resp.Mitigation != nil {
			ev.DeltaUnfairness = resp.Mitigation.Delta()
		}
	}
	return ev
}

// countFailure classifies a request failure into the resilience
// counters. Recovered panics are counted at the recovery site, not here,
// so a panic is never double-counted.
func (e *Engine) countFailure(err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		e.met.shed.Inc()
	case errors.Is(err, ErrDeadlineExceeded):
		e.met.deadlines.Inc()
	case errors.Is(err, ErrCanceled):
		e.met.canceled.Inc()
	}
}

// requestWeight is a request's admission cost. The naive full scan reads
// every posting of every list no matter what, so it charges double —
// one slow scan should displace two Fagin-style runs, not one.
func requestWeight(req Request) int64 {
	if req.Problem == Quantify && req.Algorithm == topk.Naive {
		return 2
	}
	return 1
}

// executeSafe is execute behind a panic barrier: a panic anywhere in the
// algorithm stack is recovered into an *InternalError response carrying
// the panic value and stack, so one poisoned request cannot take down a
// batch worker or a caller's serving goroutine.
func (e *Engine) executeSafe(ctx context.Context, snap *Snapshot, req Request, tr *obs.Trace) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			e.met.panics.Inc()
			resp = Response{Gen: snap.gen, Err: &InternalError{Value: r, Stack: debug.Stack()}}
		}
	}()
	return e.execute(ctx, snap, req, tr)
}

// ValidateRequest rejects malformed requests with the same rules the
// engine applies before execution. The scatter-gather coordinator
// validates at its own front door so a bad request fails once, before
// any fan-out.
func ValidateRequest(req Request) error { return validate(req) }

// validate rejects malformed requests before they reach the algorithms.
func validate(req Request) error {
	switch req.Problem {
	case Quantify:
		if req.K <= 0 {
			return fmt.Errorf("serve: quantify needs k > 0, got %d", req.K)
		}
		switch req.Dim {
		case compare.ByGroup, compare.ByQuery, compare.ByLocation:
		default:
			return fmt.Errorf("serve: unknown quantify dimension %v", req.Dim)
		}
		if req.Candidates != nil && req.Dim != compare.ByGroup {
			return fmt.Errorf("serve: candidate restriction is only supported for the group dimension")
		}
		switch req.Direction {
		case topk.MostUnfair, topk.LeastUnfair:
		default:
			return fmt.Errorf("serve: unknown direction %v", req.Direction)
		}
		switch req.Algorithm {
		case topk.TA, topk.FA, topk.Naive, topk.NRA:
		default:
			return fmt.Errorf("serve: unknown algorithm %v", req.Algorithm)
		}
	case Compare:
		if req.R1 == "" || req.R2 == "" {
			return fmt.Errorf("serve: compare needs both r1 and r2")
		}
		switch req.Of {
		case compare.ByGroup, compare.ByQuery, compare.ByLocation:
		default:
			return fmt.Errorf("serve: unknown compare dimension %v", req.Of)
		}
		switch req.By {
		case compare.ByGroup, compare.ByQuery, compare.ByLocation:
		default:
			return fmt.Errorf("serve: unknown breakdown dimension %v", req.By)
		}
		if req.Of == req.By {
			return fmt.Errorf("serve: cannot break a %v comparison down by %v", req.Of, req.By)
		}
	case Mitigate:
		if req.Group == "" {
			return fmt.Errorf("serve: mitigate needs a target group key")
		}
		if req.Query == "" || req.Location == "" {
			return fmt.Errorf("serve: mitigate needs a query and a location")
		}
		switch req.Mitigator {
		case mitigate.FairTopK, mitigate.DetGreedy, mitigate.ExposureParity:
		default:
			return fmt.Errorf("serve: unknown mitigator %v", req.Mitigator)
		}
		if math.IsNaN(req.MinProportion) || req.MinProportion < 0 || req.MinProportion > 1 {
			return fmt.Errorf("serve: mitigate MinProportion must be in [0, 1], got %v", req.MinProportion)
		}
		if math.IsNaN(req.Alpha) || req.Alpha < 0 || req.Alpha >= 1 {
			return fmt.Errorf("serve: mitigate Alpha must be in [0, 1), got %v", req.Alpha)
		}
		if req.SwapBudget < 0 {
			return fmt.Errorf("serve: mitigate SwapBudget must be non-negative, got %d", req.SwapBudget)
		}
	default:
		return fmt.Errorf("serve: unknown problem %v", req.Problem)
	}
	return nil
}

// execute runs the request's algorithm against the snapshot; all mutable
// state lives inside the callee's per-call structs. Problem 1 runs
// through topk.TopKCtx, so a dying context stops the run at its next
// round checkpoint; doOn records the access costs of finished runs.
func (e *Engine) execute(ctx context.Context, snap *Snapshot, req Request, tr *obs.Trace) Response {
	resp := Response{Gen: snap.gen}
	faultinject.Inject(faultinject.PanicMeasure)
	switch req.Problem {
	case Quantify:
		tr.Annotate("algo", req.Algorithm.String())
		src := snap.source(req.Dim)
		if src == nil {
			resp.Err = fmt.Errorf("serve: snapshot has no %v lists (empty table?)", req.Dim)
			return resp
		}
		if req.Candidates != nil {
			restricted, err := topk.NewFilteredLists(src, req.Candidates)
			if err != nil {
				resp.Err = err
				return resp
			}
			src = restricted
		}
		resp.Results, resp.Stats, resp.Err = topk.TopKCtx(ctx, src, req.K, req.Direction, req.Algorithm)
	case Compare:
		// Comparisons are two-member lookups, far below deadline scale;
		// one checkpoint on entry bounds their cancellation latency.
		if err := ctx.Err(); err != nil {
			resp.Err = err
			return resp
		}
		c := snap.comparer(req.DefinedOnly)
		switch req.Of {
		case compare.ByGroup:
			resp.Comparison, resp.Err = c.Groups(req.R1, req.R2, req.By, compare.Scope{})
		case compare.ByQuery:
			resp.Comparison, resp.Err = c.Queries(core.Query(req.R1), core.Query(req.R2), req.By, compare.Scope{})
		case compare.ByLocation:
			resp.Comparison, resp.Err = c.Locations(core.Location(req.R1), core.Location(req.R2), req.By, compare.Scope{})
		}
	case Mitigate:
		// One page, one re-ranker run — far below deadline scale, like
		// Compare; one checkpoint on entry bounds cancellation latency.
		if err := ctx.Err(); err != nil {
			resp.Err = err
			return resp
		}
		return e.executeMitigate(snap, req, tr)
	}
	return resp
}
