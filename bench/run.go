package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/serve"
)

// setupRounds is how many times a run builds the system; setup_s is the
// median.
const setupRounds = 3

// warmupFor is the open-loop warm-up before the measured window; a
// shorter run warms up for no longer than it measures.
const warmupFor = 500 * time.Millisecond

// idleRefreshes is how many refreshes of the system at rest time
// refresh_ms.
const idleRefreshes = 5

// runRecord is one run's outcome, as a child process reports it.
type runRecord struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	CrawlDigest string             `json:"crawl_digest"`
	TableDigest string             `json:"table_digest"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Checked     int                `json:"checked"`
	Correct     bool               `json:"correct"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Steps       []stepResult       `json:"search_steps,omitempty"`
	SpansFile   string             `json:"spans_file,omitempty"`
}

// fail records a correctness failure; the first few are kept verbatim.
func (rec *runRecord) fail(format string, args ...any) {
	rec.Correct = false
	if len(rec.Errors) < 10 {
		rec.Errors = append(rec.Errors, fmt.Sprintf(format, args...))
	}
}

// runConfig is what one child process measures.
type runConfig struct {
	w    workload
	seed int64
	// seconds is the measured time: the reference window, or with trace
	// its first half, the traced window taking the second.
	seconds time.Duration
	trace   bool
	// search runs the max_rps search after the reference window.
	search bool
	root   string // repository root, for the span file
	// gateSize is how many answers the correctness gate checks.
	gateSize int
}

// runner holds one run's state.
type runner struct {
	cfg   runConfig
	in    *inputs
	u     *universe
	cat   *catalog
	s     *stack
	times []setupTimes
	rec   *runRecord

	sink *checkSink

	writer *writer
}

// runWorkload measures one workload in this process.
func runWorkload(ctx context.Context, cfg runConfig, in *inputs) (*runRecord, error) {
	r := &runner{
		cfg:  cfg,
		in:   in,
		u:    newUniverse(in),
		sink: newCheckSink(),
		rec: &runRecord{
			Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace,
			CrawlDigest: in.crawlDigest, TableDigest: in.tableDigest,
			Correct: true, Metrics: make(map[string]float64),
		},
	}
	r.cat = newCatalog(r.u, crawlSeed)
	m := r.rec.Metrics

	base, err := r.setup(ctx)
	if err != nil {
		return nil, err
	}
	logf("%s: set up in %v (median of %d)", cfg.w.name, r.medianSetup(func(t setupTimes) time.Duration { return t.total }), setupRounds)
	r.warm(ctx, r.s.target)
	m["heap_mb"] = float64(liveHeap()-base) / 1e6

	if cfg.w.churn {
		r.writer = startWriter(ctx, r.s.eng, in, cfg.seed)
		defer r.writer.stopAndWait()
	}
	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	ref := r.measure(ctx, phaseReference, window)
	r.referenceMetrics(ref)
	if cfg.trace {
		if err := r.traced(ctx, ref, window); err != nil {
			return nil, err
		}
	}
	if cfg.search {
		r.searchMetrics(ctx)
	}
	if r.writer != nil {
		r.writer.stopAndWait()
		m["serve.refresh_load_ms"] = ms(r.writer.medianDuring(ref.start, ref.start.Add(ref.wall)))
	}
	r.checkAnswers(ctx)
	m["refresh_ms"] = ms(r.idleRefresh(ctx))
	r.setupMetrics()
	m["fail_frac"] = float64(r.rec.Failed) / float64(r.rec.Attempted)
	return r.rec, nil
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// setup builds the system setupRounds times and keeps the last build.
// It returns the live heap measured just before the kept build, so the
// heap the system holds can be told from the benchmark's own.
func (r *runner) setup(ctx context.Context) (uint64, error) {
	var base uint64
	for i := 0; i < setupRounds; i++ {
		// Every round starts from a collected heap, as a fresh process
		// would, so a collection left over from the last round does not
		// land in this one's time.
		if i == setupRounds-1 {
			r.s = nil
			base = liveHeap()
		} else {
			runtime.GC()
		}
		s, t, err := buildStack(ctx, r.in.crawl, r.cfg.w)
		if err != nil {
			return 0, err
		}
		r.s = s
		r.times = append(r.times, t)
	}
	return base, nil
}

func (r *runner) medianSetup(part func(setupTimes) time.Duration) time.Duration {
	ds := make([]time.Duration, len(r.times))
	for i, t := range r.times {
		ds[i] = part(t)
	}
	return medianDuration(ds)
}

// liveHeap returns the bytes of live heap after two full collections:
// the second empties the pools the first only demoted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// warm fills t's cache the way steady traffic would and lets lazy state
// settle: the hot catalog is asked once in full, by both clients, then
// every workload takes warmupFor of its own open-loop traffic.
func (r *runner) warm(ctx context.Context, t target) {
	if r.cfg.w.hot {
		resps := make([]serve.Response, len(r.cat.all))
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < len(resps); i += clients {
					resps[i] = t.DoCtx(ctx, r.cat.all[i])
				}
			}()
		}
		wg.Wait()
		// Under churn the gate wants answers from refreshed generations,
		// which the measured window supplies.
		if !r.cfg.w.churn {
			for i, resp := range resps {
				r.sink.offer(r.cat.all[i], resp)
			}
		}
	}
	src := newSource(r.cfg.w, r.u, r.cat, r.cfg.seed, phaseWarmup)
	p := newPlan(src, r.cfg.w.rate, min(warmupFor, r.cfg.seconds), r.cfg.seed, phaseWarmup)
	drive(ctx, p.due, r.sender(t, p, nil), 0)
}

// sender returns the send function for a plan: each arrival goes to t,
// and keep, when set, sees every answer.
func (r *runner) sender(t target, p plan, keep func(i int, resp serve.Response)) sendFunc {
	return func(ctx context.Context, i int) (bool, bool) {
		resp := t.DoCtx(ctx, p.req(i))
		if keep != nil {
			keep(i, resp)
		}
		return resp.Err == nil, resp.CacheHit
	}
}

// kept holds a window's sampled answers until the window ends, so the
// gate's bookkeeping stays out of the timed calls. Each client writes
// only the slots of the arrivals it took.
type kept struct {
	p      plan
	stride int
	resps  []serve.Response
}

// keeper samples a measured window's answers for the gate: at a stride
// that spreads the gate's answers over the window, or every answer under
// churn, whose answers spread over many generations.
func (r *runner) keeper(p plan) *kept {
	stride := max(len(p.due)/r.cfg.gateSize, 1)
	if r.cfg.w.churn {
		stride = 1
	}
	return &kept{p: p, stride: stride, resps: make([]serve.Response, len(p.due)/stride+1)}
}

func (k *kept) keep(i int, resp serve.Response) {
	if i%k.stride == 0 {
		k.resps[i/k.stride] = resp
	}
}

// offer hands the kept answers of a finished window to the gate.
func (r *runner) offer(k *kept, run *phaseRun) {
	for j, resp := range k.resps {
		if i := j * k.stride; i < len(run.out) && run.out[i].sent {
			r.sink.offer(k.p.req(i), resp)
		}
	}
}

// measured is one measured window with the process counters around it.
type measured struct {
	*phaseRun
	sum     *summary
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcCPU   float64
	usedCPU float64
}

// cpuClasses are the runtime/metrics CPU estimates the GC share reads.
var cpuClasses = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readCPUClasses() (gc, used float64) {
	s := append([]metrics.Sample(nil), cpuClasses...)
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return v(0), v(1) - v(2)
}

// measure runs one untraced window of the workload at its reference
// rate, offering its answers to the correctness gate.
func (r *runner) measure(ctx context.Context, ph phase, window time.Duration) *measured {
	src := newSource(r.cfg.w, r.u, r.cat, r.cfg.seed, ph)
	p := newPlan(src, r.cfg.w.rate, window, r.cfg.seed, ph)
	k := r.keeper(p)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gc0, used0 := readCPUClasses()
	cpu0 := processCPU()
	run := drive(ctx, p.due, r.sender(r.s.target, p, k.keep), 0)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&after)
	// The runtime publishes its CPU estimates when a collection ends, so
	// one is forced to cover the whole window.
	runtime.GC()
	gc1, used1 := readCPUClasses()
	r.offer(k, run)
	return &measured{
		phaseRun: run,
		sum:      run.summarize(),
		cpu:      cpu,
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCPU:    gc1 - gc0,
		usedCPU:  used1 - used0,
	}
}

// referenceMetrics fills the end-to-end latency, CPU and failure numbers
// from the reference window.
func (r *runner) referenceMetrics(ref *measured) {
	m, s := r.rec.Metrics, ref.sum
	m["p50_ms"] = s.latency.quantile(0.50) / 1e6
	m["p75_ms"] = s.latency.quantile(0.75) / 1e6
	m["p90_ms"] = s.latency.quantile(0.90) / 1e6
	m["p95_ms"] = s.latency.quantile(0.95) / 1e6
	m["p99_ms"] = s.latency.quantile(0.99) / 1e6
	done := float64(s.sent)
	m["cpu_us_per_op"] = float64(ref.cpu-ref.spin) / 1e3 / done
	m["bench.gen_late_us_p99"] = s.late.quantile(0.99) / 1e3
	m["runtime.allocs_per_op"] = float64(ref.mallocs) / done
	m["runtime.alloc_bytes_per_op"] = float64(ref.bytes) / done
	if ref.usedCPU > 0 {
		m["runtime.gc_cpu_frac"] = ref.gcCPU / ref.usedCPU
	}
	r.rec.Attempted += len(ref.due)
	r.rec.Failed += s.failed + s.dropped
	logf("%s: %d arrivals at %.0f rps: p50 %.3f ms, p99 %.3f ms, %d failed, generator lateness p99 %.1f µs",
		r.cfg.w.name, len(ref.due), r.cfg.w.rate, m["p50_ms"], m["p99_ms"], s.failed+s.dropped, m["bench.gen_late_us_p99"])
}

// searchMetrics finds max_rps. The search starts at half the closed-loop
// throughput of the two clients, which lies below the answer on every
// workload, so a few doublings and bisections bracket it.
func (r *runner) searchMetrics(ctx context.Context) {
	w := r.cfg.w
	n := 0
	probe := func(rate float64) stepResult {
		n++
		d := stepLength(rate)
		ph := phaseSearch + phase(n)
		p := newPlan(newSource(w, r.u, r.cat, r.cfg.seed, ph), rate, d, r.cfg.seed, ph)
		run := drive(ctx, p.due, r.sender(r.s.target, p, nil), d+w.limit)
		res := judgeStep(run, rate, d, w.limit)
		logf("%s: step %.0f rps for %v: p90 %s, backlog %d, failed %.4f: pass=%v", w.name, rate, d, p90String(res.P90), res.Backlog, res.FailFrac, res.Pass)
		return res
	}
	start := r.closedLoopRate(ctx) / 2
	best, steps := searchMaxRate(start, probe)
	r.rec.Steps = steps
	r.rec.Metrics["max_rps"] = best
}

// stepLength is how long a search step at rate lasts: two seconds, so a
// step spans a few collections of the program's heap, or long enough for
// 100 arrivals, up to the four seconds the partitioned workload needs.
func stepLength(rate float64) time.Duration {
	d := time.Duration(100 / rate * float64(time.Second))
	return min(max(d, 2*time.Second), 4*time.Second)
}

// p90String renders a step's p90, which is infinite when more than a
// tenth of its arrivals were dropped or failed.
func p90String(d time.Duration) string {
	if d == math.MaxInt64 {
		return "unbounded"
	}
	return fmt.Sprintf("%.2f ms", ms(d))
}

// closedLoopRate measures the throughput of the two clients sending
// back to back for a short burst.
func (r *runner) closedLoopRate(ctx context.Context) float64 {
	src := newSource(r.cfg.w, r.u, r.cat, r.cfg.seed, phaseSearch)
	const burst = 500 * time.Millisecond
	var mu sync.Mutex
	var done int
	var table []serve.Request
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < burst {
				mu.Lock()
				req := table[src.next(&table)]
				mu.Unlock()
				r.s.target.DoCtx(ctx, req)
				mu.Lock()
				done++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds()
}

// setupMetrics reports the set-up time and its layers.
func (r *runner) setupMetrics() {
	m := r.rec.Metrics
	m["setup_s"] = r.medianSetup(func(t setupTimes) time.Duration { return t.total }).Seconds()
	m["core.evaluate_s"] = r.medianSetup(func(t setupTimes) time.Duration { return t.evaluate }).Seconds()
	if r.cfg.w.partitions == 0 {
		m["serve.snapshot_s"] = r.medianSetup(func(t setupTimes) time.Duration { return t.snapshot }).Seconds()
	} else {
		m["cluster.build_s"] = r.medianSetup(func(t setupTimes) time.Duration { return t.cluster }).Seconds()
	}
}

// checkAnswers runs the correctness gate over the kept answers, outside
// every timed window. Single-engine answers are checked against the
// benchmark's own index of the generation that served them; partitioned
// answers against a fresh single engine, and mitigations also for
// validity.
func (r *runner) checkAnswers(ctx context.Context) {
	// Only churn changes generations while serving; elsewhere the
	// partitioned workload's mitigations carry their node's generation.
	maxGens := 0
	if r.writer != nil {
		maxGens = checkGens
	}
	r.topUp(ctx, maxGens)
	answers := r.sink.pick(maxGens, r.cfg.gateSize)
	r.rec.Checked = len(answers)
	if len(answers) < r.cfg.gateSize {
		r.rec.fail("only %d answers checked, want %d", len(answers), r.cfg.gateSize)
	}
	base, err := newView(r.in.tbl, r.in.gi, r.in.qi, r.in.li, r.in.crawl)
	if err != nil {
		r.rec.fail("index the reference table: %v", err)
		return
	}
	var ref *serve.Engine
	if r.cfg.w.partitions > 0 {
		t := time.Now()
		snap := serve.NewSnapshotWithRankings(r.in.tbl, nil, r.in.crawl)
		r.rec.Metrics["serve.snapshot_s"] = time.Since(t).Seconds()
		ref = serve.NewEngine(snap, serve.Options{CacheSize: -1})
	}
	views := map[uint64]*view{}
	mismatches := 0
	for _, a := range answers {
		var err error
		switch {
		case ref != nil:
			err = sameAnswer(a.resp, ref.DoCtx(ctx, a.req))
			if err == nil && a.req.Problem == serve.Mitigate {
				err = base.checkMitigation(a.req, a.resp.Mitigation)
			}
		case r.writer != nil:
			v, ok := views[a.resp.Gen]
			if !ok {
				if v, err = r.writer.view(r.in, a.resp.Gen); err == nil {
					views[a.resp.Gen] = v
				}
			}
			if err == nil {
				err = v.checkAnswer(ctx, a)
			}
		default:
			err = base.checkAnswer(ctx, a)
		}
		if err != nil {
			mismatches++
			r.rec.fail("%v: %v", a.req, err)
		}
	}
	r.rec.Failed += mismatches
	logf("%s: correctness gate checked %d answers, %d wrong", r.cfg.w.name, len(answers), mismatches)
}

// topUp serves requests outside every timed window until the gate has
// gateSize answers to check: the catalog in order on the hot workloads,
// fresh requests from the gate's own stream on the others.
func (r *runner) topUp(ctx context.Context, maxGens int) {
	next := func(i int) serve.Request { return r.cat.all[i%len(r.cat.all)] }
	if !r.cfg.w.hot {
		src := newSource(r.cfg.w, r.u, r.cat, r.cfg.seed, phaseGate)
		var table []serve.Request
		next = func(int) serve.Request { return table[src.next(&table)] }
	}
	for i := 0; i < len(r.cat.all)+r.cfg.gateSize && len(r.sink.pick(maxGens, r.cfg.gateSize)) < r.cfg.gateSize; i++ {
		req := next(i)
		r.sink.offer(req, r.s.target.DoCtx(ctx, req))
	}
}

// idleRefresh times refreshes of 1% of cells on the system at rest,
// after the gate: time-to-fresh, each refresh from a collected heap. The
// partitions of a cluster refresh side by side, each with the edits of
// the cells it owns, as separate nodes would.
func (r *runner) idleRefresh(ctx context.Context) time.Duration {
	edits := newChurnEdits(r.in.tbl, r.cfg.seed+1)
	groups := r.u.parsed
	var ds []time.Duration
	for i := 0; i < idleRefreshes; i++ {
		b := edits.batch()
		var own [][]edit
		if r.s.coord != nil {
			n := r.s.coord.Partitions()
			own = make([][]edit, n)
			for _, e := range b {
				p := cluster.Route(e.tr.Query, e.tr.Location, n)
				own[p] = append(own[p], e)
			}
		}
		runtime.GC()
		start := time.Now()
		if r.s.eng != nil {
			if _, err := r.s.eng.RefreshCtx(ctx, apply(b, groups)); err != nil {
				r.rec.fail("refresh: %v", err)
			}
		} else {
			var wg sync.WaitGroup
			for p := range own {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.s.coord.Node(p).Refresh(apply(own[p], groups))
				}()
			}
			wg.Wait()
		}
		ds = append(ds, time.Since(start))
	}
	return medianDuration(ds)
}

// writer is the churn workload's maintenance goroutine: every churnEvery
// it refreshes the engine with the next batch of edits.
type writer struct {
	eng    *serve.Engine
	edits  *churnEdits
	groups map[string]core.Group
	start  uint64 // generation before the first refresh
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	mu        sync.Mutex
	batches   [][]edit
	genBatch  map[uint64]int
	refreshes []refreshRec
	err       error
}

type refreshRec struct {
	at time.Time
	d  time.Duration
}

func startWriter(ctx context.Context, eng *serve.Engine, in *inputs, seed int64) *writer {
	w := &writer{
		eng:      eng,
		edits:    newChurnEdits(in.tbl, seed),
		groups:   make(map[string]core.Group),
		start:    eng.Snapshot().Gen(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		genBatch: make(map[uint64]int),
	}
	for _, g := range in.tbl.Groups() {
		w.groups[g.Key()] = g
	}
	go w.loop(ctx)
	return w
}

func (w *writer) loop(ctx context.Context) {
	defer close(w.done)
	t := time.NewTicker(churnEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
		b := w.edits.batch()
		at := time.Now()
		snap, err := w.eng.RefreshCtx(ctx, apply(b, w.groups))
		d := time.Since(at)
		w.mu.Lock()
		if err != nil {
			w.err = err
		} else {
			w.batches = append(w.batches, b)
			w.genBatch[snap.Gen()] = len(w.batches)
			w.refreshes = append(w.refreshes, refreshRec{at, d})
		}
		w.mu.Unlock()
	}
}

// stopAndWait stops the writer and returns once it has exited; it may
// be called more than once.
func (w *writer) stopAndWait() {
	w.once.Do(func() { close(w.stop) })
	<-w.done
}

// medianDuring is the median refresh time of refreshes started in
// [from, to).
func (w *writer) medianDuring(from, to time.Time) time.Duration {
	var ds []time.Duration
	for _, rf := range w.refreshes {
		if !rf.at.Before(from) && rf.at.Before(to) {
			ds = append(ds, rf.d)
		}
	}
	return medianDuration(ds)
}

// view rebuilds the table of generation gen — the base table with every
// batch applied up to the refresh that produced gen — and indexes it.
func (w *writer) view(in *inputs, gen uint64) (*view, error) {
	n, ok := w.genBatch[gen]
	if !ok && gen != w.start {
		return nil, fmt.Errorf("answer from generation %d, which the writer never produced", gen)
	}
	tbl := in.tbl.Clone()
	for _, b := range w.batches[:n] {
		apply(b, w.groups)(tbl)
	}
	gi, qi, li := index.BuildAll(tbl)
	return newView(tbl, gi, qi, li, in.crawl)
}

// medianDuration returns the median, 0 for none.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
