package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// Options configures a Coordinator.
type Options struct {
	// Partitions is the fan-out width; 0 or 1 selects a single partition
	// (the coordinator then routes everything through one node's engine,
	// which is how the overhead benchmark isolates the scatter-gather
	// tax from the partitioning itself).
	Partitions int
	// Transport overrides the default in-process transport — chaos and
	// gen-pin tests wrap the local transport with hooks here. Nil uses
	// NewLocalTransport over the coordinator's own nodes.
	Transport Transport
	// Obs, Tracer and Log mirror serve.Options: nil Obs gives the
	// coordinator a private registry, nil Tracer disables tracing, nil
	// Log disables wide events. Log is re-stamped with component
	// "cluster".
	Obs    *obs.Registry
	Tracer *obs.Tracer
	Log    *obs.Logger
	// DefaultDeadline bounds requests that carry no deadline of their
	// own; 0 leaves them unbounded.
	DefaultDeadline time.Duration
	// MinLegBudget floors the per-leg budget (default 10ms) so a request
	// arriving nearly dead still gives its legs a usable slice.
	MinLegBudget time.Duration
	// Retry is the per-leg backoff policy for transient errors. The
	// zero value retries twice with the serve defaults; the coordinator
	// installs its own Abort classifier for gen-pin mismatches on top.
	Retry serve.RetryPolicy
	// Seed seeds the deterministic hedge jitter.
	Seed uint64
	// NodeCacheSize is passed through to every node engine's result
	// cache (0 = engine default, negative disables).
	NodeCacheSize int
}

// Fan-out tuning. These are fixed: no caller has needed other values.
const (
	// legFraction is the share of the request's remaining deadline one
	// fan-out leg may spend: a failed first leg leaves budget for a retry
	// instead of burning the whole request.
	legFraction = 0.5
	// hedgeFloor is the minimum hedge delay: never duplicate a leg faster
	// than this, no matter how fast the partition has been.
	hedgeFloor = time.Millisecond
	// hedgeMultiplier scales the partition's observed p99 into the hedge
	// delay: a leg exceeding hedgeMultiplier×p99 is assumed stuck and a
	// duplicate is launched.
	hedgeMultiplier = 3
	// scanBlock is the sorted-access block size per OpScan.
	scanBlock = 32
	// hedgeAfterSamples is how many latency samples a partition must
	// have before the coordinator trusts its p99 enough to hedge against
	// it.
	hedgeAfterSamples = 8
)

// latTracker is a fixed ring of recent leg latencies for one partition,
// from which the hedge delay's p99 is derived.
type latTracker struct {
	mu    sync.Mutex
	ring  [64]float64
	count int
}

func (t *latTracker) record(seconds float64) {
	t.mu.Lock()
	t.ring[t.count%len(t.ring)] = seconds
	t.count++
	t.mu.Unlock()
}

// p99 returns the tracked 99th percentile in seconds and whether enough
// samples exist to trust it. The 99th percentile of m samples is the
// ceil(0.99·m)-th smallest, which is the largest while m < 100. The ring
// holds 64, so p99 equals the maximum and is a scan rather than a sort;
// a ring of 100 or more would need the sort back.
func (t *latTracker) p99() (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count < hedgeAfterSamples {
		return 0, false
	}
	return slices.Max(t.ring[:min(t.count, len(t.ring))]), true
}

type clusterMetrics struct {
	legs              *obs.Counter
	hedges            *obs.Counter
	hedgeWins         *obs.Counter
	hedgeLoserCancels *obs.Counter
	legRetries        *obs.Counter
	partials          *obs.Counter
	repins            *obs.Counter
	requestSeconds    *obs.Histogram

	// Per-partition RED series, label-resolved once at construction so
	// the leg hot path indexes a slice instead of formatting a name:
	// rate (cluster_partition_legs_total{partition=...}), errors
	// (cluster_partition_leg_errors_total{partition=...}) and duration
	// (cluster_leg_seconds{partition=...}). The adaptive hedge delay
	// rides along as the cluster_hedge_delay_seconds{partition=...}
	// gauge, registered as a GaugeFunc over the live policy.
	partLegs       []*obs.Counter
	partLegErrors  []*obs.Counter
	partLegSeconds []*obs.Histogram
}

// Coordinator serves Problems 1–3 over a (query, location)-partitioned
// cluster by scatter-gather: distributed TA for quantify, a gathered
// cell store for compare, owner routing for mitigate. See the package
// comment and DESIGN.md §14 for the fault model.
type Coordinator struct {
	n         int
	uni       *Universe
	nodes     []*Node
	schema    *core.Schema
	subRank   [][]*core.MarketplaceRanking
	transport Transport
	geoms     map[compare.Dimension]*geom

	opts     Options
	legRetry serve.RetryPolicy
	reg      *obs.Registry
	tracer   *obs.Tracer
	log      *obs.Logger
	met      clusterMetrics

	lat []latTracker

	rngMu sync.Mutex
	rng   *stats.RNG

	// gens caches the last generation seen per partition, seeding the
	// next request's pins so a pin mismatch is the exception (a refresh
	// landed), not the steady state.
	gens []atomic.Uint64

	// deg memoizes the degraded engine by (missing set, survivor
	// generations), latest key only: an outage burst builds it once.
	degMu sync.Mutex
	deg   map[string]*serve.Engine

	hasRankings bool
	pages       [][2]string
}

// New builds a coordinator over tbl split into opts.Partitions
// partitions, with no marketplace pages (Problem 3 requests will report
// the usual "no marketplace pages" error).
func New(tbl *core.Table, opts Options) *Coordinator {
	return NewWithRankings(tbl, nil, nil, opts)
}

// NewWithRankings builds a coordinator whose partitions also own the
// marketplace pages routed to them, enabling Problem 3.
func NewWithRankings(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking, opts Options) *Coordinator {
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	if opts.MinLegBudget <= 0 {
		opts.MinLegBudget = 10 * time.Millisecond
	}

	n := opts.Partitions
	uni := NewUniverse(tbl)
	subs := SplitTable(tbl, n)
	subRank := SplitRankings(rankings, n)
	nodes := make([]*Node, n)
	for p := 0; p < n; p++ {
		nodes[p] = NewNode(p, n, uni, subs[p], schema, subRank[p], NodeOptions{CacheSize: opts.NodeCacheSize})
	}
	transport := opts.Transport
	if transport == nil {
		transport = NewLocalTransport(nodes)
	}

	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		n:           n,
		uni:         uni,
		nodes:       nodes,
		schema:      schema,
		subRank:     subRank,
		transport:   transport,
		geoms:       buildGeoms(uni, n),
		opts:        opts,
		legRetry:    opts.Retry,
		reg:         reg,
		tracer:      opts.Tracer,
		log:         opts.Log.Component("cluster"),
		lat:         make([]latTracker, n),
		rng:         stats.NewRNG(opts.Seed),
		gens:        make([]atomic.Uint64, n),
		deg:         make(map[string]*serve.Engine),
		hasRankings: len(rankings) > 0,
	}
	c.met = clusterMetrics{
		legs:              reg.Counter("cluster_fanout_legs_total"),
		hedges:            reg.Counter("cluster_hedges_total"),
		hedgeWins:         reg.Counter("cluster_hedge_wins_total"),
		hedgeLoserCancels: reg.Counter("cluster_hedge_loser_cancels_total"),
		legRetries:        reg.Counter("cluster_leg_retries_total"),
		partials:          reg.Counter("cluster_partial_results_total"),
		repins:            reg.Counter("cluster_repins_total"),
		requestSeconds:    reg.Histogram("cluster_request_seconds", obs.LatencyBuckets()),
		partLegs:          make([]*obs.Counter, n),
		partLegErrors:     make([]*obs.Counter, n),
		partLegSeconds:    make([]*obs.Histogram, n),
	}
	for p := 0; p < n; p++ {
		lbl := strconv.Itoa(p)
		c.met.partLegs[p] = reg.Counter(obs.Name("cluster_partition_legs_total", "partition", lbl))
		c.met.partLegErrors[p] = reg.Counter(obs.Name("cluster_partition_leg_errors_total", "partition", lbl))
		c.met.partLegSeconds[p] = reg.Histogram(obs.Name("cluster_leg_seconds", "partition", lbl), obs.LatencyBuckets())
		p := p
		reg.GaugeFunc(obs.Name("cluster_hedge_delay_seconds", "partition", lbl), func() float64 {
			return c.hedgeBaseDelay(p).Seconds()
		})
	}
	for p := range nodes {
		c.gens[p].Store(nodes[p].Gen())
	}
	if c.hasRankings {
		seen := make(map[[2]string]bool)
		for _, r := range rankings {
			if r == nil {
				continue
			}
			key := [2]string{string(r.Query), string(r.Location)}
			if !seen[key] {
				seen[key] = true
				c.pages = append(c.pages, key)
			}
		}
		sort.Slice(c.pages, func(i, j int) bool {
			if c.pages[i][0] != c.pages[j][0] {
				return c.pages[i][0] < c.pages[j][0]
			}
			return c.pages[i][1] < c.pages[j][1]
		})
	}
	return c
}

// Partitions returns the fan-out width.
func (c *Coordinator) Partitions() int { return c.n }

// Node returns partition p's node, for refresh-driven tests and
// maintenance.
func (c *Coordinator) Node(p int) *Node { return c.nodes[p] }

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Target surface (loadgen workloads drive a coordinator exactly like an
// engine): dimension members, page inventory, ranking availability.

// GroupKeys returns the universe's canonical group keys, sorted.
func (c *Coordinator) GroupKeys() []string { return c.uni.GroupKeys }

// Queries returns the universe's queries, sorted.
func (c *Coordinator) Queries() []core.Query { return c.uni.Queries }

// Locations returns the universe's locations, sorted.
func (c *Coordinator) Locations() []core.Location { return c.uni.Locations }

// HasRankings reports whether any partition carries marketplace pages.
func (c *Coordinator) HasRankings() bool { return c.hasRankings }

// Pages returns the distinct (query, location) pages across all
// partitions, sorted.
func (c *Coordinator) Pages() [][2]string { return c.pages }

// Do answers one request without a caller context.
func (c *Coordinator) Do(req serve.Request) serve.Response {
	return c.DoCtx(context.Background(), req)
}

// DoCtx answers one request by scatter-gather. The request's deadline
// (or the coordinator default) bounds the whole fan-out; each leg gets
// its own slice of whatever remains when it starts. A partition lost
// past its retry budget degrades the answer to the surviving
// partitions' data, reported as a *PartialResultError; a generation pin
// flip re-pins and restarts the request once, and a second flip fails it
// with an error wrapping ErrGenMismatch.
func (c *Coordinator) DoCtx(ctx context.Context, req serve.Request) serve.Response {
	start := time.Now()
	tr := c.tracer.Start(req.Problem.String())
	if err := serve.ValidateRequest(req); err != nil {
		tr.Annotate("err", err.Error())
		tr.SetOutcome("error")
		c.tracer.Finish(tr)
		resp := serve.Response{Err: err}
		c.emit(req, resp, tr, time.Since(start), nil)
		c.tracer.Release(tr)
		return resp
	}
	if d := req.Deadline; d > 0 || c.opts.DefaultDeadline > 0 {
		if d <= 0 {
			d = c.opts.DefaultDeadline
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
		// Nodes must not re-apply the deadline to their slice of the work;
		// the fan-out context already carries it.
		req.Deadline = 0
	}

	st := newScatterStats(c.n)
	var resp serve.Response
	var rc *reqCtx
	for attempt := 0; ; attempt++ {
		// A re-pin starts unpinned: the flipped attempt may have stopped
		// before it met the other stale pins, so c.gens cannot be trusted.
		rc = c.newReqCtx(st, tr, attempt == 0)
		// Each pinned attempt is a span: the fan-out legs nest under it,
		// so a re-pinned request's waterfall shows both generations' work.
		att := tr.StartSpan("scatter")
		if attempt == 0 {
			att.SetKind("primary")
		} else {
			att.SetKind("repin")
		}
		rc.span = att
		resp = c.run(ctx, rc, req, tr)
		if !rc.genFlipped() {
			if len(rc.missing()) > 0 {
				att.SetOutcome("degraded")
			} else {
				att.SetOutcome(serve.Outcome(resp.Err))
			}
			att.Finish()
			break
		}
		// A pin flipped: the attempt, degraded or not, may stand on lists
		// the refused legs cut short, so it is never answered.
		att.SetOutcome("gen-flip")
		att.Finish()
		if attempt > 0 {
			resp = serve.Response{Err: fmt.Errorf("%w: partitions refreshed again during the re-pinned attempt", ErrGenMismatch)}
			break
		}
		c.met.repins.Inc()
	}
	if missing := rc.missing(); len(missing) > 0 && !rc.genFlipped() {
		if ctx.Err() == nil {
			tr.Annotate("missing", intsList(missing))
			// The degraded recompute is its own span; the survivors' cells
			// gather and the local engine's work nest under it.
			ds := tr.StartSpan("recompute")
			ds.SetKind("recompute")
			rc.span = ds
			resp = c.degrade(ctx, rc, req, missing)
			ds.SetOutcome(serve.Outcome(resp.Err))
			ds.Finish()
			c.met.partials.Inc()
		} else if resp.Err == nil {
			// The request deadline died with partitions already lost,
			// before a degraded recompute could run: surface the typed
			// context error, never a silent empty answer.
			resp.Err = typedCtxErr(ctx, ctx.Err())
		}
	}

	lat := time.Since(start)
	tr.SetOutcome(serve.Outcome(resp.Err))
	c.tracer.Finish(tr)
	c.met.requestSeconds.Observe(lat.Seconds())
	c.emit(req, resp, tr, lat, st)
	c.tracer.Release(tr)
	return resp
}

// run executes one pinned attempt of the request.
func (c *Coordinator) run(ctx context.Context, rc *reqCtx, req serve.Request, tr *obs.Trace) serve.Response {
	// Single partition, or a page-local mitigate: one leg to the owner.
	// Mitigation uses only the page's own ranking and the shared schema,
	// both of which live on the pair's owner, so the owner's local answer
	// IS the global answer.
	if c.n == 1 || req.Problem == serve.Mitigate {
		p := 0
		if c.n > 1 {
			p = Route(core.Query(req.Query), core.Location(req.Location), c.n)
		}
		reply, err := rc.call(ctx, p, Call{Op: OpServe, Req: req})
		if err != nil {
			return serve.Response{Err: err}
		}
		return reply.Resp
	}
	switch req.Problem {
	case serve.Quantify:
		return c.runQuantify(ctx, rc, req, tr)
	case serve.Compare:
		return c.runCompare(ctx, rc, req)
	default:
		return serve.Response{Err: fmt.Errorf("serve: unknown problem %v", req.Problem)}
	}
}

// runQuantify is the distributed Problem 1: the same topk algorithm the
// single engine runs, over a ListSource whose sorted accesses stream
// from partition fragments and merge in canonical order, and whose
// random accesses scatter one row lookup per partition. Because the
// merged lists are byte-identical to the single index's lists, the
// algorithm's every decision — thresholds, round count, early
// termination — is identical, which is the coordinator≡engine
// equivalence the tests pin.
func (c *Coordinator) runQuantify(ctx context.Context, rc *reqCtx, req serve.Request, tr *obs.Trace) serve.Response {
	tr.Annotate("algo", req.Algorithm.String())
	geo := c.geoms[req.Dim]
	if geo == nil || geo.numLists == 0 || geo.listLen == 0 {
		return serve.Response{Err: fmt.Errorf("serve: snapshot has no %v lists (empty table?)", req.Dim)}
	}
	// A fragment failure cancels the run context: the topk algorithm
	// unwinds at its next checkpoint instead of grinding on data that can
	// no longer be completed, and the coordinator degrades.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	rc.setOnFail(cancel)

	var src topk.ListSource = newScatterSource(runCtx, rc, req.Dim, geo)
	if req.Candidates != nil {
		restricted, err := topk.NewFilteredLists(src, req.Candidates)
		if err != nil {
			if len(rc.missing()) > 0 {
				return serve.Response{} // degrade recomputes from survivors
			}
			return serve.Response{Err: err}
		}
		src = restricted
	}
	resp := serve.Response{Gen: rc.pinnedGen()}
	resp.Results, resp.Stats, resp.Err = topk.TopKCtx(runCtx, src, req.K, req.Direction, req.Algorithm)
	// One summary span per streamed-from partition, instead of a span per
	// scan round-trip (see MaxChildSpans): the rpcs counts they carry are
	// the per-request evidence for the O(lists) scan-batching problem.
	rc.scanSummary()
	if len(rc.missing()) > 0 {
		// A partition was lost mid-run, so whatever the algorithm
		// concluded — an error, or a "clean" answer over lists that went
		// silently short — is poisoned: drop it and let the degraded
		// recompute produce the answer from the survivors.
		return serve.Response{}
	}
	if resp.Err == nil {
		// The algorithm may finish "cleanly" over lists a failed leg cut
		// short (a dying request makes every fragment look exhausted); a
		// run with any leg failure and no degradation path is a failure,
		// never a silently truncated answer.
		resp.Err = rc.firstLegErr()
	}
	resp.Err = typedCtxErr(ctx, resp.Err)
	return resp
}

// runCompare is the distributed Problem 2: gather every partition's
// cells (the union is exactly the single table's defined cells) and run
// the same comparison walk over the gathered store.
func (c *Coordinator) runCompare(ctx context.Context, rc *reqCtx, req serve.Request) serve.Response {
	if err := ctx.Err(); err != nil {
		return serve.Response{Err: typedCtxErr(ctx, err)}
	}
	var cells []Cell
	for p := 0; p < c.n; p++ {
		reply, err := rc.call(ctx, p, Call{Op: OpCells})
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return serve.Response{Err: typedCtxErr(ctx, err)}
			}
			continue // marked dead; degrade recomputes from survivors
		}
		cells = append(cells, reply.Cells...)
	}
	if len(rc.missing()) > 0 {
		return serve.Response{}
	}
	if err := rc.firstLegErr(); err != nil {
		// Same contract as quantify: a gather with failed legs and no
		// degradation path must not compute over silently partial cells.
		return serve.Response{Err: typedCtxErr(ctx, err)}
	}
	var cmp *compare.Comparer
	if req.DefinedOnly {
		cmp = compare.NewDefinedOnlyFromCells(newCellStore(c.uni, cells))
	} else {
		cmp = compare.NewFromCells(newCellStore(c.uni, cells))
	}
	resp := serve.Response{Gen: rc.pinnedGen()}
	switch req.Of {
	case compare.ByGroup:
		resp.Comparison, resp.Err = cmp.Groups(req.R1, req.R2, req.By, compare.Scope{})
	case compare.ByQuery:
		resp.Comparison, resp.Err = cmp.Queries(core.Query(req.R1), core.Query(req.R2), req.By, compare.Scope{})
	case compare.ByLocation:
		resp.Comparison, resp.Err = cmp.Locations(core.Location(req.R1), core.Location(req.R2), req.By, compare.Scope{})
	}
	return resp
}

// degrade recomputes the request over the surviving partitions' data
// and wraps the answer in a *PartialResultError naming what is missing.
func (c *Coordinator) degrade(ctx context.Context, rc *reqCtx, req serve.Request, missing []int) serve.Response {
	eng, err := c.degradedEngine(ctx, rc, missing)
	if err != nil {
		return serve.Response{Err: &PartialResultError{
			Missing:    missing,
			Partitions: c.n,
			Cause:      err,
		}}
	}
	// The recompute span rides the context so the degraded engine joins
	// the request's trace as an "engine" child instead of going dark.
	resp := eng.DoCtx(obs.ContextWithSpan(ctx, rc.span), req)
	resp.Err = &PartialResultError{
		Missing:    missing,
		Partitions: c.n,
		Cause:      resp.Err,
	}
	return resp
}

// degradedEngine gathers the survivors' cells and serves their merged
// table through a cache-less local engine. The gather is unpinned, as
// the attempt may have died before it heard from every survivor, so its
// pins can predate a refresh; the replies' generations key the memo.
func (c *Coordinator) degradedEngine(ctx context.Context, rc *reqCtx, missing []int) (*serve.Engine, error) {
	dead := make(map[int]bool, len(missing))
	for _, p := range missing {
		dead[p] = true
	}
	rc.unpin()
	key := "miss:" + intsList(missing)
	var gathered [][]Cell
	var rankings []*core.MarketplaceRanking
	for p := 0; p < c.n; p++ {
		if dead[p] {
			continue
		}
		reply, err := rc.call(ctx, p, Call{Op: OpCells})
		if err != nil {
			// A partition lost between the fan-out and the recompute: the
			// degraded answer cannot be built this round.
			return nil, err
		}
		key += "|" + strconv.Itoa(p) + ":" + strconv.FormatUint(reply.Gen, 10)
		gathered = append(gathered, reply.Cells)
		rankings = append(rankings, c.subRank[p]...)
	}
	c.degMu.Lock()
	eng, ok := c.deg[key]
	c.degMu.Unlock()
	if ok {
		return eng, nil
	}

	tbl := core.NewTable()
	for _, cells := range gathered {
		for _, cell := range cells {
			g, ok := c.uni.Group(cell.G)
			if !ok {
				continue // unreachable: sealed universe
			}
			tbl.Set(g, cell.Q, cell.L, cell.V)
		}
	}
	eng = serve.NewEngine(serve.NewSnapshotWithRankings(tbl, c.schema, rankings), serve.Options{
		Workers:   1,
		CacheSize: -1, // keyed cache would collide across missing-sets; the coordinator caches the engine instead
	})
	c.degMu.Lock()
	clear(c.deg)
	c.deg[key] = eng
	c.degMu.Unlock()
	return eng, nil
}

// emit logs the coordinator's wide event: serve.WideEvent's mapping of
// the request and response — so an OpServe leg's cache hit carries
// cache "hit" and no access costs, exactly as the engine logs it — plus
// the fan-out fields: partitions is the cluster width,
// missing_partitions names the holes in a partial answer, and the
// scatter cost block (rpcs, hedges_fired, hedges_won, leg_retries,
// slowest_partition) is the one-line summary of what the trace's span
// tree shows leg by leg. Like the engine's, the event is built only
// when the logger's sampling keeps it.
func (c *Coordinator) emit(req serve.Request, resp serve.Response, tr *obs.Trace, lat time.Duration, st *scatterStats) {
	if c.log == nil {
		return
	}
	c.log.LogFunc(serve.Outcome(resp.Err), func() obs.Event {
		ev := serve.WideEvent(req, resp)
		ev.LatencyNS = lat.Nanoseconds()
		ev.TraceID = tr.JoinID()
		ev.Partitions = c.n
		if st != nil {
			ev.RPCs = st.rpcs.Load()
			ev.HedgesFired = st.hedgesFired.Load()
			ev.HedgesWon = st.hedgesWon.Load()
			ev.LegRetries = st.legRetries.Load()
			ev.SlowestPartition = st.slowest()
		}
		if resp.Err != nil {
			// Inside the branch: errors.As makes pres escape to the heap,
			// and a success should not pay that allocation.
			var pres *PartialResultError
			if errors.As(resp.Err, &pres) {
				ev.MissingPartitions = pres.MissingList()
			}
		}
		return ev
	})
}

// intsList renders partition ids as a comma-joined string.
func intsList(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// typedCtxErr maps a context failure of the REQUEST context into the
// serve-layer typed sentinels, leaving every other error as-is. Leg
// budget expiry deliberately stays a raw context error (retryable at
// the leg layer); only the request's own death becomes typed.
func typedCtxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	switch cerr := ctx.Err(); {
	case errors.Is(cerr, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", serve.ErrDeadlineExceeded, err)
	case errors.Is(cerr, context.Canceled):
		return fmt.Errorf("%w: %v", serve.ErrCanceled, err)
	}
	return err
}
