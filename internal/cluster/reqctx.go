package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairjob/internal/obs"
	"fairjob/internal/serve"
)

// scatterStats accumulates one request's fan-out cost across every
// pinned attempt (a re-pin restarts the reqCtx, not the request):
// transport round-trips, hedge activity, leg retries, and per-partition
// leg time for tail attribution. Atomics because hedge duplicates
// increment from their timer goroutine.
type scatterStats struct {
	rpcs        atomic.Int64
	hedgesFired atomic.Int64
	hedgesWon   atomic.Int64
	legRetries  atomic.Int64
	legNS       []atomic.Int64 // accumulated leg time per partition
}

func newScatterStats(n int) *scatterStats {
	return &scatterStats{legNS: make([]atomic.Int64, n)}
}

// slowest names the partition that absorbed the most leg time, as a
// decimal string ("" when no leg ran). A string because partition 0 is
// a legitimate answer and the wide event's omitempty would erase it.
func (st *scatterStats) slowest() string {
	best, bestNS := -1, int64(0)
	for p := range st.legNS {
		if ns := st.legNS[p].Load(); ns > bestNS {
			best, bestNS = p, ns
		}
	}
	if best < 0 {
		return ""
	}
	return strconv.Itoa(best)
}

// streamStat is the per-partition scan/lookup round-trip accounting
// behind the one-summary-span-per-partition policy: a distributed
// quantify issues O(lists) OpScan round-trips, far past MaxChildSpans,
// so individual streaming legs are counted here (request goroutine
// only — the topk run is sequential) and materialized as a single
// "scan-stream" span when the run ends.
type streamStat struct {
	scans   int
	lookups int
	entries int
	first   time.Time
	last    time.Time
}

// reqCtx is one attempt's fan-out state: the generation pins (see
// newReqCtx), which partitions have been marked dead for this request,
// and whether a pin flipped (a refresh landed mid-request — the
// coordinator re-pins and restarts rather than merging two generations).
// It also threads the request's trace: span is the parent every leg
// span attaches under (the current attempt's "scatter" span, or the
// "recompute" span during degrade).
type reqCtx struct {
	c *Coordinator
	n int

	tr     *obs.Trace
	span   obs.SpanRef
	stats  *scatterStats
	stream []streamStat

	mu      sync.Mutex
	pins    []uint64
	dead    []bool
	genFlip bool
	legErr  error
	onFail  func()
}

// newReqCtx starts one attempt, pinned to every partition's last reported
// generation or unpinned (PinGen 0 until a partition's first reply).
func (c *Coordinator) newReqCtx(st *scatterStats, tr *obs.Trace, pinned bool) *reqCtx {
	rc := &reqCtx{
		c:      c,
		n:      c.n,
		tr:     tr,
		stats:  st,
		stream: make([]streamStat, c.n),
		pins:   make([]uint64, c.n),
		dead:   make([]bool, c.n),
	}
	if pinned {
		for p := range rc.pins {
			rc.pins[p] = c.gens[p].Load()
		}
	}
	return rc
}

// setOnFail installs the hook markDead fires — the quantify path cancels
// its run context here so the topk algorithm unwinds promptly.
func (rc *reqCtx) setOnFail(fn func()) {
	rc.mu.Lock()
	rc.onFail = fn
	rc.mu.Unlock()
}

func (rc *reqCtx) markDead(p int) {
	rc.mu.Lock()
	already := rc.dead[p]
	rc.dead[p] = true
	fn := rc.onFail
	rc.mu.Unlock()
	if !already && fn != nil {
		fn()
	}
}

// missing returns the partitions marked dead for this request, sorted.
func (rc *reqCtx) missing() []int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var out []int
	for p, d := range rc.dead {
		if d {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// recordErr remembers the request's first leg failure.
func (rc *reqCtx) recordErr(err error) {
	rc.mu.Lock()
	if rc.legErr == nil {
		rc.legErr = err
	}
	rc.mu.Unlock()
}

// firstLegErr returns the first leg failure recorded for this request,
// nil if every leg succeeded.
func (rc *reqCtx) firstLegErr() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.legErr
}

func (rc *reqCtx) genFlipped() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.genFlip
}

// pinnedGen is the response generation: the highest pin across
// partitions (snapshot generations are process-unique and monotonic, so
// the max identifies the freshest contributor).
func (rc *reqCtx) pinnedGen() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var g uint64
	for _, pin := range rc.pins {
		if pin > g {
			g = pin
		}
	}
	return g
}

// unpin drops every pin, so each partition's next reply pins it afresh.
func (rc *reqCtx) unpin() {
	rc.mu.Lock()
	clear(rc.pins)
	rc.mu.Unlock()
}

// noteStream folds one successful scan/lookup round-trip into the
// partition's stream accounting. Request goroutine only.
func (rc *reqCtx) noteStream(p int, op Op, entries int) {
	s := &rc.stream[p]
	now := time.Now()
	if s.first.IsZero() {
		s.first = now
	}
	s.last = now
	if op == OpScan {
		s.scans++
		s.entries += entries
	} else {
		s.lookups++
	}
}

// scanSummary materializes one "scan-stream" span per partition the run
// streamed from, spanning first to last round-trip, annotated with the
// round-trip counts. This is the trace-level evidence for the scan
// batching item on the roadmap: the rpcs count on these spans (and the
// wide event) quantifies the O(lists) round-trip problem per request.
func (rc *reqCtx) scanSummary() {
	if !rc.span.Valid() {
		return
	}
	for p := range rc.stream {
		s := &rc.stream[p]
		if s.scans == 0 && s.lookups == 0 {
			continue
		}
		sp := rc.span.StartChildAt("scan-stream", s.first)
		sp.SetKind("scan")
		sp.SetPartition(p)
		sp.SetEntries(s.entries)
		sp.Annotate("scan_rpcs", strconv.Itoa(s.scans))
		if s.lookups > 0 {
			sp.Annotate("lookup_rpcs", strconv.Itoa(s.lookups))
		}
		sp.SetOutcome("ok")
		sp.FinishDur(s.last.Sub(s.first))
	}
}

// call delivers one pinned call to partition p under the leg retry
// policy: transient errors back off and retry within the request's
// remaining deadline, gen-pin mismatches abort immediately (retrying
// the same pin cannot help), and a partition that exhausts its budget
// is marked dead for the rest of the request.
func (rc *reqCtx) call(ctx context.Context, p int, call Call) (Reply, error) {
	rc.mu.Lock()
	if rc.dead[p] {
		rc.mu.Unlock()
		return Reply{}, fmt.Errorf("%w: partition %d already lost for this request", ErrPartitionUnavailable, p)
	}
	call.PinGen = rc.pins[p]
	rc.mu.Unlock()
	call.TraceID = rc.tr.TraceID()

	policy := rc.c.legRetry
	userRetry := policy.OnRetry
	policy.OnRetry = func(retry int, err error, delay time.Duration) {
		rc.c.met.legRetries.Inc()
		rc.stats.legRetries.Add(1)
		if userRetry != nil {
			userRetry(retry, err, delay)
		}
	}
	policy.Abort = func(err error) bool { return errors.Is(err, ErrGenMismatch) }

	attempt := 0
	var reply Reply
	err := policy.DoCtx(ctx, func() error {
		kind := "primary"
		if attempt > 0 {
			kind = "retry"
		}
		attempt++
		r, legErr := rc.leg(ctx, p, call, kind)
		if legErr != nil {
			if errors.Is(legErr, ErrGenMismatch) {
				// Remember the generation the node now serves, so the
				// next request's first attempt pins it.
				if r.Gen != 0 {
					rc.c.gens[p].Store(r.Gen)
				}
				return legErr
			}
			if cerr := ctx.Err(); cerr != nil {
				// The REQUEST is dead (deadline or caller cancel): map to
				// the typed sentinels, which abort the retry loop. A leg
				// whose own budget expired arrives here as a raw context
				// error with the request still alive, and is retried.
				return typedCtxErr(ctx, legErr)
			}
			return legErr
		}
		reply = r
		return nil
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrGenMismatch):
			rc.mu.Lock()
			rc.genFlip = true
			rc.mu.Unlock()
		case errors.Is(err, serve.ErrCanceled), errors.Is(err, serve.ErrDeadlineExceeded):
			// Request-level death is not the partition's fault: no
			// markDead, but the failure must still be rememberable — a
			// scatter run whose legs all died this way has NO missing
			// partitions yet no usable answer either.
			rc.recordErr(err)
		default:
			rc.markDead(p)
			rc.recordErr(err)
		}
		return Reply{}, err
	}
	rc.record(p, reply.Gen)
	if call.Op == OpScan || call.Op == OpLookup {
		rc.noteStream(p, call.Op, len(reply.Entries))
	}
	return reply, nil
}

// record folds a successful leg's generation into the pins: an unpinned
// partition pins to what it saw, a pinned one whose generation moved —
// only possible through a transport that bypasses the node's own check —
// flags the flip.
func (rc *reqCtx) record(p int, gen uint64) {
	if gen == 0 {
		return
	}
	rc.mu.Lock()
	switch rc.pins[p] {
	case 0:
		rc.pins[p] = gen
	case gen:
	default:
		rc.genFlip = true
	}
	rc.mu.Unlock()
	rc.c.gens[p].Store(gen)
}

// legSpan opens one leg span (an op name, an attempt kind, a partition)
// under the current attempt's parent span.
func (rc *reqCtx) legSpan(op Op, kind string, p int, at time.Time) obs.SpanRef {
	s := rc.span.StartChildAt(op.String(), at)
	s.SetKind(kind)
	s.SetPartition(p)
	return s
}

// legResult is the hedge duplicate's verdict, shipped back to the
// request goroutine: the reply, the error, and the duplicate's own
// measured duration (the request goroutine reconstructs the hedge's
// span from it — the duplicate's goroutine never touches the tree).
type legResult struct {
	reply Reply
	err   error
	dur   time.Duration
}

// leg executes one hedged send to partition p. The leg context carves
// legFraction of the request's remaining deadline (floored at
// MinLegBudget, capped at the remainder). The FIRST attempt runs
// synchronously on the request goroutine — the hot path pays no
// goroutine spawn, no channel handoff and no cross-core cache migration
// of the engine's index data (measured at ~17% of request latency when
// every leg took the async path). Hedging still works: a timer armed at
// the partition's jittered p99-derived delay launches one asynchronous
// duplicate, and a duplicate that succeeds cancels the shared leg
// context, which unblocks a stalled original — first response wins
// either way, and the deferred cancel reaps whichever copy lost.
//
// Span policy: serve and cells legs, retries, and any leg whose hedge
// actually fired get spans; plain scan/lookup primaries are counted
// into the per-partition stream summary instead (a quantify issues
// thousands — see obs.MaxChildSpans). All span creation happens on the
// request goroutine: an eagerly-spanned leg opens its span before the
// send (so an OpServe engine can join it through the context), and a
// leg that only became interesting when its hedge fired gets both
// spans reconstructed after the race resolves, from timings the
// duplicate shipped through hedgeCh.
func (rc *reqCtx) leg(ctx context.Context, p int, call Call, kind string) (Reply, error) {
	c := rc.c
	var legCtx context.Context
	var cancel context.CancelFunc
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		budget := time.Duration(float64(remaining) * legFraction)
		if budget < c.opts.MinLegBudget {
			budget = c.opts.MinLegBudget
		}
		if budget > remaining {
			budget = remaining
		}
		legCtx, cancel = context.WithTimeout(ctx, budget)
	} else {
		legCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	traced := rc.span.Valid()
	var ps obs.SpanRef
	sctx := legCtx
	if traced && (call.Op == OpCells || call.Op == OpServe || kind != "primary") {
		ps = rc.legSpan(call.Op, kind, p, time.Now())
		call.ParentSpan = ps.ID()
		sctx = obs.ContextWithSpan(legCtx, ps)
	}

	var (
		hedged  atomic.Bool
		hedgeAt atomic.Int64 // UnixNano the duplicate launched; set before hedged
		hedgeCh chan legResult
	)
	if d := c.hedgeDelay(p); d > 0 {
		hedgeCh = make(chan legResult, 1)
		timer := time.AfterFunc(d, func() {
			hedgeAt.Store(time.Now().UnixNano())
			hedged.Store(true)
			c.met.hedges.Inc()
			c.met.legs.Inc()
			c.met.partLegs[p].Inc()
			rc.stats.hedgesFired.Add(1)
			rc.stats.rpcs.Add(1)
			hstart := time.Now()
			// The duplicate sends WITHOUT a span context: its span does not
			// exist yet (it is reconstructed by the request goroutine after
			// the race resolves), and parenting an engine join under the
			// primary's span would misattribute the work.
			reply, err := c.transport.Send(legCtx, p, call)
			hdur := time.Since(hstart)
			rc.stats.legNS[p].Add(int64(hdur))
			if err == nil {
				c.observeLeg(p, hdur.Seconds())
			} else {
				c.met.partLegErrors[p].Inc()
			}
			hedgeCh <- legResult{reply, err, hdur}
			if err == nil {
				// First-response-wins: the duplicate came back first, so
				// unblock the original, which is still stuck in its send.
				cancel()
			}
		})
		defer timer.Stop()
	}

	c.met.legs.Inc()
	c.met.partLegs[p].Inc()
	rc.stats.rpcs.Add(1)
	start := time.Now()
	reply, err := c.transport.Send(sctx, p, call)
	dur := time.Since(start)
	rc.stats.legNS[p].Add(int64(dur))

	// finishLeg closes the attempt's spans once the race outcome is
	// known, creating the primary's retroactively when only the fired
	// hedge made the leg interesting, and the hedge's always
	// retroactively, linked to its peer.
	finishLeg := func(primOut string, primReply Reply, hedgeOut string, hres *legResult) {
		if !traced {
			return
		}
		hedgedNow := hedged.Load()
		if !ps.Valid() && hedgedNow {
			ps = rc.legSpan(call.Op, kind, p, start)
		}
		if !ps.Valid() {
			return
		}
		ps.SetGen(primReply.Gen)
		ps.SetEntries(legEntries(call.Op, primReply))
		ps.SetOutcome(primOut)
		ps.FinishDur(dur)
		if !hedgedNow {
			return
		}
		hs := rc.legSpan(call.Op, "hedge", p, time.Unix(0, hedgeAt.Load()))
		if hres != nil {
			hs.SetGen(hres.reply.Gen)
			hs.SetEntries(legEntries(call.Op, hres.reply))
			hs.SetOutcome(hedgeOut)
			hs.FinishDur(hres.dur)
		} else {
			hs.SetOutcome(hedgeOut)
			hs.Finish()
		}
		hs.Link(ps)
	}

	if err == nil {
		c.observeLeg(p, dur.Seconds())
		if hedged.Load() {
			c.met.hedgeLoserCancels.Inc()
			if traced {
				// Reap the duplicate now instead of leaving it to the
				// deferred cancel, so its span carries its real extent:
				// cancel unblocks its send (Send honors ctx), the handoff
				// channel is buffered, so this wait is bounded by the leg
				// budget and usually instant. The untraced path skips it —
				// exactly the old behavior.
				cancel()
				hres := <-hedgeCh
				finishLeg("won", reply, "lost", &hres)
			}
			return reply, nil
		}
		finishLeg("ok", reply, "", nil)
		return reply, nil
	}
	c.met.partLegErrors[p].Inc()
	if errors.Is(err, ErrGenMismatch) {
		finishLeg("gen-mismatch", reply, "canceled", nil)
		return reply, err
	}
	if hedged.Load() {
		// The original failed — possibly canceled by a winning duplicate.
		// Wait for the duplicate's verdict; it observes the same legCtx, so
		// this wait is bounded by the leg budget. A winning duplicate
		// delivers its result BEFORE canceling the leg context, so when
		// both channels are ready the result must win the select — checked
		// again non-blockingly under Done to beat select's random pick.
		takeHedge := func(res legResult) (Reply, error) {
			if res.err == nil {
				c.met.hedgeWins.Inc()
				rc.stats.hedgesWon.Add(1)
				if errors.Is(err, context.Canceled) {
					// The duplicate's win is what canceled the original.
					c.met.hedgeLoserCancels.Inc()
				}
				finishLeg(errClass(err), Reply{}, "won", &res)
				return res.reply, nil
			}
			finishLeg(errClass(err), Reply{}, errClass(res.err), &res)
			return Reply{}, res.err
		}
		select {
		case res := <-hedgeCh:
			return takeHedge(res)
		case <-legCtx.Done():
			select {
			case res := <-hedgeCh:
				return takeHedge(res)
			default:
				finishLeg(errClass(err), Reply{}, "canceled", nil)
				return Reply{}, legCtx.Err()
			}
		}
	}
	finishLeg(errClass(err), Reply{}, "", nil)
	return Reply{}, err
}

// legEntries counts the payload entries a reply moved, per op.
func legEntries(op Op, r Reply) int {
	switch op {
	case OpScan:
		return len(r.Entries)
	case OpLookup:
		return len(r.Row)
	case OpCells:
		return len(r.Cells)
	default:
		return 0
	}
}

// errClass buckets a leg error into a span outcome.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrGenMismatch):
		return "gen-mismatch"
	case errors.Is(err, ErrPartitionUnavailable):
		return "unavailable"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, serve.ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled), errors.Is(err, serve.ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// observeLeg feeds one successful leg latency into the partition's
// hedge tracker and its labeled duration histogram.
func (c *Coordinator) observeLeg(p int, seconds float64) {
	c.lat[p].record(seconds)
	c.met.partLegSeconds[p].Observe(seconds)
}

// hedgeBaseDelay is partition p's un-jittered hedge delay: no hedging
// until the partition has hedgeAfterSamples latency samples, then the
// multiple of its observed p99, floored at hedgeFloor. This is the
// value the cluster_hedge_delay_seconds gauge exports — the policy,
// not one draw of it.
func (c *Coordinator) hedgeBaseDelay(p int) time.Duration {
	p99, ok := c.lat[p].p99()
	if !ok {
		return 0
	}
	d := time.Duration(p99 * hedgeMultiplier * float64(time.Second))
	if d < hedgeFloor {
		d = hedgeFloor
	}
	return d
}

// hedgeDelay jitters the base delay for one leg. Jitter is drawn from
// the coordinator's seeded RNG — deterministic across runs with the
// same seed — and de-synchronizes hedges across concurrent requests.
func (c *Coordinator) hedgeDelay(p int) time.Duration {
	d := c.hedgeBaseDelay(p)
	if d == 0 {
		return 0
	}
	c.rngMu.Lock()
	j := c.rng.Float64()
	c.rngMu.Unlock()
	return d + time.Duration(j*0.25*float64(d))
}
