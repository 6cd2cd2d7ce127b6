// Package loadgen is the open-loop load harness (DESIGN.md §13): it
// offers requests to a serve.Engine at a scheduled arrival rate —
// constant or Poisson — and records coordinated-omission-correct
// latency, i.e. every request's latency is measured from its *scheduled*
// arrival time, not from whenever the generator got around to sending
// it. A closed-loop generator (send, wait, send) silently stops offering
// load exactly when the system stalls, so its percentiles miss the worst
// behavior; the open-loop schedule keeps arrivals independent of
// responses, the way real user traffic is.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
)

// Arrival selects the inter-arrival process of the offered load.
type Arrival int

const (
	// Poisson draws exponential inter-arrival gaps — the memoryless
	// arrivals of independent users, and the default: bursts and lulls
	// happen at every rate, which is what exposes queueing behavior.
	Poisson Arrival = iota
	// Constant spaces arrivals exactly 1/rate apart — a metronome, useful
	// to isolate service-time variance from arrival variance.
	Constant
)

func (a Arrival) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case Constant:
		return "constant"
	default:
		return fmt.Sprintf("Arrival(%d)", int(a))
	}
}

// ParseArrival resolves a CLI arrival-process name.
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "constant":
		return Constant, nil
	default:
		return 0, fmt.Errorf("loadgen: unknown arrival process %q (want poisson or constant)", s)
	}
}

// Options configures a load run.
type Options struct {
	// Rate is the offered arrival rate in requests/second (required).
	Rate float64
	// Arrival is the inter-arrival process (default Poisson).
	Arrival Arrival
	// Warmup is how long requests are offered but not measured before
	// the measurement phase — caches fill, the JIT-warm steady state
	// establishes (default 2s).
	Warmup time.Duration
	// Duration is the measurement phase length (default 10s).
	Duration time.Duration
	// Seed makes the run deterministic: the same seed offers the same
	// request sequence at the same scheduled times (default 1).
	Seed uint64
	// UniqueFrac is the fraction of quantify requests rewritten to bust
	// the result cache (see Workload.Sample). 0 converges to a cache-hit
	// run; 1 makes every quantify a compute request.
	UniqueFrac float64
	// MaxInflight caps concurrently executing requests. Arrivals beyond
	// the cap still happen on schedule — they queue, and their queueing
	// time is measured, which is the coordinated-omission contract
	// (default 256).
	MaxInflight int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Warmup <= 0 {
		out.Warmup = 2 * time.Second
	}
	if out.Duration <= 0 {
		out.Duration = 10 * time.Second
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.MaxInflight <= 0 {
		out.MaxInflight = 256
	}
	return out
}

// LatencySummary is the measurement phase's latency distribution in
// nanoseconds (bucket resolution ~3%; Max and Mean are exact).
type LatencySummary struct {
	P50  int64   `json:"p50_ns"`
	P90  int64   `json:"p90_ns"`
	P99  int64   `json:"p99_ns"`
	P999 int64   `json:"p999_ns"`
	Max  int64   `json:"max_ns"`
	Mean float64 `json:"mean_ns"`
}

// latencyBounds are the bucket bounds of the run's latency histograms,
// in nanoseconds: 700 buckets about 3% apart, from 100 ns to about 94 s,
// so a quantile interpolated inside its bucket is within about 3% of a
// recorded latency.
var latencyBounds = obs.ExponentialBuckets(100, 1.03, 700)

// summarize reads a histogram of latencies in nanoseconds whose exact
// maximum is maxNS: each quantile is clamped at maxNS, so none exceeds
// Max, and Mean is the histogram's sum over its count. An empty
// histogram summarizes to zeros.
func summarize(h *obs.Histogram, maxNS int64) LatencySummary {
	s := h.Snapshot()
	if s.Count == 0 {
		return LatencySummary{}
	}
	q := func(p float64) int64 { return min(int64(s.Quantile(p)), maxNS) }
	return LatencySummary{
		P50:  q(0.50),
		P90:  q(0.90),
		P99:  q(0.99),
		P999: q(0.999),
		Max:  maxNS,
		Mean: s.Mean(),
	}
}

// LabelStats is one request kind's share of the measured run.
type LabelStats struct {
	Label     string         `json:"label"`
	Count     int64          `json:"count"`
	Errors    int64          `json:"errors"`
	CacheHits int64          `json:"cache_hits"`
	Latency   LatencySummary `json:"latency"`
}

// Report is a load run's JSON artifact. All latency figures are
// coordinated-omission corrected: measured from each request's
// scheduled arrival, so a stalled engine shows up as tail latency
// instead of silently reducing the offered load.
type Report struct {
	OfferedRPS     float64          `json:"offered_rps"`
	Arrival        string           `json:"arrival"`
	Seed           uint64           `json:"seed"`
	UniqueFrac     float64          `json:"unique_frac"`
	WarmupSeconds  float64          `json:"warmup_seconds"`
	MeasureSeconds float64          `json:"measure_seconds"`
	Interrupted    bool             `json:"interrupted"`
	WarmupRequests int64            `json:"warmup_requests"`
	Sent           int64            `json:"sent"`
	Completed      int64            `json:"completed"`
	AchievedRPS    float64          `json:"achieved_rps"`
	MaxLatenessNs  int64            `json:"max_dispatch_lateness_ns"`
	Outcomes       map[string]int64 `json:"outcomes"`
	Latency        LatencySummary   `json:"latency"`
	ByLabel        []LabelStats     `json:"by_label"`
}

// labelTrack is one label's accumulation during the run. The histogram
// is lock-free; the exact maximum beside it and the counts are updated
// under mu.
type labelTrack struct {
	hist      *obs.Histogram
	max       int64
	count     int64
	errors    int64
	cacheHits int64
	mu        sync.Mutex
}

// Runner drives one target with one workload. Construct with NewRunner,
// run with Run; a Runner is single-use.
type Runner struct {
	target Target
	wl     *Workload
	o      Options
}

// NewRunner validates the options and binds target + workload. The
// target may be a single engine (EngineTarget) or a partitioned
// coordinator — the runner is agnostic.
func NewRunner(t Target, wl *Workload, o Options) (*Runner, error) {
	if t == nil || wl == nil {
		return nil, errors.New("loadgen: target and workload are required")
	}
	if o.Rate <= 0 || math.IsNaN(o.Rate) || math.IsInf(o.Rate, 0) {
		return nil, fmt.Errorf("loadgen: rate must be a positive finite rps, got %v", o.Rate)
	}
	if o.UniqueFrac < 0 || o.UniqueFrac > 1 {
		return nil, fmt.Errorf("loadgen: unique fraction must be in [0,1], got %v", o.UniqueFrac)
	}
	return &Runner{target: t, wl: wl, o: o.withDefaults()}, nil
}

// Run offers the load and blocks until every dispatched request has
// completed, then returns the report. Cancelling ctx stops the arrival
// schedule at the next tick, lets in-flight requests drain (they observe
// the same ctx, so they finish fast), and still returns a complete
// report over whatever was measured — the graceful-shutdown contract:
// an interrupted run flushes, it does not vanish.
func (r *Runner) Run(ctx context.Context) *Report {
	o := r.o
	rng := stats.NewRNG(o.Seed)
	arrivalRNG := rng.Split()
	sampleRNG := rng.Split()

	var (
		total     = obs.NewHistogram(latencyBounds)
		totalMax  int64
		mu        sync.Mutex
		outcomes  = make(map[string]int64)
		byLabel   = make(map[string]*labelTrack)
		wg        sync.WaitGroup
		sem       = make(chan struct{}, o.MaxInflight)
		sent      int64
		warmSent  int64
		completed int64
		maxLate   int64
	)
	for _, l := range r.wl.Labels() {
		byLabel[l] = &labelTrack{hist: obs.NewHistogram(latencyBounds)}
	}

	begin := time.Now()
	measureStart := begin.Add(o.Warmup)
	end := measureStart.Add(o.Duration)
	sched := begin

	for {
		sched = sched.Add(r.interArrival(arrivalRNG))
		if sched.After(end) {
			break
		}
		if ctx.Err() != nil {
			break
		}
		if d := time.Until(sched); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		} else if late := int64(-d); late > maxLate {
			// The dispatcher itself fell behind schedule (scheduler
			// starvation, GC pause). Lateness is reported so a run whose
			// generator — not engine — was the bottleneck is identifiable.
			maxLate = late
		}
		label, req := r.wl.Sample(sampleRNG)
		measured := !sched.Before(measureStart)
		if measured {
			sent++
		} else {
			warmSent++
		}
		arrival := sched
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp := r.target.DoCtx(ctx, req)
			lat := time.Since(arrival).Nanoseconds() // from SCHEDULED arrival: CO-correct
			if !measured {
				return
			}
			track := byLabel[label]
			track.hist.Observe(float64(lat))
			track.mu.Lock()
			track.max = max(track.max, lat)
			track.count++
			if resp.Err != nil {
				track.errors++
			}
			if resp.CacheHit {
				track.cacheHits++
			}
			track.mu.Unlock()
			total.Observe(float64(lat))
			mu.Lock()
			totalMax = max(totalMax, lat)
			completed++
			outcomes[serve.Outcome(resp.Err)]++
			mu.Unlock()
		}()
	}
	interrupted := ctx.Err() != nil
	wg.Wait()
	measuredEnd := time.Now()
	if measuredEnd.After(end) && !interrupted {
		measuredEnd = end
	}
	measureSec := measuredEnd.Sub(measureStart).Seconds()
	if measureSec <= 0 {
		measureSec = math.SmallestNonzeroFloat64
	}

	rep := &Report{
		OfferedRPS:     o.Rate,
		Arrival:        o.Arrival.String(),
		Seed:           o.Seed,
		UniqueFrac:     o.UniqueFrac,
		WarmupSeconds:  o.Warmup.Seconds(),
		MeasureSeconds: measureSec,
		Interrupted:    interrupted,
		WarmupRequests: warmSent,
		Sent:           sent,
		Completed:      completed,
		AchievedRPS:    float64(completed) / measureSec,
		MaxLatenessNs:  maxLate,
		Outcomes:       outcomes,
		Latency:        summarize(total, totalMax),
	}
	for label, track := range byLabel {
		if track.count == 0 {
			continue
		}
		rep.ByLabel = append(rep.ByLabel, LabelStats{
			Label:     label,
			Count:     track.count,
			Errors:    track.errors,
			CacheHits: track.cacheHits,
			Latency:   summarize(track.hist, track.max),
		})
	}
	sort.Slice(rep.ByLabel, func(i, j int) bool { return rep.ByLabel[i].Label < rep.ByLabel[j].Label })
	return rep
}

// interArrival draws the next gap in the arrival schedule.
func (r *Runner) interArrival(rng *stats.RNG) time.Duration {
	mean := 1 / r.o.Rate // seconds
	switch r.o.Arrival {
	case Constant:
		return time.Duration(mean * float64(time.Second))
	default: // Poisson: exponential gaps
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return time.Duration(-math.Log(u) * mean * float64(time.Second))
	}
}
