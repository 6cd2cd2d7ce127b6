package main

import (
	"math"
	"sort"
	"time"
)

// Step acceptance: the share of failed requests a passing step may have,
// and the backlog it may leave, in seconds of arrivals.
const (
	maxStepFailFrac = 0.001
	maxBacklog      = 100 * time.Millisecond
)

// searchBisections is how many times the search halves the bracket
// between the last passing and the first failing rate; with a bracket of
// one doubling that resolves max_rps to 1/16 of its lower edge.
const searchBisections = 4

// stepResult is the verdict on one fixed-rate search step.
type stepResult struct {
	Rate     float64       `json:"rate"`
	P90      time.Duration `json:"p90_ns"`
	FailFrac float64       `json:"fail_frac"`
	Backlog  int           `json:"backlog"`
	Pass     bool          `json:"pass"`
}

// judgeStep decides whether a step offered at rate for d met the limit.
// An arrival that was dropped counts as slower than any limit, a failed
// request counts against the failure share, and the backlog is the
// arrivals due by the end of the step that no client had picked up then.
func judgeStep(r *phaseRun, rate float64, d, limit time.Duration) stepResult {
	res := stepResult{Rate: rate}
	lat := make([]time.Duration, 0, len(r.out))
	failed := 0
	for i, o := range r.out {
		switch {
		case !o.sent:
			lat = append(lat, math.MaxInt64)
		case !o.ok:
			failed++
			lat = append(lat, math.MaxInt64)
		default:
			lat = append(lat, r.latency(i))
		}
		if r.due[i] <= d && (!o.sent || o.pickup > d) {
			res.Backlog++
		}
	}
	if len(lat) == 0 {
		return res
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P90 = lat[int(math.Ceil(0.9*float64(len(lat))))-1]
	res.FailFrac = float64(failed) / float64(len(lat))
	res.Pass = res.P90 <= limit &&
		res.FailFrac <= maxStepFailFrac &&
		float64(res.Backlog) < rate*maxBacklog.Seconds()
	return res
}

// searchMaxRate finds the highest rate probe passes at: from start it
// doubles while steps pass (or halves while they fail) until the verdict
// flips, then bisects the bracket. It returns the highest passing rate,
// 0 if none passed.
func searchMaxRate(start float64, probe func(rate float64) stepResult) (float64, []stepResult) {
	var steps []stepResult
	var lo, hi float64
	rate := start
	// Doubling is bounded so a probe that always passes (or always
	// fails) still ends; 2^±20 spans any rate this benchmark can offer.
	for i := 0; i < 20 && (lo == 0 || hi == 0); i++ {
		s := probe(rate)
		steps = append(steps, s)
		if s.Pass {
			lo = rate
			rate *= 2
		} else {
			hi = rate
			rate /= 2
		}
	}
	if lo == 0 || hi == 0 {
		return lo, steps
	}
	for i := 0; i < searchBisections; i++ {
		mid := (lo + hi) / 2
		s := probe(mid)
		steps = append(steps, s)
		if s.Pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, steps
}
