package main

import (
	"math"
	"testing"
	"time"
)

// stepRun builds a one-second step at 100 rps whose arrivals i < slow
// took 500 ms and the rest 1 ms, with the given arrivals picked up late
// and the given ones dropped.
func stepRun(slow, late, dropped int) *phaseRun {
	const n = 100
	r := &phaseRun{due: make([]time.Duration, n), out: make([]arrivalOutcome, n)}
	for i := range r.due {
		r.due[i] = time.Duration(i) * 10 * time.Millisecond
		o := &r.out[i]
		o.sent, o.ok, o.pickup = true, true, r.due[i]
		o.end = o.pickup + time.Millisecond
		if i < slow {
			o.end = o.pickup + 500*time.Millisecond
		}
		if i >= n-late-dropped && i < n-dropped {
			o.pickup = time.Second + time.Millisecond
			o.end = o.pickup + time.Millisecond
		}
		if i >= n-dropped {
			o.sent = false
		}
	}
	return r
}

func TestJudgeStep(t *testing.T) {
	const rate, d, limit = 100, time.Second, 100 * time.Millisecond
	cases := []struct {
		name                string
		slow, late, dropped int
		pass                bool
	}{
		{"fast", 0, 0, 0, true},
		{"p90 at the limit", 10, 0, 0, true},
		{"p90 over the limit", 11, 0, 0, false},
		// The backlog bound is 0.1 s of arrivals: 10 at 100 rps.
		{"backlog under the bound", 0, 9, 0, true},
		{"backlog at the bound", 0, 10, 0, false},
		{"dropped arrivals are backlog and infinitely slow", 0, 0, 10, false},
	}
	for _, c := range cases {
		res := judgeStep(stepRun(c.slow, c.late, c.dropped), rate, d, limit)
		if res.Pass != c.pass {
			t.Errorf("%s: pass=%v (p90 %v, backlog %d), want %v", c.name, res.Pass, res.P90, res.Backlog, c.pass)
		}
	}
	if res := judgeStep(stepRun(0, 0, 11), rate, d, limit); res.P90 != math.MaxInt64 || res.Backlog != 11 {
		t.Errorf("11 dropped: p90 %v backlog %d", res.P90, res.Backlog)
	}
}

func TestJudgeStepFailures(t *testing.T) {
	r := stepRun(0, 0, 0)
	r.out[3].ok = false
	if res := judgeStep(r, 100, time.Second, 100*time.Millisecond); res.Pass || res.FailFrac != 0.01 {
		t.Errorf("one failure in 100: pass=%v fail share %v", res.Pass, res.FailFrac)
	}
}

func TestSearchMaxRate(t *testing.T) {
	const capacity = 123.4
	probe := func(rate float64) stepResult { return stepResult{Rate: rate, Pass: rate <= capacity} }
	for _, start := range []float64{50, 500} {
		got, steps := searchMaxRate(start, probe)
		if got > capacity || got < capacity*(1-1.0/8) {
			t.Errorf("start %v: max rate %v for a capacity of %v", start, got, capacity)
		}
		// At least one step on each side of the capacity, then the
		// bisections.
		if len(steps) < 2+searchBisections {
			t.Errorf("start %v: %d steps cannot bracket and bisect", start, len(steps))
		}
	}
	if got, _ := searchMaxRate(10, func(rate float64) stepResult { return stepResult{Rate: rate} }); got != 0 {
		t.Errorf("nothing passes: max rate %v, want 0", got)
	}
}
