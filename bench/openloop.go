package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of client goroutines offering load: one per
// core of the two-core host the benchmark was defined on.
const clients = 2

// A client waits for an arrival in three stretches. It sleeps on a
// runtime timer, which frees its processor, until sleepMargin before the
// due time: the runtime's timers wake up to ~1 ms late when the process
// is idle, and the margin absorbs that. It then spins, yielding the
// processor on every turn so that the program's own goroutines (the
// collector's workers, the coordinator's legs, the churn writer) run as
// soon as they are runnable, and holds the processor only for the last
// hardSpin, so that it is on a core when the arrival is due.
const (
	sleepMargin = 1500 * time.Microsecond
	hardSpin    = 30 * time.Microsecond
	// yieldedAway is the shortest turn of the spin taken to mean that the
	// yield ran another goroutine; shorter turns are the spin's own CPU.
	yieldedAway = 5 * time.Microsecond
)

// sendFunc sends arrival i of a plan and reports the outcome.
type sendFunc func(ctx context.Context, i int) (ok, hit bool)

// arrivalOutcome is what the open loop observed for one arrival, as offsets
// from the phase start.
type arrivalOutcome struct {
	pickup time.Duration // when a client took it; sent is false if never
	end    time.Duration
	sent   bool
	ok     bool
	hit    bool
	// idle marks an arrival whose client was free before it was due: its
	// pickup delay is the generator's lateness, not queueing.
	idle bool
}

// phaseRun is the record of one open-loop phase.
type phaseRun struct {
	start time.Time
	wall  time.Duration
	due   []time.Duration
	out   []arrivalOutcome
	spin  time.Duration // summed over clients: CPU the clients spent spinning
}

// drive offers plan-timed arrivals to send from exactly `clients`
// goroutines and returns once every arrival is sent or dropped. Latency
// is timed from each arrival's due time, so an arrival that waits behind
// a slow request carries that wait (no coordinated omission). Arrivals
// that no client has picked up by dropAfter past the phase start are
// dropped, not sent; zero never drops.
func drive(ctx context.Context, due []time.Duration, send sendFunc, dropAfter time.Duration) *phaseRun {
	r := &phaseRun{due: due, out: make([]arrivalOutcome, len(due))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	r.start = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var spin time.Duration
			defer func() {
				mu.Lock()
				r.spin += spin
				mu.Unlock()
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				o := &r.out[i]
				at := r.start.Add(due[i])
				if time.Until(at) > 0 {
					o.idle = true
					spin += waitUntil(at)
				}
				o.pickup = time.Since(r.start)
				if dropAfter > 0 && o.pickup > dropAfter {
					continue
				}
				o.sent = true
				o.ok, o.hit = send(ctx, i)
				o.end = time.Since(r.start)
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(r.start)
	return r
}

// waitUntil returns at time at, or as soon after it as the client gets
// a processor back, and returns the CPU its spin burned, so that the
// generator's own cost can be taken out of the process's CPU time. A
// turn of the spin that took longer than yieldedAway ran another
// goroutine, whose CPU is the program's; shorter turns are the spin's.
func waitUntil(at time.Time) (spin time.Duration) {
	if d := time.Until(at) - sleepMargin; d > 0 {
		time.Sleep(d)
	}
	prev := time.Now()
	for prev.Before(at) {
		if at.Sub(prev) > hardSpin {
			runtime.Gosched()
		}
		now := time.Now()
		if turn := now.Sub(prev); turn < yieldedAway {
			spin += turn
		}
		prev = now
	}
	return spin
}

// latency is the arrival's due-to-completion time.
func (r *phaseRun) latency(i int) time.Duration { return r.out[i].end - r.due[i] }

// summary condenses a phase into the distributions the metrics read.
type summary struct {
	latency hist // due → completion, sent arrivals
	service hist // pickup → completion
	queue   hist // due → pickup, every sent arrival
	late    hist // due → pickup, arrivals whose client was idle
	hitSvc  hist // service time of cache hits
	missSvc hist // service time of cache misses
	sent    int
	failed  int
	dropped int
	hits    int
}

func (r *phaseRun) summarize() *summary {
	s := &summary{}
	for i, o := range r.out {
		if !o.sent {
			s.dropped++
			continue
		}
		s.sent++
		if !o.ok {
			s.failed++
		}
		svc := o.end - o.pickup
		s.latency.record(int64(r.latency(i)))
		s.service.record(int64(svc))
		s.queue.record(int64(o.pickup - r.due[i]))
		if o.idle {
			s.late.record(int64(o.pickup - r.due[i]))
		}
		if o.hit {
			s.hits++
			s.hitSvc.record(int64(svc))
		} else {
			s.missSvc.record(int64(svc))
		}
	}
	return s
}
