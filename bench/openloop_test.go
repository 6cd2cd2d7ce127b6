package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopCountsTheStall is the coordinated-omission check: a target
// that stalls every request for 100 ms behind one lock must show the
// stall in the latency of every arrival that was due during it, not just
// in the two requests the clients happened to be sending.
func TestOpenLoopCountsTheStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	due := make([]time.Duration, 300)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	var mu sync.Mutex
	var once sync.Once
	send := func(context.Context, int) (bool, bool) {
		mu.Lock()
		once.Do(func() { time.Sleep(stall) })
		mu.Unlock()
		return true, false
	}
	run := drive(context.Background(), due, send, 0)
	for i, d := range due {
		if d >= stall-10*time.Millisecond {
			break
		}
		if lat := run.latency(i); lat < stall-d-time.Millisecond {
			t.Fatalf("arrival due at %v finished %v after it was due; the stall ended %v after", d, lat, stall-d)
		}
	}
	s := run.summarize()
	if s.sent != len(due) || s.failed != 0 || s.dropped != 0 {
		t.Fatalf("sent %d failed %d dropped %d of %d", s.sent, s.failed, s.dropped, len(due))
	}
	// The arrivals behind the stall waited for a client, and the wait is
	// reported as queueing, not as generator lateness.
	// A third of the arrivals were due during the stall.
	if q := s.queue.quantile(0.9); q < float64(20*time.Millisecond) {
		t.Errorf("queue wait p90 %.1f ms, want the stall to show", q/1e6)
	}
	// Counted as lateness, the stall would put the p99 near 100 ms; the
	// limit leaves room for a busy host holding a core for a few ms.
	if late := s.late.quantile(0.99); late > float64(stall/2) {
		t.Errorf("generator lateness p99 %.1f ms counts the stall", late/1e6)
	}
}

// TestOpenLoopDropsLateArrivals checks that arrivals nobody picked up by
// the drop time are dropped, not sent.
func TestOpenLoopDropsLateArrivals(t *testing.T) {
	due := make([]time.Duration, 50)
	send := func(context.Context, int) (bool, bool) {
		time.Sleep(20 * time.Millisecond)
		return true, false
	}
	run := drive(context.Background(), due, send, 5*time.Millisecond)
	s := run.summarize()
	if s.sent != clients || s.dropped != len(due)-clients {
		t.Fatalf("sent %d dropped %d, want %d and %d", s.sent, s.dropped, clients, len(due)-clients)
	}
}
