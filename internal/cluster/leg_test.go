package cluster_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// Which send of the armed request a stallTransport holds back.
const (
	stallNone int32 = iota
	stallPrimary
	stallDuplicate
)

// handlerRun is how long a stalled send keeps running after its context
// ends, as a handler that finishes its work before it looks at the
// context would.
const handlerRun = 20 * time.Millisecond

// stallTransport forwards to a coordinator's own nodes, counts the sends
// in flight, and once armed holds back one send of the next leg: the
// primary (the leg's first send) or its hedge duplicate (the second). The
// held send waits until its context ends, runs on for handlerRun and
// fails with the context's error. When the duplicate is held, the primary
// waits until the duplicate has started, so it returns after the hedge
// delay and wins.
type stallTransport struct {
	inner      cluster.Transport
	inflight   atomic.Int64
	mode       atomic.Int32
	sends      atomic.Int64 // sends since the transport was armed
	dupStarted chan struct{}
}

func (t *stallTransport) Send(ctx context.Context, p int, call cluster.Call) (cluster.Reply, error) {
	t.inflight.Add(1)
	defer t.inflight.Add(-1)
	mode := t.mode.Load()
	if mode == stallNone {
		return t.inner.Send(ctx, p, call)
	}
	switch n := t.sends.Add(1); {
	case mode == stallDuplicate && n == 1:
		select {
		case <-t.dupStarted:
		case <-time.After(10 * time.Second):
		}
	case mode == stallDuplicate && n == 2:
		close(t.dupStarted)
		fallthrough
	case mode == stallPrimary && n == 1:
		<-ctx.Done()
		time.Sleep(handlerRun)
		return cluster.Reply{}, ctx.Err()
	}
	return t.inner.Send(ctx, p, call)
}

// TestHedgedLegSettlesBeforeReturn: once a leg's hedge duplicate has
// launched, the leg returns only after both sends have, whichever wins
// and whether or not the request is traced. A hedge race's canceled
// loser is no partition leg error, and a traced request's tree holds the
// linked pair with both spans closed at their real extent.
func TestHedgedLegSettlesBeforeReturn(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(7), 6, 5, 4, 0.15)
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	want := fingerprint(serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{CacheSize: -1}).Do(req))
	for _, tc := range []struct {
		name                 string
		mode                 int32
		hedgeWins            uint64
		primaryOut, hedgeOut string
	}{
		{"duplicate wins", stallPrimary, 1, "canceled", "won"},
		{"primary wins", stallDuplicate, 0, "won", "lost"},
	} {
		for _, traced := range []bool{false, true} {
			tp := &stallTransport{dupStarted: make(chan struct{})}
			var tz *obs.Tracer
			if traced {
				tz = obs.NewTracer(4)
			}
			coord := cluster.New(tbl, cluster.Options{Partitions: 1, NodeCacheSize: -1, Transport: tp, Tracer: tz, Seed: 3})
			tp.inner = cluster.NewLocalTransport([]*cluster.Node{coord.Node(0)})
			// Enough legs for the partition's hedge delay to arm.
			for i := 0; i < 12; i++ {
				if got := fingerprint(coord.Do(req)); got != want {
					t.Fatalf("%s: warm-up request %d diverged:\n got: %s\nwant: %s", tc.name, i, got, want)
				}
			}
			reg := coord.Registry()
			legErrors := reg.Counter(obs.Name("cluster_partition_leg_errors_total", "partition", "0"))
			errorsBefore := legErrors.Value()
			hedgesBefore := reg.Counter("cluster_hedges_total").Value()
			winsBefore := reg.Counter("cluster_hedge_wins_total").Value()

			tp.mode.Store(tc.mode)
			resp := coord.Do(req)
			inflight := tp.inflight.Load()
			tp.mode.Store(stallNone)

			name := tc.name
			if traced {
				name += ", traced"
			}
			if got := fingerprint(resp); got != want {
				t.Fatalf("%s: hedged answer diverged:\n got: %s\nwant: %s", name, got, want)
			}
			if inflight != 0 {
				t.Errorf("%s: %d sends still in flight when Do returned", name, inflight)
			}
			if got := reg.Counter("cluster_hedges_total").Value() - hedgesBefore; got != 1 {
				t.Fatalf("%s: %d hedges fired, want 1", name, got)
			}
			if got := reg.Counter("cluster_hedge_wins_total").Value() - winsBefore; got != tc.hedgeWins {
				t.Errorf("%s: %d hedge wins, want %d", name, got, tc.hedgeWins)
			}
			if got := legErrors.Value() - errorsBefore; got != 0 {
				t.Errorf("%s: the race's canceled loser counted %d partition leg errors, want 0", name, got)
			}
			if !traced {
				continue
			}
			tr := tz.Recent()[0]
			if err := tr.CheckSpans(); err != nil {
				t.Fatalf("%s: trace malformed: %v", name, err)
			}
			hedge := findSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Kind == "hedge" })
			if hedge == nil || hedge.Link == 0 {
				t.Fatalf("%s: no linked hedge span: %+v", name, tr.Children)
			}
			primary := &tr.Children[hedge.Link-1]
			if primary.Link != hedge.ID || primary.Kind != "primary" {
				t.Fatalf("%s: hedge pair not reciprocal: hedge %+v, primary %+v", name, hedge, primary)
			}
			if primary.Outcome != tc.primaryOut || hedge.Outcome != tc.hedgeOut {
				t.Errorf("%s: primary %q, hedge %q; want %q and %q", name, primary.Outcome, hedge.Outcome, tc.primaryOut, tc.hedgeOut)
			}
			if s := findSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Outcome == "abandoned" }); s != nil {
				t.Errorf("%s: span %q closed as abandoned: %+v", name, s.Name, s)
			}
		}
	}
}
