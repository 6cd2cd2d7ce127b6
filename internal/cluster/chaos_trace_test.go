//go:build faultinject

package cluster_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/faultinject"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
)

// The chaos tracing suite: under every partition failpoint, every
// retained trace's span tree must stay well-formed — no orphan legs, no
// unfinished spans, hedge pairs always reciprocally linked — because
// the whole point of the waterfall is to be trustworthy exactly when
// the cluster is misbehaving.

// wellFormedTraces asserts every retained trace passes CheckSpans and
// that every hedge span is linked to its peer, then returns them
// (newest first).
func wellFormedTraces(t *testing.T, tz *obs.Tracer) []*obs.Trace {
	t.Helper()
	traces := tz.Recent()
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	for _, tr := range traces {
		if err := tr.CheckSpans(); err != nil {
			t.Fatalf("trace %d (%s) malformed: %v\nspans: %+v", tr.ID, tr.Label, err, tr.Children)
		}
		for i := range tr.Children {
			cs := &tr.Children[i]
			if cs.Kind == "hedge" && cs.Link == 0 && tr.SpansDropped == 0 {
				t.Fatalf("trace %d: hedge span %d has no peer link: %+v", tr.ID, cs.ID, cs)
			}
		}
	}
	return traces
}

func chaosSpan(tr *obs.Trace, pred func(*obs.ChildSpan) bool) *obs.ChildSpan {
	for i := range tr.Children {
		if pred(&tr.Children[i]) {
			return &tr.Children[i]
		}
	}
	return nil
}

// TestClusterChaosTraceSlow is the ISSUE's acceptance scenario: a
// deadline-stressed request against a stalled partition must yield a
// waterfall at /debug/traces/<id> showing the hedge pair with the
// winner marked, and a wide event carrying the scatter cost block —
// all joined by one trace_id that resolves via ?trace_id=.
func TestClusterChaosTraceSlow(t *testing.T) {
	defer faultinject.Reset()
	const n = 3
	tbl := clusterTable(stats.NewRNG(21), 6, 5, 4, 0.15)
	reg := obs.NewRegistry()
	tz := obs.NewTracer(64)
	sink := obs.NewRingSink(64)
	coord := cluster.New(tbl, cluster.Options{
		Partitions:    n,
		NodeCacheSize: -1,
		Seed:          5,
		Obs:           reg,
		Tracer:        tz,
		Log:           obs.NewLogger(obs.LoggerOptions{Sink: sink}),
	})
	req := chaosRequests(tbl)[0]

	// Warm the latency trackers past hedgeAfterSamples so hedges arm.
	for i := 0; i < 12; i++ {
		if resp := coord.Do(req); resp.Err != nil {
			t.Fatalf("warmup %d failed: %v", i, resp.Err)
		}
	}

	// Stall exactly one send per partition; hedges rescue the request.
	release := make(chan struct{})
	var stalled [n]atomic.Bool
	faultinject.SetKeyed(faultinject.ClusterPartitionSlow, func(key string) error {
		p, _ := strconv.Atoi(key)
		if stalled[p].CompareAndSwap(false, true) {
			<-release
		}
		return nil
	})
	defer close(release)

	req.Deadline = 5 * time.Second // stressed, but rescuable by hedging
	resp := coord.Do(req)
	if resp.Err != nil {
		t.Fatalf("hedged request failed: %v", resp.Err)
	}

	traces := wellFormedTraces(t, tz)
	tr := traces[0] // the stalled request is the newest trace
	winner := chaosSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Kind == "hedge" && cs.Outcome == "won" })
	if winner == nil {
		t.Fatalf("no winning hedge span in the stalled request's trace: %+v", tr.Children)
	}
	loser := &tr.Children[winner.Link-1]
	if loser.Link != winner.ID || loser.Partition != winner.Partition {
		t.Fatalf("hedge pair inconsistent: winner %+v loser %+v", winner, loser)
	}
	if loser.Outcome == "" || loser.Outcome == "ok" {
		t.Fatalf("stalled primary should carry a loss outcome, got %q", loser.Outcome)
	}

	// The wide event joins the trace and carries the scatter cost block.
	ev := sink.Recent()[0]
	if ev.TraceID != tr.ID {
		t.Fatalf("wide event trace_id %d, want %d", ev.TraceID, tr.ID)
	}
	if ev.HedgesFired == 0 || ev.HedgesWon == 0 || ev.RPCs == 0 || ev.SlowestPartition == "" {
		t.Fatalf("wide event lacks scatter cost: %+v", ev)
	}

	// The trace resolves over HTTP: exact lookup, then the waterfall with
	// the winner marked.
	srv := httptest.NewServer(obs.NewHandler(obs.AdminOptions{Registry: reg, Tracer: tz}))
	defer srv.Close()
	res, err := http.Get(fmt.Sprintf("%s/debug/traces?trace_id=%d", srv.URL, tr.ID))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("?trace_id=%d: status %d", tr.ID, res.StatusCode)
	}
	res, err = http.Get(fmt.Sprintf("%s/debug/traces/%d", srv.URL, tr.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	waterfall := string(body)
	if !strings.Contains(waterfall, "◀ winner") || !strings.Contains(waterfall, "[hedge]") {
		t.Fatalf("waterfall does not show the hedge pair with the winner marked:\n%s", waterfall)
	}
}

// TestClusterChaosTraceDown: a hard-down partition degrades the answer,
// and the trace must show it — the scatter attempt marked degraded, a
// recompute span, and the degraded engine joined under it — with every
// tree still well-formed.
func TestClusterChaosTraceDown(t *testing.T) {
	defer faultinject.Reset()
	const n, downed = 3, 1
	tbl := clusterTable(stats.NewRNG(21), 6, 5, 4, 0.15)
	tz := obs.NewTracer(64)
	coord := cluster.New(tbl, cluster.Options{
		Partitions:    n,
		NodeCacheSize: -1,
		Tracer:        tz,
		Retry:         serve.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	faultinject.SetKeyed(faultinject.ClusterPartitionDown, func(key string) error {
		if key == strconv.Itoa(downed) {
			return errors.New("injected: partition down")
		}
		return nil
	})

	resp := coord.Do(chaosRequests(tbl)[0])
	if !errors.Is(resp.Err, cluster.ErrPartialResult) {
		t.Fatalf("want partial result, got %v", resp.Err)
	}

	tr := wellFormedTraces(t, tz)[0]
	scatter := chaosSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Name == "scatter" })
	if scatter == nil || scatter.Outcome != "degraded" {
		t.Fatalf("scatter attempt not marked degraded: %+v", scatter)
	}
	recompute := chaosSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Kind == "recompute" })
	if recompute == nil {
		t.Fatalf("no recompute span after degradation: %+v", tr.Children)
	}
	eng := chaosSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Name == "engine" && cs.Parent == recompute.ID })
	if eng == nil {
		t.Fatalf("degraded engine did not join under the recompute span: %+v", tr.Children)
	}
	// Retries against the downed partition appear as retry-kind spans.
	if chaosSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Kind == "retry" && cs.Partition == downed }) == nil {
		t.Fatalf("no retry span for the downed partition: %+v", tr.Children)
	}
}

// TestClusterChaosTraceFlap: a flapping partition exercises the retry
// policy; the retries must appear as linked retry spans and every tree
// must stay well-formed across a battery of flapping requests.
func TestClusterChaosTraceFlap(t *testing.T) {
	defer faultinject.Reset()
	const n, flapping = 3, 0
	tbl := clusterTable(stats.NewRNG(21), 6, 5, 4, 0.15)
	tz := obs.NewTracer(64)
	coord := cluster.New(tbl, cluster.Options{
		Partitions:    n,
		NodeCacheSize: -1,
		Tracer:        tz,
		Retry:         serve.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	var calls atomic.Uint64
	faultinject.SetKeyed(faultinject.ClusterPartitionFlap, func(key string) error {
		if key != strconv.Itoa(flapping) {
			return nil
		}
		if calls.Add(1)%2 == 1 {
			return errors.New("injected: partition flapped")
		}
		return nil
	})

	for i, req := range chaosRequests(tbl) {
		if resp := coord.Do(req); resp.Err != nil {
			t.Fatalf("request %d failed under flapping: %v", i, resp.Err)
		}
	}
	traces := wellFormedTraces(t, tz)
	sawRetry := false
	for _, tr := range traces {
		if chaosSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Kind == "retry" && cs.Partition == flapping }) != nil {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("flapping never produced a retry span")
	}
}

// TestClusterChaosTraceRepin: a generation flip mid-request restarts
// the fan-out, and the trace shows both attempts — the first scatter
// span closed as gen-flip, the second as the answer.
func TestClusterChaosTraceRepin(t *testing.T) {
	defer faultinject.Reset()
	const n = 3
	tbl := clusterTable(stats.NewRNG(21), 6, 5, 4, 0.15)
	tz := obs.NewTracer(64)
	coord := cluster.New(tbl, cluster.Options{Partitions: n, NodeCacheSize: -1, Tracer: tz})

	var fired atomic.Bool
	faultinject.SetKeyed(faultinject.ClusterPartitionFlap, func(key string) error {
		if key == "0" && fired.CompareAndSwap(false, true) {
			coord.Node(0).Refresh(nil) // same cells, new generation
		}
		return nil
	})

	if resp := coord.Do(chaosRequests(tbl)[0]); resp.Err != nil {
		t.Fatalf("repinned request failed: %v", resp.Err)
	}
	tr := wellFormedTraces(t, tz)[0]
	var kinds []string
	for i := range tr.Children {
		if tr.Children[i].Name == "scatter" {
			kinds = append(kinds, tr.Children[i].Kind+":"+tr.Children[i].Outcome)
		}
	}
	if len(kinds) != 2 || kinds[0] != "primary:gen-flip" || kinds[1] != "repin:ok" {
		t.Fatalf("scatter attempts = %v, want [primary:gen-flip repin:ok]", kinds)
	}
}
