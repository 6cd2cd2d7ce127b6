package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/testutil"
	"fairjob/internal/topk"
)

// findSpan returns the first span matching pred, or nil.
func findSpan(tr *obs.Trace, pred func(*obs.ChildSpan) bool) *obs.ChildSpan {
	for i := range tr.Children {
		if pred(&tr.Children[i]) {
			return &tr.Children[i]
		}
	}
	return nil
}

// TestClusterTracingEndToEnd drives a traced coordinator and asserts
// the whole observability chain for one request: a well-formed span
// tree with the scatter attempt, per-partition scan-stream summaries
// and leg spans; per-partition RED metrics on /metrics; a wide event
// carrying the scatter cost block — all joined by one trace id that
// resolves through ?trace_id= and renders at /debug/traces/<id>.
func TestClusterTracingEndToEnd(t *testing.T) {
	const n = 3
	tbl := clusterTable(stats.NewRNG(7), 6, 5, 4, 0.15)
	reg := obs.NewRegistry()
	tz := obs.NewTracer(64)
	sink := obs.NewRingSink(64)
	coord := cluster.New(tbl, cluster.Options{
		Partitions:    n,
		Obs:           reg,
		Tracer:        tz,
		Log:           obs.NewLogger(obs.LoggerOptions{Sink: sink}),
		NodeCacheSize: -1,
	})

	resp := coord.Do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA})
	if resp.Err != nil {
		t.Fatalf("quantify failed: %v", resp.Err)
	}
	if resp2 := coord.Do(serve.Request{Problem: serve.Compare, Of: compare.ByGroup,
		R1: tbl.Groups()[0].Key(), R2: tbl.Groups()[1].Key(), By: compare.ByQuery}); resp2.Err != nil {
		t.Fatalf("compare failed: %v", resp2.Err)
	}

	traces := tz.Recent()
	if len(traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(traces))
	}
	for _, tr := range traces {
		if err := tr.CheckSpans(); err != nil {
			t.Fatalf("trace %d (%s) malformed: %v", tr.ID, tr.Label, err)
		}
	}
	cmpTrace, quantTrace := traces[0], traces[1] // newest first

	// The quantify trace: a primary scatter attempt, and one scan-stream
	// summary per partition carrying the round-trip counts (the O(lists)
	// RPC evidence), instead of a span per scan.
	scatter := findSpan(quantTrace, func(cs *obs.ChildSpan) bool { return cs.Name == "scatter" && cs.Kind == "primary" })
	if scatter == nil {
		t.Fatalf("quantify trace has no primary scatter span: %+v", quantTrace.Children)
	}
	streams := 0
	for i := range quantTrace.Children {
		cs := &quantTrace.Children[i]
		if cs.Name != "scan-stream" {
			continue
		}
		streams++
		if cs.Kind != "scan" || cs.Parent != scatter.ID || cs.Partition < 0 || cs.Partition >= n {
			t.Fatalf("scan-stream span wrong: %+v", cs)
		}
		if len(cs.Annots) == 0 || cs.Annots[0].Key != "scan_rpcs" {
			t.Fatalf("scan-stream span lacks the scan_rpcs annotation: %+v", cs)
		}
	}
	if streams == 0 {
		t.Fatal("quantify trace has no scan-stream summaries")
	}

	// The compare trace: one cells leg span per partition, under its
	// scatter attempt.
	for p := 0; p < n; p++ {
		leg := findSpan(cmpTrace, func(cs *obs.ChildSpan) bool {
			return cs.Name == "cells" && cs.Partition == int32(p)
		})
		if leg == nil {
			t.Fatalf("compare trace has no cells leg for partition %d: %+v", p, cmpTrace.Children)
		}
		if leg.Kind != "primary" || leg.Outcome != "ok" || leg.Entries == 0 {
			t.Fatalf("cells leg for partition %d wrong: %+v", p, leg)
		}
	}

	// Wide events carry the scatter cost block and stay schema-valid.
	events := sink.Recent()
	if len(events) != 2 {
		t.Fatalf("emitted %d wide events, want 2", len(events))
	}
	for _, ev := range events {
		if ev.RPCs == 0 || ev.Partitions != n || ev.SlowestPartition == "" {
			t.Fatalf("wide event lacks scatter cost fields: %+v", ev)
		}
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateEventJSON(raw); err != nil {
			t.Fatalf("cluster wide event fails the schema: %v\n%s", err, raw)
		}
	}
	quantEvent := events[1]
	if quantEvent.TraceID != quantTrace.ID {
		t.Fatalf("wide event trace_id %d does not join its trace %d", quantEvent.TraceID, quantTrace.ID)
	}

	// Per-partition RED metrics and the hedge-delay gauge on /metrics.
	srv := httptest.NewServer(obs.NewHandler(obs.AdminOptions{Registry: reg, Tracer: tz}))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	metrics := string(body)
	for p := 0; p < n; p++ {
		for _, name := range []string{
			fmt.Sprintf(`cluster_partition_legs_total{partition="%d"}`, p),
			fmt.Sprintf(`cluster_leg_seconds_count{partition="%d"}`, p),
			fmt.Sprintf(`cluster_hedge_delay_seconds{partition="%d"}`, p),
		} {
			if !strings.Contains(metrics, name) {
				t.Errorf("/metrics lacks %s", name)
			}
		}
	}
	if reg.Counter(obs.Name("cluster_partition_legs_total", "partition", "0")).Value() == 0 {
		t.Error("partition 0 leg counter never moved")
	}

	// The trace id resolves via ?trace_id= and renders as a waterfall.
	res, err = http.Get(fmt.Sprintf("%s/debug/traces?trace_id=%d", srv.URL, quantTrace.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.Contains(string(body), `"children"`) {
		t.Fatalf("?trace_id= lookup failed: status %d body %s", res.StatusCode, body)
	}
	res, err = http.Get(fmt.Sprintf("%s/debug/traces/%d", srv.URL, quantTrace.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.Contains(string(body), "scan-stream") {
		t.Fatalf("waterfall missing scan-stream: status %d\n%s", res.StatusCode, body)
	}
}

// TestClusterTracingEngineJoin: a single-partition coordinator serves
// through OpServe, and the node-side engine must JOIN the coordinator's
// trace as an "engine" child of the serve leg — one request, one trace —
// instead of starting a second trace of its own. The engine's phase
// spans nest under that engine span.
func TestClusterTracingEngineJoin(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(7), 6, 5, 4, 0.15)
	tz := obs.NewTracer(8)
	coord := cluster.New(tbl, cluster.Options{Partitions: 1, Tracer: tz, NodeCacheSize: -1})

	if resp := coord.Do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}); resp.Err != nil {
		t.Fatalf("quantify failed: %v", resp.Err)
	}
	traces := tz.Recent()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want exactly 1 (the engine must not start its own)", len(traces))
	}
	tr := traces[0]
	if err := tr.CheckSpans(); err != nil {
		t.Fatalf("trace malformed: %v", err)
	}
	leg := findSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Name == "serve" })
	if leg == nil {
		t.Fatalf("no serve leg span: %+v", tr.Children)
	}
	eng := findSpan(tr, func(cs *obs.ChildSpan) bool { return cs.Name == "engine" })
	if eng == nil {
		t.Fatalf("engine never joined the trace: %+v", tr.Children)
	}
	if eng.Parent != leg.ID || eng.Kind != "engine" || eng.Gen == 0 {
		t.Fatalf("engine span wrong (want child of serve leg %d): %+v", leg.ID, eng)
	}
	var phases []string
	for _, cs := range tr.Children {
		if cs.Parent == eng.ID {
			phases = append(phases, cs.Name)
		}
	}
	if got := strings.Join(phases, " "); got != "validate cache-lookup execute access-accounting" {
		t.Fatalf("engine phases = %q, want validate cache-lookup execute access-accounting", got)
	}
	if len(tr.Children) != 7 {
		t.Fatalf("one-partition trace has %d spans, want 7 (scatter, serve, engine, four phases): %+v", len(tr.Children), tr.Children)
	}
}

// TestClusterCacheHitEvent: a one-partition coordinator serves through
// a node engine's cache, and the wide event of a cached answer must say
// so — cache "hit" and no access costs, which the cache hit never
// spent — exactly as the engine's own event does.
func TestClusterCacheHitEvent(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(7), 6, 5, 4, 0.15)
	sink := obs.NewRingSink(8)
	coord := cluster.New(tbl, cluster.Options{Partitions: 1, Log: obs.NewLogger(obs.LoggerOptions{Sink: sink})})
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA}
	for i := 0; i < 2; i++ {
		if resp := coord.Do(req); resp.Err != nil {
			t.Fatalf("quantify %d failed: %v", i, resp.Err)
		}
	}
	events := sink.Recent() // newest first
	if len(events) != 2 {
		t.Fatalf("emitted %d wide events, want 2", len(events))
	}
	miss, hit := events[1], events[0]
	if miss.Cache != "" || miss.SortedAccesses == 0 || miss.Rounds == 0 {
		t.Fatalf("computed answer's event lacks its access costs: %+v", miss)
	}
	if hit.Cache != "hit" || hit.SortedAccesses != 0 || hit.RandomAccesses != 0 || hit.Rounds != 0 {
		t.Fatalf("cached answer's event = cache %q, sorted %d, random %d, rounds %d; want cache hit and no costs",
			hit.Cache, hit.SortedAccesses, hit.RandomAccesses, hit.Rounds)
	}
}

// TestClusterTracingAllocations pins what the coordinator costs a
// request in allocations, for one quantify. The hop itself is a
// one-partition coordinator with node caches off, minus a bare engine
// with caching off: the attempt's generation pins and scatter
// accounting, the leg's context and the hedge timer. Tracing
// on top costs only the two allocations of obs.ContextWithSpan (the
// context node and the span ref boxed into it) that carry the serve
// leg's span to the node: the scatter, leg, engine and phase spans all
// live in the pooled trace's inline buffer, and the tracer keeps only
// the warm-up request's trace. The hop pin is exact: a count that falls
// fails too, so the pin is lowered in the same change; it may rise only
// with its reason written down.
func TestClusterTracingAllocations(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	const hopPin = 15
	tbl := clusterTable(stats.NewRNG(7), 6, 5, 4, 0.15)
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	allocs := func(do func(serve.Request) serve.Response) float64 {
		do(req)
		return testing.AllocsPerRun(100, func() { do(req) })
	}
	coordAllocs := func(tz *obs.Tracer) float64 {
		return allocs(cluster.New(tbl, cluster.Options{Partitions: 1, NodeCacheSize: -1, Tracer: tz}).Do)
	}
	bare := allocs(serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{Workers: 1, CacheSize: -1}).Do)
	plain := coordAllocs(nil)
	traced := coordAllocs(obs.NewTracerTailSampled(0, obs.TailSamplingPolicy{KeepOneInN: math.MaxUint64}))
	t.Logf("%v allocs traced, %v untraced, %v on a bare engine", traced, plain, bare)
	if hop := plain - bare; hop != hopPin {
		t.Errorf("the coordinator hop costs %v allocs per request (%v coordinator, %v bare engine), pinned at %v", hop, plain, bare, hopPin)
	}
	if traced-plain > 2 {
		t.Errorf("tracing costs %v allocs per request (%v traced, %v untraced), want at most 2", traced-plain, traced, plain)
	}
}

// TestWideEventSchemaGateCluster is the cluster side of the closed-
// schema invariant check.sh gates on: every wide event a coordinator
// emits — full answers, partial degradations, refusals — must validate
// against the documented schema, including the scatter cost fields new
// to the cluster path.
func TestWideEventSchemaGateCluster(t *testing.T) {
	tbl := clusterTable(stats.NewRNG(11), 6, 5, 4, 0.15)
	sink := obs.NewRingSink(256)
	coord := cluster.New(tbl, cluster.Options{
		Partitions:    3,
		Log:           obs.NewLogger(obs.LoggerOptions{Sink: sink}),
		NodeCacheSize: -1,
	})
	reqs := clusterBattery(tbl)
	// A refusal path too: an invalid request also emits an event.
	reqs = append(reqs, serve.Request{Problem: serve.Quantify, K: -1})
	for _, req := range reqs {
		coord.Do(req)
	}
	events := sink.Recent()
	if len(events) != len(reqs) {
		t.Fatalf("emitted %d events for %d requests", len(events), len(reqs))
	}
	sawCost := false
	for _, ev := range events {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateEventJSON(raw); err != nil {
			t.Fatalf("event fails the closed schema: %v\n%s", err, raw)
		}
		if ev.RPCs > 0 && ev.SlowestPartition != "" {
			sawCost = true
		}
	}
	if !sawCost {
		t.Fatal("no event carried the scatter cost block")
	}
}
