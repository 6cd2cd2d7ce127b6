package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// WriteMetrics renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` header per metric base name, then
// one line per counter/gauge and the cumulative `_bucket`/`_sum`/`_count`
// series per histogram. Label blocks embedded in metric names (see Name)
// are passed through; histogram bucket lines merge the `le` label into
// them. Exemplars are NOT written — they are an OpenMetrics construct,
// and a classic text-format parser rejects a bucket line carrying one,
// losing the whole scrape. Clients that want exemplars negotiate
// WriteOpenMetrics through the /metrics Accept header.
func WriteMetrics(w io.Writer, s Snapshot) error {
	return writeExposition(w, s, false)
}

// WriteOpenMetrics renders a snapshot in the OpenMetrics text format:
// histogram bucket lines carry ` # {trace_id="…"} value` exemplar
// suffixes (the /metrics → /debug/traces join key), counter families are
// named without their `_total` suffix as the spec requires (counters not
// following the `_total` convention are exposed as type `unknown`), and
// the exposition ends with the mandatory `# EOF` terminator.
func WriteOpenMetrics(w io.Writer, s Snapshot) error {
	return writeExposition(w, s, true)
}

func writeExposition(w io.Writer, s Snapshot, openMetrics bool) error {
	type line struct {
		name string
		text string
	}
	byBase := make(map[string][]line)
	types := make(map[string]string)
	add := func(base, name, text string) {
		byBase[base] = append(byBase[base], line{name: name, text: text})
	}

	for name, v := range s.Counters {
		base, _ := SplitName(name)
		types[base] = "counter"
		add(base, name, fmt.Sprintf("%s %d\n", name, v))
	}
	for name, v := range s.Gauges {
		base, _ := SplitName(name)
		types[base] = "gauge"
		add(base, name, fmt.Sprintf("%s %s\n", name, formatFloat(v)))
	}
	for name, h := range s.Histograms {
		base, labels := SplitName(name)
		types[base] = "histogram"
		var b strings.Builder
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatFloat(h.Bounds[i])
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d", base, joinLabels(labels), le, cum)
			// Exemplar suffix: the trace behind the bucket's most recent
			// observation, the /metrics → /debug/traces join key. Legal in
			// OpenMetrics only.
			if openMetrics && h.Exemplars != nil && i < len(h.Exemplars) && h.Exemplars[i] != nil {
				ex := h.Exemplars[i]
				fmt.Fprintf(&b, " # {trace_id=\"%d\"} %s", ex.TraceID, formatFloat(ex.Value))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", base, braced(labels), formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", base, braced(labels), h.Count)
		add(base, name, b.String())
	}

	bases := make([]string, 0, len(byBase))
	for base := range byBase {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		family, typ := base, types[base]
		if openMetrics && typ == "counter" {
			// OpenMetrics names the counter family without the `_total`
			// sample suffix; counters outside that convention cannot be
			// expressed as counters and degrade to `unknown`.
			if trimmed := strings.TrimSuffix(base, "_total"); trimmed != base {
				family = trimmed
			} else {
				typ = "unknown"
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, typ); err != nil {
			return err
		}
		lines := byBase[base]
		sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
		for _, l := range lines {
			if _, err := io.WriteString(w, l.text); err != nil {
				return err
			}
		}
	}
	if openMetrics {
		if _, err := io.WriteString(w, "# EOF\n"); err != nil {
			return err
		}
	}
	return nil
}

// joinLabels renders a label block as a prefix for an additional label:
// `a="b"` → `a="b",`; empty stays empty.
func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// braced re-wraps a label block in braces, or returns "" when empty.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Probe is one health predicate: nil means healthy, an error describes
// why not. Probes must be safe for concurrent use — they run on every
// scrape.
type Probe func() error

// Health wires the Kubernetes-style probe pair into the admin endpoint.
// A nil *Health, or a nil individual probe, reports healthy — a process
// serving /metrics is, at minimum, alive.
type Health struct {
	// Live is the /healthz (liveness) predicate: failing means the
	// process is wedged and should be restarted.
	Live Probe
	// Ready is the /readyz (readiness) predicate: failing means the
	// process should not receive new traffic right now — e.g. the serve
	// engine's admission gate is at its shed threshold — but is expected
	// to recover without a restart.
	Ready Probe
}

func (h *Health) live() error {
	if h == nil || h.Live == nil {
		return nil
	}
	return h.Live()
}

func (h *Health) ready() error {
	if h == nil || h.Ready == nil {
		return nil
	}
	return h.Ready()
}

// probeHandler serves one probe: 200 "ok" when it passes, 503 with the
// error text when it fails.
func probeHandler(probe func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := probe(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unavailable: %v\n", err)
			return
		}
		fmt.Fprint(w, "ok\n")
	}
}

// MetricsContentType is the default /metrics Content-Type: the
// Prometheus text exposition format, version 0.0.4, with no exemplars.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is the /metrics Content-Type when the client
// negotiates OpenMetrics via `Accept: application/openmetrics-text`; the
// body then carries exemplar suffixes and ends with `# EOF`.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics text format. Each media range is matched on its type alone
// (parameters like version= and q= are ignored) — the same lenient
// matching Prometheus servers apply.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := part
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = mt[:i]
		}
		if strings.TrimSpace(mt) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// metricsHandler serves /metrics with content negotiation: the classic
// 0.0.4 text format (no exemplars) by default, the OpenMetrics text
// format (exemplars, `# EOF`) when the Accept header asks for it. HEAD
// answers with the negotiated headers alone; other methods get 405.
func metricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		openMetrics := acceptsOpenMetrics(r.Header.Get("Accept"))
		ct := MetricsContentType
		if openMetrics {
			ct = OpenMetricsContentType
		}
		w.Header().Set("Content-Type", ct)
		switch r.Method {
		case http.MethodGet:
			var s Snapshot
			if reg != nil {
				s = reg.Snapshot()
			}
			if openMetrics {
				_ = WriteOpenMetrics(w, s)
			} else {
				_ = WriteMetrics(w, s)
			}
		case http.MethodHead:
			w.WriteHeader(http.StatusOK)
		default:
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	}
}

// DefaultTraceDumpLimit bounds how many traces /debug/traces returns
// when the request carries no ?limit.
const DefaultTraceDumpLimit = 64

// AdminOptions wires the admin endpoint's data sources. Every field may
// be nil; the corresponding view serves an empty document or an
// always-healthy probe.
type AdminOptions struct {
	Registry *Registry
	Tracer   *Tracer
	Health   *Health
	// SLO, when set, serves /debug/slo.
	SLO *SLOMonitor
	// Events, when set, serves the wide-event ring at /debug/events.
	Events *RingSink
	// Profiler, when set, serves the continuous-profile ring at
	// /debug/profiles (list, fetch-by-id, latest heap delta).
	Profiler *Profiler
}

// readOnly guards a GET/HEAD endpoint: it answers HEAD with the headers
// alone (the probe a scraper's liveness check sends), rejects other
// methods with 405, and delegates GET to fn.
func readOnly(contentType string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		switch r.Method {
		case http.MethodGet:
			fn(w, r)
		case http.MethodHead:
			w.WriteHeader(http.StatusOK)
		default:
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	}
}

// NewHandler returns the admin endpoint's HTTP handler:
//
//	/metrics        Prometheus text exposition of the registry (0.0.4,
//	                no exemplars); `Accept: application/openmetrics-text`
//	                negotiates OpenMetrics with exemplar suffixes on
//	                histogram buckets; GET and HEAD
//	/healthz        liveness probe: 200 "ok" or 503 with the reason
//	/readyz         readiness probe: 200 "ok" or 503 with the reason
//	/debug/traces   JSON dump of retained traces, newest first;
//	                ?limit=N (default 64), ?outcome=ok|slow|error, and
//	                ?trace_id=N exact lookup (the exemplar/wide-event
//	                join key; 404 when not retained)
//	/debug/traces/<id>  plain-text span waterfall of one retained trace
//	/debug/slo      JSON SLO status: burn rates, alerts, budget
//	/debug/events   JSON dump of recent wide events, newest first;
//	                ?limit=N (default 64)
//	/debug/pprof/*  the standard net/http/pprof handlers
//	/               a plain-text index of the above
func NewHandler(o AdminOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", probeHandler(o.Health.live))
	mux.HandleFunc("/readyz", probeHandler(o.Health.ready))
	mux.HandleFunc("/metrics", metricsHandler(o.Registry))
	mux.HandleFunc("/debug/traces", readOnly("application/json", func(w http.ResponseWriter, r *http.Request) {
		// ?trace_id= is the exact-lookup path: the join key an exemplar
		// or wide event published resolves to its one trace (404 when
		// the ring evicted it or the sampler dropped it).
		if raw := r.URL.Query().Get("trace_id"); raw != "" {
			id, err := strconv.ParseUint(raw, 10, 64)
			if err != nil || id == 0 {
				http.Error(w, "trace_id must be a positive integer", http.StatusBadRequest)
				return
			}
			t := o.Tracer.Find(id)
			if t == nil {
				http.Error(w, "trace not retained (evicted, sampled out, or never existed)", http.StatusNotFound)
				return
			}
			writeJSON(w, t)
			return
		}
		limit := parseLimit(r, DefaultTraceDumpLimit)
		outcome := r.URL.Query().Get("outcome")
		if outcome != "" && outcome != "ok" && outcome != "slow" && outcome != "error" {
			http.Error(w, `outcome must be "ok", "slow" or "error"`, http.StatusBadRequest)
			return
		}
		traces := []*Trace{}
		for _, t := range o.Tracer.Recent() {
			if outcome != "" && t.Class() != outcome {
				continue
			}
			traces = append(traces, t)
			if len(traces) == limit {
				break
			}
		}
		writeJSON(w, struct {
			Finished  uint64                    `json:"finished"`
			Retention map[string]TraceRetention `json:"retention,omitempty"`
			Traces    []*Trace                  `json:"traces"`
		}{o.Tracer.Finished(), o.Tracer.Retention(), traces})
	}))
	mux.HandleFunc("/debug/traces/", func(w http.ResponseWriter, r *http.Request) {
		tracesSubHandler(o.Tracer, w, r)
	})
	mux.HandleFunc("/debug/slo", readOnly("application/json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, o.SLO.Status())
	}))
	mux.HandleFunc("/debug/events", readOnly("application/json", func(w http.ResponseWriter, r *http.Request) {
		limit := parseLimit(r, DefaultTraceDumpLimit)
		events := o.Events.Recent()
		if events == nil {
			events = []*Event{}
		}
		if len(events) > limit {
			events = events[:limit]
		}
		writeJSON(w, struct {
			Events []*Event `json:"events"`
		}{events})
	}))
	mux.HandleFunc("/debug/profiles", readOnly("application/json", func(w http.ResponseWriter, _ *http.Request) {
		profiles := []CapturedProfile{}
		var rounds uint64
		if o.Profiler != nil {
			profiles = o.Profiler.List()
			rounds = o.Profiler.Rounds()
		}
		writeJSON(w, struct {
			Rounds   uint64            `json:"rounds"`
			Profiles []CapturedProfile `json:"profiles"`
		}{rounds, profiles})
	}))
	mux.HandleFunc("/debug/profiles/", func(w http.ResponseWriter, r *http.Request) {
		profilesSubHandler(o.Profiler, w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "fairjob admin endpoint\n\n/metrics\n/healthz\n/readyz\n/debug/traces\n/debug/traces/<id>\n/debug/slo\n/debug/events\n/debug/profiles\n/debug/pprof/\n")
	})
	return mux
}

// tracesSubHandler serves /debug/traces/<id>: the plain-text span
// waterfall of one retained trace (see WriteWaterfall), the rendering
// an operator reads after a wide event or exemplar hands them a
// trace_id.
func tracesSubHandler(tz *Tracer, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	id, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "usage: /debug/traces/<id>", http.StatusBadRequest)
		return
	}
	t := tz.Find(id)
	if t == nil {
		http.Error(w, "trace not retained (evicted, sampled out, or never existed)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	WriteWaterfall(w, t)
}

// profilesSubHandler serves the /debug/profiles/ subtree:
//
//	/debug/profiles/<id>         the raw gzipped pprof protobuf
//	/debug/profiles/<id>/labels  JSON pprof-label totals of that profile
//	/debug/profiles/heapdelta    JSON allocation delta between the two
//	                             most recent heap captures
func profilesSubHandler(p *Profiler, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if p == nil {
		http.Error(w, "profiler disabled", http.StatusNotFound)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/debug/profiles/")
	if rest == "heapdelta" {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusOK)
			return
		}
		delta, ok := p.LatestHeapDelta()
		if !ok {
			// No two heap rounds yet: an empty delta, not an error — the
			// scrape loop should not 404-flap while the profiler warms up.
			delta = &HeapDelta{Sites: []HeapDeltaSite{}}
		}
		writeJSON(w, delta)
		return
	}
	idStr, wantLabels := rest, false
	if s := strings.TrimSuffix(rest, "/labels"); s != rest {
		idStr, wantLabels = s, true
	}
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		http.Error(w, "profile id must be an integer", http.StatusBadRequest)
		return
	}
	cp, ok := p.Get(id)
	if !ok {
		http.Error(w, "no such profile (it may have fallen off the ring)", http.StatusNotFound)
		return
	}
	if wantLabels {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusOK)
			return
		}
		totals, grand, err := LabelTotals(cp.Data)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, struct {
			ID     uint64       `json:"id"`
			Kind   string       `json:"kind"`
			Total  int64        `json:"total"`
			Labels []LabelTotal `json:"labels"`
		}{cp.ID, cp.Kind, grand, totals})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("%s-%d.pprof", cp.Kind, cp.ID)))
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	_, _ = w.Write(cp.Data)
}

// parseLimit reads ?limit=N, falling back to def for missing or
// malformed values and clamping to ≥ 1.
func parseLimit(r *http.Request, def int) int {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return def
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return def
	}
	return n
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running admin endpoint; Close shuts it down.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// ServeAdmin starts the admin endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0") and serves it on a background goroutine until Close or
// Shutdown.
func ServeAdmin(addr string, o AdminOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewHandler(o)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately, dropping in-flight scrapes.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to ctx's deadline — the graceful half of the
// CLI's signal handling. It falls back to Close semantics when ctx ends
// first.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
