package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMetricsExposition round-trips a populated registry through the
// /metrics handler and checks the Prometheus text format: TYPE headers,
// label pass-through, and cumulative histogram buckets that end at the
// total count.
func TestMetricsExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Name("req_total", "problem", "quantify")).Add(3)
	reg.Counter(Name("req_total", "problem", "compare")).Add(2)
	reg.Gauge("depth").Set(1.5)
	h := reg.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	rec := httptest.NewRecorder()
	NewHandler(AdminOptions{Registry: reg}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()

	for _, want := range []string{
		"# TYPE req_total counter\n",
		`req_total{problem="quantify"} 3` + "\n",
		`req_total{problem="compare"} 2` + "\n",
		"# TYPE depth gauge\n",
		"depth 1.5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 99.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE req_total"); n != 1 {
		t.Fatalf("TYPE header repeated %d times for labeled counter", n)
	}
}

// TestMetricsExpositionLabeledHistogram checks that a histogram with a
// label block merges `le` into the existing labels.
func TestMetricsExpositionLabeledHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(Name("cost", "algo", "TA"), []float64{10}).Observe(4)

	rec := httptest.NewRecorder()
	NewHandler(AdminOptions{Registry: reg}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`cost_bucket{algo="TA",le="10"} 1`,
		`cost_bucket{algo="TA",le="+Inf"} 1`,
		`cost_sum{algo="TA"} 4`,
		`cost_count{algo="TA"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("labeled histogram missing %q:\n%s", want, body)
		}
	}
}

// parseExpositionValue extracts the numeric value of the first line with
// the given prefix.
func parseExpositionValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no line with prefix %q in:\n%s", prefix, body)
	return 0
}

func TestDebugTraces(t *testing.T) {
	tz := NewTracer(8)
	tr := tz.Start("quantify")
	tr.StartSpan("validate").Finish()
	tr.StartSpan("execute").Finish()
	tr.Annotate("algo", "TA")
	tz.Finish(tr)

	rec := httptest.NewRecorder()
	NewHandler(AdminOptions{Tracer: tz}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Finished uint64 `json:"finished"`
		Traces   []struct {
			Label    string `json:"label"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
			Annotations []struct {
				Key, Value string
			} `json:"annotations"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, rec.Body.String())
	}
	if out.Finished != 1 || len(out.Traces) != 1 {
		t.Fatalf("finished=%d traces=%d", out.Finished, len(out.Traces))
	}
	got := out.Traces[0]
	if got.Label != "quantify" || len(got.Children) != 2 || got.Children[0].Name != "validate" {
		t.Fatalf("trace = %+v", got)
	}
	if len(got.Annotations) != 1 || got.Annotations[0].Key != "algo" {
		t.Fatalf("annotations = %+v", got.Annotations)
	}
}

func TestDebugTracesEmpty(t *testing.T) {
	rec := httptest.NewRecorder()
	NewHandler(AdminOptions{}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var out struct {
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Traces == nil {
		t.Fatal("traces serialized as null, want []")
	}
}

func TestIndexAndNotFound(t *testing.T) {
	h := NewHandler(AdminOptions{Registry: NewRegistry(), Tracer: NewTracer(1)})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "/metrics") {
		t.Fatalf("index: %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d", rec.Code)
	}
}

// TestHealthProbes covers the probe matrix: nil Health (always ok), a
// passing probe, and a failing probe surfacing 503 with the reason.
func TestHealthProbes(t *testing.T) {
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	nilHealth := NewHandler(AdminOptions{})
	for _, path := range []string{"/healthz", "/readyz"} {
		if rec := get(nilHealth, path); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
			t.Fatalf("%s with nil health: %d %q", path, rec.Code, rec.Body.String())
		}
	}

	h := NewHandler(AdminOptions{Health: &Health{
		Live:  func() error { return nil },
		Ready: func() error { return errors.New("gate saturated") },
	}})
	if rec := get(h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", rec.Code)
	}
	rec := get(h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "gate saturated") {
		t.Fatalf("/readyz body %q does not carry the probe error", rec.Body.String())
	}
}

// TestServerShutdown checks graceful shutdown: a Shutdown with headroom
// returns nil and further connections are refused.
func TestServerShutdown(t *testing.T) {
	srv, err := ServeAdmin("127.0.0.1:0", AdminOptions{Registry: NewRegistry()})
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	addr := srv.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("scrape after shutdown succeeded, want connection error")
	}
}

// TestServeLiveEndpoint starts a real listener on a loopback port and
// scrapes it over TCP — the end-to-end path `fairjob -admin` uses. Skips
// when the sandbox forbids listening.
func TestServeLiveEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("live_total").Add(5)
	srv, err := ServeAdmin("127.0.0.1:0", AdminOptions{Registry: reg, Tracer: NewTracer(4)})
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	rec := httptest.NewRecorder()
	if _, err := rec.Body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if v := parseExpositionValue(t, rec.Body.String(), "live_total"); v != 5 {
		t.Fatalf("live_total = %g", v)
	}
}
