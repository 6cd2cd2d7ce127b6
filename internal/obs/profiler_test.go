package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// spin burns CPU under a pprof label so a short CPU window has labeled
// samples to find.
func spin(ctx context.Context, d time.Duration) {
	pprof.Do(ctx, pprof.Labels("problem", "quantify", "algo", "ta"), func(context.Context) {
		deadline := time.Now().Add(d)
		x := 1.0
		for time.Now().Before(deadline) {
			for i := 0; i < 10000; i++ {
				x = x*1.000001 + 1e-9
			}
		}
		_ = x
	})
}

func TestProfilerCaptureRound(t *testing.T) {
	reg := NewRegistry()
	p := NewProfiler(ProfilerOptions{
		Registry:    reg,
		Interval:    time.Hour, // loop never fires; rounds are driven manually
		CPUDuration: 200 * time.Millisecond,
		Ring:        2,
	})
	ctx := context.Background()
	go spin(ctx, 250*time.Millisecond)
	p.CaptureRound(ctx)
	// Allocate between rounds so the heap delta has content, and keep a
	// labeled spinner running through round 2 so the *latest* CPU profile
	// has labeled samples too.
	waste := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		waste = append(waste, make([]byte, 64<<10))
	}
	_ = waste
	go spin(ctx, 250*time.Millisecond)
	p.CaptureRound(ctx)

	if got := p.Rounds(); got != 2 {
		t.Fatalf("Rounds() = %d, want 2", got)
	}
	for _, kind := range []string{ProfileCPU, ProfileHeap, ProfileGoroutine, ProfileMutex, ProfileBlock} {
		cp, ok := p.Latest(kind)
		if !ok {
			t.Fatalf("no %s profile captured", kind)
		}
		if cp.Size == 0 || len(cp.Data) == 0 {
			t.Fatalf("%s profile is empty", kind)
		}
		if _, _, err := LabelTotals(cp.Data); err != nil {
			t.Fatalf("LabelTotals(%s) failed to parse: %v", kind, err)
		}
	}

	// The CPU profile must carry the request labels the spinner set.
	cpu, _ := p.Latest(ProfileCPU)
	totals, grand, err := LabelTotals(cpu.Data)
	if err != nil {
		t.Fatalf("LabelTotals: %v", err)
	}
	haveProblem, haveAlgo := false, false
	for _, lt := range totals {
		switch lt.Key {
		case "problem":
			haveProblem = true
		case "algo":
			haveAlgo = true
		}
	}
	if !haveProblem || !haveAlgo {
		t.Fatalf("CPU profile label totals = %+v, want keys problem and algo present", totals)
	}
	if grand <= 0 {
		t.Fatalf("profile grand total = %d, want > 0", grand)
	}
	foundQuantify := false
	for _, lt := range totals {
		if lt.Key == "problem" && lt.Value == "quantify" && lt.Total > 0 {
			foundQuantify = true
			if lt.Fraction <= 0 || lt.Fraction > 1 {
				t.Fatalf("fraction %v out of (0,1]", lt.Fraction)
			}
		}
	}
	if !foundQuantify {
		t.Fatalf("no problem=quantify attribution in %+v", totals)
	}

	// Ring bound: a third round must evict the first round's profiles.
	p.CaptureRound(ctx)
	list := p.List()
	perKind := map[string]int{}
	for _, cp := range list {
		perKind[cp.Kind]++
		if len(cp.Data) != 0 {
			t.Fatalf("List() must elide profile bodies")
		}
	}
	for kind, n := range perKind {
		if n > 2 {
			t.Fatalf("ring for %s holds %d profiles, want ≤ 2", kind, n)
		}
	}

	// Heap delta: two heap rounds ran, so a delta must exist and its
	// sites must be sorted by alloc bytes descending.
	delta, ok := p.LatestHeapDelta()
	if !ok {
		t.Fatal("no heap delta after two rounds")
	}
	for i := 1; i < len(delta.Sites); i++ {
		if delta.Sites[i].AllocBytes > delta.Sites[i-1].AllocBytes {
			t.Fatalf("heap delta sites not sorted: %+v", delta.Sites)
		}
	}

	// Telemetry: every kind counted its captures.
	snap := reg.Snapshot()
	if got := snap.Counters[Name("profiler_captures_total", "kind", "heap")]; got != 3 {
		t.Fatalf("heap captures counter = %d, want 3", got)
	}
}

func TestProfilerStartStop(t *testing.T) {
	p := NewProfiler(ProfilerOptions{
		Interval:    20 * time.Millisecond,
		CPUDuration: 5 * time.Millisecond,
	})
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for p.Rounds() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no capture round within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
	rounds := p.Rounds()
	time.Sleep(50 * time.Millisecond)
	if got := p.Rounds(); got != rounds {
		t.Fatalf("rounds advanced after Stop: %d -> %d", rounds, got)
	}
	p.Stop() // idempotent
}

func TestProfilerStopWithoutStart(t *testing.T) {
	done := make(chan struct{})
	p := NewProfiler(ProfilerOptions{})
	go func() {
		p.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop on a never-started profiler hung")
	}
}

func TestDebugProfilesEndpoint(t *testing.T) {
	p := NewProfiler(ProfilerOptions{
		Interval:    time.Hour,
		CPUDuration: 50 * time.Millisecond,
	})
	p.CaptureRound(context.Background())
	p.CaptureRound(context.Background())
	h := NewHandler(AdminOptions{Profiler: p})

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	// List.
	rec := get("/debug/profiles")
	if rec.Code != http.StatusOK {
		t.Fatalf("list status = %d", rec.Code)
	}
	var listing struct {
		Rounds   uint64            `json:"rounds"`
		Profiles []CapturedProfile `json:"profiles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("list parse: %v", err)
	}
	if listing.Rounds != 2 || len(listing.Profiles) == 0 {
		t.Fatalf("listing = rounds %d with %d profiles", listing.Rounds, len(listing.Profiles))
	}

	// Fetch-by-id returns the raw profile; a parseable pprof document.
	id := listing.Profiles[0].ID
	rec = get("/debug/profiles/" + itoa(id))
	if rec.Code != http.StatusOK {
		t.Fatalf("fetch status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("fetch content type = %q", ct)
	}
	if _, _, err := LabelTotals(rec.Body.Bytes()); err != nil {
		t.Fatalf("fetched profile unparseable: %v", err)
	}

	// Label totals view.
	rec = get("/debug/profiles/" + itoa(id) + "/labels")
	if rec.Code != http.StatusOK {
		t.Fatalf("labels status = %d", rec.Code)
	}
	var lab struct {
		ID     uint64       `json:"id"`
		Kind   string       `json:"kind"`
		Total  int64        `json:"total"`
		Labels []LabelTotal `json:"labels"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &lab); err != nil {
		t.Fatalf("labels parse: %v", err)
	}
	if lab.ID != id {
		t.Fatalf("labels id = %d, want %d", lab.ID, id)
	}

	// Heap delta (two heap rounds ran).
	rec = get("/debug/profiles/heapdelta")
	if rec.Code != http.StatusOK {
		t.Fatalf("heapdelta status = %d", rec.Code)
	}
	var delta HeapDelta
	if err := json.Unmarshal(rec.Body.Bytes(), &delta); err != nil {
		t.Fatalf("heapdelta parse: %v", err)
	}

	// Errors: bad id, missing id, disabled profiler.
	if rec = get("/debug/profiles/notanumber"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id status = %d", rec.Code)
	}
	if rec = get("/debug/profiles/999999"); rec.Code != http.StatusNotFound {
		t.Fatalf("missing id status = %d", rec.Code)
	}
	hOff := NewHandler(AdminOptions{})
	recOff := httptest.NewRecorder()
	hOff.ServeHTTP(recOff, httptest.NewRequest(http.MethodGet, "/debug/profiles/1", nil))
	if recOff.Code != http.StatusNotFound {
		t.Fatalf("disabled profiler status = %d", recOff.Code)
	}
	recOff = httptest.NewRecorder()
	hOff.ServeHTTP(recOff, httptest.NewRequest(http.MethodGet, "/debug/profiles", nil))
	if recOff.Code != http.StatusOK || !strings.Contains(recOff.Body.String(), `"profiles": []`) {
		t.Fatalf("disabled profiler list = %d %q", recOff.Code, recOff.Body.String())
	}
}

func itoa(v uint64) string {
	b := [20]byte{}
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}
