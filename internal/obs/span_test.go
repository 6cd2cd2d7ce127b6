package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestSpanTreeBasics(t *testing.T) {
	tz := NewTracer(4)
	tr := tz.Start("quantify")

	scatter := tr.StartSpan("scatter")
	scatter.SetKind("primary")
	leg := scatter.StartChild("serve")
	leg.SetKind("primary")
	leg.SetPartition(2)
	leg.SetGen(7)
	leg.SetEntries(11)
	leg.SetOutcome("won")
	hedge := scatter.StartChild("serve")
	hedge.SetKind("hedge")
	hedge.SetPartition(2)
	hedge.SetOutcome("lost")
	hedge.Link(leg)
	leg.FinishDur(3 * time.Millisecond)
	hedge.FinishDur(time.Millisecond)
	scatter.SetOutcome("ok")
	scatter.Finish()
	tz.Finish(tr)

	got := tz.Recent()
	if len(got) != 1 {
		t.Fatalf("retained %d traces, want 1", len(got))
	}
	c := got[0]
	if err := c.CheckSpans(); err != nil {
		t.Fatalf("well-formedness: %v", err)
	}
	if len(c.Children) != 3 {
		t.Fatalf("retained %d spans, want 3", len(c.Children))
	}
	root, l, h := c.Children[0], c.Children[1], c.Children[2]
	if root.Parent != 0 || l.Parent != root.ID || h.Parent != root.ID {
		t.Fatalf("parent links wrong: %+v", c.Children)
	}
	if l.Partition != 2 || l.Gen != 7 || l.Entries != 11 || l.Outcome != "won" || l.Dur != 3*time.Millisecond {
		t.Fatalf("leg fields wrong: %+v", l)
	}
	if l.Link != h.ID || h.Link != l.ID {
		t.Fatalf("hedge pair not reciprocally linked: leg.Link=%d hedge.Link=%d", l.Link, h.Link)
	}
	// The retained tree must survive a JSON round-trip (the ?trace_id=
	// endpoint serializes it).
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"children"`)) {
		t.Fatalf("serialized trace lacks children: %s", raw)
	}
	tz.Release(tr)
}

func TestSpanInvalidRefsAreInert(t *testing.T) {
	var nilTrace *Trace
	s := nilTrace.StartSpan("x")
	if s.Valid() || s.ID() != 0 {
		t.Fatalf("nil trace produced a valid ref: %+v", s)
	}
	// Every op on an invalid ref is a no-op; none may panic.
	s.SetKind("k")
	s.SetPartition(1)
	s.SetGen(1)
	s.SetEntries(1)
	s.SetOutcome("ok")
	s.Annotate("a", "b")
	s.Finish()
	s.FinishDur(time.Second)
	s.Link(s)
	if c := s.StartChild("y"); c.Valid() {
		t.Fatal("child of an invalid ref must be invalid")
	}
	if n := s.Next("z"); n.Valid() {
		t.Fatal("the next sibling of an invalid ref must be invalid")
	}
}

// TestSpanNextIsOneInstant pins SpanRef.Next, the engine's phase
// boundary: the next span shares the closed span's parent and begins
// at the very instant it ended, under the trace root and under a
// nested span alike, and Next leaves an already-finished span's
// duration alone.
func TestSpanNextIsOneInstant(t *testing.T) {
	tz := NewTracer(2)
	tr := tz.Start("x")
	a := tr.StartSpan("validate")
	b := a.Next("cache-lookup")
	leg := tr.StartSpan("leg")
	c := leg.StartChild("validate")
	d := c.Next("execute")
	d.Finish()
	b.Finish()
	leg.Finish()
	done := tr.StartSpan("done")
	done.FinishDur(time.Millisecond)
	done.Next("after").Finish()
	if dd := tr.Children[done.ID()-1].Dur; dd != time.Millisecond {
		t.Fatalf("Next changed a finished span's duration to %v", dd)
	}
	for _, pair := range [][2]SpanRef{{a, b}, {c, d}} {
		prev, next := tr.Children[pair[0].ID()-1], tr.Children[pair[1].ID()-1]
		if next.Parent != prev.Parent {
			t.Errorf("%s's parent %d, want %s's %d", next.Name, next.Parent, prev.Name, prev.Parent)
		}
		if prev.Dur < 0 || next.Start != prev.Start+prev.Dur {
			t.Errorf("%s starts at %v, want the end of %s at %v+%v", next.Name, next.Start, prev.Name, prev.Start, prev.Dur)
		}
	}
	tz.Finish(tr)
	if err := tz.Recent()[0].CheckSpans(); err != nil {
		t.Fatalf("tree malformed: %v", err)
	}
	tz.Release(tr)
}

// TestTraceResetClearsEveryField guards Trace.reset, which readies a
// pooled trace field by field instead of zeroing the whole struct: it
// dirties every field and wants reset to leave a trace equal to a fresh
// one, apart from the inline buffers' stale contents and the mutex that
// survives recycles. A field added to Trace without a line in reset
// fails here.
func TestTraceResetClearsEveryField(t *testing.T) {
	var tr Trace
	v := reflect.ValueOf(&tr).Elem()
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		f := reflect.NewAt(sf.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		switch {
		case sf.Name == "annotBuf" || sf.Name == "childBuf" || sf.Name == "cmu":
		case sf.Type == reflect.TypeOf(time.Time{}):
			f.Set(reflect.ValueOf(time.Unix(1, 0)))
		case f.Kind() == reflect.String:
			f.SetString("stale")
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.Slice:
			f.Set(reflect.MakeSlice(sf.Type, 1, 1))
		case f.CanInt():
			f.SetInt(7)
		case f.CanUint():
			f.SetUint(7)
		default:
			t.Fatalf("Trace.%s (%v): teach this test to dirty it", sf.Name, sf.Type)
		}
	}
	begin := time.Now()
	tr.reset(42, "fresh", begin)
	want := Trace{ID: 42, Label: "fresh", Begin: begin, annotBuf: tr.annotBuf, childBuf: tr.childBuf, cmu: tr.cmu}
	want.Annots, want.Children = tr.annotBuf[:0], tr.childBuf[:0]
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("reset left stale fields:\n got %+v\nwant %+v", tr, want)
	}
}

func TestSpanCapDrops(t *testing.T) {
	tz := NewTracer(2)
	tr := tz.Start("flood")
	for i := 0; i < MaxChildSpans+5; i++ {
		s := tr.StartSpan("scan")
		s.FinishDur(0)
	}
	if len(tr.Children) != MaxChildSpans {
		t.Fatalf("tree grew to %d, cap is %d", len(tr.Children), MaxChildSpans)
	}
	if tr.SpansDropped != 5 {
		t.Fatalf("SpansDropped = %d, want 5", tr.SpansDropped)
	}
	tz.Finish(tr)
	if err := tz.Recent()[0].CheckSpans(); err != nil {
		t.Fatalf("capped tree malformed: %v", err)
	}
	tz.Release(tr)
}

func TestSpanFinishOnce(t *testing.T) {
	tz := NewTracer(2)
	tr := tz.Start("x")
	s := tr.StartSpan("leg")
	s.FinishDur(5 * time.Millisecond)
	s.FinishDur(time.Hour)
	s.Finish()
	if d := tr.Children[0].Dur; d != 5*time.Millisecond {
		t.Fatalf("span re-finished: dur %v, want 5ms", d)
	}
	tz.Finish(tr)
	tz.Release(tr)
}

func TestSpanAbandonedClosedInRingCopy(t *testing.T) {
	tz := NewTracer(2)
	tr := tz.Start("x")
	open := tr.StartSpan("engine") // never finished: a node-side straggler
	done := tr.StartSpan("serve")
	done.SetOutcome("ok")
	done.FinishDur(time.Millisecond)
	tz.Finish(tr)

	c := tz.Recent()[0]
	if err := c.CheckSpans(); err != nil {
		t.Fatalf("retained tree must be well-formed despite the open span: %v", err)
	}
	if c.Children[0].Outcome != "abandoned" || c.Children[0].Dur < 0 {
		t.Fatalf("open span not closed as abandoned in the copy: %+v", c.Children[0])
	}
	// The live object is untouched: the straggler's own Finish still
	// lands there (and only there).
	if tr.Children[0].Dur >= 0 {
		t.Fatalf("live span was closed in place: %+v", tr.Children[0])
	}
	open.Finish()
	if tr.Children[0].Dur < 0 {
		t.Fatal("straggler Finish must land on the live object")
	}
	tz.Release(tr)
}

func TestSpanStragglerAfterRecycleIsIgnored(t *testing.T) {
	tz := NewTracer(2)
	tr := tz.Start("first")
	s := tr.StartSpan("leg")

	// Recycle the trace by hand, exactly as Tracer.Start does when the
	// pool hands this object to the next request.
	mu := tr.cmu
	mu.Lock()
	*tr = Trace{ID: tr.ID + 1, Label: "second", Begin: time.Now()}
	tr.cmu = mu
	tr.Annots = tr.annotBuf[:0]
	tr.Children = tr.childBuf[:0]
	mu.Unlock()

	// The straggling ref's writes must all miss.
	s.SetOutcome("late")
	s.Finish()
	if len(tr.Children) != 0 {
		t.Fatalf("straggler scribbled on the recycled trace: %+v", tr.Children)
	}
	if c := s.StartChild("x"); c.Valid() {
		t.Fatal("straggler spawned a child under the recycled trace")
	}
}

// TestStressSpanPool races concurrent span creation, straggling span
// writers that outlive their request, trace recycling through the pool,
// and ring scrapers — every scraped tree must stay well-formed. Run
// with -race; this is the span-tree analogue of the PR 5 trace-ring
// stress tests.
func TestStressSpanPool(t *testing.T) {
	tz := NewTracerTailSampled(16, TailSamplingPolicy{KeepOneInN: 2})
	const workers, iters = 8, 300
	var workerWG, scrapeWG, stragglers sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers: hammer Recent and Find while traces churn.
	for g := 0; g < 2; g++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, c := range tz.Recent() {
					if err := c.CheckSpans(); err != nil {
						t.Errorf("scraped malformed tree: %v", err)
						return
					}
					if f := tz.Find(c.ID); f != nil && f.ID != c.ID {
						t.Errorf("Find(%d) returned trace %d", c.ID, f.ID)
						return
					}
				}
			}
		}()
	}

	for g := 0; g < workers; g++ {
		workerWG.Add(1)
		go func(g int) {
			defer workerWG.Done()
			for i := 0; i < iters; i++ {
				tr := tz.Start("req")
				root := tr.StartSpan("scatter")
				a := root.StartChild("serve")
				a.SetPartition(g)
				b := root.StartChild("serve")
				b.SetKind("hedge")
				b.Link(a)
				// A straggler holds refs past Release, like a node-side
				// engine goroutine outliving its request.
				stragglers.Add(1)
				go func(a, b SpanRef) {
					defer stragglers.Done()
					a.SetOutcome("won")
					a.Finish()
					b.SetOutcome("lost")
					b.Finish()
					c := a.StartChild("engine")
					c.Finish()
				}(a, b)
				if i%3 == 0 {
					tr.SetOutcome("error") // exercise the always-keep class
				}
				root.Finish()
				tz.Finish(tr)
				tz.Release(tr)
			}
		}(g)
	}
	// Workers (and their stragglers) first, then stop the scrapers.
	workerWG.Wait()
	stragglers.Wait()
	close(stop)
	scrapeWG.Wait()

	for _, c := range tz.Recent() {
		if err := c.CheckSpans(); err != nil {
			t.Fatalf("final scrape malformed: %v", err)
		}
	}
}

func TestWaterfallRendering(t *testing.T) {
	tz := NewTracer(2)
	tr := tz.Start("quantify")
	scatter := tr.StartSpan("scatter")
	scatter.SetKind("primary")
	leg := scatter.StartChild("serve")
	leg.SetKind("primary")
	leg.SetPartition(1)
	leg.SetOutcome("won")
	hedge := scatter.StartChild("serve")
	hedge.SetKind("hedge")
	hedge.SetPartition(1)
	hedge.SetOutcome("lost")
	hedge.Link(leg)
	leg.FinishDur(2 * time.Millisecond)
	hedge.FinishDur(time.Millisecond)
	scatter.Finish()
	tr.StartSpan("validate").Finish()
	tz.Finish(tr)

	var buf bytes.Buffer
	WriteWaterfall(&buf, tz.Recent()[0])
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("trace %d", tr.ID),
		"scatter [primary]",
		"serve p1 [primary]",
		"serve p1 [hedge]",
		"◀ winner",
		"peer=#",
		"validate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall lacks %q:\n%s", want, out)
		}
	}
	// A phase is a span line like any other; there is no flat phase list.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "validate") && !strings.HasPrefix(line, "#4 ") {
			t.Errorf("the validate phase must render as span #4, got %q:\n%s", line, out)
		}
	}
	if strings.Contains(out, "phases:") {
		t.Errorf("waterfall still prints a flat phases line:\n%s", out)
	}
	tz.Release(tr)
}

func TestTraceIDLookupAndWaterfallEndpoint(t *testing.T) {
	tz := NewTracer(8)
	tr := tz.Start("quantify")
	s := tr.StartSpan("scatter")
	s.SetOutcome("ok")
	s.Finish()
	tz.Finish(tr)
	id := tr.TraceID()
	tz.Release(tr)

	srv := httptest.NewServer(NewHandler(AdminOptions{Registry: NewRegistry(), Tracer: tz}))
	defer srv.Close()

	// ?trace_id= exact lookup returns the one trace, as JSON.
	res, err := http.Get(fmt.Sprintf("%s/debug/traces?trace_id=%d", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("?trace_id=%d: status %d: %s", id, res.StatusCode, body)
	}
	var got Trace
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("?trace_id= body is not one trace: %v\n%s", err, body)
	}
	if got.ID != id || len(got.Children) != 1 {
		t.Fatalf("lookup returned trace %d with %d spans, want %d with 1", got.ID, len(got.Children), id)
	}

	// Unknown and malformed ids.
	if res, _ := http.Get(srv.URL + "/debug/traces?trace_id=999999"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace_id: status %d, want 404", res.StatusCode)
	}
	if res, _ := http.Get(srv.URL + "/debug/traces?trace_id=bogus"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed trace_id: status %d, want 400", res.StatusCode)
	}

	// /debug/traces/<id> renders the waterfall.
	res, err = http.Get(fmt.Sprintf("%s/debug/traces/%d", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("waterfall: status %d: %s", res.StatusCode, body)
	}
	if !strings.Contains(string(body), fmt.Sprintf("trace %d", id)) || !strings.Contains(string(body), "scatter") {
		t.Fatalf("waterfall body wrong:\n%s", body)
	}
	if res, _ := http.Get(srv.URL + "/debug/traces/424242"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("waterfall for unknown id: status %d, want 404", res.StatusCode)
	}
}
