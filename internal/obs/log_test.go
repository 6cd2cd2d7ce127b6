package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilLoggerIsFullyInert(t *testing.T) {
	var l *Logger
	l.Log(Event{Outcome: "ok"})
	if l.Component("x") != nil {
		t.Fatal("nil logger Component should stay nil")
	}
	if l.Ring() != nil {
		t.Fatal("nil logger has no ring")
	}
	if s := l.Stats(); s != (LoggerStats{}) {
		t.Fatalf("nil logger stats = %+v", s)
	}
}

func TestLoggerStampsAndDefaultRing(t *testing.T) {
	l := NewLogger(LoggerOptions{Measure: "exposure"})
	before := time.Now()
	l.Log(Event{Outcome: "ok", LatencyNS: 42})
	got := l.Ring().Recent()
	if len(got) != 1 {
		t.Fatalf("ring holds %d events, want 1", len(got))
	}
	e := got[0]
	if e.Component != "app" || e.Measure != "exposure" || e.Level != "info" {
		t.Fatalf("stamps wrong: %+v", e)
	}
	if e.Time.Before(before) {
		t.Fatalf("timestamp %v predates the call", e.Time)
	}
}

func TestLoggerLevelFromOutcome(t *testing.T) {
	cases := map[string]string{
		"":         "info",
		"ok":       "info",
		"shed":     "warn",
		"deadline": "warn",
		"canceled": "warn",
		"panic":    "error",
		"error":    "error",
	}
	for outcome, want := range cases {
		if got := levelFor(outcome).String(); got != want {
			t.Errorf("levelFor(%q) = %s, want %s", outcome, got, want)
		}
	}
}

func TestLoggerSamplesSuccessesKeepsFailures(t *testing.T) {
	l := NewLogger(LoggerOptions{SampleN: 8})
	for i := 0; i < 64; i++ {
		l.Log(Event{Outcome: "ok"})
	}
	for _, bad := range []string{"shed", "deadline", "canceled", "panic", "error"} {
		l.Log(Event{Outcome: bad})
	}
	var ok, other int
	for _, e := range l.Ring().Recent() {
		if e.Outcome == "ok" {
			ok++
		} else {
			other++
		}
	}
	if ok != 8 {
		t.Fatalf("1-in-8 sampling over 64 successes kept %d, want 8", ok)
	}
	if other != 5 {
		t.Fatalf("failures must never be sampled out: kept %d of 5", other)
	}
	st := l.Stats()
	if st.Emitted != 13 || st.Sampled != 56 {
		t.Fatalf("stats = %+v, want emitted 13 sampled 56", st)
	}
}

func TestComponentLoggersShareSamplingBudget(t *testing.T) {
	l := NewLogger(LoggerOptions{Component: "serve", SampleN: 2})
	child := l.Component("refresh")
	l.Log(Event{Outcome: "ok"})     // kept (1st)
	child.Log(Event{Outcome: "ok"}) // dropped (2nd of the shared counter)
	events := l.Ring().Recent()
	if len(events) != 1 || events[0].Component != "serve" {
		t.Fatalf("shared budget violated: %+v", events)
	}
	child.Log(Event{Outcome: "error"})
	events = l.Ring().Recent()
	if len(events) != 2 || events[0].Component != "refresh" {
		t.Fatalf("child stamp missing: %+v", events[0])
	}
}

func TestRingSinkWraparound(t *testing.T) {
	s := NewRingSink(4)
	for i := 1; i <= 10; i++ {
		s.Emit(&Event{LatencyNS: int64(i)})
	}
	got := s.Recent()
	if len(got) != 4 {
		t.Fatalf("ring of 4 holds %d", len(got))
	}
	for i, e := range got { // newest first
		if want := int64(10 - i); e.LatencyNS != want {
			t.Fatalf("slot %d = %d, want %d", i, e.LatencyNS, want)
		}
	}
}

func TestWriterSinkEmitsValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(LoggerOptions{Sink: NewWriterSink(&buf)})
	l.Log(Event{Outcome: "ok", LatencyNS: 1, TraceID: 7, Problem: "quantify"})
	l.Log(Event{Outcome: "deadline", LatencyNS: 2, Err: "serve: deadline exceeded"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		if err := ValidateEventJSON([]byte(ln)); err != nil {
			t.Fatalf("emitted line fails the schema: %v\n%s", err, ln)
		}
	}
}

func TestMultiSinkFansOutAndSkipsNil(t *testing.T) {
	a, b := NewRingSink(4), NewRingSink(4)
	var buf bytes.Buffer
	l := NewLogger(LoggerOptions{Sink: MultiSink(a, nil, b, NewWriterSink(&buf))})
	l.Log(Event{Outcome: "ok"})
	if len(a.Recent()) != 1 || len(b.Recent()) != 1 || buf.Len() == 0 {
		t.Fatal("event did not reach every sink")
	}
}

func TestValidateEventJSON(t *testing.T) {
	good, err := json.Marshal(Event{Outcome: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEventJSON(good); err != nil {
		t.Fatalf("canonical event rejected: %v", err)
	}
	cases := map[string]string{
		"not an object":   `[1, 2]`,
		"unknown field":   `{"time":"2026-01-01T00:00:00Z","component":"a","level":"info","outcome":"ok","latency_ns":1,"surprise":1}`,
		"missing outcome": `{"time":"2026-01-01T00:00:00Z","component":"a","level":"info","latency_ns":1}`,
	}
	for name, raw := range cases {
		if err := ValidateEventJSON([]byte(raw)); err == nil {
			t.Errorf("%s: validator accepted %s", name, raw)
		}
	}
}

func TestEventSchemaMatchesStruct(t *testing.T) {
	// Every JSON field the Event struct can produce must be declared in
	// EventSchema, and vice versa — the schema is closed in both
	// directions.
	e := Event{
		Time: time.Now(), Component: "c", Level: "info", Outcome: "ok", LatencyNS: 1,
		TraceID: 1, Gen: 1, Measure: "m", Problem: "p", Dim: "d", K: 1,
		Direction: "most", Algo: "TA", R1: "a", R2: "b", By: "x", Mitigator: "fair",
		Cache: "hit", QueueWaitNS: 1, SortedAccesses: 1, RandomAccesses: 1,
		Rounds: 1, CompareAccesses: 1, DeltaUnfairness: 0.01, Err: "e",
		Partitions: 1, MissingPartitions: "1",
		RPCs: 1, HedgesFired: 1, HedgesWon: 1, LegRetries: 1, SlowestPartition: "0",
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for field := range m {
		if _, ok := EventSchema[field]; !ok {
			t.Errorf("struct emits %q, absent from EventSchema", field)
		}
	}
	for field := range EventSchema {
		if _, ok := m[field]; !ok {
			t.Errorf("EventSchema declares %q, never emitted by a fully-populated Event", field)
		}
	}
}

func TestLoggerConcurrentUse(t *testing.T) {
	l := NewLogger(LoggerOptions{SampleN: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Log(Event{Outcome: "ok"})
				l.Log(Event{Outcome: "error"})
				l.Ring().Recent()
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	// 1600 successes at 1-in-4 → 400 kept; 1600 failures all kept.
	if st.Emitted != 2000 || st.Sampled != 1200 {
		t.Fatalf("stats = %+v, want emitted 2000 sampled 1200", st)
	}
}
