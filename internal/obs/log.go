package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the wide-event half of the observability layer: one
// structured JSON event per request, carrying everything an operator
// needs to attribute a slow, shed or failed query to a concrete
// workload — problem type, measure, dimension/operands, snapshot
// generation, cache behavior, admission queue wait, access-cost
// counters and outcome — without joining log lines. Events flow through
// a Logger (leveled, component-stamped, with rate-limited sampling of
// success events) into one or more Sinks (an atomic ring for the admin
// endpoint, an io.Writer for JSONL files). Everything is zero-dependency
// and nil-safe: a nil *Logger drops every event for the cost of one
// branch, so instrumentation sites run unconditionally.

// Level classifies an event's severity. Events below a logger's minimum
// level are dropped before sampling.
type Level int32

const (
	// LevelDebug is for high-volume diagnostics (unused by the serve
	// path today, reserved for callers).
	LevelDebug Level = iota
	// LevelInfo is the success path: outcome "ok".
	LevelInfo
	// LevelWarn covers work the system chose to refuse or complete
	// incompletely: shed, deadline, canceled and partial outcomes.
	LevelWarn
	// LevelError covers failures: validation/execution errors and
	// recovered panics.
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("Level(%d)", int32(l))
	}
}

// Event is one wide request event. The JSON field set is closed: every
// field an event may carry appears below and in EventSchema, and the
// schema gate (check.sh) rejects events with unknown or missing-required
// fields. Required fields have no omitempty so they serialize even at
// their zero value; optional fields are omitted when empty so events
// stay one compact line.
type Event struct {
	// Required on every event.
	Time      time.Time `json:"time"`
	Component string    `json:"component"`
	Level     string    `json:"level"`
	Outcome   string    `json:"outcome"` // ok | shed | deadline | canceled | panic | partial | error
	LatencyNS int64     `json:"latency_ns"`

	// Identity and linkage.
	TraceID uint64 `json:"trace_id,omitempty"` // joins /debug/traces and /metrics exemplars
	Gen     uint64 `json:"gen,omitempty"`      // snapshot generation that served the request
	Measure string `json:"measure,omitempty"`  // workload measure (emd, exposure, kendall, jaccard)

	// Request shape: quantify requests fill dim/k/direction/algo,
	// compare requests fill r1/r2/by, mitigate requests fill mitigator
	// plus r1/r2/by (target group key, query, location).
	Problem   string `json:"problem,omitempty"`
	Dim       string `json:"dim,omitempty"`
	K         int    `json:"k,omitempty"`
	Direction string `json:"direction,omitempty"`
	Algo      string `json:"algo,omitempty"`
	R1        string `json:"r1,omitempty"`
	R2        string `json:"r2,omitempty"`
	By        string `json:"by,omitempty"`
	Mitigator string `json:"mitigator,omitempty"`

	// Execution detail.
	Cache           string `json:"cache,omitempty"` // hit | miss | off
	QueueWaitNS     int64  `json:"queue_wait_ns,omitempty"`
	SortedAccesses  int    `json:"sorted_accesses,omitempty"`
	RandomAccesses  int    `json:"random_accesses,omitempty"`
	Rounds          int    `json:"rounds,omitempty"`
	CompareAccesses int    `json:"compare_accesses,omitempty"`
	// DeltaUnfairness is a mitigate request's before − after Exposure
	// deviation: positive when the re-ranking helped the target group.
	DeltaUnfairness float64 `json:"delta_unfairness,omitempty"`
	Err             string  `json:"err,omitempty"`

	// Scatter-gather detail (component "cluster"): the fan-out width and,
	// on a degraded ("partial" outcome) response, the comma-joined ids of
	// the partitions whose data is missing from the answer.
	Partitions        int    `json:"partitions,omitempty"`
	MissingPartitions string `json:"missing_partitions,omitempty"`
	// Fan-out cost and tail attribution: how many transport round-trips
	// the request issued (every primary, hedge and retry send), how many
	// hedge duplicates fired and how many of those won their race, how
	// many leg retries ran, and which partition consumed the most total
	// leg time — one line answers "why was this scatter slow".
	// SlowestPartition is a string (not int) so partition 0 survives
	// omitempty.
	RPCs             int64  `json:"rpcs,omitempty"`
	HedgesFired      int64  `json:"hedges_fired,omitempty"`
	HedgesWon        int64  `json:"hedges_won,omitempty"`
	LegRetries       int64  `json:"leg_retries,omitempty"`
	SlowestPartition string `json:"slowest_partition,omitempty"`
}

// EventSchema is the documented wide-event schema: every legal JSON
// field name mapped to whether it is required. ValidateEventJSON (and
// the schema gate built on it) enforce that emitted events carry no
// field outside this set and none of the required ones missing. The
// table in DESIGN.md §11 mirrors this map.
var EventSchema = map[string]bool{
	"time": true, "component": true, "level": true, "outcome": true, "latency_ns": true,
	"trace_id": false, "gen": false, "measure": false,
	"problem": false, "dim": false, "k": false, "direction": false, "algo": false,
	"r1": false, "r2": false, "by": false, "mitigator": false,
	"cache": false, "queue_wait_ns": false,
	"sorted_accesses": false, "random_accesses": false, "rounds": false,
	"compare_accesses": false, "delta_unfairness": false, "err": false,
	"partitions": false, "missing_partitions": false,
	"rpcs": false, "hedges_fired": false, "hedges_won": false,
	"leg_retries": false, "slowest_partition": false,
}

// ValidateEventJSON checks one serialized event against EventSchema: it
// must be a JSON object, carry every required field, and carry no field
// outside the schema. It is the jq-free validator the observability
// gate runs over every event a test workload emits.
func ValidateEventJSON(line []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(line, &m); err != nil {
		return fmt.Errorf("obs: event is not a JSON object: %w", err)
	}
	for field := range m {
		if _, ok := EventSchema[field]; !ok {
			return fmt.Errorf("obs: event carries unknown field %q", field)
		}
	}
	for field, required := range EventSchema {
		if !required {
			continue
		}
		if _, ok := m[field]; !ok {
			return fmt.Errorf("obs: event missing required field %q", field)
		}
	}
	return nil
}

// Sink receives emitted events. The event pointer is owned by the sink
// layer after Emit and must be treated as read-only (the ring sink
// shares it with concurrent readers).
type Sink interface {
	Emit(e *Event)
}

// DefaultEventCapacity is the ring size used when NewRingSink is given a
// non-positive capacity.
const DefaultEventCapacity = 256

// RingSink retains the most recent events in a fixed-size ring, the
// same lock-free claim-then-store design as the trace ring: an atomic
// counter claims a slot, an atomic pointer publishes the event, so
// concurrent batch workers never serialize on a mutex. It backs the
// admin endpoint's /debug/events view.
type RingSink struct {
	capacity int
	next     atomic.Uint64
	ring     []atomic.Pointer[Event]
}

// NewRingSink builds a ring sink retaining the last capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &RingSink{capacity: capacity, ring: make([]atomic.Pointer[Event], capacity)}
}

// Emit publishes e into the ring, evicting the oldest event once full.
func (s *RingSink) Emit(e *Event) {
	if s == nil || e == nil {
		return
	}
	slot := s.next.Add(1) - 1
	s.ring[slot%uint64(s.capacity)].Store(e)
}

// Recent returns the retained events, newest first. The slice is a
// copy; the events are shared and read-only.
func (s *RingSink) Recent() []*Event {
	if s == nil {
		return nil
	}
	claimed := s.next.Load()
	n := claimed
	if n > uint64(s.capacity) {
		n = uint64(s.capacity)
	}
	out := make([]*Event, 0, n)
	for i := uint64(0); i < n; i++ {
		if e := s.ring[(claimed-1-i)%uint64(s.capacity)].Load(); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// WriterSink serializes events as JSON lines to an io.Writer behind a
// mutex — the file/stderr sink of `fairjob -log`. Encoding errors are
// counted, not returned: logging must never fail a request.
type WriterSink struct {
	mu     sync.Mutex
	enc    *json.Encoder
	errors atomic.Uint64
}

// NewWriterSink wraps w in a JSONL sink.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{enc: json.NewEncoder(w)}
}

// Emit writes e as one JSON line.
func (s *WriterSink) Emit(e *Event) {
	if s == nil || e == nil {
		return
	}
	s.mu.Lock()
	err := s.enc.Encode(e)
	s.mu.Unlock()
	if err != nil {
		s.errors.Add(1)
	}
}

// Errors returns how many events failed to serialize or write.
func (s *WriterSink) Errors() uint64 { return s.errors.Load() }

// MultiSink fans each event out to every sink in order (ring for the
// admin endpoint plus a JSONL file, say). Nil members are skipped.
func MultiSink(sinks ...Sink) Sink {
	kept := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	return kept
}

type multiSink []Sink

func (m multiSink) Emit(e *Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// LoggerOptions configures NewLogger.
type LoggerOptions struct {
	// Component stamps every event missing one; Component on the event
	// itself wins. Empty defaults to "app".
	Component string
	// Measure stamps every event missing one (the workload's measure
	// name — emd, exposure, kendall, jaccard).
	Measure string
	// Sink receives the surviving events; nil selects a fresh RingSink
	// of DefaultEventCapacity (readable via Logger.Ring).
	Sink Sink
	// SampleN keeps one in SampleN success ("ok") events; 0 or 1 keeps
	// every event. Warn- and error-level events — sheds, deadlines,
	// cancellations, panics, errors — are never sampled out: failures
	// are always worth a line.
	SampleN uint64
	// MinLevel drops events below this level before sampling.
	MinLevel Level
}

// Logger emits wide events. It is safe for concurrent use — the
// sampling counter and stats are atomics, level is atomically
// adjustable, and sinks synchronize themselves. Component loggers made
// with Component share the parent's sink, sampling state and counters,
// so one process-wide sampling budget spans all components. All methods
// are nil-receiver-safe.
type Logger struct {
	core      *loggerCore
	component string
	measure   string
}

type loggerCore struct {
	sink    Sink
	ring    *RingSink // non-nil only when the logger owns its default ring
	min     atomic.Int32
	sampleN uint64

	seq     atomic.Uint64 // success events seen under sampling, drives 1-in-N
	emitted atomic.Uint64 // events that reached the sink
}

// NewLogger builds a wide-event logger.
func NewLogger(opts LoggerOptions) *Logger {
	core := &loggerCore{sink: opts.Sink, sampleN: opts.SampleN}
	if core.sink == nil {
		core.ring = NewRingSink(DefaultEventCapacity)
		core.sink = core.ring
	}
	core.min.Store(int32(opts.MinLevel))
	component := opts.Component
	if component == "" {
		component = "app"
	}
	return &Logger{core: core, component: component, measure: opts.Measure}
}

// Component returns a logger stamping events with the given component
// name, sharing the receiver's sink, level and sampling state.
func (l *Logger) Component(name string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{core: l.core, component: name, measure: l.measure}
}

// Ring returns the logger's default ring sink, or nil when the logger
// was given an explicit sink.
func (l *Logger) Ring() *RingSink {
	if l == nil {
		return nil
	}
	return l.core.ring
}

// SetMinLevel adjusts the logger's minimum level at runtime (shared
// with its component loggers).
func (l *Logger) SetMinLevel(min Level) {
	if l == nil {
		return
	}
	l.core.min.Store(int32(min))
}

// levelFor derives an event's level from its outcome: failures are
// errors, refusals are warnings, everything else is info.
func levelFor(outcome string) Level {
	switch outcome {
	case "", "ok":
		return LevelInfo
	case "shed", "deadline", "canceled", "partial":
		return LevelWarn
	default: // panic, error, and any future failure class
		return LevelError
	}
}

// Log emits one event: the level is derived from the outcome, the
// component/measure stamps and timestamp are applied, leveling and
// success-sampling run, and the survivor goes to the sink. The event is
// copied, so the caller may reuse its value.
func (l *Logger) Log(e Event) {
	l.LogFunc(e.Outcome, func() Event { return e })
}

// LogFunc is Log for an event that costs more to build than to drop:
// leveling and sampling run on outcome first, and build runs only for
// an event that survives them, so a sampled-out success builds nothing.
// outcome must be the Outcome build sets.
func (l *Logger) LogFunc(outcome string, build func() Event) {
	if l == nil {
		return
	}
	lvl := levelFor(outcome)
	if lvl < Level(l.core.min.Load()) {
		return
	}
	if lvl == LevelInfo && l.core.sampleN > 1 {
		// Deterministic 1-in-N: the first success and every Nth after it
		// survive; failures never enter this branch.
		if (l.core.seq.Add(1)-1)%l.core.sampleN != 0 {
			return
		}
	}
	// The sink keeps a pointer, so the survivor must live on the heap —
	// but only the survivor: building it after the sampling returns
	// keeps a sampled-out call free of any allocation.
	ev := build()
	if ev.Component == "" {
		ev.Component = l.component
	}
	if ev.Measure == "" {
		ev.Measure = l.measure
	}
	if ev.Level == "" {
		ev.Level = lvl.String()
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	l.core.emitted.Add(1)
	l.core.sink.Emit(&ev)
}

// LoggerStats reports a logger's lifetime emission counters.
type LoggerStats struct {
	// Emitted counts events that reached the sink.
	Emitted uint64
	// Sampled counts success events dropped by 1-in-N sampling.
	Sampled uint64
}

// Stats returns the logger's emission counters (shared across its
// component loggers).
func (l *Logger) Stats() LoggerStats {
	if l == nil {
		return LoggerStats{}
	}
	st := LoggerStats{Emitted: l.core.emitted.Load()}
	if n := l.core.sampleN; n > 1 {
		// Of the first s successes, the 1st, (N+1)th, (2N+1)th … survive:
		// ceil(s/N) of them. The rest were sampled out.
		s := l.core.seq.Load()
		st.Sampled = s - (s+n-1)/n
	}
	return st
}
