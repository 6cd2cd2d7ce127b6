package obs

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// The SLO engine turns raw request telemetry into a paging decision:
// declarative objectives ("99% of requests answer within 50ms", "99.9%
// of requests succeed") are evaluated over sliding windows, and
// multi-window burn-rate alerts — the standard SRE construction: a fast
// window that reacts to an acute burn and a long window that confirms
// it is sustained — decide when the process should stop advertising
// readiness. Time is injectable, so tests drive hours of window
// arithmetic with a fake clock; production uses time.Now.
//
// Burn rate over a window W is badFraction(W) / (1 - target): 1 means
// the error budget is being consumed exactly at the rate that exhausts
// it at the window's end; 14.4 over 5m/1h means a day's budget burns in
// 100 minutes. An alert fires when BOTH of its windows exceed the
// threshold — the short window for responsiveness, the long one to keep
// a brief blip from paging — and both windows hold at least
// MinWindowRequests observations, so low-traffic noise (one failure on
// an otherwise idle replica) cannot fire.

// Objective declares one service-level objective.
type Objective struct {
	// Name labels the objective in /debug/slo, the gauges and the
	// readiness error.
	Name string
	// Target is the required good fraction in (0, 1), e.g. 0.99.
	Target float64
	// LatencyBound, when positive, makes a request good only when it
	// succeeded AND answered within the bound — a latency objective.
	// Zero means good = no error — an error-rate objective.
	LatencyBound time.Duration
}

// BurnAlert is one multi-window burn-rate rule: it fires when the burn
// rate over BOTH windows exceeds Threshold.
type BurnAlert struct {
	Name      string
	Short     time.Duration
	Long      time.Duration
	Threshold float64
}

// DefaultBurnAlerts returns the standard two-alert ladder: a fast
// 5m/1h pair at 14.4× (page: a day's budget in under two hours) and a
// slow 1h/6h pair at 6× (ticket: sustained slow burn).
func DefaultBurnAlerts() []BurnAlert {
	return []BurnAlert{
		{Name: "fast", Short: 5 * time.Minute, Long: time.Hour, Threshold: 14.4},
		{Name: "slow", Short: time.Hour, Long: 6 * time.Hour, Threshold: 6},
	}
}

// DefaultSLOMinWindowRequests is the minimum-volume floor applied when
// SLOOptions.MinWindowRequests is zero.
const DefaultSLOMinWindowRequests = 10

// SLOOptions configures NewSLOMonitor.
type SLOOptions struct {
	// Clock supplies the current time; nil selects the monitor's own
	// monotonic clock (the wall time at construction plus the monotonic
	// time elapsed since), which costs one monotonic read per Observe
	// instead of time.Now's wall-and-monotonic pair, and which a wall
	// clock step cannot move. Tests inject a fake clock and slide
	// windows without sleeping.
	Clock func() time.Time
	// Alerts is the burn-rate rule set; nil selects DefaultBurnAlerts.
	Alerts []BurnAlert
	// MinWindowRequests is the minimum number of observations each of an
	// alert's windows must contain before that alert may fire — the
	// standard low-traffic guard on multi-window burn alerts. Without it
	// a single failed request on an idle replica makes the bad fraction
	// 1.0 in every window, trips every threshold, and drains the replica
	// through /readyz for the length of the long window. Burn rates are
	// still reported below the floor; only the firing decision (Status,
	// Healthy, the slo_burning gauge) is gated. 0 selects
	// DefaultSLOMinWindowRequests; negative disables the guard.
	MinWindowRequests int
}

// SLOMonitor evaluates a set of objectives over sliding windows. All
// methods are safe for concurrent use and nil-receiver-safe, so an
// engine can call Observe/Healthy unconditionally.
type SLOMonitor struct {
	clock     func() time.Time
	alerts    []BurnAlert
	minEvents uint64 // per-window volume floor for alert firing
	// mu guards every objective's bucket ring, so one Observe takes one
	// lock however many objectives it lands in.
	mu   sync.Mutex
	objs []*sloObjective
}

// sloObjective is one objective's sliding-window state: a ring of
// fixed-duration buckets covering the longest alert window. Observe
// lands in the bucket of the current time; burn rates sum the buckets
// inside the queried window. The monitor's mutex spans one ring index
// plus a few integer adds per objective per Observe — far off the
// atomic-metrics hot path, but Observe happens once per request, not per
// sample, so it stays cheap.
type sloObjective struct {
	Objective
	mu      *sync.Mutex // the monitor's
	bucketD time.Duration
	buckets []sloBucket // ring, indexed by (unix time / bucketD) % len
}

type sloBucket struct {
	epoch     int64 // bucket timestamp in bucketD units; stale entries are zeroed on reuse
	good, bad uint64
}

// NewSLOMonitor builds a monitor for the given objectives. Objectives
// with targets outside (0, 1) panic — that is a configuration error.
// Bucket resolution is the shortest alert window / 10, and the ring
// spans the longest window, so every queried burn rate is accurate to
// one bucket width.
func NewSLOMonitor(objectives []Objective, opts SLOOptions) *SLOMonitor {
	clock := opts.Clock
	if clock == nil {
		base := time.Now()
		clock = func() time.Time { return base.Add(time.Since(base)) }
	}
	alerts := opts.Alerts
	if alerts == nil {
		alerts = DefaultBurnAlerts()
	}
	shortest, longest := time.Duration(0), time.Duration(0)
	for _, a := range alerts {
		if a.Short <= 0 || a.Long < a.Short || a.Threshold <= 0 {
			panic(fmt.Sprintf("obs: malformed burn alert %+v", a))
		}
		if shortest == 0 || a.Short < shortest {
			shortest = a.Short
		}
		if a.Long > longest {
			longest = a.Long
		}
	}
	bucketD := shortest / 10
	if bucketD <= 0 {
		bucketD = time.Second
	}
	minEvents := uint64(DefaultSLOMinWindowRequests)
	switch {
	case opts.MinWindowRequests > 0:
		minEvents = uint64(opts.MinWindowRequests)
	case opts.MinWindowRequests < 0:
		minEvents = 0
	}
	n := int(longest/bucketD) + 2 // +1 partial bucket at each end
	m := &SLOMonitor{clock: clock, alerts: alerts, minEvents: minEvents}
	for _, o := range objectives {
		if o.Target <= 0 || o.Target >= 1 {
			panic(fmt.Sprintf("obs: SLO target %g for %q outside (0, 1)", o.Target, o.Name))
		}
		m.objs = append(m.objs, &sloObjective{
			Objective: o,
			mu:        &m.mu,
			bucketD:   bucketD,
			buckets:   make([]sloBucket, n),
		})
	}
	return m
}

// Observe classifies one completed request against every objective:
// err != nil is bad everywhere; a slow success is bad for latency
// objectives only.
func (m *SLOMonitor) Observe(latency time.Duration, err error) {
	if m == nil {
		return
	}
	now := m.clock()
	m.mu.Lock()
	for _, o := range m.objs {
		o.record(now, err == nil && (o.LatencyBound <= 0 || latency <= o.LatencyBound))
	}
	m.mu.Unlock()
}

// record counts one observation in the bucket of now; the caller holds
// the monitor's mutex.
func (o *sloObjective) record(now time.Time, good bool) {
	epoch := now.UnixNano() / int64(o.bucketD)
	b := &o.buckets[int(epoch%int64(len(o.buckets)))]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	if good {
		b.good++
	} else {
		b.bad++
	}
}

// window sums the buckets inside [now-w, now].
func (o *sloObjective) window(now time.Time, w time.Duration) (good, bad uint64) {
	nowEpoch := now.UnixNano() / int64(o.bucketD)
	span := int64(w / o.bucketD)
	if span < 1 {
		span = 1
	}
	if span > int64(len(o.buckets)) {
		span = int64(len(o.buckets))
	}
	o.mu.Lock()
	for i := int64(0); i < span; i++ {
		e := nowEpoch - i
		b := o.buckets[int(((e%int64(len(o.buckets)))+int64(len(o.buckets)))%int64(len(o.buckets)))]
		if b.epoch == e {
			good += b.good
			bad += b.bad
		}
	}
	o.mu.Unlock()
	return good, bad
}

// burnRate is badFraction(window) / errorBudget; an empty window burns
// nothing.
func (o *sloObjective) burnRate(now time.Time, w time.Duration) float64 {
	good, bad := o.window(now, w)
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - o.Target)
}

// firing reports whether alert a fires for objective o at now: the burn
// rate over BOTH windows exceeds the threshold, and both windows hold at
// least the monitor's minimum request volume — a lone failure in a quiet
// window cannot page or drain the replica.
func (m *SLOMonitor) firing(o *sloObjective, a BurnAlert, now time.Time) bool {
	for _, w := range []time.Duration{a.Short, a.Long} {
		good, bad := o.window(now, w)
		total := good + bad
		if total == 0 || total < m.minEvents {
			return false
		}
		if (float64(bad)/float64(total))/(1-o.Target) <= a.Threshold {
			return false
		}
	}
	return true
}

// WindowBurn is one window's burn rate in an objective's status.
type WindowBurn struct {
	Window   string  `json:"window"`
	BurnRate float64 `json:"burn_rate"`
}

// AlertStatus is one burn alert's evaluation in an objective's status.
type AlertStatus struct {
	Name      string  `json:"name"`
	Short     string  `json:"short"`
	Long      string  `json:"long"`
	Threshold float64 `json:"threshold"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Firing    bool    `json:"firing"`
}

// ObjectiveStatus is one objective's full evaluation.
type ObjectiveStatus struct {
	Name            string        `json:"name"`
	Target          float64       `json:"target"`
	LatencyBoundNS  int64         `json:"latency_bound_ns,omitempty"`
	Good            uint64        `json:"good"` // over the longest alert window
	Bad             uint64        `json:"bad"`
	Windows         []WindowBurn  `json:"windows"`
	Alerts          []AlertStatus `json:"alerts"`
	BudgetRemaining float64       `json:"budget_remaining"` // 1 - burn over the longest window
	Burning         bool          `json:"burning"`
}

// SLOStatus is the /debug/slo document.
type SLOStatus struct {
	Time time.Time `json:"time"`
	// MinWindowRequests is the volume floor below which a window cannot
	// contribute to alert firing.
	MinWindowRequests uint64            `json:"min_window_requests"`
	Objectives        []ObjectiveStatus `json:"objectives"`
	Burning           bool              `json:"burning"`
}

// longestWindow returns the longest alert window — the budget horizon.
func (m *SLOMonitor) longestWindow() time.Duration {
	var longest time.Duration
	for _, a := range m.alerts {
		if a.Long > longest {
			longest = a.Long
		}
	}
	return longest
}

// Status evaluates every objective and alert at the current clock
// reading.
func (m *SLOMonitor) Status() SLOStatus {
	if m == nil {
		return SLOStatus{}
	}
	now := m.clock()
	st := SLOStatus{Time: now, MinWindowRequests: m.minEvents, Objectives: make([]ObjectiveStatus, 0, len(m.objs))}
	budgetW := m.longestWindow()
	for _, o := range m.objs {
		os := ObjectiveStatus{
			Name:           o.Name,
			Target:         o.Target,
			LatencyBoundNS: int64(o.LatencyBound),
		}
		os.Good, os.Bad = o.window(now, budgetW)
		seen := map[time.Duration]bool{}
		for _, a := range m.alerts {
			short, long := o.burnRate(now, a.Short), o.burnRate(now, a.Long)
			for _, wb := range []struct {
				w time.Duration
				r float64
			}{{a.Short, short}, {a.Long, long}} {
				if !seen[wb.w] {
					seen[wb.w] = true
					os.Windows = append(os.Windows, WindowBurn{Window: wb.w.String(), BurnRate: wb.r})
				}
			}
			as := AlertStatus{
				Name: a.Name, Short: a.Short.String(), Long: a.Long.String(),
				Threshold: a.Threshold, ShortBurn: short, LongBurn: long,
				Firing: m.firing(o, a, now),
			}
			if as.Firing {
				os.Burning = true
			}
			os.Alerts = append(os.Alerts, as)
		}
		os.BudgetRemaining = 1 - o.burnRate(now, budgetW)
		st.Objectives = append(st.Objectives, os)
		if os.Burning {
			st.Burning = true
		}
	}
	return st
}

// ErrSLOBurning is the class of readiness failures Healthy reports;
// errors.Is(err, ErrSLOBurning) matches them.
var ErrSLOBurning = errors.New("obs: SLO error budget burning")

// Healthy is the readiness predicate: nil while no alert fires, an
// error naming the burning objective and alert otherwise. Wired into
// Engine.Ready, a sustained hard burn flips /readyz to 503 so a load
// balancer drains the replica; once the windows slide past the burst,
// Healthy clears without a restart.
func (m *SLOMonitor) Healthy() error {
	if m == nil {
		return nil
	}
	now := m.clock()
	for _, o := range m.objs {
		for _, a := range m.alerts {
			if m.firing(o, a, now) {
				return fmt.Errorf("slo %q burning: %s alert over %s/%s exceeds %gx: %w",
					o.Name, a.Name, a.Short, a.Long, a.Threshold, ErrSLOBurning)
			}
		}
	}
	return nil
}

// Register publishes the monitor's state into reg as lazily evaluated
// gauges: slo_burn_rate{slo=,window=} for every objective × distinct
// alert window, slo_budget_remaining{slo=} over the longest window, and
// slo_burning{slo=} as a 0/1 flag.
func (m *SLOMonitor) Register(reg *Registry) {
	if m == nil || reg == nil {
		return
	}
	budgetW := m.longestWindow()
	for _, o := range m.objs {
		o := o
		seen := map[time.Duration]bool{}
		for _, a := range m.alerts {
			for _, w := range []time.Duration{a.Short, a.Long} {
				if seen[w] {
					continue
				}
				seen[w] = true
				w := w
				reg.GaugeFunc(Name("slo_burn_rate", "slo", o.Name, "window", w.String()), func() float64 {
					return o.burnRate(m.clock(), w)
				})
			}
		}
		reg.GaugeFunc(Name("slo_budget_remaining", "slo", o.Name), func() float64 {
			return 1 - o.burnRate(m.clock(), budgetW)
		})
		reg.GaugeFunc(Name("slo_burning", "slo", o.Name), func() float64 {
			now := m.clock()
			for _, a := range m.alerts {
				if m.firing(o, a, now) {
					return 1
				}
			}
			return 0
		})
	}
}
