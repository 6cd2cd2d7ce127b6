package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets defined by sorted
// upper bounds, with an implicit +Inf overflow bucket, and tracks the
// observation count and sum. Recording is lock-free (one binary search
// plus three atomic adds); quantiles are estimated from a Snapshot by
// linear interpolation inside the covering bucket, the standard
// Prometheus-style estimator whose error is bounded by the bucket width.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; immutable
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated

	// Exemplar storage (see exemplar.go): per-bucket most-recent
	// observation plus the overall maximum, recorded only through
	// ObserveWithExemplar.
	exemplars []atomic.Pointer[Exemplar]
	max       atomic.Pointer[Exemplar]
}

// NewHistogram builds a histogram with the given bucket upper bounds
// (sorted copies are taken; duplicates are removed). Nil or empty bounds
// default to LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets()
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{
		bounds:    uniq,
		counts:    make([]atomic.Uint64, len(uniq)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(uniq)+1),
	}
}

// bucketIndex returns the bucket covering v: the first bucket whose
// upper bound is ≥ v, with len(bounds) the +Inf overflow bucket.
func bucketIndex(bounds []float64, v float64) int {
	return sort.SearchFloat64s(bounds, v)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := bucketIndex(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot captures the histogram's current state. Writers are not
// stopped, so the copy is only approximately consistent (see the package
// doc); totals are recomputed from the copied buckets so the snapshot is
// internally coherent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:      h.bounds, // immutable, shared
		Counts:      make([]uint64, len(h.counts)),
		Sum:         h.Sum(),
		Exemplars:   h.snapshotExemplars(),
		MaxExemplar: h.max.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// counts (Counts[len(Bounds)] is the +Inf overflow bucket), the total
// count and the value sum, plus the exemplars recorded so far —
// Exemplars is nil when none were recorded, else indexed like Counts
// with nil gaps.
type HistogramSnapshot struct {
	Bounds      []float64
	Counts      []uint64
	Count       uint64
	Sum         float64
	Exemplars   []*Exemplar
	MaxExemplar *Exemplar
}

// Mean returns the average observed value, or NaN when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the covering bucket, taking 0 as the lower edge
// of the first bucket. Observations in the +Inf overflow bucket clamp to
// the highest finite bound. An empty snapshot returns NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < target {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: the estimator has no upper edge, clamp.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*((target-prev)/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge adds other's buckets into a copy of s and returns it. Both
// snapshots must share identical bounds (true for all label variants of
// one logical metric); mismatched bounds return s unchanged and false.
func (s HistogramSnapshot) Merge(other HistogramSnapshot) (HistogramSnapshot, bool) {
	if len(s.Bounds) == 0 {
		return other, true
	}
	if len(other.Bounds) == 0 {
		return s, true
	}
	if len(s.Bounds) != len(other.Bounds) {
		return s, false
	}
	for i := range s.Bounds {
		if s.Bounds[i] != other.Bounds[i] {
			return s, false
		}
	}
	out := HistogramSnapshot{
		Bounds:      s.Bounds,
		Counts:      make([]uint64, len(s.Counts)),
		Count:       s.Count + other.Count,
		Sum:         s.Sum + other.Sum,
		Exemplars:   mergeExemplars(s.Exemplars, other.Exemplars, len(s.Counts)),
		MaxExemplar: maxExemplar(s.MaxExemplar, other.MaxExemplar),
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + other.Counts[i]
	}
	return out, true
}

// LatencyBuckets returns the default latency bucket bounds in seconds:
// 1µs to 10s in 1–2.5–5 decade steps — wide enough to cover a cache hit
// (~100ns rounds to the first bucket) through a cold full-table scan.
func LatencyBuckets() []float64 {
	var out []float64
	for decade := 1e-6; decade < 10; decade *= 10 {
		out = append(out, decade, 2.5*decade, 5*decade)
	}
	return append(out, 10)
}

// ExponentialBuckets returns n buckets growing geometrically from start
// by factor: start, start·factor, …
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
