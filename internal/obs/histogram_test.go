package obs

import (
	"math"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// SearchFloat64s: v ≤ bound lands in that bucket (0.5 and 1 → bucket
	// 0; 1.5 → bucket 1; 3 → bucket 2; 100 → overflow).
	want := []uint64{2, 1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("count/sum = %d/%g", s.Count, s.Sum)
	}
	if got := s.Mean(); math.Abs(got-106.0/5) > 1e-12 {
		t.Fatalf("mean = %g", got)
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	h := NewHistogram([]float64{4, 1, 2, 2, 1})
	s := h.Snapshot()
	want := []float64{1, 2, 4}
	if len(s.Bounds) != len(want) {
		t.Fatalf("bounds = %v", s.Bounds)
	}
	for i := range want {
		if s.Bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", s.Bounds, want)
		}
	}
	if len(s.Counts) != len(want)+1 {
		t.Fatalf("counts len = %d", len(s.Counts))
	}
}

// TestQuantileAccuracy checks the interpolation estimator against a known
// uniform distribution: with values 1..1000 and bucket width 10, every
// quantile estimate must land within one bucket width of the true value.
func TestQuantileAccuracy(t *testing.T) {
	bounds := make([]float64, 100) // 10, 20, …, 1000
	for i := range bounds {
		bounds[i] = float64(10 * (i + 1))
	}
	h := NewHistogram(bounds)
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500},
		{0.90, 900},
		{0.95, 950},
		{0.99, 990},
		{1.00, 1000},
	} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > 10 {
			t.Fatalf("Quantile(%g) = %g, want %g ± 10 (bucket width)", tc.q, got, tc.want)
		}
	}
	if got := s.Quantile(0); got < 0 || got > 10 {
		t.Fatalf("Quantile(0) = %g, want within first bucket", got)
	}
}

// TestQuantileSkewedDistribution checks the estimator where most mass
// sits in one bucket — the cache-hit-vs-miss bimodal shape the serve
// latency histogram actually carries.
func TestQuantileSkewedDistribution(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for i := 0; i < 99; i++ {
		h.Observe(0.5) // first bucket
	}
	h.Observe(50) // third bucket
	s := h.Snapshot()
	if got := s.Quantile(0.5); got > 1 {
		t.Fatalf("p50 = %g, want within first bucket", got)
	}
	if got := s.Quantile(0.999); got <= 10 || got > 100 {
		t.Fatalf("p99.9 = %g, want inside (10, 100]", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty quantile = %g, want NaN", got)
	}
	if got := (HistogramSnapshot{}).Mean(); !math.IsNaN(got) {
		t.Fatalf("empty mean = %g, want NaN", got)
	}
	// All observations in the +Inf overflow bucket clamp to the top bound.
	h := NewHistogram([]float64{1, 2})
	h.Observe(1e9)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1, -3, 42} { // out-of-range q clamps
		if got := s.Quantile(q); got != 2 {
			t.Fatalf("overflow Quantile(%g) = %g, want clamp to 2", q, got)
		}
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(9)
	m, ok := a.Snapshot().Merge(b.Snapshot())
	if !ok || m.Count != 3 || m.Sum != 11 {
		t.Fatalf("merge = %+v, %v", m, ok)
	}
	if m.Counts[0] != 1 || m.Counts[1] != 1 || m.Counts[2] != 1 {
		t.Fatalf("merged counts = %v", m.Counts)
	}
	// Empty merges are identity in either direction.
	if m2, ok := (HistogramSnapshot{}).Merge(a.Snapshot()); !ok || m2.Count != 1 {
		t.Fatalf("empty.Merge = %+v, %v", m2, ok)
	}
	if m2, ok := a.Snapshot().Merge(HistogramSnapshot{}); !ok || m2.Count != 1 {
		t.Fatalf("Merge(empty) = %+v, %v", m2, ok)
	}
	// Mismatched bounds refuse.
	c := NewHistogram([]float64{1, 3})
	if _, ok := a.Snapshot().Merge(c.Snapshot()); ok {
		t.Fatal("merge across mismatched bounds succeeded")
	}
}

func TestBucketHelpers(t *testing.T) {
	lat := LatencyBuckets()
	if len(lat) == 0 {
		t.Fatal("empty latency buckets")
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] <= lat[i-1] {
			t.Fatalf("latency buckets not increasing at %d: %v", i, lat)
		}
	}
	if lat[0] != 1e-6 || lat[len(lat)-1] != 10 {
		t.Fatalf("latency bucket range = [%g, %g]", lat[0], lat[len(lat)-1])
	}
	exp := ExponentialBuckets(1, 2, 5)
	for i, want := range []float64{1, 2, 4, 8, 16} {
		if exp[i] != want {
			t.Fatalf("exponential = %v", exp)
		}
	}
}
