package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantilesMatchExactSort checks every reported quantile against
// the value an exact sort picks at the same rank: they may differ by at
// most one bucket width, 1/128 of the value.
func TestHistQuantilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 10, 1000, 100000} {
		var h hist
		vals := make([]int64, n)
		var sum float64
		for i := range vals {
			// Log-normal around 1 ms, the shape of a latency distribution.
			vals[i] = int64(math.Exp(rng.NormFloat64()*1.5) * 1e6)
			h.record(vals[i])
			sum += float64(vals[i])
		}
		if h.mean() != sum/float64(n) {
			t.Errorf("n=%d: mean %v, exact %v", n, h.mean(), sum/float64(n))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			want := float64(vals[rank-1])
			got := h.quantile(q)
			if math.Abs(got-want) > want/(1<<histSubBits)+1 {
				t.Errorf("n=%d q=%v: got %.0f, exact %.0f", n, q, got, want)
			}
		}
		if h.n != int64(n) {
			t.Errorf("count %d, want %d", h.n, n)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	var h hist
	if h.quantile(0.5) != 0 || h.mean() != 0 {
		t.Fatalf("empty hist reports %v/%v", h.quantile(0.5), h.mean())
	}
}
