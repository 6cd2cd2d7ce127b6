package main

import (
	"math"
	"math/bits"
)

// histSubBits is the sub-bucket resolution of the latency histogram:
// 2^histSubBits linear sub-buckets per power of two, so a bucket spans
// at most 1/128 ≈ 0.8% of its values.
const histSubBits = 7

// histBuckets covers every non-negative int64 nanosecond value.
const histBuckets = (64 - histSubBits + 1) << histSubBits

// hist is a log-linear histogram of nanosecond durations. It is owned by
// the benchmark on purpose: the program's own histograms may change
// shape in a later change, and the benchmark must not change with them.
// A hist is not safe for concurrent use; the open loop fills it from the
// recorded outcomes after a window ends.
type hist struct {
	counts [histBuckets]int64
	n      int64
	sum    float64
	min    int64
	max    int64
}

// bucketOf maps a value to its bucket: identity below 2^histSubBits,
// then the octave picks a block and the next histSubBits bits below the
// leading one pick the sub-bucket.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < 1<<histSubBits {
		return int(u)
	}
	shift := bits.Len64(u) - 1 - histSubBits
	sub := (u >> shift) - (1 << histSubBits)
	return int(uint64(shift+1)<<histSubBits + sub)
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(idx int) (lo, hi float64) {
	if idx < 1<<histSubBits {
		return float64(idx), float64(idx + 1)
	}
	shift := idx>>histSubBits - 1
	sub := uint64(idx & (1<<histSubBits - 1))
	l := (1<<histSubBits + sub) << shift
	return float64(l), float64(l + 1<<shift)
}

// record adds one observation; negative values clamp to zero.
func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if h.n == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += float64(ns)
}

// mean returns the exact mean, 0 when empty.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds, or 0 when
// empty. The rank is the same one an exact sort would pick (the
// ⌈q·n⌉-th smallest value); inside its bucket the value is interpolated
// linearly by rank and clamped to the observed extremes, so the estimate
// lies within one bucket width (≤0.8%) of the exact answer and moves
// smoothly with the data instead of snapping to bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return float64(h.max)
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bucketBounds(i)
		v := lo + (hi-lo)*(float64(rank-cum)-0.5)/float64(c)
		return math.Min(math.Max(v, float64(h.min)), float64(h.max))
	}
	return float64(h.max)
}
