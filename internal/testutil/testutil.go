// Package testutil holds the repository's shared test helpers. Its core
// is the relative-tolerance float comparison family: golden tests across
// packages assert computed unfairness values against pinned constants,
// and exact float equality is the wrong tool for that — a reordering of
// a parallel reduction or a refactored formula can move a value by an
// ULP without being wrong. The helpers compare under a relative
// tolerance with an absolute fallback near zero, in two styles matching
// the repo's two call-site shapes: a bool predicate (Near) for table
// tests that compose their own failure messages, and testing.TB-based
// asserters (Approx, ApproxSlice) that fail with a uniform message.
// BytesPerRun is testing.AllocsPerRun's byte counterpart, for memory
// tests that bound a data structure's footprint.
package testutil

import (
	"math"
	"runtime"
	"testing"
)

// DefaultTol is the relative tolerance golden tests use when they have
// no reason to pick another: loose enough to survive evaluation-order
// changes, tight enough that a real formula change (which moves values
// by percents, not ULPs) still fails.
const DefaultTol = 1e-9

// Near reports whether a and b are within tol of each other, where tol
// is relative to the larger magnitude and absolute near zero:
//
//	|a−b| ≤ tol · max(|a|, |b|, 1)
//
// Two NaNs count as near (a golden NaN stays assertable); a single NaN
// does not. Matching infinities are near, opposite or mismatched ones
// are not.
func Near(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// Approx fails tb when got is not Near want under the relative
// tolerance tol. name labels the quantity in the failure message.
func Approx(tb testing.TB, name string, got, want, tol float64) {
	tb.Helper()
	if !Near(got, want, tol) {
		tb.Fatalf("%s = %v, want %v (relative tolerance %g, diff %g)",
			name, got, want, tol, math.Abs(got-want))
	}
}

// ApproxSlice fails tb when got and want differ in length or any pair
// of elements is not Near under tol.
func ApproxSlice(tb testing.TB, name string, got, want []float64, tol float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if !Near(got[i], want[i], tol) {
			tb.Fatalf("%s[%d] = %v, want %v (relative tolerance %g, diff %g)",
				name, i, got[i], want[i], tol, math.Abs(got[i]-want[i]))
		}
	}
}

// BytesPerRun returns the average number of heap bytes f allocates per
// call, measured like testing.AllocsPerRun: GOMAXPROCS is 1 for the
// measurement and one warm-up call runs first.
func BytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
