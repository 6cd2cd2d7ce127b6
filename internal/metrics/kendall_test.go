package metrics

import (
	"fmt"
	"testing"
	"testing/quick"

	"fairjob/internal/stats"
	"fairjob/internal/testutil"
)

func TestKendallIdenticalLists(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	if got := KendallTauDistance(a, a); got != 0 {
		t.Fatalf("distance of identical lists = %v", got)
	}
}

func TestKendallReversedLists(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"d", "c", "b", "a"}
	if got := KendallTauDistance(a, b); got != 1 {
		t.Fatalf("distance of reversed lists = %v, want 1", got)
	}
}

func TestKendallSingleSwap(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"b", "a", "c", "d"}
	// 1 discordant pair of C(4,2)=6.
	testutil.Approx(t, "single-swap distance", KendallTauDistance(a, b), 1.0/6, 1e-12)
}

func TestKendallPartialOverlap(t *testing.T) {
	// Common items: a, c. a before c in both lists -> concordant.
	a := []string{"a", "b", "c"}
	b := []string{"a", "c", "x"}
	if got := KendallTauDistance(a, b); got != 0 {
		t.Fatalf("distance = %v, want 0 (common items in same order)", got)
	}
	// Common items in opposite order.
	c := []string{"c", "a", "y"}
	if got := KendallTauDistance(a, c); got != 1 {
		t.Fatalf("distance = %v, want 1 (common items reversed)", got)
	}
}

func TestKendallDisjointFallsBackToJaccard(t *testing.T) {
	a := []string{"a", "b"}
	b := []string{"x", "y"}
	if got := KendallTauDistance(a, b); got != 1 {
		t.Fatalf("disjoint distance = %v, want 1", got)
	}
}

func TestKendallSingleCommonItem(t *testing.T) {
	a := []string{"a", "b"}
	b := []string{"a", "z"}
	// One common of three union items: jaccard distance = 2/3.
	testutil.Approx(t, "single-common-item distance", KendallTauDistance(a, b), 2.0/3, 1e-12)
}

func TestKendallEmptyLists(t *testing.T) {
	if got := KendallTauDistance(nil, nil); got != 0 {
		t.Fatalf("empty distance = %v", got)
	}
}

func TestKendallDuplicatesUseFirstPosition(t *testing.T) {
	a := []string{"a", "b", "a", "c"}
	b := []string{"a", "b", "c"}
	if got := KendallTauDistance(a, b); got != 0 {
		t.Fatalf("distance with duplicates = %v, want 0", got)
	}
}

func TestCountInversions(t *testing.T) {
	cases := []struct {
		s    []int
		want int
	}{
		{nil, 0},
		{[]int{1}, 0},
		{[]int{1, 2, 3}, 0},
		{[]int{3, 2, 1}, 3},
		{[]int{2, 1, 3}, 1},
		{[]int{4, 3, 2, 1}, 6},
		{[]int{1, 3, 2, 4}, 1},
	}
	for _, c := range cases {
		if got := countInversions(c.s); got != c.want {
			t.Errorf("countInversions(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestCountInversionsMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(100)
		}
		naive := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if s[i] > s[j] {
					naive++
				}
			}
		}
		if got := countInversions(s); got != naive {
			t.Fatalf("trial %d: countInversions(%v) = %d, want %d", trial, s, got, naive)
		}
	}
}

// Property: distance is symmetric and bounded for permutations of the same
// item set.
func TestKendallSymmetryProperty(t *testing.T) {
	rng := stats.NewRNG(5)
	f := func(seed uint64, sz uint8) bool {
		n := int(sz%20) + 2
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf("item%d", i)
		}
		a := append([]string(nil), items...)
		b := append([]string(nil), items...)
		r := stats.NewRNG(seed)
		r.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		r.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
		d1 := KendallTauDistance(a, b)
		d2 := KendallTauDistance(b, a)
		_ = rng
		return testutil.Near(d1, d2, 1e-12) && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
