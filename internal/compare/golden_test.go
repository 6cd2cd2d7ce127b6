package compare

import (
	"testing"

	"fairjob/internal/core"
	"fairjob/internal/testutil"
)

// This file is the Problem 2 golden test: a small fixture whose every
// aggregate is computed by hand, pinning the exact reversal sets and
// overall-unfairness values of Algorithms 2–3 under both aggregation
// semantics. Refactors of the comparison path (the unified Algorithm 3
// accumulator, the serve layer's shared comparers) cannot silently change
// semantics without failing here.
//
// The fixture anchors on the paper's Figure 5 worked numbers: the
// exposure unfairness of Black Females on the Tables 2–3 ranking is
// 0.94/(0.94+4.0) − 0.5/(0.5+2.9) = 0.19 − 0.15 = 0.04, and that 0.04 is
// the d<BF, cleaning, SF> cell below. The remaining cells are chosen so
// that every average is exact by hand:
//
//	               cleaning,SF  cleaning,OKC  handyman,SF  handyman,OKC
//	Black Female        0.04        0.30         0.10         0.20
//	White Male          0.02        0.40         0.06         (undefined)
//
// Completion semantics (missing = 0, denominator = full scope):
//	overall BF = (0.04+0.30+0.10+0.20)/4 = 0.16
//	overall WM = (0.02+0.40+0.06+0)/4    = 0.12      → BF > WM
//	by query:  cleaning BF = 0.17, WM = 0.21         → WM > BF  REVERSED
//	           handyman BF = 0.15, WM = 0.03         → BF > WM  not reversed
//	by location: SF  BF = 0.07, WM = 0.04            → not reversed
//	             OKC BF = 0.25, WM = 0.20            → not reversed
//
// Defined-only semantics (average over defined cells only):
//	overall BF = 0.64/4 = 0.16, WM = 0.48/3 = 0.16   → TIE (within ε)
//	by query: neither breakdown ties                 → both REVERSED
//	  (a tied overall with an untied breakdown is a difference, per the
//	  reversal predicate)
//	by location: SF BF = 0.07, WM = 0.04; OKC BF = 0.25, WM = 0.40/1 = 0.40
//	  → overall tied, breakdowns untied              → both REVERSED

func goldenTable() (*core.Table, string, string) {
	bf := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"}, core.Predicate{Attr: "ethnicity", Value: "Black"})
	wm := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"}, core.Predicate{Attr: "ethnicity", Value: "White"})
	t := core.NewTable()
	t.Set(bf, "cleaning", "SF", 0.04) // the Figure 5 worked number
	t.Set(bf, "cleaning", "OKC", 0.30)
	t.Set(bf, "handyman", "SF", 0.10)
	t.Set(bf, "handyman", "OKC", 0.20)
	t.Set(wm, "cleaning", "SF", 0.02)
	t.Set(wm, "cleaning", "OKC", 0.40)
	t.Set(wm, "handyman", "SF", 0.06)
	// (wm, handyman, OKC) deliberately undefined.
	return t, bf.Key(), wm.Key()
}

const goldenEps = 1e-12

func requireVal(t *testing.T, name string, got, want float64) {
	t.Helper()
	testutil.Approx(t, name, got, want, goldenEps)
}

func reversedSet(cmp *Comparison) []string {
	out := make([]string, 0, len(cmp.Reversed))
	for _, b := range cmp.Reversed {
		out = append(out, b.B)
	}
	return out
}

func requireSet(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s reversal set = %v, want %v", name, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s reversal set = %v, want %v", name, got, want)
		}
	}
}

// TestGoldenCompletionSemantics pins Algorithms 2–3 with the completion
// semantics of the paper's pseudocode (missing = 0, denominator = |Q|·|L|).
func TestGoldenCompletionSemantics(t *testing.T) {
	tbl, bf, wm := goldenTable()
	c := New(tbl)

	byQuery, err := c.Groups(bf, wm, ByQuery, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	requireVal(t, "overall BF", byQuery.Overall1, 0.16)
	requireVal(t, "overall WM", byQuery.Overall2, 0.12)
	requireSet(t, "by query", reversedSet(byQuery), []string{"cleaning"})
	// The exact breakdown values of the reversal row.
	requireVal(t, "cleaning BF", byQuery.Reversed[0].V1, 0.17)
	requireVal(t, "cleaning WM", byQuery.Reversed[0].V2, 0.21)
	// The non-reversed row is present in All with its exact values.
	if len(byQuery.All) != 2 {
		t.Fatalf("All has %d rows, want 2", len(byQuery.All))
	}
	requireVal(t, "handyman BF", byQuery.All[1].V1, 0.15)
	requireVal(t, "handyman WM", byQuery.All[1].V2, 0.03)

	byLoc, err := c.Groups(bf, wm, ByLocation, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	requireSet(t, "by location", reversedSet(byLoc), nil)
	requireVal(t, "SF BF", byLoc.All[1].V1, 0.07)
	requireVal(t, "SF WM", byLoc.All[1].V2, 0.04)
	requireVal(t, "OKC BF", byLoc.All[0].V1, 0.25)
	requireVal(t, "OKC WM", byLoc.All[0].V2, 0.20)
}

// TestGoldenDefinedOnlySemantics pins the defined-only aggregation used
// by the paper's empirical tables: the undefined (WM, handyman, OKC) cell
// shrinks WM's denominator to 3, tying the overall comparison at 0.16 and
// turning every untied breakdown into a reversal.
func TestGoldenDefinedOnlySemantics(t *testing.T) {
	tbl, bf, wm := goldenTable()
	c := NewDefinedOnly(tbl)

	byQuery, err := c.Groups(bf, wm, ByQuery, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	requireVal(t, "overall BF", byQuery.Overall1, 0.16)
	requireVal(t, "overall WM", byQuery.Overall2, 0.16)
	requireSet(t, "by query", reversedSet(byQuery), []string{"cleaning", "handyman"})
	requireVal(t, "handyman WM (defined-only)", byQuery.All[1].V2, 0.06)

	byLoc, err := c.Groups(bf, wm, ByLocation, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	requireSet(t, "by location", reversedSet(byLoc), []string{"OKC", "SF"})
	requireVal(t, "OKC WM (defined-only)", byLoc.All[0].V2, 0.40)
}

// TestGoldenQueryAndLocationComparisons runs the two other Problem 2
// instances on the same fixture with hand-computed expectations
// (completion semantics).
func TestGoldenQueryAndLocationComparisons(t *testing.T) {
	tbl, _, _ := goldenTable()
	c := New(tbl)

	// cleaning vs handyman by location:
	//   overall cleaning = (0.04+0.30+0.02+0.40)/4 = 0.19
	//   overall handyman = (0.10+0.20+0.06+0)/4    = 0.09   → cleaning > handyman
	//   SF:  cleaning (0.04+0.02)/2 = 0.03, handyman (0.10+0.06)/2 = 0.08 → REVERSED
	//   OKC: cleaning (0.30+0.40)/2 = 0.35, handyman (0.20+0)/2   = 0.10 → not
	qCmp, err := c.Queries("cleaning", "handyman", ByLocation, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	requireVal(t, "overall cleaning", qCmp.Overall1, 0.19)
	requireVal(t, "overall handyman", qCmp.Overall2, 0.09)
	requireSet(t, "queries by location", reversedSet(qCmp), []string{"SF"})
	requireVal(t, "SF cleaning", qCmp.Reversed[0].V1, 0.03)
	requireVal(t, "SF handyman", qCmp.Reversed[0].V2, 0.08)

	// SF vs OKC by query:
	//   overall SF  = (0.04+0.10+0.02+0.06)/4 = 0.055
	//   overall OKC = (0.30+0.20+0.40+0)/4    = 0.225   → OKC > SF
	//   cleaning: SF (0.04+0.02)/2 = 0.03, OKC (0.30+0.40)/2 = 0.35 → not
	//   handyman: SF (0.10+0.06)/2 = 0.08, OKC (0.20+0)/2   = 0.10 → not
	lCmp, err := c.Locations("SF", "OKC", ByQuery, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	requireVal(t, "overall SF", lCmp.Overall1, 0.055)
	requireVal(t, "overall OKC", lCmp.Overall2, 0.225)
	requireSet(t, "locations by query", reversedSet(lCmp), nil)
}
