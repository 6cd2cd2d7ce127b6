package topk

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/stats"
)

// randomTable builds a dense unfairness table with ng single-attribute
// groups, nq queries and nl locations.
func randomTable(seed uint64, ng, nq, nl int) *core.Table {
	r := stats.NewRNG(seed)
	t := core.NewTable()
	for gi := 0; gi < ng; gi++ {
		g := core.NewGroup(core.Predicate{Attr: "tier", Value: fmt.Sprintf("g%02d", gi)})
		for qi := 0; qi < nq; qi++ {
			for li := 0; li < nl; li++ {
				t.Set(g, core.Query(fmt.Sprintf("q%02d", qi)), core.Location(fmt.Sprintf("l%02d", li)), r.Float64())
			}
		}
	}
	return t
}

// bruteForceGroups computes the exact aggregate ranking from the table,
// using the same missing=0, divide-by-|Q||L| semantics as the indices.
func bruteForceGroups(t *core.Table) []Result {
	qs, ls := t.Queries(), t.Locations()
	var out []Result
	for _, g := range t.Groups() {
		var sum float64
		for _, q := range qs {
			for _, l := range ls {
				if v, ok := t.Get(g, q, l); ok {
					sum += v
				}
			}
		}
		out = append(out, Result{Key: g.Key(), Value: sum / float64(len(qs)*len(ls))})
	}
	sortResults(out)
	return out
}

func assertSameResults(t *testing.T, got, want []Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Key != want[i].Key || math.Abs(got[i].Value-want[i].Value) > 1e-9 {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestAllAlgorithmsAgreeWithBruteForce(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		tbl := randomTable(seed, 12, 6, 4)
		gi := index.BuildGroupIndex(tbl)
		src, err := NewGroupLists(gi, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact := bruteForceGroups(tbl)
		for _, k := range []int{1, 3, 12, 50} {
			wantN := k
			if wantN > len(exact) {
				wantN = len(exact)
			}
			want := exact[:wantN]
			for _, algo := range []Algorithm{TA, FA, Naive, NRA} {
				got, _, err := TopK(src, k, MostUnfair, algo)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, got, want, fmt.Sprintf("seed=%d k=%d algo=%v", seed, k, algo))
			}
		}
	}
}

func TestLeastUnfairDirection(t *testing.T) {
	tbl := randomTable(99, 10, 5, 3)
	gi := index.BuildGroupIndex(tbl)
	src, _ := NewGroupLists(gi, nil, nil)
	exact := bruteForceGroups(tbl)
	// Ascending.
	asc := append([]Result(nil), exact...)
	sort.Slice(asc, func(i, j int) bool {
		if asc[i].Value != asc[j].Value {
			return asc[i].Value < asc[j].Value
		}
		return asc[i].Key < asc[j].Key
	})
	for _, algo := range []Algorithm{TA, FA, Naive, NRA} {
		got, _, err := TopK(src, 4, LeastUnfair, algo)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, got, asc[:4], fmt.Sprintf("least algo=%v", algo))
	}
}

func TestTopKScopedToSubsets(t *testing.T) {
	tbl := core.NewTable()
	a := core.NewGroup(core.Predicate{Attr: "g", Value: "a"})
	b := core.NewGroup(core.Predicate{Attr: "g", Value: "b"})
	// a is unfair on q1, b on q2.
	tbl.Set(a, "q1", "l1", 0.9)
	tbl.Set(b, "q1", "l1", 0.1)
	tbl.Set(a, "q2", "l1", 0.1)
	tbl.Set(b, "q2", "l1", 0.9)
	gi := index.BuildGroupIndex(tbl)

	src, err := NewGroupLists(gi, []core.Query{"q1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := TopK(src, 1, MostUnfair, TA)
	if got[0].Key != "g=a" {
		t.Fatalf("scoped top = %v", got)
	}
	src, _ = NewGroupLists(gi, []core.Query{"q2"}, nil)
	got, _, _ = TopK(src, 1, MostUnfair, TA)
	if got[0].Key != "g=b" {
		t.Fatalf("scoped top = %v", got)
	}
}

func TestTopKErrors(t *testing.T) {
	tbl := randomTable(5, 4, 2, 2)
	gi := index.BuildGroupIndex(tbl)
	src, _ := NewGroupLists(gi, nil, nil)
	if _, _, err := TopK(src, 0, MostUnfair, TA); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, _, err := TopK(src, -3, MostUnfair, TA); err == nil {
		t.Fatal("negative k should error")
	}
	if _, err := NewGroupLists(gi, []core.Query{"missing"}, nil); err == nil {
		t.Fatal("unindexed query should error")
	}
}

// TestFullScopeSourcesMatchScoped pins each family's nil-scope source,
// which is the family itself, to the source scoped explicitly to the
// index's full dimensions: a view of the list numbers 0, 1, … in the
// family's order, which reads the same posting at every position of
// every list and the same value for every member. The table's dimensions
// differ in size, so a transposed order shows. An empty table still
// fails with "empty scope".
func TestFullScopeSourcesMatchScoped(t *testing.T) {
	gi, qi, li := index.BuildAll(randomTable(8, 3, 4, 5))
	must := func(src ListSource, err error) ListSource {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, c := range []struct {
		family       string
		fam          ListSource
		full, scoped ListSource
	}{
		{"group", gi, must(NewGroupLists(gi, nil, nil)), must(NewGroupLists(gi, gi.Queries, gi.Locations))},
		{"query", qi, must(NewQueryLists(qi, nil, nil)), must(NewQueryLists(qi, qi.GroupKeys, qi.Locations))},
		{"location", li, must(NewLocationLists(li, nil, nil)), must(NewLocationLists(li, li.GroupKeys, li.Queries))},
	} {
		if c.full != c.fam {
			t.Errorf("%s: the nil scope is %T, not the family", c.family, c.full)
		}
		view, ok := c.scoped.(*scopedLists)
		if !ok {
			t.Fatalf("%s: the full scope is %T, not a view of the family's lists", c.family, c.scoped)
		}
		n := c.fam.NumLists()
		if n == 0 || len(view.lists) != n || view.fam != c.fam {
			t.Fatalf("%s: the full scope views %d lists, the family holds %d", c.family, len(view.lists), n)
		}
		for i, l := range view.lists {
			if l != i {
				t.Fatalf("%s: the full scope's list %d is the family's list %d", c.family, i, l)
			}
		}
		if c.scoped.ListLen() != c.full.ListLen() {
			t.Fatalf("%s: ListLen %d, want %d", c.family, c.scoped.ListLen(), c.full.ListLen())
		}
		for i := 0; i < n; i++ {
			for pos := 0; pos <= c.full.ListLen(); pos++ {
				e, ok := c.full.At(i, pos)
				if se, sok := c.scoped.At(i, pos); se != e || sok != ok {
					t.Fatalf("%s: list %d position %d reads %v, %v in the full scope, %v, %v in the nil scope", c.family, i, pos, se, sok, e, ok)
				}
				if !ok {
					continue
				}
				v, vok := c.full.Find(i, e.Key)
				if sv, svok := c.scoped.Find(i, e.Key); sv != v || svok != vok || !vok {
					t.Fatalf("%s: list %d finds %s as %v, %v in the full scope, %v, %v in the nil scope", c.family, i, e.Key, sv, svok, v, vok)
				}
			}
		}
	}
	egi, eqi, eli := index.BuildAll(core.NewTable())
	for family, build := range map[string]func() (ListSource, error){
		"group":    func() (ListSource, error) { return NewGroupLists(egi, nil, nil) },
		"query":    func() (ListSource, error) { return NewQueryLists(eqi, nil, nil) },
		"location": func() (ListSource, error) { return NewLocationLists(eli, nil, nil) },
	} {
		if _, err := build(); err == nil || !strings.Contains(err.Error(), "empty scope") {
			t.Errorf("%s: nil scope over an empty table: err = %v, want empty scope", family, err)
		}
	}
}

func TestTAEarlyTermination(t *testing.T) {
	// A heavily skewed table: one group dominates everywhere, so TA must
	// stop after a handful of rounds instead of scanning all groups.
	tbl := core.NewTable()
	const ng = 200
	for i := 0; i < ng; i++ {
		g := core.NewGroup(core.Predicate{Attr: "g", Value: fmt.Sprintf("g%03d", i)})
		v := 0.1
		if i == 0 {
			v = 0.99
		}
		tbl.Set(g, "q", "l", v)
	}
	gi := index.BuildGroupIndex(tbl)
	src, _ := NewGroupLists(gi, nil, nil)
	got, taStats, _ := TopK(src, 1, MostUnfair, TA)
	if got[0].Key != "g=g000" {
		t.Fatalf("top = %v", got)
	}
	_, naiveStats, _ := TopK(src, 1, MostUnfair, Naive)
	if taStats.SortedAccesses >= naiveStats.SortedAccesses {
		t.Fatalf("TA sorted accesses (%d) not fewer than naive (%d)",
			taStats.SortedAccesses, naiveStats.SortedAccesses)
	}
	if taStats.Rounds > 3 {
		t.Fatalf("TA used %d rounds on a trivially skewed list", taStats.Rounds)
	}
}

func TestQueryAndLocationFairnessInstances(t *testing.T) {
	tbl := core.NewTable()
	g := core.NewGroup(core.Predicate{Attr: "g", Value: "x"})
	tbl.Set(g, "handyman", "l1", 0.9)
	tbl.Set(g, "delivery", "l1", 0.1)
	tbl.Set(g, "handyman", "l2", 0.8)
	tbl.Set(g, "delivery", "l2", 0.2)

	qi := index.BuildQueryIndex(tbl)
	qr, err := QueryFairness(qi, nil, nil, 1, MostUnfair)
	if err != nil || qr[0].Key != "handyman" {
		t.Fatalf("QueryFairness = %v, %v", qr, err)
	}
	qr, _ = QueryFairness(qi, nil, nil, 1, LeastUnfair)
	if qr[0].Key != "delivery" {
		t.Fatalf("QueryFairness least = %v", qr)
	}

	li := index.BuildLocationIndex(tbl)
	lr, err := LocationFairness(li, nil, nil, 2, MostUnfair)
	if err != nil || lr[0].Key != "l1" && lr[0].Key != "l2" {
		t.Fatalf("LocationFairness = %v, %v", lr, err)
	}
	// l1 avg = (0.9+0.1)/2 = 0.5; l2 avg = (0.8+0.2)/2 = 0.5: tie broken
	// by key.
	if lr[0].Key != "l1" {
		t.Fatalf("tie-break order = %v", lr)
	}
}

func TestGroupFairnessWrapper(t *testing.T) {
	tbl := randomTable(2024, 11, 8, 5)
	gi := index.BuildGroupIndex(tbl)
	got, err := GroupFairness(gi, nil, nil, 11, MostUnfair)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, bruteForceGroups(tbl), "wrapper")
}

func TestFAAndNaiveStatsAccounting(t *testing.T) {
	tbl := randomTable(3, 6, 3, 3)
	gi := index.BuildGroupIndex(tbl)
	src, _ := NewGroupLists(gi, nil, nil)
	_, st, _ := TopK(src, 2, MostUnfair, Naive)
	wantSorted := src.NumLists() * src.ListLen()
	if st.SortedAccesses != wantSorted {
		t.Fatalf("naive sorted accesses = %d, want %d", st.SortedAccesses, wantSorted)
	}
	_, st, _ = TopK(src, 2, MostUnfair, FA)
	if st.RandomAccesses == 0 {
		t.Fatal("FA should perform random accesses")
	}
}

func TestDirectionAndAlgorithmStrings(t *testing.T) {
	if MostUnfair.String() != "most-unfair" || LeastUnfair.String() != "least-unfair" {
		t.Fatal("direction names")
	}
	if TA.String() != "TA" || FA.String() != "FA" || Naive.String() != "naive" || NRA.String() != "NRA" {
		t.Fatal("algorithm names")
	}
	if Direction(9).String() == "" || Algorithm(9).String() == "" {
		t.Fatal("unknown enum should render")
	}
}

// Property-style test: for random tables, TA's top-1 always matches the
// maximum brute-force aggregate.
func TestTATop1AlwaysExact(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		tbl := randomTable(seed, 9, 4, 3)
		gi := index.BuildGroupIndex(tbl)
		src, _ := NewGroupLists(gi, nil, nil)
		got, _, _ := TopK(src, 1, MostUnfair, TA)
		want := bruteForceGroups(tbl)[0]
		if got[0].Key != want.Key || math.Abs(got[0].Value-want.Value) > 1e-9 {
			t.Fatalf("seed %d: top-1 = %+v, want %+v", seed, got[0], want)
		}
	}
}

func TestNRANeverPerformsRandomAccess(t *testing.T) {
	tbl := randomTable(77, 10, 6, 4)
	gi := index.BuildGroupIndex(tbl)
	src, _ := NewGroupLists(gi, nil, nil)
	got, st, err := TopK(src, 3, MostUnfair, NRA)
	if err != nil {
		t.Fatal(err)
	}
	if st.RandomAccesses != 0 {
		t.Fatalf("NRA performed %d random accesses", st.RandomAccesses)
	}
	assertSameResults(t, got, bruteForceGroups(tbl)[:3], "NRA")
}

func TestNRAEarlyTermination(t *testing.T) {
	// Same skewed setting as the TA test: NRA must also resolve the top
	// member without scanning all 200 positions.
	tbl := core.NewTable()
	const ng = 200
	for i := 0; i < ng; i++ {
		g := core.NewGroup(core.Predicate{Attr: "g", Value: fmt.Sprintf("g%03d", i)})
		v := 0.1
		if i == 0 {
			v = 0.99
		}
		tbl.Set(g, "q", "l", v)
	}
	gi := index.BuildGroupIndex(tbl)
	src, _ := NewGroupLists(gi, nil, nil)
	got, st, _ := TopK(src, 1, MostUnfair, NRA)
	if got[0].Key != "g=g000" {
		t.Fatalf("top = %v", got)
	}
	if st.Rounds >= ng {
		t.Fatalf("NRA scanned all %d rounds", st.Rounds)
	}
}

// TestFilteredListsRestrictCandidates answers §4.1's restricted question
// ("Out of Black Males, Asian Males, Asian Females, and White Females,
// what are the 2 groups for which the site is the most unfair?") the
// way the engine serves Request.Candidates: TA over the group lists
// restricted by NewFilteredLists.
func TestFilteredListsRestrictCandidates(t *testing.T) {
	tbl := randomTable(404, 12, 5, 4)
	src, err := NewGroupLists(index.BuildGroupIndex(tbl), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := bruteForceGroups(tbl)
	// Candidates: the groups ranked 3rd, 5th, 8th and 10th overall.
	candidates := []string{exact[2].Key, exact[4].Key, exact[7].Key, exact[9].Key}
	restricted, err := NewFilteredLists(src, candidates)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := TopK(restricted, 2, MostUnfair, TA)
	if err != nil {
		t.Fatal(err)
	}
	// The answer must be the best two *among the candidates*.
	assertSameResults(t, got, []Result{exact[2], exact[4]}, "restricted")

	least, _, err := TopK(restricted, 1, LeastUnfair, TA)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, least, []Result{exact[9]}, "restricted least")

	if _, err := NewFilteredLists(src, []string{"nope"}); err == nil {
		t.Fatal("empty restriction should error")
	}
}

func TestFilteredListsAllAlgorithmsAgree(t *testing.T) {
	tbl := randomTable(405, 10, 4, 3)
	gi := index.BuildGroupIndex(tbl)
	src, _ := NewGroupLists(gi, nil, nil)
	exact := bruteForceGroups(tbl)
	candidates := []string{exact[1].Key, exact[3].Key, exact[6].Key}
	restricted, err := NewFilteredLists(src, candidates)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{exact[1], exact[3], exact[6]}
	for _, algo := range []Algorithm{TA, FA, Naive, NRA} {
		got, _, err := TopK(restricted, 3, MostUnfair, algo)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, got, want, fmt.Sprintf("filtered algo=%v", algo))
	}
}
