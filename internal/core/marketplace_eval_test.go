package core

import (
	"math"
	"strings"
	"testing"

	"fairjob/internal/metrics"
)

// paperRanking reconstructs Tables 2–3 of the paper: ten workers looking
// for a "Home Cleaning" job in San Francisco, with platform scores
// f(w) = 0.9, 0.8, …, 0 in rank order.
func paperRanking() *MarketplaceRanking {
	type row struct {
		id, gender, nationality, ethnicity string
		rank                               int
		score                              float64
	}
	rows := []row{
		{"w3", "Female", "America", "White", 1, 0.9},
		{"w8", "Male", "Other", "Black", 2, 0.8},
		{"w6", "Male", "America", "Black", 3, 0.7},
		{"w2", "Male", "America", "White", 4, 0.6},
		{"w1", "Female", "America", "Asian", 5, 0.5},
		{"w4", "Male", "Other", "Asian", 6, 0.4},
		{"w7", "Female", "America", "Black", 7, 0.3},
		{"w5", "Female", "Other", "Black", 8, 0.2},
		{"w9", "Male", "Other", "White", 9, 0.1},
		{"w10", "Female", "America", "White", 10, 0.0},
	}
	r := &MarketplaceRanking{Query: "Home Cleaning", Location: "San Francisco, CA"}
	for _, row := range rows {
		r.Workers = append(r.Workers, RankedWorker{
			ID:    row.id,
			Attrs: Assignment{"gender": row.gender, "ethnicity": row.ethnicity, "nationality": row.nationality},
			Rank:  row.rank,
			Score: row.score,
		})
	}
	return r
}

func blackFemale() Group {
	return NewGroup(Predicate{"gender", "Female"}, Predicate{"ethnicity", "Black"})
}

// TestExposureMatchesPaperFigure5 reproduces the paper's Figure 5 end to
// end through the evaluator: exposure share 0.19, relevance share 0.15,
// unfairness 0.19 − 0.15 = 0.04.
func TestExposureMatchesPaperFigure5(t *testing.T) {
	e := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureExposure}
	d, ok := e.Unfairness(paperRanking(), blackFemale())
	if !ok {
		t.Fatal("unfairness undefined")
	}
	if !approx(d, 0.04, 0.01) {
		t.Fatalf("exposure unfairness = %v, want ≈0.04", d)
	}
}

// With the Table 3 scores being exactly 1 − rank/10, using observed scores
// must agree with rank-derived relevance.
func TestUseScoresAgreesWithRankRelevanceOnPaperExample(t *testing.T) {
	r := paperRanking()
	for _, m := range []MarketplaceMeasure{MeasureEMD, MeasureExposure} {
		byRank := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: m}
		byScore := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: m, UseScores: true}
		for _, g := range DefaultSchema().Universe() {
			v1, ok1 := byRank.Unfairness(r, g)
			v2, ok2 := byScore.Unfairness(r, g)
			if ok1 != ok2 || !approx(v1, v2, 1e-9) {
				t.Fatalf("%v %s: rank %v(%v) vs score %v(%v)", m, g.Name(), v1, ok1, v2, ok2)
			}
		}
	}
}

func TestEMDHandComputedExample(t *testing.T) {
	// Two Black Females at ranks 1–2, two Black Males at ranks 3–4.
	// With 2 bins, BF mass is all in the upper bin and BM all in the
	// lower, so EMD = 1; BM is BF's only present comparable group.
	r := &MarketplaceRanking{Query: "q", Location: "l", Workers: []RankedWorker{
		{ID: "f1", Attrs: Assignment{"gender": "Female", "ethnicity": "Black"}, Rank: 1, Score: math.NaN()},
		{ID: "f2", Attrs: Assignment{"gender": "Female", "ethnicity": "Black"}, Rank: 2, Score: math.NaN()},
		{ID: "m1", Attrs: Assignment{"gender": "Male", "ethnicity": "Black"}, Rank: 3, Score: math.NaN()},
		{ID: "m2", Attrs: Assignment{"gender": "Male", "ethnicity": "Black"}, Rank: 4, Score: math.NaN()},
	}}
	e := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureEMD, Bins: 2}
	d, ok := e.Unfairness(r, blackFemale())
	if !ok || !approx(d, 1, 1e-12) {
		t.Fatalf("EMD = %v, %v; want 1", d, ok)
	}
}

func TestExposureHandComputedExample(t *testing.T) {
	// Same 4-worker ranking. BF exposure = 1/ln2 + 1/ln3 ≈ 2.3529,
	// BM exposure = 1/ln4 + 1/ln5 ≈ 1.3427; exposure share ≈ 0.6367.
	// BF relevance = 0.75+0.5 = 1.25 of total 1.5; share ≈ 0.8333.
	// Deviation ≈ 0.1966.
	r := &MarketplaceRanking{Query: "q", Location: "l", Workers: []RankedWorker{
		{ID: "f1", Attrs: Assignment{"gender": "Female", "ethnicity": "Black"}, Rank: 1, Score: math.NaN()},
		{ID: "f2", Attrs: Assignment{"gender": "Female", "ethnicity": "Black"}, Rank: 2, Score: math.NaN()},
		{ID: "m1", Attrs: Assignment{"gender": "Male", "ethnicity": "Black"}, Rank: 3, Score: math.NaN()},
		{ID: "m2", Attrs: Assignment{"gender": "Male", "ethnicity": "Black"}, Rank: 4, Score: math.NaN()},
	}}
	e := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureExposure}
	d, ok := e.Unfairness(r, blackFemale())
	if !ok || !approx(d, 0.1966, 1e-3) {
		t.Fatalf("exposure = %v, %v; want ≈0.1966", d, ok)
	}
}

func TestUnfairnessUndefinedCases(t *testing.T) {
	e := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureEMD}

	// Empty ranking.
	if _, ok := e.Unfairness(&MarketplaceRanking{}, blackFemale()); ok {
		t.Fatal("empty ranking should be undefined")
	}

	// Group absent from the page.
	onlyMales := &MarketplaceRanking{Query: "q", Location: "l", Workers: []RankedWorker{
		{ID: "m", Attrs: Assignment{"gender": "Male", "ethnicity": "White"}, Rank: 1, Score: math.NaN()},
	}}
	if _, ok := e.Unfairness(onlyMales, blackFemale()); ok {
		t.Fatal("absent group should be undefined")
	}

	// Group present but no comparable group on the page: EMD has nothing
	// to average over (undefined), while the exposure formula collapses
	// to shares of 1 and 1, i.e. a defined unfairness of 0.
	onlyBF := &MarketplaceRanking{Query: "q", Location: "l", Workers: []RankedWorker{
		{ID: "f", Attrs: Assignment{"gender": "Female", "ethnicity": "Black"}, Rank: 1, Score: math.NaN()},
	}}
	if _, ok := (&MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureEMD}).Unfairness(onlyBF, blackFemale()); ok {
		t.Fatal("EMD: group with no comparables should be undefined")
	}
	expo := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureExposure}
	if d, ok := expo.Unfairness(onlyBF, blackFemale()); !ok || d != 0 {
		t.Fatalf("exposure with no comparables = %v, %v; want 0, true", d, ok)
	}
}

func TestUnfairnessBounds(t *testing.T) {
	r := paperRanking()
	for _, m := range []MarketplaceMeasure{MeasureEMD, MeasureExposure} {
		e := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: m}
		for _, g := range DefaultSchema().Universe() {
			if d, ok := e.Unfairness(r, g); ok && (d < 0 || d > 1) {
				t.Fatalf("%v %s: unfairness %v out of [0,1]", m, g.Name(), d)
			}
		}
	}
}

func TestEvaluateAllBuildsTable(t *testing.T) {
	e := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureEMD}
	tbl := e.EvaluateAll([]*MarketplaceRanking{paperRanking()}, nil)
	if len(tbl.Queries()) != 1 || len(tbl.Locations()) != 1 {
		t.Fatalf("table dims: %v / %v", tbl.Queries(), tbl.Locations())
	}
	// All 11 universe groups have members and comparables on the paper
	// page (every gender×ethnicity combination appears).
	if got := len(tbl.Groups()); got != 11 {
		t.Fatalf("groups in table = %d, want 11", got)
	}
}

func TestMeasureString(t *testing.T) {
	if MeasureEMD.String() != "EMD" || MeasureExposure.String() != "Exposure" {
		t.Fatal("measure names wrong")
	}
	if MarketplaceMeasure(99).String() == "" {
		t.Fatal("unknown measure should still render")
	}
}

func TestRelevanceHonorsScores(t *testing.T) {
	r := &MarketplaceRanking{Workers: []RankedWorker{
		{ID: "a", Rank: 1, Score: 0.42},
		{ID: "b", Rank: 2, Score: math.NaN()},
	}}
	if got := r.Relevance(r.Workers[0], true); got != 0.42 {
		t.Fatalf("score relevance = %v", got)
	}
	if got := r.Relevance(r.Workers[0], false); got != 0.5 {
		t.Fatalf("rank relevance = %v", got)
	}
	// NaN score falls back to rank even with UseScores.
	if got := r.Relevance(r.Workers[1], true); got != 0 {
		t.Fatalf("NaN-score relevance = %v", got)
	}
}

// TestScratchExposureMatchesExposureAtRank checks the scratch's
// by-rank exposure against metrics.ExposureAtRank bit for bit, over
// pages that grow, repeat ranks, and (with UseScores) rank past their
// length, and that a rank below 1 still panics.
func TestScratchExposureMatchesExposureAtRank(t *testing.T) {
	e := &MarketplaceEvaluator{Schema: DefaultSchema(), UseScores: true}
	sc := e.newScratch()
	for _, ranks := range [][]int{{1, 2, 3}, {3, 1, 2, 5, 4, 6, 7}, {2, 2, 40, 1}, {1, 2, 3, 4, 5, 6, 7, 8}} {
		r := &MarketplaceRanking{}
		for _, rank := range ranks {
			r.Workers = append(r.Workers, RankedWorker{Rank: rank, Score: 0.5})
		}
		sc.preparePage(e, r)
		for i, rank := range ranks {
			if got, want := sc.exp[i], metrics.ExposureAtRank(rank); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ranks %v: exposure at rank %d = %v, want %v", ranks, rank, got, want)
			}
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "exposure of invalid rank 0") {
			t.Fatalf("panic = %q, want ExposureAtRank's on rank 0", msg)
		}
	}()
	sc.preparePage(e, &MarketplaceRanking{Workers: []RankedWorker{{Rank: 1, Score: 0.5}, {Rank: 0, Score: 0.5}}})
}
