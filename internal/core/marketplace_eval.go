package core

import (
	"context"
	"fmt"
	"math"

	"fairjob/internal/metrics"
	"fairjob/internal/obs"
	"fairjob/internal/stats"
)

// RankedWorker is one worker in a marketplace result page.
type RankedWorker struct {
	// ID identifies the worker across pages. Demographics belong to the
	// worker: EvaluateAll buckets every entry of a non-empty ID by the
	// Attrs of the ID's first entry in page order (Unfairness does so
	// within its one page), and reads Attrs of a later entry only when
	// its ID is empty.
	ID    string
	Attrs Assignment
	Rank  int // 1-based position in the result page
	// Score is the platform's scoring-function value f_q^l(w) in [0, 1]
	// when observable. Real marketplaces do not expose it (§3.3.1), in
	// which case it is NaN and relevance is derived from Rank.
	Score float64
}

// MarketplaceRanking is the result of one query at one location on an
// online job marketplace: a ranked page of workers (TaskRabbit returns at
// most 50).
type MarketplaceRanking struct {
	Query    Query
	Location Location
	Workers  []RankedWorker
}

// Relevance returns the relevance proxy used by both marketplace measures:
// the observed score when useScores is set and the worker has one,
// otherwise rel(w) = 1 − rank/N (§3.3.1).
func (r *MarketplaceRanking) Relevance(w RankedWorker, useScores bool) float64 {
	if useScores && !math.IsNaN(w.Score) {
		return w.Score
	}
	return metrics.RelevanceFromRank(w.Rank, len(r.Workers))
}

// MarketplaceMeasure selects between the two marketplace unfairness
// notions of §3.3.
type MarketplaceMeasure int

const (
	// MeasureEMD is the Earth Mover's Distance between score histograms
	// of a group and each comparable group (§3.3.1).
	MeasureEMD MarketplaceMeasure = iota
	// MeasureExposure is the deviation of a group's exposure share from
	// its relevance share (§3.3.2).
	MeasureExposure
)

func (m MarketplaceMeasure) String() string {
	switch m {
	case MeasureEMD:
		return "EMD"
	case MeasureExposure:
		return "Exposure"
	default:
		return fmt.Sprintf("MarketplaceMeasure(%d)", int(m))
	}
}

// DefaultEMDBins is the histogram resolution used by the EMD measure when
// the evaluator does not override it. Ten bins over [0,1] matches the
// relevance granularity of a ten-worker page from the paper's Figure 4
// example and is ablated in BenchmarkAblationEMDBins.
const DefaultEMDBins = 10

// MarketplaceEvaluator computes d<g,q,l> for marketplace rankings. The
// evaluator itself is read-only during evaluation and safe to share
// across goroutines; EvaluateAll shards its work across Workers
// goroutines internally.
type MarketplaceEvaluator struct {
	Schema  *Schema
	Measure MarketplaceMeasure
	// Bins is the EMD histogram bin count (DefaultEMDBins when 0).
	Bins int
	// UseScores makes relevance use the platform's observed scores when
	// present instead of rank-derived relevance.
	UseScores bool
	// Workers bounds the goroutines EvaluateAll shards rankings across:
	// 0 uses runtime.GOMAXPROCS(0), 1 forces single-threaded evaluation.
	// Any worker count produces a byte-identical table (see DESIGN.md §7).
	Workers int
	// Obs, when non-nil, receives per-shard telemetry from EvaluateAll
	// under the eval="market" label family: shard durations, page and
	// cell throughput counters, and the worker-utilization gauge of the
	// latest run. A nil registry keeps evaluation telemetry-free.
	Obs *obs.Registry
}

func (e *MarketplaceEvaluator) bins() int {
	if e.Bins <= 0 {
		return DefaultEMDBins
	}
	return e.Bins
}

// Unfairness returns d<g,q,l> for the given ranking. The boolean is false
// when the value is undefined: the group has no workers on the page, or no
// comparable group does, leaving nothing to contrast against.
//
// Unfairness partitions the page on every call; callers evaluating many
// (ranking, group) cells should use EvaluateAll, which amortizes the
// partition across all groups of a page.
func (e *MarketplaceEvaluator) Unfairness(r *MarketplaceRanking, g Group) (float64, bool) {
	if len(r.Workers) == 0 {
		return 0, false
	}
	plan := newEvalPlan(e.Schema, []Group{g})
	sc := e.newScratch()
	sc.preparePage(e, r)
	return e.mustCellFunc()(newPartitioner(plan).ranking(r), plan.slot[0], plan.comp[0], sc)
}

// mktScratch is one worker goroutine's reusable evaluation state: the two
// histogram buffers the EMD measure fills per comparable-group pair, and
// the current page's relevance and exposure vectors, computed once per
// page and shared by every (group, comparable) cell on it. Reusing the
// histograms removes the dominant allocation of the EMD hot path;
// caching exposure, once per rank, keeps ExposureAtRank's logarithm out
// of the per-page loops.
type mktScratch struct {
	hg, hc   *stats.Histogram
	rel, exp []float64 // indexed by page position
	byRank   []float64 // ExposureAtRank by rank; 0 until computed
}

func (e *MarketplaceEvaluator) newScratch() *mktScratch {
	return &mktScratch{
		hg: stats.NewHistogram(0, 1, e.bins()),
		hc: stats.NewHistogram(0, 1, e.bins()),
	}
}

// preparePage fills the scratch's per-page relevance and exposure vectors
// for r. Both are pure functions of a worker's page entry, so caching
// them changes no arithmetic — each cell reads the exact value it would
// have recomputed.
func (sc *mktScratch) preparePage(e *MarketplaceEvaluator, r *MarketplaceRanking) {
	n := len(r.Workers)
	if cap(sc.rel) < n {
		sc.rel = make([]float64, n)
		sc.exp = make([]float64, n)
	} else {
		sc.rel = sc.rel[:n]
		sc.exp = sc.exp[:n]
	}
	if len(sc.byRank) <= n {
		sc.byRank = append(sc.byRank, make([]float64, n+1-len(sc.byRank))...)
	}
	for i, w := range r.Workers {
		sc.rel[i] = r.Relevance(w, e.UseScores)
		sc.exp[i] = sc.exposure(w.Rank)
	}
}

// exposure returns metrics.ExposureAtRank(rank), computing it once per
// rank the scratch has room for; exposure is positive, so 0 marks a rank
// not yet computed. A rank outside the table goes to ExposureAtRank
// directly, which panics on a rank below 1.
func (sc *mktScratch) exposure(rank int) float64 {
	if rank < 1 || rank >= len(sc.byRank) {
		return metrics.ExposureAtRank(rank)
	}
	if sc.byRank[rank] == 0 {
		sc.byRank[rank] = metrics.ExposureAtRank(rank)
	}
	return sc.byRank[rank]
}

// mktCellFunc is a resolved marketplace measure: one of emdCell or
// exposureCell, bound once per evaluation. It reads the page partition
// part at g's slot and at its comparable groups' slots comp.
type mktCellFunc func(part [][]int, g int, comp []int, sc *mktScratch) (float64, bool)

// cellFunc resolves the evaluator's measure once per evaluation. An
// out-of-range Measure is reported here — before any worker goroutine
// has started — rather than panicking mid-evaluation (see doc.go on the
// panic-vs-error policy).
func (e *MarketplaceEvaluator) cellFunc() (mktCellFunc, error) {
	switch e.Measure {
	case MeasureEMD:
		return e.emdCell, nil
	case MeasureExposure:
		return e.exposureCell, nil
	default:
		return nil, fmt.Errorf("core: unknown marketplace measure %d", int(e.Measure))
	}
}

// mustCellFunc backs the legacy (float64, bool) single-cell API, which
// has no error channel: a misconfigured Measure panics there.
func (e *MarketplaceEvaluator) mustCellFunc() mktCellFunc {
	cell, err := e.cellFunc()
	if err != nil {
		panic(err)
	}
	return cell
}

// fillHistogram resets h and adds the relevance of every page member in
// idx, in page order.
func fillHistogram(h *stats.Histogram, rel []float64, idx []int) {
	h.Reset()
	for _, i := range idx {
		h.Add(rel[i])
	}
}

// emdCell implements §3.3.1: average EMD between g's relevance histogram
// and each non-empty comparable group's histogram.
func (e *MarketplaceEvaluator) emdCell(part [][]int, g int, comp []int, sc *mktScratch) (float64, bool) {
	members := part[g]
	if len(members) == 0 {
		return 0, false
	}
	fillHistogram(sc.hg, sc.rel, members)
	var sum float64
	var n int
	for _, c := range comp {
		cMembers := part[c]
		if len(cMembers) == 0 {
			continue
		}
		fillHistogram(sc.hc, sc.rel, cMembers)
		sum += metrics.EMDHistograms(sc.hg, sc.hc)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// exposureCell implements §3.3.2: the L1 deviation of g's exposure share
// from its relevance share, both taken over the population
// g ∪ comparable(g).
//
// Unlike the EMD measure, the exposure formula stays defined when no
// comparable group is on the page: both shares are then g's share of
// itself, 1, and the deviation is 0. This asymmetry is intentional and is
// what makes aggregate exposure unfairness differ between, e.g., Males and
// Females when one gender is absent from some result pages (the paper's
// Table 12, where the two genders' overall values differ even though the
// per-page deviations of two complementary groups are equal).
func (e *MarketplaceEvaluator) exposureCell(part [][]int, g int, comp []int, sc *mktScratch) (float64, bool) {
	members := part[g]
	if len(members) == 0 {
		return 0, false
	}
	var gExp, gRel float64
	for _, i := range members {
		gExp += sc.exp[i]
		gRel += sc.rel[i]
	}
	totExp, totRel := gExp, gRel
	anyComparable := false
	for _, c := range comp {
		for _, i := range part[c] {
			totExp += sc.exp[i]
			totRel += sc.rel[i]
			anyComparable = true
		}
	}
	if !anyComparable {
		// g's share of itself is 1 on both sides: deviation 0.
		return 0, true
	}
	return metrics.ExposureDeviation(
		metrics.Share(gExp, totExp),
		metrics.Share(gRel, totRel),
	), true
}

// EvaluateAll computes d<g,q,l> for every ranking and every group,
// producing the unfairness table the indices and problem solvers consume.
// A nil groups slice evaluates the full schema universe. A worker's
// groups are those of its ID's first entry in page order (see
// RankedWorker.ID); an entry with an empty ID is bucketed by its own
// Attrs.
//
// EvaluateAll is EvaluateAllCtx without a context; it panics on a
// misconfigured Measure (its only error), keeping the original
// infallible signature for the experiment and example call sites.
func (e *MarketplaceEvaluator) EvaluateAll(rankings []*MarketplaceRanking, groups []Group) *Table {
	t, err := e.EvaluateAllCtx(context.Background(), rankings, groups)
	if err != nil {
		panic(err)
	}
	return t
}

// EvaluateAllCtx computes d<g,q,l> for every ranking and every group,
// under a context. A nil groups slice evaluates the full schema
// universe, and a worker's groups are those of its ID's first entry in
// page order, as in EvaluateAll. A misconfigured Measure is returned as an error before any
// work starts; a context that ends mid-evaluation stops every shard at
// its next page boundary and returns ctx.Err().
//
// The work is sharded across Workers goroutines (see the field doc):
// each worker partitions its pages by plan slot and computes their
// cells, and one serial pass fills the table in page order, so the
// result is byte-identical to a single-threaded evaluation. The
// first-entry rule holds at every worker count: when a worker's entries
// disagree on their Attrs across a shard boundary, the evaluation runs
// again on one goroutine.
func (e *MarketplaceEvaluator) EvaluateAllCtx(ctx context.Context, rankings []*MarketplaceRanking, groups []Group) (*Table, error) {
	cell, err := e.cellFunc()
	if err != nil {
		return nil, err
	}
	return evaluate(ctx, evalJob[*MarketplaceRanking]{
		schema: e.Schema, family: "market", measure: e.Measure.String(), workers: e.Workers, obs: e.Obs,
		at: func(r *MarketplaceRanking) (Query, Location) { return r.Query, r.Location },
		shard: func(pt *partitioner, _ *evalRun) func(*MarketplaceRanking, cellRow) {
			plan, sc := pt.plan, e.newScratch()
			return func(r *MarketplaceRanking, row cellRow) {
				part := pt.ranking(r)
				sc.preparePage(e, r)
				for i := range row.v {
					v, ok := cell(part, plan.slot[i], plan.comp[i], sc)
					row.set(i, v, ok)
				}
			}
		},
	}, rankings, groups)
}
