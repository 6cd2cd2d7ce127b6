package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/mitigate"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// relTol is the relative tolerance on every checked value. Answers are
// deterministic today, so they match exactly; the tolerance lets a
// change that sums in another order, which rounds differently in the
// last bits, still pass.
const relTol = 1e-12

// gateSize is how many answers the correctness gate checks per run.
const gateSize = 200

// checkGens is how many generations the gate checks answers from under
// churn, where each needs its own reference index (~0.2 s to build).
const checkGens = 3

// sinkCap bounds the answers a run keeps for the gate.
const sinkCap = 4096

// answer is one served response kept for the gate.
type answer struct {
	req  serve.Request
	resp serve.Response
}

// checkSink keeps served answers for the gate, at most one per
// (request, generation).
type checkSink struct {
	seen  map[string]bool
	byGen map[uint64][]answer
	n     int
}

func newCheckSink() *checkSink {
	return &checkSink{seen: make(map[string]bool), byGen: make(map[uint64][]answer)}
}

// offer keeps the answer if it is new and the sink has room.
func (c *checkSink) offer(req serve.Request, resp serve.Response) {
	if c.n >= sinkCap {
		return
	}
	key := fmt.Sprint(resp.Gen, req)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.byGen[resp.Gen] = append(c.byGen[resp.Gen], answer{req, resp})
	c.n++
}

// pick returns up to n answers from the maxGens generations with the
// most answers (every generation when maxGens is 0), taking from each in
// turn so that every picked generation is checked.
func (c *checkSink) pick(maxGens, n int) []answer {
	gens := make([]uint64, 0, len(c.byGen))
	for g := range c.byGen {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool {
		a, b := len(c.byGen[gens[i]]), len(c.byGen[gens[j]])
		return a > b || (a == b && gens[i] < gens[j])
	})
	if maxGens > 0 && len(gens) > maxGens {
		gens = gens[:maxGens]
	}
	var out []answer
	for i := 0; len(out) < n; i++ {
		took := false
		for _, g := range gens {
			if i < len(c.byGen[g]) && len(out) < n {
				out = append(out, c.byGen[g][i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// view is the data an answer must agree with: a table and the index
// families the benchmark built from it.
type view struct {
	tbl        *core.Table
	gi         *index.GroupIndex
	qi         *index.QueryIndex
	li         *index.LocationIndex
	comparer   *compare.Comparer
	groupLists topk.ListSource
	queryLists topk.ListSource
	locLists   topk.ListSource
	pages      map[[2]string]*core.MarketplaceRanking
	schema     *core.Schema
}

// newView indexes tbl for checking; the crawl pages serve the mitigation
// checks.
func newView(tbl *core.Table, gi *index.GroupIndex, qi *index.QueryIndex, li *index.LocationIndex, crawl []*core.MarketplaceRanking) (*view, error) {
	v := &view{tbl: tbl, gi: gi, qi: qi, li: li, schema: core.DefaultSchema()}
	var err error
	if v.groupLists, err = topk.NewGroupLists(gi, nil, nil); err != nil {
		return nil, err
	}
	if v.queryLists, err = topk.NewQueryLists(qi, nil, nil); err != nil {
		return nil, err
	}
	if v.locLists, err = topk.NewLocationLists(li, nil, nil); err != nil {
		return nil, err
	}
	v.comparer = compare.NewDefinedOnlyWith(gi, tbl)
	v.pages = make(map[[2]string]*core.MarketplaceRanking, len(crawl))
	for _, r := range crawl {
		v.pages[[2]string{string(r.Query), string(r.Location)}] = r
	}
	return v, nil
}

// lists returns the list source a quantify request runs over.
func (v *view) lists(req serve.Request) (topk.ListSource, error) {
	var src topk.ListSource
	switch req.Dim {
	case compare.ByGroup:
		src = v.groupLists
	case compare.ByQuery:
		src = v.queryLists
	default:
		src = v.locLists
	}
	if req.Candidates != nil {
		return topk.NewFilteredLists(src, req.Candidates)
	}
	return src, nil
}

// compare runs a compare request on the benchmark's comparer.
func (v *view) compare(req serve.Request) (*compare.Comparison, error) {
	switch req.Of {
	case compare.ByGroup:
		return v.comparer.Groups(req.R1, req.R2, req.By, compare.Scope{})
	case compare.ByQuery:
		return v.comparer.Queries(core.Query(req.R1), core.Query(req.R2), req.By, compare.Scope{})
	default:
		return v.comparer.Locations(core.Location(req.R1), core.Location(req.R2), req.By, compare.Scope{})
	}
}

// mitigation flattens a mitigate request's page the way the engine does:
// each worker classified by the target group's attributes, relevance
// from the platform score when observed.
func (v *view) mitigation(req serve.Request) (page *core.MarketplaceRanking, items []mitigate.Item, opts mitigate.Options, err error) {
	page = v.pages[[2]string{req.Query, req.Location}]
	if page == nil {
		return nil, nil, opts, fmt.Errorf("no page for %q at %q", req.Query, req.Location)
	}
	g, err := core.ParseGroupKey(req.Group)
	if err != nil {
		return nil, nil, opts, err
	}
	attrs := g.Label.Attributes()
	items = make([]mitigate.Item, len(page.Workers))
	for i, w := range page.Workers {
		preds := make([]core.Predicate, len(attrs))
		for j, a := range attrs {
			preds[j] = core.Predicate{Attr: a, Value: w.Attrs[a]}
		}
		items[i] = mitigate.Item{ID: w.ID, Rel: page.Relevance(w, true), Group: core.NewLabel(preds...).Key()}
	}
	opts = mitigate.Options{Target: g.Key(), MinProportion: req.MinProportion, Alpha: req.Alpha, SwapBudget: req.SwapBudget}
	for _, cg := range v.schema.Comparable(g) {
		opts.Comparable = append(opts.Comparable, cg.Key())
	}
	return page, items, opts, nil
}

// near reports whether a and b agree to relTol, relative to the larger.
func near(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// checkAnswer verifies one served answer against the view: a top-k
// answer must equal topk.Naive over the benchmark's index (same keys in
// the same order, values within relTol); a comparison must equal the
// benchmark's comparer; a mitigation must be a valid permutation whose
// before/after deviations re-measure, and the exposure re-ranker must
// not make the deviation worse.
func (v *view) checkAnswer(ctx context.Context, a answer) error {
	if a.resp.Err != nil {
		return fmt.Errorf("served an error: %v", a.resp.Err)
	}
	switch a.req.Problem {
	case serve.Quantify:
		src, err := v.lists(a.req)
		if err != nil {
			return err
		}
		want, _, err := topk.TopKCtx(ctx, src, a.req.K, a.req.Direction, topk.Naive)
		if err != nil {
			return err
		}
		return sameResults(a.resp.Results, want)
	case serve.Compare:
		want, err := v.compare(a.req)
		if err != nil {
			return err
		}
		return sameComparison(a.resp.Comparison, want)
	default:
		return v.checkMitigation(a.req, a.resp.Mitigation)
	}
}

func (v *view) checkMitigation(req serve.Request, m *serve.Mitigation) error {
	if m == nil {
		return fmt.Errorf("mitigation missing")
	}
	page, items, opts, err := v.mitigation(req)
	if err != nil {
		return err
	}
	if len(m.Permutation) != len(items) || len(m.IDs) != len(items) {
		return fmt.Errorf("permutation of %d for a %d-worker page", len(m.Permutation), len(items))
	}
	seen := make([]bool, len(items))
	for pos, oi := range m.Permutation {
		if oi < 0 || oi >= len(items) || seen[oi] {
			return fmt.Errorf("permutation is not a permutation at position %d", pos)
		}
		seen[oi] = true
		if m.IDs[pos] != page.Workers[oi].ID {
			return fmt.Errorf("position %d shows %s, permutation says %s", pos, m.IDs[pos], page.Workers[oi].ID)
		}
	}
	before, _ := mitigate.Unfairness(items, nil, opts.Target, opts.Comparable)
	after, _ := mitigate.Unfairness(items, m.Permutation, opts.Target, opts.Comparable)
	if !near(m.Before, before) || !near(m.After, after) {
		return fmt.Errorf("deviation before/after %v/%v, re-measured %v/%v", m.Before, m.After, before, after)
	}
	if req.Mitigator == mitigate.ExposureParity && after > before && !near(after, before) {
		return fmt.Errorf("exposure re-ranker raised the deviation from %v to %v", before, after)
	}
	return nil
}

func sameResults(got, want []topk.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !near(got[i].Value, want[i].Value) {
			return fmt.Errorf("result %d is %s=%v, want %s=%v", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	return nil
}

func sameComparison(got, want *compare.Comparison) error {
	if got == nil {
		return fmt.Errorf("comparison missing")
	}
	if got.R1 != want.R1 || got.R2 != want.R2 || got.By != want.By ||
		!near(got.Overall1, want.Overall1) || !near(got.Overall2, want.Overall2) {
		return fmt.Errorf("overall %s/%s %v/%v, want %v/%v", got.R1, got.R2, got.Overall1, got.Overall2, want.Overall1, want.Overall2)
	}
	if err := sameBreakdowns(got.All, want.All); err != nil {
		return fmt.Errorf("breakdown: %w", err)
	}
	if err := sameBreakdowns(got.Reversed, want.Reversed); err != nil {
		return fmt.Errorf("reversals: %w", err)
	}
	return nil
}

func sameBreakdowns(got, want []compare.Breakdown) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.B != w.B || g.Reversed != w.Reversed || !near(g.V1, w.V1) || !near(g.V2, w.V2) {
			return fmt.Errorf("row %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// sameAnswer compares a partitioned answer with a single engine's.
func sameAnswer(got, want serve.Response) error {
	switch {
	case got.Err != nil:
		return fmt.Errorf("served an error: %v", got.Err)
	case want.Err != nil:
		return fmt.Errorf("reference engine failed: %v", want.Err)
	case want.Comparison != nil:
		return sameComparison(got.Comparison, want.Comparison)
	case want.Mitigation != nil:
		g, w := got.Mitigation, want.Mitigation
		if g == nil || !near(g.Before, w.Before) || !near(g.After, w.After) || fmt.Sprint(g.Permutation) != fmt.Sprint(w.Permutation) {
			return fmt.Errorf("mitigation differs from the single engine's")
		}
		return nil
	default:
		return sameResults(got.Results, want.Results)
	}
}
