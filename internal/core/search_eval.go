package core

import (
	"context"
	"fmt"
	"math"

	"fairjob/internal/metrics"
	"fairjob/internal/obs"
)

// UserResults is one study participant's personalized result list for a
// (query, location) pair on a search engine: E_q^l(u) in §3.2.
type UserResults struct {
	// ID identifies the participant across result sets. Demographics
	// belong to the participant: EvaluateAll buckets every entry of a
	// non-empty ID by the Attrs of the ID's first entry in result-set
	// order (Unfairness does so within its one result set), and reads
	// Attrs of a later entry only when its ID is empty.
	ID    string
	Attrs Assignment
	List  []string // result identifiers, best first
}

// SearchResults bundles all participants' result lists for one (query,
// location) pair.
type SearchResults struct {
	Query    Query
	Location Location
	Users    []UserResults
}

// SearchMeasure selects between the two search-engine distance measures of
// §3.2. Both are distances: higher means more divergent results and
// therefore more unfair (see DESIGN.md §5 on orientation).
type SearchMeasure int

const (
	// MeasureKendallTau is the normalized Kendall tau distance between
	// result lists.
	MeasureKendallTau SearchMeasure = iota
	// MeasureJaccard is the Jaccard distance between result sets.
	MeasureJaccard
)

func (m SearchMeasure) String() string {
	switch m {
	case MeasureKendallTau:
		return "KendallTau"
	case MeasureJaccard:
		return "Jaccard"
	default:
		return fmt.Sprintf("SearchMeasure(%d)", int(m))
	}
}

// SearchEvaluator computes d<g,q,l> for search-engine result lists
// following §3.2: the unfairness of group g is the average over comparable
// groups g' of the average pairwise distance between result lists of users
// in g and users in g'. The evaluator is read-only during evaluation and
// safe to share across goroutines; EvaluateAll shards its work across
// Workers goroutines internally.
type SearchEvaluator struct {
	Schema  *Schema
	Measure SearchMeasure
	// Workers bounds the goroutines EvaluateAll shards result sets
	// across: 0 uses runtime.GOMAXPROCS(0), 1 forces single-threaded
	// evaluation. Any worker count produces a byte-identical table (see
	// DESIGN.md §7).
	Workers int
	// Obs, when non-nil, receives per-shard telemetry from EvaluateAll
	// under the eval="search" label family: shard durations, result-set
	// and cell throughput counters, the worker-utilization gauge of the
	// latest run, and the distance-cache hit/miss totals. A nil registry
	// keeps evaluation telemetry-free.
	Obs *obs.Registry
}

// distFunc resolves the evaluator's measure to its distance function,
// once per evaluation rather than per pair. An out-of-range Measure is
// reported as an error here — at the top of the call, before any worker
// goroutine has started — instead of panicking in the middle of a
// sharded evaluation (see doc.go on the panic-vs-error policy).
func (e *SearchEvaluator) distFunc() (func(a, b []string) float64, error) {
	switch e.Measure {
	case MeasureKendallTau:
		return metrics.KendallTauDistance, nil
	case MeasureJaccard:
		return metrics.JaccardDistance, nil
	default:
		return nil, fmt.Errorf("core: unknown search measure %d", int(e.Measure))
	}
}

// mustDistFunc backs the legacy (float64, bool) single-cell APIs, which
// have no error channel: a misconfigured Measure is a programming error
// there, and panics.
func (e *SearchEvaluator) mustDistFunc() func(a, b []string) float64 {
	fn, err := e.distFunc()
	if err != nil {
		panic(err)
	}
	return fn
}

func usersOf(sr *SearchResults, g Group) []UserResults {
	var out []UserResults
	for _, u := range sr.Users {
		if u.Attrs.Matches(g.Label) {
			out = append(out, u)
		}
	}
	return out
}

// distCache memoizes the pairwise distance between a result set's users
// so each user pair is measured exactly once per (SearchResults, measure).
// Overlapping (g, g') combinations — e.g. "Male" vs "Female" and
// "Asian Male" vs "Asian Female" — would otherwise re-walk the same two
// result lists once per combination. The cache stores one value per
// unordered pair, which is sound because both distance measures are
// symmetric: the discordant-pair count (Kendall) and the set overlap
// (Jaccard, also Kendall's degenerate fallback) do not depend on argument
// order, so dist(u, v) and dist(v, u) are bitwise-equal. A distCache
// belongs to one worker goroutine and is not safe for concurrent use.
type distCache struct {
	fn           func(a, b []string) float64 // the resolved measure
	n            int
	d            []float64 // row-major n×n; NaN marks a pair not yet measured
	hits, misses int       // memo effectiveness, drained into obs counters
}

func newDistCache(fn func(a, b []string) float64, n int) *distCache {
	c := &distCache{}
	c.reset(fn, n)
	return c
}

// reset re-points the cache at a new result set's users, reusing the n×n
// backing buffer whenever it is large enough. A worker shard walks many
// result sets of similar cardinality; resetting one cache per shard
// instead of allocating one per result set removes the largest
// per-result-set allocation of the search pipeline.
func (c *distCache) reset(fn func(a, b []string) float64, n int) {
	c.fn = fn
	c.n = n
	need := n * n
	if cap(c.d) < need {
		c.d = make([]float64, need)
	} else {
		c.d = c.d[:need]
	}
	for i := range c.d {
		c.d[i] = math.NaN()
	}
	c.hits, c.misses = 0, 0
}

// dist returns the memoized distance between users i and j of sr.
func (c *distCache) dist(sr *SearchResults, i, j int) float64 {
	if v := c.d[i*c.n+j]; !math.IsNaN(v) {
		c.hits++
		return v
	}
	c.misses++
	v := c.fn(sr.Users[i].List, sr.Users[j].List)
	c.d[i*c.n+j] = v
	c.d[j*c.n+i] = v
	return v
}

// Unfairness returns d<g,q,l> per Equation 1. The boolean is false when
// the value is undefined: no users of g participated, or no comparable
// group has participants.
//
// Unfairness partitions the result set and builds a fresh distance cache
// on every call; callers evaluating many (result set, group) cells should
// use EvaluateAll, which amortizes both across all groups of a result
// set.
func (e *SearchEvaluator) Unfairness(sr *SearchResults, g Group) (float64, bool) {
	plan := newEvalPlan(e.Schema, []Group{g})
	part := newPartitioner(plan).users(sr)
	return searchCell(sr, part, newDistCache(e.mustDistFunc(), len(sr.Users)), plan.slot[0], plan.comp[0])
}

// searchCell computes one d<g,q,l> cell from a user partition, read at g's
// slot and at its comparable groups' slots comp, and the result set's
// distance cache.
func searchCell(sr *SearchResults, part [][]int, dc *distCache, g int, comp []int) (float64, bool) {
	gUsers := part[g]
	if len(gUsers) == 0 {
		return 0, false
	}
	var sum float64
	var n int
	for _, c := range comp {
		cUsers := part[c]
		if len(cUsers) == 0 {
			continue
		}
		var pairSum float64
		for _, u := range gUsers {
			for _, v := range cUsers {
				pairSum += dc.dist(sr, u, v)
			}
		}
		sum += pairSum / float64(len(gUsers)*len(cUsers))
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// PairwiseUnfairness returns the partial unfairness DIST(g, g') between two
// specific groups — the quantity the paper's Figure 3 illustrates — and
// false when either group has no participants.
func (e *SearchEvaluator) PairwiseUnfairness(sr *SearchResults, g, other Group) (float64, bool) {
	gUsers := usersOf(sr, g)
	oUsers := usersOf(sr, other)
	if len(gUsers) == 0 || len(oUsers) == 0 {
		return 0, false
	}
	dist := e.mustDistFunc()
	var sum float64
	for _, u := range gUsers {
		for _, v := range oUsers {
			sum += dist(u.List, v.List)
		}
	}
	return sum / float64(len(gUsers)*len(oUsers)), true
}

// EvaluateAll computes the full unfairness table over all result sets and
// groups. A nil groups slice evaluates the schema universe. A
// participant's groups are those of its ID's first entry in result-set
// order (see UserResults.ID); an entry with an empty ID is bucketed by
// its own Attrs.
//
// EvaluateAll is EvaluateAllCtx without a context; it panics on a
// misconfigured Measure (its only error), keeping the original
// infallible signature for the experiment and example call sites.
func (e *SearchEvaluator) EvaluateAll(results []*SearchResults, groups []Group) *Table {
	t, err := e.EvaluateAllCtx(context.Background(), results, groups)
	if err != nil {
		panic(err)
	}
	return t
}

// EvaluateAllCtx computes the full unfairness table over all result sets
// and groups, under a context. A nil groups slice evaluates the schema
// universe, and a participant's groups are those of its ID's first entry
// in result-set order, as in EvaluateAll. A misconfigured Measure is returned as an error before any
// work starts; a context that ends mid-evaluation stops every shard at
// its next result-set boundary and returns ctx.Err().
//
// The work is sharded across Workers goroutines (see the field doc):
// each worker partitions its result sets by plan slot, memoizes pairwise
// distances per result set and computes their cells, and one serial pass
// fills the table in result-set order, so the result is byte-identical
// to a single-threaded evaluation. The first-entry rule holds at every
// worker count: when a participant's entries disagree on their Attrs
// across a shard boundary, the evaluation runs again on one goroutine.
func (e *SearchEvaluator) EvaluateAllCtx(ctx context.Context, results []*SearchResults, groups []Group) (*Table, error) {
	dist, err := e.distFunc()
	if err != nil {
		return nil, err
	}
	return evaluate(ctx, evalJob[*SearchResults]{
		schema: e.Schema, family: "search", measure: e.Measure.String(), workers: e.Workers, obs: e.Obs,
		at: func(sr *SearchResults) (Query, Location) { return sr.Query, sr.Location },
		shard: func(pt *partitioner, run *evalRun) func(*SearchResults, cellRow) {
			plan, dc := pt.plan, &distCache{}
			return func(sr *SearchResults, row cellRow) {
				part := pt.users(sr)
				dc.reset(dist, len(sr.Users))
				for i := range row.v {
					v, ok := searchCell(sr, part, dc, plan.slot[i], plan.comp[i])
					row.set(i, v, ok)
				}
				run.distCacheDone(dc.hits, dc.misses)
			}
		},
	}, results, groups)
}
