package core

import (
	"fmt"
	"slices"
	"testing"

	"fairjob/internal/obs"
	"fairjob/internal/stats"
)

// The determinism contract of the sharded pipeline: EvaluateAll at any
// worker count produces a table byte-identical to the serial reference
// (the naive nested loop over Unfairness), for both evaluators and all
// measures. "Byte-identical" means exact float64 equality per triple, not
// approximate — the parallel path must replay the serial arithmetic.

// genRankings synthesizes a crawl with deliberately uneven pages: some
// pages miss entire groups (exercising the undefined-cell paths), some
// queries repeat a (query, location) pair (exercising the serial-order
// overwrite invariant), and attribute values occasionally fall outside
// the schema domain (exercising partition behaviour for unknown values).
func genRankings(n int) []*MarketplaceRanking {
	rng := stats.NewRNG(42)
	genders := []string{"Male", "Female"}
	ethnicities := []string{"Asian", "Black", "White", "Other"} // "Other" is outside the schema
	out := make([]*MarketplaceRanking, n)
	for i := range out {
		r := &MarketplaceRanking{
			Query:    Query(fmt.Sprintf("q%d", rng.Intn(n/2+1))),
			Location: Location(fmt.Sprintf("l%d", rng.Intn(5))),
		}
		for w := 0; w < 1+rng.Intn(12); w++ {
			r.Workers = append(r.Workers, RankedWorker{
				ID: fmt.Sprintf("w%d-%d", i, w),
				Attrs: Assignment{
					"gender":    genders[rng.Intn(len(genders))],
					"ethnicity": ethnicities[rng.Intn(len(ethnicities))],
				},
				Rank:  w + 1,
				Score: rng.Float64(),
			})
		}
		out[i] = r
	}
	return out
}

// genSearchResults synthesizes study sweeps with overlapping shuffled
// result lists so both Kendall Tau and Jaccard exercise nontrivial
// intersections.
func genSearchResults(n int) []*SearchResults {
	rng := stats.NewRNG(99)
	genders := []string{"Male", "Female"}
	ethnicities := []string{"Asian", "Black", "White"}
	out := make([]*SearchResults, n)
	for i := range out {
		sr := &SearchResults{
			Query:    Query(fmt.Sprintf("q%d", rng.Intn(n/2+1))),
			Location: Location(fmt.Sprintf("l%d", rng.Intn(4))),
		}
		for u := 0; u < 2+rng.Intn(10); u++ {
			list := make([]string, 0, 8)
			for _, p := range rng.Perm(12)[:8] {
				list = append(list, fmt.Sprintf("job%d", p))
			}
			sr.Users = append(sr.Users, UserResults{
				ID: fmt.Sprintf("u%d-%d", i, u),
				Attrs: Assignment{
					"gender":    genders[rng.Intn(len(genders))],
					"ethnicity": ethnicities[rng.Intn(len(ethnicities))],
				},
				List: list,
			})
		}
		out[i] = sr
	}
	return out
}

// requireTablesIdentical fails unless the two tables hold exactly the
// same triples with exactly equal values, and number the members of
// every dimension in the same order: DESIGN.md §7's first-Set order,
// when want is the serial Set loop.
func requireTablesIdentical(t *testing.T, want, got *Table) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("table size: want %d triples, got %d", want.Len(), got.Len())
	}
	want.Range(func(tr Triple, v float64) {
		gv, ok := got.GetKey(tr.GroupKey, tr.Query, tr.Location)
		if !ok {
			t.Fatalf("triple %v missing", tr)
		}
		if gv != v {
			t.Fatalf("triple %v: want %v, got %v (not byte-identical)", tr, v, gv)
		}
	})
	if !slices.Equal(want.gs.keys, got.gs.keys) {
		t.Fatalf("group ids: want %q, got %q", want.gs.keys, got.gs.keys)
	}
	if !slices.Equal(want.qs.keys, got.qs.keys) {
		t.Fatalf("query ids: want %q, got %q", want.qs.keys, got.qs.keys)
	}
	if !slices.Equal(want.ls.keys, got.ls.keys) {
		t.Fatalf("location ids: want %q, got %q", want.ls.keys, got.ls.keys)
	}
}

// sweepCase is one group set of groupSweep: arg is what EvaluateAll
// receives, and groups the groups it evaluates.
type sweepCase struct {
	name        string
	arg, groups []Group
}

// groupSweep is the group sets the determinism and partition tests
// evaluate: the whole universe (a nil argument), a subset whose
// comparable groups lie outside it, a set naming the out-of-domain
// ethnicity genRankings draws, and the universe with one group listed
// twice.
func groupSweep(s *Schema) []sweepCase {
	u := s.Universe()
	female := NewGroup(Predicate{"gender", "Female"})
	subset := []Group{female, NewGroup(Predicate{"gender", "Male"}, Predicate{"ethnicity", "Asian"})}
	other := []Group{
		NewGroup(Predicate{"ethnicity", "Other"}),
		NewGroup(Predicate{"gender", "Female"}, Predicate{"ethnicity", "Other"}),
		female,
	}
	dup := append(append([]Group{u[3]}, u...), u[3])
	return []sweepCase{
		{"universe", nil, u},
		{"subset", subset, subset},
		{"out-of-domain", other, other},
		{"duplicate", dup, dup},
	}
}

// serialTable is the serial reference: the naive nested loop over
// Unfairness for every page and every group of groups.
func serialTable[P any](pages []P, groups []Group, at func(P) (Query, Location), unfairness func(P, Group) (float64, bool)) *Table {
	tbl := NewTable()
	for _, p := range pages {
		q, l := at(p)
		for _, g := range groups {
			if v, ok := unfairness(p, g); ok {
				tbl.Set(g, q, l, v)
			}
		}
	}
	return tbl
}

func TestMarketplaceEvaluateAllDeterministicAcrossWorkers(t *testing.T) {
	rankings := genRankings(60)
	schema := DefaultSchema()
	at := func(r *MarketplaceRanking) (Query, Location) { return r.Query, r.Location }
	for _, measure := range []MarketplaceMeasure{MeasureEMD, MeasureExposure} {
		t.Run(measure.String(), func(t *testing.T) {
			for _, sw := range groupSweep(schema) {
				t.Run(sw.name, func(t *testing.T) {
					ref := &MarketplaceEvaluator{Schema: schema, Measure: measure}
					serial := serialTable(rankings, sw.groups, at, ref.Unfairness)
					for _, workers := range []int{1, 2, 8} {
						ev := &MarketplaceEvaluator{Schema: schema, Measure: measure, Workers: workers}
						requireTablesIdentical(t, serial, ev.EvaluateAll(rankings, sw.arg))
					}
				})
			}
		})
	}
}

func TestSearchEvaluateAllDeterministicAcrossWorkers(t *testing.T) {
	results := genSearchResults(40)
	schema := DefaultSchema()
	at := func(sr *SearchResults) (Query, Location) { return sr.Query, sr.Location }
	for _, measure := range []SearchMeasure{MeasureKendallTau, MeasureJaccard} {
		t.Run(measure.String(), func(t *testing.T) {
			for _, sw := range groupSweep(schema) {
				t.Run(sw.name, func(t *testing.T) {
					ref := &SearchEvaluator{Schema: schema, Measure: measure}
					serial := serialTable(results, sw.groups, at, ref.Unfairness)
					for _, workers := range []int{1, 2, 8} {
						ev := &SearchEvaluator{Schema: schema, Measure: measure, Workers: workers}
						requireTablesIdentical(t, serial, ev.EvaluateAll(results, sw.arg))
					}
				})
			}
		})
	}
}

// pooledID draws an entry's ID from a pool of 12, or returns the empty
// ID for about one entry in five, so one ID carries the Attrs of many
// entries, on different pages and within one page.
func pooledID(rng *stats.RNG) string {
	if rng.Intn(5) == 0 {
		return ""
	}
	return fmt.Sprintf("id%d", rng.Intn(12))
}

// firstEntry returns the Attrs an entry of ID id is bucketed by: those
// of the first entry of id seen, recorded in first, or a itself for an
// empty id.
func firstEntry(first map[string]Assignment, id string, a Assignment) Assignment {
	if id == "" {
		return a
	}
	if f, ok := first[id]; ok {
		return f
	}
	first[id] = a
	return a
}

// firstEntryRankings copies rankings, giving every entry of a non-empty
// ID the Attrs of the ID's first entry in page order. With blank set it
// instead empties every ID, so each entry keeps its own Attrs.
func firstEntryRankings(rankings []*MarketplaceRanking, blank bool) []*MarketplaceRanking {
	first := make(map[string]Assignment)
	out := make([]*MarketplaceRanking, len(rankings))
	for k, r := range rankings {
		c := *r
		c.Workers = slices.Clone(r.Workers)
		for i := range c.Workers {
			w := &c.Workers[i]
			if blank {
				w.ID = ""
			}
			w.Attrs = firstEntry(first, w.ID, w.Attrs)
		}
		out[k] = &c
	}
	return out
}

// firstEntryResults is firstEntryRankings for search result sets.
func firstEntryResults(results []*SearchResults, blank bool) []*SearchResults {
	first := make(map[string]Assignment)
	out := make([]*SearchResults, len(results))
	for k, sr := range results {
		c := *sr
		c.Users = slices.Clone(sr.Users)
		for i := range c.Users {
			u := &c.Users[i]
			if blank {
				u.ID = ""
			}
			u.Attrs = firstEntry(first, u.ID, u.Attrs)
		}
		out[k] = &c
	}
	return out
}

// sameCells reports whether a and b hold the same cells with equal
// values.
func sameCells(a, b *Table) bool {
	same := a.Len() == b.Len()
	a.Range(func(tr Triple, v float64) {
		if w, ok := b.GetKey(tr.GroupKey, tr.Query, tr.Location); !ok || w != v {
			same = false
		}
	})
	return same
}

// TestGroupsFollowFirstEntryOfID pins the per-individual rule both
// evaluators apply: a non-empty ID's groups are those of its first entry
// in page order, and an entry with an empty ID is bucketed by its own
// Attrs. The fixtures draw IDs from a small pool while each entry keeps
// its own random Attrs, so an ID's entries disagree on different pages,
// within a page and across every shard boundary. At workers {1, 2, 8}
// the table must equal the serial evaluation of the input rewritten to
// the rule, in values and member numbering. Above one worker the shards'
// memos disagree, so the evaluation runs again on one shard: the pages
// counter reads twice the page count. The rewritten input, whose IDs
// keep their Attrs, runs once at every worker count.
func TestGroupsFollowFirstEntryOfID(t *testing.T) {
	schema := DefaultSchema()
	rng := stats.NewRNG(7)
	rankings := genRankings(60)
	for _, r := range rankings {
		for i := range r.Workers {
			r.Workers[i].ID = pooledID(rng)
		}
	}
	results := genSearchResults(40)
	for _, sr := range results {
		for i := range sr.Users {
			sr.Users[i].ID = pooledID(rng)
		}
	}
	// runs returns how many times an evaluation reported through reg
	// went over its n pages.
	runs := func(reg *obs.Registry, family string, n int) float64 {
		return float64(reg.Snapshot().Counters[obs.Name("eval_pages_total", "eval", family)]) / float64(n)
	}
	check := func(t *testing.T, family string, n int, want, perEntry *Table, eval func(workers int, reg *obs.Registry, rewritten bool) *Table) {
		t.Helper()
		if sameCells(want, perEntry) {
			t.Fatal("fixture is insensitive: bucketing every entry by its own Attrs gives the same table")
		}
		for _, workers := range []int{1, 2, 8} {
			reg := obs.NewRegistry()
			requireTablesIdentical(t, want, eval(workers, reg, false))
			if got, wantRuns := runs(reg, family, n), min(float64(workers), 2); got != wantRuns {
				t.Fatalf("workers=%d: the evaluation ran %v times over the pages, want %v", workers, got, wantRuns)
			}
			reg = obs.NewRegistry()
			requireTablesIdentical(t, want, eval(workers, reg, true))
			if got := runs(reg, family, n); got != 1 {
				t.Fatalf("workers=%d: the rewritten input ran %v times over the pages, want 1", workers, got)
			}
		}
	}
	at := func(r *MarketplaceRanking) (Query, Location) { return r.Query, r.Location }
	rewritten := firstEntryRankings(rankings, false)
	for _, measure := range []MarketplaceMeasure{MeasureEMD, MeasureExposure} {
		t.Run("market/"+measure.String(), func(t *testing.T) {
			ref := &MarketplaceEvaluator{Schema: schema, Measure: measure}
			want := serialTable(rewritten, schema.Universe(), at, ref.Unfairness)
			perEntry := serialTable(firstEntryRankings(rankings, true), schema.Universe(), at, ref.Unfairness)
			check(t, "market", len(rankings), want, perEntry, func(workers int, reg *obs.Registry, rw bool) *Table {
				ev := &MarketplaceEvaluator{Schema: schema, Measure: measure, Workers: workers, Obs: reg}
				if rw {
					return ev.EvaluateAll(rewritten, nil)
				}
				return ev.EvaluateAll(rankings, nil)
			})
		})
	}
	atSR := func(sr *SearchResults) (Query, Location) { return sr.Query, sr.Location }
	rewrittenSR := firstEntryResults(results, false)
	for _, measure := range []SearchMeasure{MeasureKendallTau, MeasureJaccard} {
		t.Run("search/"+measure.String(), func(t *testing.T) {
			ref := &SearchEvaluator{Schema: schema, Measure: measure}
			want := serialTable(rewrittenSR, schema.Universe(), atSR, ref.Unfairness)
			perEntry := serialTable(firstEntryResults(results, true), schema.Universe(), atSR, ref.Unfairness)
			check(t, "search", len(results), want, perEntry, func(workers int, reg *obs.Registry, rw bool) *Table {
				ev := &SearchEvaluator{Schema: schema, Measure: measure, Workers: workers, Obs: reg}
				if rw {
					return ev.EvaluateAll(rewrittenSR, nil)
				}
				return ev.EvaluateAll(results, nil)
			})
		})
	}
}

// TestMemosAgreeAcrossShards pins the merge evaluate checks the shards'
// memos with: they agree when every ID they share has one combo, and an
// ID a later shard meets first is carried on to the shards after it.
func TestMemosAgreeAcrossShards(t *testing.T) {
	for _, c := range []struct {
		name  string
		memos []map[string]int
		want  bool
	}{
		{"disjoint", []map[string]int{{"a": 1}, {"b": 2}, {"c": 3}}, true},
		{"shared", []map[string]int{{"a": 1}, {"a": 1, "b": 2}, {"a": 1, "b": 2}}, true},
		{"first and second disagree", []map[string]int{{"a": 1}, {"a": 2}}, false},
		{"second and third disagree", []map[string]int{{"a": 1}, {"x": 1}, {"x": 2}}, false},
		{"first shard empty", []map[string]int{{}, {"x": 1}, {"b": 2}, {"x": 2}}, false},
	} {
		pts := make([]*partitioner, len(c.memos))
		for i, m := range c.memos {
			pts[i] = &partitioner{memo: m}
		}
		if got := memosAgree(pts); got != c.want {
			t.Errorf("%s: memosAgree = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPartitionMatchesNaiveMembership cross-checks every slot of every
// plan in the group sweep against Assignment.Matches, including workers
// whose ethnicity falls outside the schema domain. Groups no individual
// is bucketed under, the empty label and a label on an attribute the
// schema does not track, get no members even where Matches holds.
func TestPartitionMatchesNaiveMembership(t *testing.T) {
	schema := DefaultSchema()
	rankings := genRankings(20)
	for _, sw := range groupSweep(schema) {
		plan := newEvalPlan(schema, sw.groups)
		pt := newPartitioner(plan)
		for _, r := range rankings {
			part := pt.ranking(r)
			for s, key := range plan.keys {
				g, err := ParseGroupKey(key)
				if err != nil {
					t.Fatal(err)
				}
				var naive []int
				for i, w := range r.Workers {
					if w.Attrs.Matches(g.Label) {
						naive = append(naive, i)
					}
				}
				if !slices.Equal(part[s], naive) {
					t.Fatalf("%s: group %s: partition %v vs naive %v", sw.name, g.Name(), part[s], naive)
				}
			}
		}
	}
	untracked := NewGroup(Predicate{"age", ""})
	plan := newEvalPlan(schema, []Group{{}, untracked})
	pt := newPartitioner(plan)
	for _, r := range rankings {
		part := pt.ranking(r)
		for i, g := range plan.groups {
			if !r.Workers[0].Attrs.Matches(g.Label) {
				t.Fatalf("group %q should match every worker", g.Key())
			}
			if got := part[plan.slot[i]]; len(got) != 0 {
				t.Fatalf("group %q: partition %v, want no members", g.Key(), got)
			}
		}
	}
}

// TestWarmPartitionerAllocatesNothing pins that a partitioner reuses its
// buckets: once it has seen the pages, partitioning them again
// allocates nothing.
func TestWarmPartitionerAllocatesNothing(t *testing.T) {
	schema := DefaultSchema()
	rankings := genRankings(40)
	pt := newPartitioner(newEvalPlan(schema, schema.Universe()))
	pages := func() {
		for _, r := range rankings {
			pt.ranking(r)
		}
	}
	pages()
	if allocs := testing.AllocsPerRun(10, pages); allocs != 0 {
		t.Fatalf("a warm partitioner allocates %.0f objects per %d pages, want 0", allocs, len(rankings))
	}
}

// BenchmarkEvaluateDistinctIDs evaluates a crawl shaped like
// genRankings, whose IDs never repeat: the partitioner memo's worst
// case, where every entry misses the memo and is inserted into it, so
// the memo saves no attribute read and adds a lookup and an insert per
// entry.
func BenchmarkEvaluateDistinctIDs(b *testing.B) {
	rankings := genRankings(4096)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ev := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureExposure, UseScores: true, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev.EvaluateAll(rankings, nil)
			}
		})
	}
}
