package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fairjob/internal/stats"
	"fairjob/internal/testutil"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTableSetGet(t *testing.T) {
	tbl := NewTable()
	g := NewGroup(Predicate{"gender", "Male"})
	tbl.Set(g, "cleaning", "NYC", 0.4)
	if v, ok := tbl.Get(g, "cleaning", "NYC"); !ok || v != 0.4 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if _, ok := tbl.Get(g, "cleaning", "LA"); ok {
		t.Fatal("unexpected value for unrecorded triple")
	}
	tbl.Set(g, "cleaning", "NYC", 0.6) // overwrite
	if v, _ := tbl.Get(g, "cleaning", "NYC"); v != 0.6 {
		t.Fatalf("overwrite failed: %v", v)
	}
	if v, ok := tbl.GetKey(g.Key(), "cleaning", "NYC"); !ok || v != 0.6 {
		t.Fatalf("GetKey = %v, %v", v, ok)
	}
}

func TestTableDimensions(t *testing.T) {
	tbl := NewTable()
	male := NewGroup(Predicate{"gender", "Male"})
	female := NewGroup(Predicate{"gender", "Female"})
	tbl.Set(male, "q1", "l1", 0.1)
	tbl.Set(male, "q2", "l2", 0.2)
	tbl.Set(female, "q1", "l2", 0.3)

	if gs := tbl.Groups(); len(gs) != 2 {
		t.Fatalf("Groups = %v", gs)
	}
	if qs := tbl.Queries(); len(qs) != 2 || qs[0] != "q1" || qs[1] != "q2" {
		t.Fatalf("Queries = %v", qs)
	}
	if ls := tbl.Locations(); len(ls) != 2 || ls[0] != "l1" || ls[1] != "l2" {
		t.Fatalf("Locations = %v", ls)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if g, ok := tbl.GroupByKey(male.Key()); !ok || g.Name() != "Male" {
		t.Fatalf("GroupByKey = %v, %v", g, ok)
	}
}

func TestTableAggregateGroup(t *testing.T) {
	tbl := NewTable()
	g := NewGroup(Predicate{"gender", "Female"})
	tbl.Set(g, "q1", "l1", 0.2)
	tbl.Set(g, "q1", "l2", 0.4)
	tbl.Set(g, "q2", "l1", 0.6)
	// q2/l2 missing: aggregation averages over recorded triples only.
	v, ok := tbl.AggregateGroup(g, []Query{"q1", "q2"}, []Location{"l1", "l2"})
	if !ok || !approx(v, 0.4, 1e-12) {
		t.Fatalf("AggregateGroup = %v, %v", v, ok)
	}
	// Restricting the query set restricts the average.
	v, _ = tbl.AggregateGroup(g, []Query{"q1"}, []Location{"l1", "l2"})
	if !approx(v, 0.3, 1e-12) {
		t.Fatalf("restricted AggregateGroup = %v", v)
	}
	if _, ok := tbl.AggregateGroup(g, []Query{"nope"}, []Location{"l1"}); ok {
		t.Fatal("aggregate over unrecorded cells should be undefined")
	}
}

func TestTableAggregateQueryAndLocation(t *testing.T) {
	tbl := NewTable()
	male := NewGroup(Predicate{"gender", "Male"})
	female := NewGroup(Predicate{"gender", "Female"})
	tbl.Set(male, "q1", "l1", 0.1)
	tbl.Set(female, "q1", "l1", 0.3)
	tbl.Set(male, "q1", "l2", 0.5)

	gs := []Group{male, female}
	v, ok := tbl.AggregateQuery("q1", gs, []Location{"l1"})
	if !ok || !approx(v, 0.2, 1e-12) {
		t.Fatalf("AggregateQuery = %v, %v", v, ok)
	}
	v, ok = tbl.AggregateLocation("l2", gs, []Query{"q1"})
	if !ok || !approx(v, 0.5, 1e-12) {
		t.Fatalf("AggregateLocation = %v, %v", v, ok)
	}
	if _, ok := tbl.AggregateLocation("l3", gs, []Query{"q1"}); ok {
		t.Fatal("missing location should be undefined")
	}
}

func TestTableRange(t *testing.T) {
	tbl := NewTable()
	g := NewGroup(Predicate{"gender", "Male"})
	tbl.Set(g, "q1", "l1", 0.25)
	tbl.Set(g, "q2", "l1", 0.75)
	var sum float64
	var count int
	tbl.Range(func(tr Triple, v float64) {
		sum += v
		count++
	})
	if count != 2 || !approx(sum, 1.0, 1e-12) {
		t.Fatalf("Range visited %d values summing to %v", count, sum)
	}
}

func TestTableString(t *testing.T) {
	tbl := NewTable()
	tbl.Set(NewGroup(Predicate{"gender", "Male"}), "q", "l", 0.5)
	if got := tbl.String(); got == "" {
		t.Fatal("String empty")
	}
}

// crawlTable builds a table of the benchmark crawl's shape, 11 groups ×
// 96 queries × 56 locations with 95% of the cells defined, the way the
// sharded evaluators do: four shards fill private tables over contiguous
// runs of queries and MergeTables combines them.
func crawlTable() *Table {
	const ng, nq, nl, shards = 11, 96, 56, 4
	rng := stats.NewRNG(7)
	groups := make([]Group, ng)
	for i := range groups {
		groups[i] = NewGroup(Predicate{"cohort", fmt.Sprintf("g%02d", i)})
	}
	parts := make([]*Table, shards)
	for s := range parts {
		parts[s] = NewTable()
		lo, hi := shardBounds(nq, shards, s)
		for q := lo; q < hi; q++ {
			for l := 0; l < nl; l++ {
				for _, g := range groups {
					if rng.Bernoulli(0.95) {
						parts[s].Set(g, Query(fmt.Sprintf("q%02d", q)), Location(fmt.Sprintf("l%02d", l)), rng.Float64())
					}
				}
			}
		}
	}
	return MergeTables(parts)
}

// TestTableFootprint bounds what one copy of a crawl-sized table costs:
// a serving snapshot seals the evaluator's table by Clone, and every
// cluster node clones its partition. Keyed by three member strings, a
// cell costs about 113 bytes.
func TestTableFootprint(t *testing.T) {
	tbl := crawlTable()
	per := testutil.BytesPerRun(5, func() { tbl.Clone() }) / float64(tbl.Len())
	t.Logf("Clone of %v: %.1f bytes per cell", tbl, per)
	if per > 40 {
		t.Errorf("Clone allocates %.1f bytes per cell, want at most 40", per)
	}
}

// TestTableMemberBound pins the packed key's limit: a dimension holds
// ids below 2^21, and the next member panics naming its dimension
// instead of aliasing another member's cells.
func TestTableMemberBound(t *testing.T) {
	if id := memberID(maxMembers-1, "queries"); id != maxMembers-1 {
		t.Fatalf("last id = %d, want %d", id, maxMembers-1)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2097152 locations") {
			t.Fatalf("panic = %q, want one naming the bound and the locations dimension", msg)
		}
	}()
	memberID(maxMembers, "locations")
}

// tableModel is the reference a Table must agree with: a plain map of
// cells plus the members of each dimension.
type tableModel struct {
	cells  map[Triple]float64
	groups map[string]Group
	qs     map[Query]bool
	ls     map[Location]bool
}

func newTableModel() *tableModel {
	return &tableModel{
		cells:  make(map[Triple]float64),
		groups: make(map[string]Group),
		qs:     make(map[Query]bool),
		ls:     make(map[Location]bool),
	}
}

func (m *tableModel) set(g Group, q Query, l Location, v float64) {
	m.cells[Triple{g.Key(), q, l}] = v
	m.groups[g.Key()] = g
	m.qs[q] = true
	m.ls[l] = true
}

// merge copies o's cells into m; o's values win.
func (m *tableModel) merge(o *tableModel) {
	for tr, v := range o.cells {
		m.set(o.groups[tr.GroupKey], tr.Query, tr.Location, v)
	}
}

func (m *tableModel) clone() *tableModel {
	c := newTableModel()
	c.merge(m)
	return c
}

// mean averages the defined cells of gs × qs × ls, summed in that
// nesting order, as the §3.4 aggregates do.
func (m *tableModel) mean(gs []Group, qs []Query, ls []Location) (float64, bool) {
	var sum float64
	var n int
	for _, g := range gs {
		for _, q := range qs {
			for _, l := range ls {
				if v, ok := m.cells[Triple{g.Key(), q, l}]; ok {
					sum += v
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// members are the probes checkTable reads a table at: they include
// members the table may not hold.
type members struct {
	gs []Group
	qs []Query
	ls []Location
}

// checkTable fails unless tbl answers every read exactly as m does, at
// every probe in p.
func checkTable(t *testing.T, step string, tbl *Table, m *tableModel, p members) {
	t.Helper()
	if tbl.Len() != len(m.cells) {
		t.Fatalf("%s: Len = %d, want %d", step, tbl.Len(), len(m.cells))
	}
	seen := make(map[Triple]bool, len(m.cells))
	tbl.Range(func(tr Triple, v float64) {
		if want, ok := m.cells[tr]; !ok || seen[tr] || v != want {
			t.Fatalf("%s: Range yields %+v = %v (defined %v, repeated %v, want %v)", step, tr, v, ok, seen[tr], want)
		}
		seen[tr] = true
	})
	if len(seen) != len(m.cells) {
		t.Fatalf("%s: Range yields %d cells, want %d", step, len(seen), len(m.cells))
	}
	for _, g := range p.gs {
		for _, q := range p.qs {
			for _, l := range p.ls {
				want, wantOK := m.cells[Triple{g.Key(), q, l}]
				if v, ok := tbl.Get(g, q, l); v != want || ok != wantOK {
					t.Fatalf("%s: Get(%s, %s, %s) = %v, %v; want %v, %v", step, g.Key(), q, l, v, ok, want, wantOK)
				}
				if v, ok := tbl.GetKey(g.Key(), q, l); v != want || ok != wantOK {
					t.Fatalf("%s: GetKey(%s, %s, %s) = %v, %v; want %v, %v", step, g.Key(), q, l, v, ok, want, wantOK)
				}
			}
		}
	}
	var gkeys []string
	for _, g := range tbl.Groups() {
		gkeys = append(gkeys, g.Key())
		if !reflect.DeepEqual(g, m.groups[g.Key()]) {
			t.Fatalf("%s: Groups holds %v, want %v", step, g, m.groups[g.Key()])
		}
	}
	if want := sortedKeys(m.groups); !slices.Equal(gkeys, want) {
		t.Fatalf("%s: Groups = %v, want %v", step, gkeys, want)
	}
	if got, want := tbl.Queries(), sortedKeys(m.qs); !slices.Equal(got, want) {
		t.Fatalf("%s: Queries = %v, want %v", step, got, want)
	}
	if got, want := tbl.Locations(), sortedKeys(m.ls); !slices.Equal(got, want) {
		t.Fatalf("%s: Locations = %v, want %v", step, got, want)
	}
	for _, g := range p.gs {
		want, wantOK := m.groups[g.Key()]
		if got, ok := tbl.GroupByKey(g.Key()); ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: GroupByKey(%s) = %v, %v; want %v, %v", step, g.Key(), got, ok, want, wantOK)
		}
		want1, ok1 := m.mean([]Group{g}, p.qs, p.ls)
		if got, ok := tbl.AggregateGroup(g, p.qs, p.ls); got != want1 || ok != ok1 {
			t.Fatalf("%s: AggregateGroup(%s) = %v, %v; want %v, %v", step, g.Key(), got, ok, want1, ok1)
		}
	}
	for _, q := range p.qs {
		want, wantOK := m.mean(p.gs, []Query{q}, p.ls)
		if got, ok := tbl.AggregateQuery(q, p.gs, p.ls); got != want || ok != wantOK {
			t.Fatalf("%s: AggregateQuery(%s) = %v, %v; want %v, %v", step, q, got, ok, want, wantOK)
		}
	}
	for _, l := range p.ls {
		want, wantOK := m.mean(p.gs, p.qs, []Location{l})
		if got, ok := tbl.AggregateLocation(l, p.gs, p.qs); got != want || ok != wantOK {
			t.Fatalf("%s: AggregateLocation(%s) = %v, %v; want %v, %v", step, l, got, ok, want, wantOK)
		}
	}
}

// TestTableMatchesReferenceModel runs seeded random sequences of writes,
// merges, clones and resets against a Table and the plain-map model,
// comparing every read after every step. The member pool is small, so
// Set overwrites and merged shards overlap; clone independence is
// checked by writing to one side and reading both. It then checks two
// sharded evaluations, the second over recycled shard tables, against
// the single-worker one.
func TestTableMatchesReferenceModel(t *testing.T) {
	pool := members{
		gs: []Group{
			NewGroup(Predicate{"gender", "Male"}),
			NewGroup(Predicate{"gender", "Female"}),
			NewGroup(Predicate{"ethnicity", "Asian"}),
			NewGroup(Predicate{"gender", "Female"}, Predicate{"ethnicity", "Black"}),
		},
		qs: []Query{"cleaning", "moving", "plumbing", "delivery", "yard work"},
		ls: []Location{"Boston, MA", "Chicago, IL", "NYC", "San Francisco, CA"},
	}
	seeds, steps := 20, 60
	if testing.Short() {
		seeds = 5
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := stats.NewRNG(uint64(seed))
		set := func(tbl *Table, m *tableModel, n int) {
			for i := 0; i < n; i++ {
				g := pool.gs[rng.Intn(len(pool.gs))]
				q := pool.qs[rng.Intn(len(pool.qs))]
				l := pool.ls[rng.Intn(len(pool.ls))]
				v := float64(rng.Intn(8)) / 8
				if rng.Bernoulli(0.5) {
					tbl.Set(g, q, l, v)
				} else {
					tbl.SetKey(g.Key(), g, q, l, v)
				}
				m.set(g, q, l, v)
			}
		}
		// shard returns nil, an empty table or a random one, with its model.
		shard := func() (*Table, *tableModel) {
			m := newTableModel()
			switch rng.Intn(4) {
			case 0:
				return nil, m
			case 1:
				return NewTable(), m
			}
			tbl := NewTable()
			set(tbl, m, 1+rng.Intn(12))
			return tbl, m
		}
		tbl, m := NewTable(), newTableModel()
		for step := 0; step < steps; step++ {
			name := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4:
				name += " set"
				set(tbl, m, 1+rng.Intn(6))
			case op < 6:
				name += " Merge"
				o, om := shard()
				tbl.Merge(o)
				m.merge(om)
				if o != nil {
					checkTable(t, name+" (argument)", o, om, pool)
				}
			case op < 8:
				name += " MergeTables"
				shards, models := []*Table{tbl}, []*tableModel{m}
				for i := rng.Intn(4); i > 0; i-- {
					o, om := shard()
					shards, models = append(shards, o), append(models, om)
				}
				rng.Shuffle(len(shards), func(i, j int) {
					shards[i], shards[j] = shards[j], shards[i]
					models[i], models[j] = models[j], models[i]
				})
				merged, mm := MergeTables(shards), newTableModel()
				for i, om := range models {
					mm.merge(om)
					if shards[i] != nil && shards[i] != merged {
						checkTable(t, name+" (shard)", shards[i], om, pool)
					}
				}
				tbl, m = merged, mm
			case op < 9:
				name += " Clone"
				c, cm := tbl.Clone(), m.clone()
				checkTable(t, name+" (copy)", c, cm, pool)
				if rng.Bernoulli(0.5) {
					set(c, cm, 1+rng.Intn(6))
				} else {
					set(tbl, m, 1+rng.Intn(6))
				}
				checkTable(t, name+" (copy after writes)", c, cm, pool)
				if rng.Bernoulli(0.5) {
					tbl, m = c, cm
				}
			default:
				name += " reset"
				tbl.reset()
				m = newTableModel()
			}
			checkTable(t, name, tbl, m, pool)
		}
	}

	// The sharded evaluation at four workers merges four pooled shard
	// tables, so the second run can reuse the ones the first one reset.
	rankings := genRankings(60)
	serial := (&MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureExposure, Workers: 1}).EvaluateAll(rankings, nil)
	m := newTableModel()
	serial.Range(func(tr Triple, v float64) {
		g, _ := serial.GroupByKey(tr.GroupKey)
		m.set(g, tr.Query, tr.Location, v)
	})
	evaluated := members{
		gs: append(slices.Clone(DefaultSchema().Universe()), NewGroup(Predicate{"gender", "Other"})),
		qs: append(serial.Queries(), "absent"),
		ls: append(serial.Locations(), "absent"),
	}
	ev := &MarketplaceEvaluator{Schema: DefaultSchema(), Measure: MeasureExposure, Workers: 4}
	for run := 1; run <= 2; run++ {
		checkTable(t, fmt.Sprintf("EvaluateAll at 4 workers, run %d", run), ev.EvaluateAll(rankings, nil), m, evaluated)
	}
}
