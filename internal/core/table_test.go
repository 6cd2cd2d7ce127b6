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
// 96 queries × 56 locations with 95% of the cells defined.
func crawlTable() *Table {
	const ng, nq, nl = 11, 96, 56
	rng := stats.NewRNG(7)
	groups := make([]Group, ng)
	for i := range groups {
		groups[i] = NewGroup(Predicate{"cohort", fmt.Sprintf("g%02d", i)})
	}
	tbl := NewTable()
	for q := 0; q < nq; q++ {
		for l := 0; l < nl; l++ {
			for _, g := range groups {
				if rng.Bernoulli(0.95) {
					tbl.Set(g, Query(fmt.Sprintf("q%02d", q)), Location(fmt.Sprintf("l%02d", l)), rng.Float64())
				}
			}
		}
	}
	return tbl
}

// TestTableFootprint bounds what one copy of a crawl-sized table costs:
// every cluster node clones its partition, and every refresh clones its
// snapshot's table before editing it. In page-major rows a cell costs its
// 8-byte slot plus shares of its row's defined bits, the page index and
// the dictionaries, about 10 bytes at 95% fill; a hash map of cells cost
// about 32.
func TestTableFootprint(t *testing.T) {
	tbl := crawlTable()
	per := testutil.BytesPerRun(5, func() { tbl.Clone() }) / float64(tbl.Len())
	t.Logf("Clone of %v: %.1f bytes per cell", tbl, per)
	if per > 16 {
		t.Errorf("Clone allocates %.1f bytes per cell, want at most 16", per)
	}
}

// TestTableMemberBound pins the member bound: a dimension holds ids
// below 2^21, and the next member panics naming its dimension.
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

func (m *tableModel) clone() *tableModel {
	c := newTableModel()
	for tr, v := range m.cells {
		c.set(m.groups[tr.GroupKey], tr.Query, tr.Location, v)
	}
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

// checkCells fails unless tbl's Len and Range yield exactly m's cells.
func checkCells(t *testing.T, step string, tbl *Table, m *tableModel) {
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
}

// checkTable fails unless tbl answers every read exactly as m does, at
// every probe in p.
func checkTable(t *testing.T, step string, tbl *Table, m *tableModel, p members) {
	t.Helper()
	checkCells(t, step, tbl, m)
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

// checkSealed fails unless tbl.Sealed() is the sealed copy m describes:
// it answers every read as m does, numbers each dimension's members in key
// order, lays its Cube out (query, location, group) by sorted position
// with 0 for an undefined cell, panics naming its sealed state on Set and
// SetKey, and seals to itself without allocating. It returns the copy.
func checkSealed(t *testing.T, step string, tbl *Table, m *tableModel, p members) *Table {
	t.Helper()
	s := tbl.Sealed()
	step += " (sealed)"
	checkTable(t, step, s, m, p)
	gs, qs, ls := s.Groups(), s.Queries(), s.Locations()
	var gkeys []string
	for _, g := range gs {
		gkeys = append(gkeys, g.Key())
	}
	checkNumbering(t, step, "groups", s.gs, gkeys)
	checkNumbering(t, step, "queries", s.qs, qs)
	checkNumbering(t, step, "locations", s.ls, ls)
	cube := s.Cube()
	if len(cube) != len(gs)*len(qs)*len(ls) {
		t.Fatalf("%s: Cube holds %d values, want %d×%d×%d", step, len(cube), len(gs), len(qs), len(ls))
	}
	for qi, q := range qs {
		for li, l := range ls {
			for gi, g := range gkeys {
				if got, want := cube[(qi*len(ls)+li)*len(gs)+gi], m.cells[Triple{g, q, l}]; got != want {
					t.Fatalf("%s: Cube at (%s, %s, %s) = %v, want %v", step, g, q, l, got, want)
				}
			}
		}
	}
	if again := s.Sealed(); again != s {
		t.Fatalf("%s: Sealed of a sealed table returned a copy", step)
	}
	if allocs := testing.AllocsPerRun(5, func() { s.Sealed() }); allocs != 0 {
		t.Fatalf("%s: Sealed of a sealed table allocates %.0f times, want 0", step, allocs)
	}
	g, q, l := p.gs[0], p.qs[0], p.ls[0]
	for name, write := range map[string]func(){
		"Set":    func() { s.Set(g, q, l, 1) },
		"SetKey": func() { s.SetKey(g.Key(), g, q, l, 1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "sealed") {
					t.Fatalf("%s: %s on a sealed table: panic %q, want one naming the sealed state", step, name, msg)
				}
			}()
			write()
		}()
	}
	checkCells(t, step+" after refused writes", s, m)
	return s
}

// checkNumbering fails unless d numbers exactly the members want, in
// their order.
func checkNumbering[K ~string](t *testing.T, step, dim string, d dict[K], want []K) {
	t.Helper()
	if !slices.Equal(d.keys, want) || len(d.ids) != len(want) {
		t.Fatalf("%s: %s numbered %v, want %v", step, dim, d.keys, want)
	}
	for id, k := range want {
		if d.ids[k] != int32(id) {
			t.Fatalf("%s: %s member %q has id %d, want %d", step, dim, k, d.ids[k], id)
		}
	}
}

// TestTableMatchesReferenceModel runs seeded random sequences of writes
// and clones against a Table and the plain-map model, comparing every
// read after every step. After every step it also checks the table's
// sealed copy (checkSealed), and that the copy's Clone is writable and
// reads as the copy did until written. The member pool is small, so Set
// overwrites; clone independence is checked by writing to one side and
// reading both. Growth sequences then first-Set groups, queries and
// locations after every page of a smaller pool holds a row, so rows widen
// (past 64 groups, into a second word of defined bits) and the page index
// regrids, on either side of a clone taken before the growth. Last, it
// checks the sharded evaluation at four workers against the single-worker
// one.
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
	var rng *stats.RNG
	// set writes n random cells of p's members to tbl and m.
	set := func(tbl *Table, m *tableModel, p members, n int) {
		for i := 0; i < n; i++ {
			g := p.gs[rng.Intn(len(p.gs))]
			q := p.qs[rng.Intn(len(p.qs))]
			l := p.ls[rng.Intn(len(p.ls))]
			v := float64(rng.Intn(8)) / 8
			if rng.Bernoulli(0.5) {
				tbl.Set(g, q, l, v)
			} else {
				tbl.SetKey(g.Key(), g, q, l, v)
			}
			m.set(g, q, l, v)
		}
	}
	// sealed checks tbl's sealed copy, then writes through the copy's
	// Clone, overwriting a cell and adding a member of every dimension,
	// which must leave the copy as it was. It draws nothing from rng, so
	// the growth sequences below stay the ones their seeds give.
	grown := NewGroup(Predicate{"cohort", "added"})
	sealed := func(step string, tbl *Table, m *tableModel, p members) {
		t.Helper()
		s := checkSealed(t, step, tbl, m, p)
		c, cm := s.Clone(), m.clone()
		for _, w := range []struct {
			g Group
			q Query
			l Location
		}{{p.gs[0], p.qs[0], p.ls[0]}, {grown, "added", "added"}} {
			c.Set(w.g, w.q, w.l, 0.3)
			cm.set(w.g, w.q, w.l, 0.3)
		}
		checkTable(t, step+" (clone of sealed after writes)", c, cm, p)
		checkCells(t, step+" (sealed after its clone's writes)", s, m)
	}
	for seed := 1; seed <= seeds; seed++ {
		rng = stats.NewRNG(uint64(seed))
		tbl, m := NewTable(), newTableModel()
		sealed(fmt.Sprintf("seed %d empty", seed), tbl, m, pool)
		for step := 0; step < steps; step++ {
			name := fmt.Sprintf("seed %d step %d", seed, step)
			if rng.Intn(5) < 4 {
				name += " set"
				set(tbl, m, pool, 1+rng.Intn(6))
			} else {
				name += " Clone"
				c, cm := tbl.Clone(), m.clone()
				checkTable(t, name+" (copy)", c, cm, pool)
				if rng.Bernoulli(0.5) {
					set(c, cm, pool, 1+rng.Intn(6))
				} else {
					set(tbl, m, pool, 1+rng.Intn(6))
				}
				checkTable(t, name+" (copy after writes)", c, cm, pool)
				if rng.Bernoulli(0.5) {
					tbl, m = c, cm
				}
			}
			checkTable(t, name, tbl, m, pool)
			sealed(name, tbl, m, pool)
		}
	}

	var big members
	for i := 0; i < 70; i++ {
		big.gs = append(big.gs, NewGroup(Predicate{"cohort", fmt.Sprintf("g%02d", i)}))
	}
	for i := 0; i < 12; i++ {
		big.qs = append(big.qs, Query(fmt.Sprintf("q%02d", i)))
		big.ls = append(big.ls, Location(fmt.Sprintf("l%02d", i)))
	}
	prefix := func(g, q, l int) members { return members{big.gs[:g], big.qs[:q], big.ls[:l]} }
	wide := 0 // growth steps whose grown table holds more than 64 groups
	for seed := 1; seed <= seeds/2; seed++ {
		rng = stats.NewRNG(uint64(1000 + seed))
		tbl, m := NewTable(), newTableModel()
		g, q, l := 1+rng.Intn(3), 2+rng.Intn(3), 2+rng.Intn(3)
		for _, pq := range big.qs[:q] {
			for _, pl := range big.ls[:l] {
				set(tbl, m, members{big.gs[:g], []Query{pq}, []Location{pl}}, 1)
			}
		}
		for step := 0; step < 12; step++ {
			name := fmt.Sprintf("growth seed %d step %d", seed, step)
			c, cm := tbl.Clone(), m.clone()
			before := prefix(g, q, l)
			switch rng.Intn(3) {
			case 0:
				g = min(len(big.gs), g+1+rng.Intn(40))
			case 1:
				q = min(len(big.qs), q+1+rng.Intn(3))
			default:
				l = min(len(big.ls), l+1+rng.Intn(3))
			}
			after := prefix(g, q, l)
			grower, gm, writer, wm := tbl, m, c, cm
			if rng.Bernoulli(0.5) {
				grower, gm, writer, wm = c, cm, tbl, m
			}
			for i := len(before.gs); i < g; i++ {
				set(grower, gm, members{after.gs[i : i+1], after.qs, after.ls}, 1)
			}
			for i := len(before.qs); i < q; i++ {
				set(grower, gm, members{after.gs, after.qs[i : i+1], after.ls}, 1)
			}
			for i := len(before.ls); i < l; i++ {
				set(grower, gm, members{after.gs, after.qs, after.ls[i : i+1]}, 1)
			}
			set(grower, gm, after, 1+rng.Intn(20))
			set(writer, wm, before, 1+rng.Intn(20))
			checkTable(t, name+" (grown)", grower, gm, big)
			checkTable(t, name+" (written)", writer, wm, big)
			sealed(name+" (grown)", grower, gm, after)
			if len(grower.Groups()) > 64 {
				wide++
			}
			if rng.Bernoulli(0.5) {
				tbl, m = grower, gm
			} else {
				tbl, m = writer, wm
				g, q, l = len(before.gs), len(before.qs), len(before.ls)
			}
		}
	}
	if wide == 0 {
		t.Fatal("no growth sequence widened its rows past 64 groups")
	}

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
	tbl := ev.EvaluateAll(rankings, nil)
	checkTable(t, "EvaluateAll at 4 workers", tbl, m, evaluated)
	checkSealed(t, "EvaluateAll at 4 workers", tbl, m, evaluated)
}
