package index_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/stats"
	"fairjob/internal/testutil"
	"fairjob/internal/topk"
)

func sampleTable() *core.Table {
	t := core.NewTable()
	male := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"})
	female := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"})
	t.Set(male, "q1", "l1", 0.2)
	t.Set(female, "q1", "l1", 0.8)
	t.Set(male, "q2", "l1", 0.5)
	t.Set(female, "q2", "l1", 0.4)
	t.Set(male, "q1", "l2", 0.9)
	// female@q1,l2 and both@q2,l2 left undefined: completion fills 0.
	return t
}

func TestGroupIndexSortedByUnfairness(t *testing.T) {
	gi := index.BuildGroupIndex(sampleTable())
	i, ok := gi.ListOf("q1", "l1")
	if !ok {
		t.Fatal("missing list")
	}
	top, _ := gi.At(i, 0)
	if top.Key != "gender=Female" || top.Value != 0.8 {
		t.Fatalf("top = %v", top)
	}
}

func TestGroupIndexCompletion(t *testing.T) {
	gi := index.BuildGroupIndex(sampleTable())
	// female@q1,l2 was undefined -> completed with 0.
	v, ok := gi.Find(list(gi.ListOf("q1", "l2")), "gender=Female")
	if !ok || v != 0 {
		t.Fatalf("completed value = %v, %v", v, ok)
	}
	// Every list has every group.
	for _, q := range gi.Queries {
		for _, l := range gi.Locations {
			if got := len(entries(gi, list(gi.ListOf(q, l)))); got != len(gi.GroupKeys) {
				t.Fatalf("list (%s,%s) has %d entries, want %d", q, l, got, len(gi.GroupKeys))
			}
		}
	}
}

func TestGroupIndexGroupResolution(t *testing.T) {
	gi := index.BuildGroupIndex(sampleTable())
	g, ok := gi.Group("gender=Male")
	if !ok || g.Name() != "Male" {
		t.Fatalf("Group = %v, %v", g, ok)
	}
	if _, ok := gi.Group("nope"); ok {
		t.Fatal("unknown key resolved")
	}
}

func TestGroupIndexMissingPair(t *testing.T) {
	gi := index.BuildGroupIndex(sampleTable())
	if _, ok := gi.ListOf("zzz", "l1"); ok {
		t.Fatal("unknown pair should not resolve")
	}
}

func TestQueryIndex(t *testing.T) {
	qi := index.BuildQueryIndex(sampleTable())
	i, ok := qi.ListOf("gender=Male", "l1")
	if !ok || len(entries(qi, i)) != 2 {
		t.Fatalf("list %d, %v", i, ok)
	}
	top, _ := qi.At(i, 0)
	if top.Key != "q2" || top.Value != 0.5 {
		t.Fatalf("top query = %v", top)
	}
	// Completion: male@q2,l2 undefined -> 0.
	if v, ok := qi.Find(list(qi.ListOf("gender=Male", "l2")), "q2"); !ok || v != 0 {
		t.Fatalf("completed = %v, %v", v, ok)
	}
}

func TestLocationIndex(t *testing.T) {
	li := index.BuildLocationIndex(sampleTable())
	i, ok := li.ListOf("gender=Male", "q1")
	if !ok || len(entries(li, i)) != 2 {
		t.Fatalf("list %d, %v", i, ok)
	}
	top, _ := li.At(i, 0)
	if top.Key != "l2" || top.Value != 0.9 {
		t.Fatalf("top location = %v", top)
	}
}

func TestIndexDimsSorted(t *testing.T) {
	gi := index.BuildGroupIndex(sampleTable())
	if len(gi.Queries) != 2 || gi.Queries[0] != "q1" {
		t.Fatalf("Queries = %v", gi.Queries)
	}
	if len(gi.Locations) != 2 || gi.Locations[0] != "l1" {
		t.Fatalf("Locations = %v", gi.Locations)
	}
	if len(gi.GroupKeys) != 2 || gi.GroupKeys[0] != "gender=Female" {
		t.Fatalf("GroupKeys = %v", gi.GroupKeys)
	}
}

// TestIndexInvariantsProperty cross-checks every list of all three
// families against the table they were built from. For random tables
// whose cells are Set in random order (so groups, queries and locations
// are numbered out of key order), with values drawn from four levels (so
// ties are common, also with the 0 of undefined cells) and one whole
// (query, location) page left out, every list must hold each member of
// its dimension once, in descending value with ties by ascending key,
// and both At and Find must read each member's cell: Table.GetKey's value
// where defined and 0 where not (the completion invariant). The families
// built from the table's sealed copy, which they read in place, must hold
// every list identically: the same members in the same order, and the
// same values through At and Find.
func TestIndexInvariantsProperty(t *testing.T) {
	f := func(seed uint64, ng, nq, nl uint8) bool {
		rng := stats.NewRNG(seed)
		g, q, l := int(ng%6)+1, int(nq%5)+1, int(nl%5)+1
		type cell struct {
			g    core.Group
			q, l int
			v    float64
		}
		var cells []cell
		for gi := 0; gi < g; gi++ {
			grp := core.NewGroup(core.Predicate{Attr: "g", Value: fmt.Sprintf("g%d", gi)})
			for qi := 0; qi < q; qi++ {
				for li := 0; li < l; li++ {
					missing := q > 1 && l > 1 && qi == q-1 && li == l-1
					// The missing page's query and location keep a cell
					// elsewhere, so the page is one the families index.
					kept := gi == 0 && (qi == q-1 && li == 0 || qi == 0 && li == l-1)
					if !missing && (kept || rng.Bernoulli(0.7)) {
						cells = append(cells, cell{grp, qi, li, float64(rng.Intn(4)) / 4})
					}
				}
			}
		}
		tbl := core.NewTable()
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			tbl.Set(c.g, core.Query(fmt.Sprintf("q%d", c.q)), core.Location(fmt.Sprintf("l%d", c.l)), c.v)
		}
		if tbl.Len() == 0 {
			return true
		}
		gi, qi, li := index.BuildAll(tbl)
		if q > 1 && l > 1 && (!slices.Contains(gi.Queries, core.Query(fmt.Sprintf("q%d", q-1))) || !slices.Contains(gi.Locations, core.Location(fmt.Sprintf("l%d", l-1)))) {
			t.Errorf("seed %d: the missing page's query or location dropped out of the dimensions", seed)
			return false
		}
		cellOf := func(g string, q core.Query, l core.Location) float64 {
			v, ok := tbl.GetKey(g, q, l)
			if !ok {
				return 0
			}
			return v
		}
		for _, qq := range gi.Queries {
			for _, ll := range gi.Locations {
				err := checkList(gi, list(gi.ListOf(qq, ll)), gi.GroupKeys, func(g string) float64 { return cellOf(g, qq, ll) })
				if err != nil {
					t.Errorf("seed %d: group list (%s, %s): %v", seed, qq, ll, err)
					return false
				}
			}
		}
		for _, gg := range gi.GroupKeys {
			for _, ll := range gi.Locations {
				err := checkList(qi, list(qi.ListOf(gg, ll)), strs(gi.Queries), func(q string) float64 { return cellOf(gg, core.Query(q), ll) })
				if err != nil {
					t.Errorf("seed %d: query list (%s, %s): %v", seed, gg, ll, err)
					return false
				}
			}
			for _, qq := range gi.Queries {
				err := checkList(li, list(li.ListOf(gg, qq)), strs(gi.Locations), func(l string) float64 { return cellOf(gg, qq, core.Location(l)) })
				if err != nil {
					t.Errorf("seed %d: location list (%s, %s): %v", seed, gg, qq, err)
					return false
				}
			}
		}
		sgi, sqi, sli := index.BuildAll(tbl.Sealed())
		if !slices.Equal(sgi.GroupKeys, gi.GroupKeys) || !slices.Equal(sgi.Queries, gi.Queries) || !slices.Equal(sgi.Locations, gi.Locations) {
			t.Errorf("seed %d: the sealed table's dimensions differ", seed)
			return false
		}
		for _, qq := range gi.Queries {
			for _, ll := range gi.Locations {
				if err := sameList(sgi, list(sgi.ListOf(qq, ll)), gi, list(gi.ListOf(qq, ll)), gi.GroupKeys); err != nil {
					t.Errorf("seed %d: sealed group list (%s, %s): %v", seed, qq, ll, err)
					return false
				}
			}
		}
		for _, gg := range gi.GroupKeys {
			for _, ll := range gi.Locations {
				if err := sameList(sqi, list(sqi.ListOf(gg, ll)), qi, list(qi.ListOf(gg, ll)), strs(gi.Queries)); err != nil {
					t.Errorf("seed %d: sealed query list (%s, %s): %v", seed, gg, ll, err)
					return false
				}
			}
			for _, qq := range gi.Queries {
				if err := sameList(sli, list(sli.ListOf(gg, qq)), li, list(li.ListOf(gg, qq)), strs(gi.Locations)); err != nil {
					t.Errorf("seed %d: sealed location list (%s, %s): %v", seed, gg, qq, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// list returns a ListOf result's list number, or -1 when the pair was
// not indexed.
func list(i int, ok bool) int {
	if !ok {
		return -1
	}
	return i
}

// entries returns list i of fam through sorted access, up to the first
// position At refuses.
func entries(fam topk.ListSource, i int) []index.Entry {
	var out []index.Entry
	for pos := 0; ; pos++ {
		e, ok := fam.At(i, pos)
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// checkList reports how list i of fam, -1 when not indexed, departs from
// a complete list over the members keys whose member k has value
// want(k): each member once, in descending value with ties by ascending
// key, and At and Find both reading want.
func checkList(fam topk.ListSource, i int, keys []string, want func(string) float64) error {
	if i < 0 {
		return fmt.Errorf("not indexed")
	}
	if i >= fam.NumLists() {
		return fmt.Errorf("list %d of %d", i, fam.NumLists())
	}
	if fam.ListLen() != len(keys) {
		return fmt.Errorf("ListLen = %d, want %d", fam.ListLen(), len(keys))
	}
	members := make(map[string]bool, len(keys))
	for _, k := range keys {
		members[k] = true
	}
	var prev index.Entry
	for pos := range keys {
		e, ok := fam.At(i, pos)
		switch {
		case !ok:
			return fmt.Errorf("At(%d) failed", pos)
		case !members[e.Key]:
			return fmt.Errorf("At(%d) = %v: not a member, or seen twice", pos, e)
		case e.Value != want(e.Key):
			return fmt.Errorf("At(%d) = %v, want value %v", pos, e, want(e.Key))
		case pos > 0 && (e.Value > prev.Value || e.Value == prev.Value && e.Key < prev.Key):
			return fmt.Errorf("At(%d) = %v follows %v", pos, e, prev)
		}
		members[e.Key] = false
		prev = e
	}
	for _, k := range keys {
		if v, ok := fam.Find(i, k); !ok || v != want(k) {
			return fmt.Errorf("Find(%s) = %v, %v; want %v, true", k, v, ok, want(k))
		}
	}
	if v, ok := fam.Find(i, "absent"); ok {
		return fmt.Errorf("Find of a non-member = %v, true", v)
	}
	if _, ok := fam.At(i, len(keys)); ok {
		return fmt.Errorf("At past the end succeeded")
	}
	return nil
}

// sameList reports how list i of got departs from list j of want, lists
// over the members keys: in their postings, their order and values, and
// in Find of every member.
func sameList(got topk.ListSource, i int, want topk.ListSource, j int, keys []string) error {
	if i < 0 {
		return fmt.Errorf("not indexed")
	}
	if g, w := entries(got, i), entries(want, j); !slices.Equal(g, w) {
		return fmt.Errorf("postings %v, want %v", g, w)
	}
	for _, k := range keys {
		g, gok := got.Find(i, k)
		w, wok := want.Find(j, k)
		if g != w || gok != wok {
			return fmt.Errorf("Find(%s) = %v, %v; want %v, %v", k, g, gok, w, wok)
		}
	}
	return nil
}

// strs converts a dimension to its member keys.
func strs[T ~string](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = string(x)
	}
	return out
}

// TestBuildAllIgnoresFillOrder builds the index families over two tables
// holding the same cells, one filled in key order and one in reverse key
// order, so their member ids run in opposite directions. Every list must
// come out equal: a list is laid out by sorted position, never by the
// table's ids.
func TestBuildAllIgnoresFillOrder(t *testing.T) {
	type cell struct {
		g core.Group
		q core.Query
		l core.Location
		v float64
	}
	rng := stats.NewRNG(9)
	var cells []cell // in key order
	for g := 0; g < 4; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%d", g)})
		for q := 0; q < 6; q++ {
			for l := 0; l < 5; l++ {
				if rng.Bernoulli(0.8) {
					cells = append(cells, cell{grp, core.Query(fmt.Sprintf("q%d", q)), core.Location(fmt.Sprintf("l%d", l)), rng.Float64()})
				}
			}
		}
	}
	fwd, rev := core.NewTable(), core.NewTable()
	for i := range cells {
		c, r := cells[i], cells[len(cells)-1-i]
		fwd.Set(c.g, c.q, c.l, c.v)
		rev.Set(r.g, r.q, r.l, r.v)
	}
	g1, q1, l1 := index.BuildAll(fwd)
	g2, q2, l2 := index.BuildAll(rev)
	if !slices.Equal(g1.GroupKeys, g2.GroupKeys) || !slices.Equal(g1.Queries, g2.Queries) || !slices.Equal(g1.Locations, g2.Locations) {
		t.Fatalf("dimensions differ: %v %v %v vs %v %v %v", g1.GroupKeys, g1.Queries, g1.Locations, g2.GroupKeys, g2.Queries, g2.Locations)
	}
	same := func(family string, a, b topk.ListSource) {
		t.Helper()
		if a.NumLists() != b.NumLists() {
			t.Fatalf("%s lists: key order gives %d, reverse key order %d", family, a.NumLists(), b.NumLists())
		}
		for i := range a.NumLists() {
			if ea, eb := entries(a, i), entries(b, i); !slices.Equal(ea, eb) {
				t.Fatalf("%s list %d: key order gives %v, reverse key order %v", family, i, ea, eb)
			}
		}
	}
	same("group", g1, g2)
	same("query", q1, q2)
	same("location", l1, l2)
}

// footprintTable is a generated table with the crawl's eleven groups,
// 24 queries and 14 locations, 80% of its cells defined, with the number
// of lists and postings its three index families hold.
func footprintTable() (tbl *core.Table, lists, postings int) {
	const ng, nq, nl = 11, 24, 14
	rng := stats.NewRNG(5)
	tbl = core.NewTable()
	for g := 0; g < ng; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%02d", g)})
		for q := 0; q < nq; q++ {
			for l := 0; l < nl; l++ {
				if rng.Bernoulli(0.8) {
					tbl.Set(grp, core.Query(fmt.Sprintf("q%02d", q)), core.Location(fmt.Sprintf("l%02d", l)), rng.Float64())
				}
			}
		}
	}
	return tbl, nq*nl + ng*nl + ng*nq, 3 * ng * nq * nl
}

// TestBuildAllFootprint pins the columnar layout's memory on a table that
// is not sealed: BuildAll allocates a constant number of objects per
// family, none per list, and at most 9 bytes per posting: 4 of order, a
// list's 4-byte cube position over its members, and the sealed copy the
// families read in place, a third of its 8 bytes of value per cell plus
// its defined bits, page index and dictionaries. A 16-byte header per
// list costs about 1.1 more, values kept per family about 15, and a map
// and an entry slice per list about 70.
func TestBuildAllFootprint(t *testing.T) {
	tbl, lists, postings := footprintTable()
	const perFamily = 40
	build := func() { index.BuildAll(tbl) }
	allocs := testing.AllocsPerRun(10, build)
	per := testutil.BytesPerRun(10, build) / float64(postings)
	t.Logf("BuildAll: %.0f objects for %d lists, %.1f bytes per posting", allocs, lists, per)
	if allocs > 3*perFamily {
		t.Errorf("BuildAll allocates %.0f objects for %d lists; want at most %d per family", allocs, lists, perFamily)
	}
	if per > 9 {
		t.Errorf("BuildAll allocates %.1f bytes per posting, want at most 9", per)
	}
}

// TestBuildAllReadsSealedTableInPlace pins that the families read a
// sealed table's values where they lie: BuildAll on a sealed table
// allocates its orders, cube positions and dictionaries, about 5.3 bytes
// per posting, and no value cube, which would add 8 bytes per cell, a
// third of them per posting: about 8.
func TestBuildAllReadsSealedTableInPlace(t *testing.T) {
	tbl, _, postings := footprintTable()
	sealed := tbl.Sealed()
	per := testutil.BytesPerRun(10, func() { index.BuildAll(sealed) }) / float64(postings)
	t.Logf("BuildAll of a sealed table: %.2f bytes per posting", per)
	if per > 5.5 {
		t.Errorf("BuildAll of a sealed table allocates %.2f bytes per posting, want at most 5.5: is it copying the values?", per)
	}
}

// TestBuildAllKeepsOnlyTheCube pins what the families of a table that is
// not sealed keep alive. BuildAll seals a copy of the table, and of it
// the families keep only the value cube they read, 8 bytes a cell, beside
// their own orders, 4 bytes a posting and so 12 a cell, their lists' cube
// positions, 4 bytes a list, and dictionaries. The table has two groups,
// so the copy's other parts would show: its defined bits and page index
// take 12 bytes a page, 6 a cell, and it has dictionaries of its own. The
// families alone hold about 24 bytes a cell, and with the whole copy
// about 31.
func TestBuildAllKeepsOnlyTheCube(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector's shadow memory and pool drops blur the live heap")
	}
	const ng, nq, nl = 2, 64, 64
	rng := stats.NewRNG(7)
	tbl := core.NewTable()
	for g := 0; g < ng; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%d", g)})
		for q := 0; q < nq; q++ {
			for l := 0; l < nl; l++ {
				tbl.Set(grp, core.Query(fmt.Sprintf("q%02d", q)), core.Location(fmt.Sprintf("l%02d", l)), rng.Float64())
			}
		}
	}
	base := liveHeap()
	gi, qi, li := index.BuildAll(tbl)
	per := (float64(liveHeap()) - float64(base)) / float64(tbl.Len())
	runtime.KeepAlive(gi)
	runtime.KeepAlive(qi)
	runtime.KeepAlive(li)
	t.Logf("the families of %d cells hold %.1f bytes a cell", tbl.Len(), per)
	if per > 26 {
		t.Errorf("the families hold %.1f bytes a cell, want at most 26: do they keep the whole sealed table?", per)
	}
}

// liveHeap returns the bytes of live heap after two full collections:
// the second empties the pools the first only demoted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
