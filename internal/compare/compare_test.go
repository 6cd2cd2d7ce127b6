package compare

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/stats"
	"fairjob/internal/testutil"
)

// tableForCompare builds a table shaped like the paper's Table 4 scenario:
// overall, Females are treated less fairly than Males, but the order
// reverses in Oklahoma City and Salt Lake City.
func tableForCompare() *core.Table {
	male := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"})
	female := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"})
	t := core.NewTable()
	set := func(g core.Group, q core.Query, l core.Location, v float64) { t.Set(g, q, l, v) }

	// Three locations, two queries.
	// NYC and Chicago: females worse. OKC: males worse (reversal).
	for _, q := range []core.Query{"cleaning", "handyman"} {
		set(male, q, "NYC", 0.30)
		set(female, q, "NYC", 0.70)
		set(male, q, "Chicago", 0.20)
		set(female, q, "Chicago", 0.60)
		set(male, q, "OKC", 0.85)
		set(female, q, "OKC", 0.73)
	}
	return t
}

func maleKey() string   { return core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"}).Key() }
func femaleKey() string { return core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"}).Key() }

func TestGroupComparisonByLocation(t *testing.T) {
	c := New(tableForCompare())
	cmp, err := c.Groups(maleKey(), femaleKey(), ByLocation, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	// Overall: male avg = (0.3+0.2+0.85)/3 = 0.45; female = (0.7+0.6+0.73)/3 ≈ 0.6767.
	if !testutil.Near(cmp.Overall1, 0.45, 1e-9) || !testutil.Near(cmp.Overall2, 0.676667, 1e-5) {
		t.Fatalf("overall = %v / %v", cmp.Overall1, cmp.Overall2)
	}
	if len(cmp.All) != 3 {
		t.Fatalf("All has %d rows", len(cmp.All))
	}
	if len(cmp.Reversed) != 1 || cmp.Reversed[0].B != "OKC" {
		t.Fatalf("Reversed = %+v", cmp.Reversed)
	}
	if !testutil.Near(cmp.Reversed[0].V1, 0.85, 1e-9) || !testutil.Near(cmp.Reversed[0].V2, 0.73, 1e-9) {
		t.Fatalf("reversal values = %+v", cmp.Reversed[0])
	}
}

func TestGroupComparisonByQueryNoReversal(t *testing.T) {
	c := New(tableForCompare())
	cmp, err := c.Groups(maleKey(), femaleKey(), ByQuery, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	// Both queries have identical per-gender values, same direction as
	// overall: no reversal.
	if len(cmp.Reversed) != 0 {
		t.Fatalf("unexpected reversals: %+v", cmp.Reversed)
	}
}

func TestGroupComparisonInvalidBreakdown(t *testing.T) {
	c := New(tableForCompare())
	if _, err := c.Groups(maleKey(), femaleKey(), ByGroup, Scope{}); err == nil {
		t.Fatal("breakdown by group should be rejected")
	}
}

func TestQueryComparisonByGroup(t *testing.T) {
	// Build a table where handyman is worse than cleaning overall, but
	// for Females the order flips.
	male := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"})
	female := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"})
	tbl := core.NewTable()
	tbl.Set(male, "cleaning", "NYC", 0.2)
	tbl.Set(male, "handyman", "NYC", 0.9)
	tbl.Set(female, "cleaning", "NYC", 0.6)
	tbl.Set(female, "handyman", "NYC", 0.5)
	c := New(tbl)

	cmp, err := c.Queries("cleaning", "handyman", ByGroup, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	// Overall: cleaning = 0.4, handyman = 0.7.
	if !testutil.Near(cmp.Overall1, 0.4, 1e-9) || !testutil.Near(cmp.Overall2, 0.7, 1e-9) {
		t.Fatalf("overall = %v / %v", cmp.Overall1, cmp.Overall2)
	}
	if len(cmp.Reversed) != 1 || cmp.Reversed[0].B != female.Key() {
		t.Fatalf("Reversed = %+v", cmp.Reversed)
	}
}

func TestQueryComparisonByLocation(t *testing.T) {
	male := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"})
	tbl := core.NewTable()
	tbl.Set(male, "q1", "l1", 0.2)
	tbl.Set(male, "q2", "l1", 0.8)
	tbl.Set(male, "q1", "l2", 0.9)
	tbl.Set(male, "q2", "l2", 0.3)
	c := New(tbl)
	cmp, err := c.Queries("q1", "q2", ByLocation, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	// Overall: q1 = 0.55, q2 = 0.55 — equal, so any strict difference in
	// a breakdown counts as differing from the overall tie.
	if len(cmp.Reversed) != 2 {
		t.Fatalf("Reversed = %+v", cmp.Reversed)
	}
	if _, err := c.Queries("q1", "q2", ByQuery, Scope{}); err == nil {
		t.Fatal("breakdown by query should be rejected")
	}
}

func TestLocationComparisonByQuery(t *testing.T) {
	// SF fairer than Chicago overall, but the trend inverts for
	// "organize" jobs — the paper's Table 15 shape.
	g := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"})
	tbl := core.NewTable()
	tbl.Set(g, "clean", "SF", 0.1)
	tbl.Set(g, "clean", "Chicago", 0.5)
	tbl.Set(g, "organize", "SF", 0.4)
	tbl.Set(g, "organize", "Chicago", 0.2)
	c := New(tbl)
	// Overall: SF = 0.25, Chicago = 0.35 — SF fairer; "organize" inverts.
	cmp, err := c.Locations("SF", "Chicago", ByQuery, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Reversed) != 1 || cmp.Reversed[0].B != "organize" {
		t.Fatalf("Reversed = %+v", cmp.Reversed)
	}
	if _, err := c.Locations("SF", "Chicago", ByLocation, Scope{}); err == nil {
		t.Fatal("breakdown by location should be rejected")
	}
}

func TestLocationComparisonByGroup(t *testing.T) {
	male := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"})
	female := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"})
	tbl := core.NewTable()
	tbl.Set(male, "q", "l1", 0.1)
	tbl.Set(male, "q", "l2", 0.9)
	tbl.Set(female, "q", "l1", 0.8)
	tbl.Set(female, "q", "l2", 0.2)
	c := New(tbl)
	cmp, err := c.Locations("l1", "l2", ByGroup, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	// Overall: l1 = 0.45, l2 = 0.55. For males l1 < l2 (same direction),
	// for females l1 > l2 (reversed).
	if len(cmp.Reversed) != 1 || cmp.Reversed[0].B != female.Key() {
		t.Fatalf("Reversed = %+v", cmp.Reversed)
	}
}

func TestScopeRestriction(t *testing.T) {
	c := New(tableForCompare())
	// Restrict to OKC only: overall becomes the OKC comparison, so OKC
	// itself no longer reverses.
	cmp, err := c.Groups(maleKey(), femaleKey(), ByLocation, Scope{Locations: []core.Location{"OKC"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.All) != 1 || len(cmp.Reversed) != 0 {
		t.Fatalf("scoped comparison = %+v", cmp)
	}
	if !testutil.Near(cmp.Overall1, 0.85, 1e-9) {
		t.Fatalf("scoped overall = %v", cmp.Overall1)
	}
}

// constructors builds a Comparer over a table every way a caller can.
var constructors = []struct {
	name  string
	build func(*core.Table) *Comparer
}{
	{"New", New},
	{"NewDefinedOnly", NewDefinedOnly},
	{"NewDefinedOnlyWith", func(t *core.Table) *Comparer { return NewDefinedOnlyWith(index.BuildGroupIndex(t), t) }},
}

// TestUnindexedScopeErrors pins the operand rule: a query or location the
// table does not hold fails with the same error, naming the first pair
// the walk would visit, whatever the constructor and semantics.
func TestUnindexedScopeErrors(t *testing.T) {
	cases := []struct {
		name string
		run  func(c *Comparer) (*Comparison, error)
		want string
	}{
		{"location in scope", func(c *Comparer) (*Comparison, error) {
			return c.Groups(maleKey(), femaleKey(), ByLocation, Scope{Locations: []core.Location{"Atlantis"}})
		}, "compare: pair (cleaning, Atlantis) not indexed"},
		{"query operand", func(c *Comparer) (*Comparison, error) {
			return c.Queries("nope", "handyman", ByLocation, Scope{})
		}, "compare: pair (nope, Chicago) not indexed"},
		{"location operand", func(c *Comparer) (*Comparison, error) {
			return c.Locations("OKC", "Atlantis", ByQuery, Scope{})
		}, "compare: pair (cleaning, Atlantis) not indexed"},
		{"second query in scope", func(c *Comparer) (*Comparison, error) {
			return c.Groups(maleKey(), femaleKey(), ByLocation, Scope{Queries: []core.Query{"cleaning", "nope"}})
		}, "compare: pair (nope, Chicago) not indexed"},
		{"query and location in scope", func(c *Comparer) (*Comparison, error) {
			return c.Groups(maleKey(), femaleKey(), ByQuery, Scope{Queries: []core.Query{"cleaning", "nope"}, Locations: []core.Location{"NYC", "Atlantis"}})
		}, "compare: pair (cleaning, Atlantis) not indexed"},
	}
	for _, k := range constructors {
		c := k.build(tableForCompare())
		for _, tc := range cases {
			if _, err := tc.run(c); err == nil || err.Error() != tc.want {
				t.Errorf("%s, unindexed %s: err = %v, want %q", k.name, tc.name, err, tc.want)
			}
		}
	}
}

func TestUnknownGroupReadsAsZero(t *testing.T) {
	// A group key absent from the table aggregates to 0 everywhere —
	// undefined under either semantics — rather than erroring.
	for _, k := range constructors {
		cmp, err := k.build(tableForCompare()).Groups("gender=Nonbinary", femaleKey(), ByLocation, Scope{})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if cmp.Overall1 != 0 {
			t.Errorf("%s: unknown group overall = %v", k.name, cmp.Overall1)
		}
	}
}

// TestComparisonAccesses pins Comparison.Accesses, one per cell read, to
// its closed form 2·(|side1| + |side2|): each side is read once for its
// overall aggregate and once more across the breakdown members that
// partition it. |side| is the product of the side's scope axes, here
// |G| = 3, |Q| = 4 and |L| = 5 with some cells undefined, which moves no
// count.
func TestComparisonAccesses(t *testing.T) {
	tbl := core.NewTable()
	rng := stats.NewRNG(5)
	var gks []string
	for g := 0; g < 3; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%d", g)})
		gks = append(gks, grp.Key())
		for q := 0; q < 4; q++ {
			for l := 0; l < 5; l++ {
				if rng.Float64() < 0.8 {
					tbl.Set(grp, core.Query(fmt.Sprintf("q%d", q)), core.Location(fmt.Sprintf("l%d", l)), rng.Float64())
				}
			}
		}
	}
	const G, Q, L = 3, 4, 5
	cases := []struct {
		name string
		run  func(c *Comparer) (*Comparison, error)
		want int
	}{
		{"groups by query", func(c *Comparer) (*Comparison, error) { return c.Groups(gks[0], gks[1], ByQuery, Scope{}) }, 2 * (Q*L + Q*L)},
		{"groups by location", func(c *Comparer) (*Comparison, error) { return c.Groups(gks[0], gks[1], ByLocation, Scope{}) }, 2 * (Q*L + Q*L)},
		{"queries by group", func(c *Comparer) (*Comparison, error) { return c.Queries("q0", "q1", ByGroup, Scope{}) }, 2 * (G*L + G*L)},
		{"queries by location", func(c *Comparer) (*Comparison, error) { return c.Queries("q0", "q1", ByLocation, Scope{}) }, 2 * (G*L + G*L)},
		{"locations by group", func(c *Comparer) (*Comparison, error) { return c.Locations("l0", "l1", ByGroup, Scope{}) }, 2 * (G*Q + G*Q)},
		{"locations by query", func(c *Comparer) (*Comparison, error) { return c.Locations("l0", "l1", ByQuery, Scope{}) }, 2 * (G*Q + G*Q)},
		{"query sets by group", func(c *Comparer) (*Comparison, error) {
			return c.QuerySets("a", "b", []core.Query{"q0", "q1"}, []core.Query{"q2"}, ByGroup, Scope{})
		}, 2 * (G*2*L + G*1*L)},
		{"query sets by location", func(c *Comparer) (*Comparison, error) {
			return c.QuerySets("a", "b", []core.Query{"q0", "q1"}, []core.Query{"q2"}, ByLocation, Scope{})
		}, 2 * (G*2*L + G*1*L)},
		{"groups by location, scoped", func(c *Comparer) (*Comparison, error) {
			return c.Groups(gks[0], gks[2], ByLocation, Scope{Queries: []core.Query{"q1", "q3"}, Locations: []core.Location{"l0", "l2", "l4"}})
		}, 2 * (2*3 + 2*3)},
	}
	for _, k := range constructors {
		c := k.build(tbl)
		for _, tc := range cases {
			cmp, err := tc.run(c)
			if err != nil {
				t.Fatalf("%s, %s: %v", k.name, tc.name, err)
			}
			if cmp.Accesses != tc.want {
				t.Errorf("%s, %s: %d accesses, want %d", k.name, tc.name, cmp.Accesses, tc.want)
			}
		}
	}
}

// TestComparisonAllocations pins a compare's allocations on a table
// whose breakdown axes hold 52 queries and 56 locations: the result, its
// All rows sized once to the breakdown axis, and its Reversed rows (22
// to 26 of them) sized once after the breakdown loop. Growing All by
// append took six more, and growing Reversed by append five more.
func TestComparisonAllocations(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	tbl := core.NewTable()
	rng := stats.NewRNG(3)
	var gks []string
	for g := 0; g < 3; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%d", g)})
		gks = append(gks, grp.Key())
		for q := 0; q < 52; q++ {
			for l := 0; l < 56; l++ {
				if rng.Float64() < 0.95 {
					tbl.Set(grp, core.Query(fmt.Sprintf("q%02d", q)), core.Location(fmt.Sprintf("l%02d", l)), rng.Float64())
				}
			}
		}
	}
	const maxAllocs = 3
	for _, k := range constructors {
		c := k.build(tbl)
		for _, tc := range []struct {
			name string
			run  func() (*Comparison, error)
		}{
			{"groups by location", func() (*Comparison, error) { return c.Groups(gks[0], gks[1], ByLocation, Scope{}) }},
			{"locations by query", func() (*Comparison, error) { return c.Locations("l00", "l01", ByQuery, Scope{}) }},
		} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := tc.run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > maxAllocs {
				t.Errorf("%s, %s: %.0f allocations, want at most %d", k.name, tc.name, allocs, maxAllocs)
			}
		}
	}
}

func TestReversedPredicate(t *testing.T) {
	cases := []struct {
		o1, o2, b1, b2 float64
		want           bool
	}{
		{0.3, 0.7, 0.8, 0.2, true},  // clean reversal
		{0.3, 0.7, 0.2, 0.8, false}, // same direction
		{0.3, 0.7, 0.5, 0.5, true},  // breakdown tie vs strict overall
		{0.5, 0.5, 0.2, 0.8, true},  // overall tie vs strict breakdown
		{0.5, 0.5, 0.5, 0.5, false}, // tie everywhere: not a difference
		{0.7, 0.3, 0.2, 0.8, true},  // reversal, other side
		{0.7, 0.3, 0.8, 0.2, false}, // same direction, other side
	}
	for _, c := range cases {
		if got := reversed(c.o1, c.o2, c.b1, c.b2, 1e-9); got != c.want {
			t.Errorf("reversed(%v,%v,%v,%v) = %v, want %v", c.o1, c.o2, c.b1, c.b2, got, c.want)
		}
	}
}

func TestDimensionString(t *testing.T) {
	if ByGroup.String() != "group" || ByQuery.String() != "query" || ByLocation.String() != "location" {
		t.Fatal("dimension names")
	}
	if Dimension(9).String() == "" {
		t.Fatal("unknown dimension should render")
	}
}

func TestQuerySetsComparison(t *testing.T) {
	male := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"})
	female := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"})
	tbl := core.NewTable()
	// Set A = {a1, a2}: unfair overall. Set B = {b1}: fair overall,
	// except for females, where the order flips.
	tbl.Set(male, "a1", "l", 0.8)
	tbl.Set(male, "a2", "l", 0.9)
	tbl.Set(male, "b1", "l", 0.1)
	tbl.Set(female, "a1", "l", 0.3)
	tbl.Set(female, "a2", "l", 0.4)
	tbl.Set(female, "b1", "l", 0.6)
	c := New(tbl)

	cmp, err := c.QuerySets("setA", "setB", []core.Query{"a1", "a2"}, []core.Query{"b1"}, ByGroup, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.R1 != "setA" || cmp.R2 != "setB" {
		t.Fatalf("labels = %s/%s", cmp.R1, cmp.R2)
	}
	// Overall: A = (0.8+0.9+0.3+0.4)/4 = 0.6; B = (0.1+0.6)/2 = 0.35.
	if !testutil.Near(cmp.Overall1, 0.6, 1e-9) || !testutil.Near(cmp.Overall2, 0.35, 1e-9) {
		t.Fatalf("overall = %v / %v", cmp.Overall1, cmp.Overall2)
	}
	if len(cmp.Reversed) != 1 || cmp.Reversed[0].B != female.Key() {
		t.Fatalf("Reversed = %+v", cmp.Reversed)
	}
}

func TestQuerySetsErrors(t *testing.T) {
	for _, k := range constructors {
		c := k.build(tableForCompare())
		if _, err := c.QuerySets("a", "b", nil, []core.Query{"cleaning"}, ByGroup, Scope{}); err == nil {
			t.Errorf("%s: empty set should error", k.name)
		}
		if _, err := c.QuerySets("a", "b", []core.Query{"cleaning"}, []core.Query{"handyman"}, ByQuery, Scope{}); err == nil {
			t.Errorf("%s: breakdown by query should be rejected", k.name)
		}
		if _, err := c.QuerySets("a", "b", []core.Query{"nope"}, []core.Query{"handyman"}, ByGroup, Scope{}); err == nil {
			t.Errorf("%s: unindexed query should error", k.name)
		}
	}
}

func TestQuerySetsByLocation(t *testing.T) {
	c := New(tableForCompare())
	cmp, err := c.QuerySets("cleaning", "handyman",
		[]core.Query{"cleaning"}, []core.Query{"handyman"}, ByLocation, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.All) != 3 {
		t.Fatalf("All = %+v", cmp.All)
	}
}

// Property: the reversal predicate is symmetric under swapping the two
// comparison sides.
func TestReversedSymmetryProperty(t *testing.T) {
	f := func(o1, o2, b1, b2 float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.5
			}
			return math.Mod(math.Abs(x), 1)
		}
		a, b, c, d := clamp(o1), clamp(o2), clamp(b1), clamp(b2)
		return reversed(a, b, c, d, 1e-9) == reversed(b, a, d, c, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for random tables, a comparison's All covers every breakdown
// member exactly once and Reversed is exactly the rows flagged Reversed.
func TestComparisonCoverageProperty(t *testing.T) {
	f := func(seed uint64, nq, nl uint8) bool {
		rng := stats.NewRNG(seed)
		male := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"})
		female := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"})
		tbl := core.NewTable()
		q := int(nq%5) + 1
		l := int(nl%6) + 1
		for qi := 0; qi < q; qi++ {
			for li := 0; li < l; li++ {
				query := core.Query(fmt.Sprintf("q%d", qi))
				loc := core.Location(fmt.Sprintf("l%d", li))
				tbl.Set(male, query, loc, rng.Float64())
				tbl.Set(female, query, loc, rng.Float64())
			}
		}
		c := New(tbl)
		cmp, err := c.Groups(male.Key(), female.Key(), ByLocation, Scope{})
		if err != nil {
			return false
		}
		if len(cmp.All) != l {
			return false
		}
		seen := map[string]bool{}
		reversedCount := 0
		for _, row := range cmp.All {
			if seen[row.B] {
				return false
			}
			seen[row.B] = true
			if row.Reversed {
				reversedCount++
			}
		}
		return reversedCount == len(cmp.Reversed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
