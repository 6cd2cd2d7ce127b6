// Package compare solves the paper's Problem 2 (Fairness Comparison):
// given two comparison values r1 and r2 of one dimension and a breakdown
// dimension B, return every b ∈ B for which the fairness comparison of r1
// and r2 reverses relative to their overall comparison.
//
// This is the paper's Algorithm 2, with Algorithm 3 (ComputeGroupUnfairness
// via random accesses to the group-based indices) as the overall-unfairness
// subroutine. A Comparer reads cells from one core.Table, and every
// comparison is one walk over it: the two overall aggregates, then the two
// sides pinned to each breakdown member. By default the aggregates use the
// same semantics as Algorithms 1 and 3: undefined triples contribute 0 and
// denominators are the full scope size.
package compare

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fairjob/internal/core"
	"fairjob/internal/index"
)

// Dimension names one of the framework's three dimensions.
type Dimension int

const (
	ByGroup Dimension = iota
	ByQuery
	ByLocation
)

func (d Dimension) String() string {
	switch d {
	case ByGroup:
		return "group"
	case ByQuery:
		return "query"
	case ByLocation:
		return "location"
	default:
		return fmt.Sprintf("Dimension(%d)", int(d))
	}
}

// Scope restricts the aggregation and breakdown sets. Nil fields default
// to the full dimension of the Comparer's table. Group members are
// canonical group keys.
type Scope struct {
	Groups    []string
	Queries   []core.Query
	Locations []core.Location
}

// Breakdown is one row of a comparison result: the breakdown member b and
// the unfairness of r1 and r2 restricted to b.
type Breakdown struct {
	B        string
	V1, V2   float64
	Reversed bool
}

// Comparison is the full result of a fairness-comparison run. All holds
// every breakdown member with its restricted values; Reversed holds the
// subset the paper's Problem 2 returns (comparison differs from overall).
type Comparison struct {
	R1, R2             string
	By                 Dimension
	Overall1, Overall2 float64
	All                []Breakdown
	Reversed           []Breakdown
	// Accesses counts the Algorithm 3 random accesses (index cell reads)
	// this comparison performed, across the two overall aggregates and
	// every breakdown — the Problem 2 analogue of topk.Stats, which the
	// serve layer exports into its access-cost telemetry.
	Accesses int
}

// Comparer answers fairness-comparison questions over one unfairness
// table, whatever holds it: a snapshot's sealed table, or the table a
// scatter-gather coordinator fills from its partitions' cells.
//
// Every comparison is one walk. Before it reads a cell, the walk checks
// that each query and location it will visit is in the table's sorted
// dimensions, and otherwise fails with the error naming the first such
// (query, location) pair in visiting order. So an unknown query or
// location operand fails with the same error on every serving path. An
// unknown group is not an error: its cells read as undefined.
//
// A Comparer is read-only while answering: the table, its sorted
// dimensions and the semantics flag are fixed at construction and every
// Algorithm 3 sum lives in the call computing it, so one Comparer may
// serve any number of concurrent queries. The table must not change
// while the Comparer is in use.
//
// Two aggregation semantics are supported. The default (New) follows
// Algorithms 1–3 exactly: undefined triples contribute 0 and denominators
// are the full scope size. NewDefinedOnly averages over defined triples
// only, which is how the paper's empirical tables are aggregated — it is
// what makes, e.g., Males' and Females' overall exposure unfairness differ
// (Table 12) even though their per-page deviations coincide on pages where
// both genders appear.
type Comparer struct {
	tbl         *core.Table
	gks         []string // the table's group keys, sorted
	qs          []core.Query
	ls          []core.Location
	definedOnly bool
}

// epsilon is the tolerance within which two aggregate unfairness values
// are considered tied by the reversal predicate. Aggregates are
// floating-point sums over thousands of cells; mathematically equal
// values (e.g. the two genders' per-page exposure deviations, which are
// provably identical when both genders appear) differ in the last bits,
// and a strict comparison would turn those ties into arbitrary orderings.
const epsilon = 1e-9

// New builds a Comparer with the completion semantics of Algorithms 1–3
// (missing = 0, denominator = full scope size) over the unfairness table.
func New(tbl *core.Table) *Comparer {
	return over(tbl, false)
}

// NewDefinedOnly builds a Comparer that averages over defined triples
// only, over the unfairness table.
func NewDefinedOnly(tbl *core.Table) *Comparer {
	return over(tbl, true)
}

// NewDefinedOnlyWith is NewDefinedOnly for callers that already hold the
// table's group-based index family, whose sorted dimensions it reuses; gi
// must have been built from tbl.
func NewDefinedOnlyWith(gi *index.GroupIndex, tbl *core.Table) *Comparer {
	return &Comparer{tbl: tbl, gks: gi.GroupKeys, qs: gi.Queries, ls: gi.Locations, definedOnly: true}
}

// over builds a Comparer over tbl, collecting its sorted dimensions once.
func over(tbl *core.Table, definedOnly bool) *Comparer {
	groups := tbl.Groups()
	gks := make([]string, len(groups))
	for i, g := range groups {
		gks[i] = g.Key()
	}
	return &Comparer{tbl: tbl, gks: gks, qs: tbl.Queries(), ls: tbl.Locations(), definedOnly: definedOnly}
}

// d is Algorithm 3 generalized to a rectangular scope: the aggregate
// unfairness over s.Groups × s.Queries × s.Locations, one random access
// (Table.GetKey) per cell, counted into *accesses. The singleton forms of
// the paper — d<g,Q,L>, d<G,q,L>, d<G,Q,l> — are d with one axis pinned
// to a single member; QuerySets passes a multi-member query axis. Cells
// are visited in group-major (g, q, l) order, so every aggregate is a
// deterministic left-to-right sum. An undefined cell adds nothing: under
// completion semantics it counts as 0, and adding +0 to a sum that starts
// at +0 leaves it bit for bit unchanged, so the denominator, the scope
// size, is all that sees it. Under defined-only semantics the denominator
// is the defined count, and a scope with no defined cell averages to 0.
func (c *Comparer) d(s Scope, accesses *int) float64 {
	var sum float64
	defined := 0
	for _, g := range s.Groups {
		for _, q := range s.Queries {
			for _, l := range s.Locations {
				if v, ok := c.tbl.GetKey(g, q, l); ok {
					sum += v
					defined++
				}
			}
		}
	}
	n := len(s.Groups) * len(s.Queries) * len(s.Locations)
	*accesses += n
	if !c.definedOnly {
		return sum / float64(n)
	}
	if defined == 0 {
		return 0
	}
	return sum / float64(defined)
}

// walk is Algorithm 2 over the two sides s1 and s2, which differ only in
// the axis their operands pin. It resolves both sides against the
// table's dimensions, then computes the two overall aggregates and, for
// each member of the by axis, the two sides narrowed to that member.
func (c *Comparer) walk(r1, r2 string, s1, s2 Scope, by Dimension) (*Comparison, error) {
	if by < ByGroup || by > ByLocation {
		return nil, fmt.Errorf("compare: unknown breakdown dimension %v", by)
	}
	for _, s := range []*Scope{&s1, &s2} {
		if err := s.resolve(c.gks, c.qs, c.ls); err != nil {
			return nil, err
		}
	}
	cmp := &Comparison{R1: r1, R2: r2, By: by}
	cmp.Overall1, cmp.Overall2 = c.d(s1, &cmp.Accesses), c.d(s2, &cmp.Accesses)
	n := s1.axisLen(by)
	if n > 0 {
		cmp.All = make([]Breakdown, 0, n)
	}
	reversals := 0
	for i := range n {
		b1, b := s1.pin(by, i)
		b2, _ := s2.pin(by, i)
		row := Breakdown{B: b, V1: c.d(b1, &cmp.Accesses), V2: c.d(b2, &cmp.Accesses)}
		row.Reversed = reversed(cmp.Overall1, cmp.Overall2, row.V1, row.V2, epsilon)
		if row.Reversed {
			reversals++
		}
		cmp.All = append(cmp.All, row)
	}
	if reversals > 0 {
		cmp.Reversed = make([]Breakdown, 0, reversals)
		for _, row := range cmp.All {
			if row.Reversed {
				cmp.Reversed = append(cmp.Reversed, row)
			}
		}
	}
	return cmp, nil
}

// resolve sets each nil axis of s to the table's full dimension, and
// returns the error for the first (query, location) pair, in the walk's
// visiting order, whose query or location is not in the sorted
// dimensions qs and ls. An axis taken from the table needs no check, and
// a side without groups or locations visits no cell.
func (s *Scope) resolve(gs []string, qs []core.Query, ls []core.Location) error {
	checkQ, checkL := s.Queries != nil, s.Locations != nil
	if s.Groups == nil {
		s.Groups = gs
	}
	if !checkQ {
		s.Queries = qs
	}
	if !checkL {
		s.Locations = ls
	}
	if len(s.Groups) == 0 || len(s.Locations) == 0 {
		return nil
	}
	badL := -1
	if checkL {
		badL = slices.IndexFunc(s.Locations, func(l core.Location) bool { return !has(ls, l) })
	}
	for _, q := range s.Queries {
		switch {
		case checkQ && !has(qs, q):
			return fmt.Errorf("compare: pair (%s, %s) not indexed", q, s.Locations[0])
		case badL >= 0:
			return fmt.Errorf("compare: pair (%s, %s) not indexed", q, s.Locations[badL])
		case !checkQ:
			return nil
		}
	}
	return nil
}

// has reports whether x is a member of the sorted slice.
func has[T cmp.Ordered](sorted []T, x T) bool {
	_, ok := slices.BinarySearch(sorted, x)
	return ok
}

// axisLen returns how many members the by axis of s holds.
func (s Scope) axisLen(by Dimension) int {
	switch by {
	case ByGroup:
		return len(s.Groups)
	case ByQuery:
		return len(s.Queries)
	default:
		return len(s.Locations)
	}
}

// pin returns s with its by axis narrowed to the i-th member, and that
// member.
func (s Scope) pin(by Dimension, i int) (Scope, string) {
	switch by {
	case ByGroup:
		s.Groups = s.Groups[i : i+1]
		return s, s.Groups[0]
	case ByQuery:
		s.Queries = s.Queries[i : i+1]
		return s, string(s.Queries[0])
	default:
		s.Locations = s.Locations[i : i+1]
		return s, string(s.Locations[0])
	}
}

// reversed is the paper's Problem 2 predicate:
// (d<r1,all> ≥ d<r2,all> ∧ d<r1,b> ≤ d<r2,b>) ∨
// (d<r1,all> ≤ d<r2,all> ∧ d<r1,b> ≥ d<r2,b>),
// with equality read up to eps, and excluding breakdowns whose values
// replicate the overall comparison exactly on both sides (a breakdown
// tied like a tied overall is not a difference).
func reversed(o1, o2, b1, b2, eps float64) bool {
	tieO := math.Abs(o1-o2) <= eps
	tieB := math.Abs(b1-b2) <= eps
	switch {
	case tieO && tieB:
		return false
	case tieO || tieB:
		return true
	default:
		return (o1 > o2 && b1 < b2) || (o1 < o2 && b1 > b2)
	}
}

// Groups compares two groups (by canonical key), broken down by queries or
// locations (Problem 2's group-comparison instance — e.g. Males vs Females
// across locations, the paper's Tables 4, 12, 16, 17).
func (c *Comparer) Groups(g1, g2 string, by Dimension, scope Scope) (*Comparison, error) {
	if by == ByGroup {
		return nil, fmt.Errorf("compare: cannot break a group comparison down by group")
	}
	s1, s2 := scope, scope
	s1.Groups, s2.Groups = []string{g1}, []string{g2}
	return c.walk(g1, g2, s1, s2, by)
}

// Queries compares two queries broken down by groups or locations
// (query-comparison — e.g. Lawn Mowing vs Event Decorating across
// ethnicities, Tables 13, 14, 18, 19).
func (c *Comparer) Queries(q1, q2 core.Query, by Dimension, scope Scope) (*Comparison, error) {
	if by == ByQuery {
		return nil, fmt.Errorf("compare: cannot break a query comparison down by query")
	}
	s1, s2 := scope, scope
	s1.Queries, s2.Queries = []core.Query{q1}, []core.Query{q2}
	return c.walk(string(q1), string(q2), s1, s2, by)
}

// Locations compares two locations broken down by groups or queries
// (location-comparison — e.g. San Francisco vs Chicago across General
// Cleaning jobs, Tables 15, 20, 21).
func (c *Comparer) Locations(l1, l2 core.Location, by Dimension, scope Scope) (*Comparison, error) {
	if by == ByLocation {
		return nil, fmt.Errorf("compare: cannot break a location comparison down by location")
	}
	s1, s2 := scope, scope
	s1.Locations, s2.Locations = []core.Location{l1}, []core.Location{l2}
	return c.walk(string(l1), string(l2), s1, s2, by)
}

// QuerySets compares two sets of queries (e.g. the concrete jobs of two
// marketplace categories, or the five formulations of two Google query
// bases), broken down by groups or locations. Each side's unfairness is
// aggregated over its whole query set; this is how the paper's Tables 13,
// 14, 18 and 19 compare "Lawn Mowing" against "Event Decorating" or
// "Running Errands" against "General Cleaning" as job families. Labels
// name the two sets in the result.
func (c *Comparer) QuerySets(label1, label2 string, qs1, qs2 []core.Query, by Dimension, scope Scope) (*Comparison, error) {
	if by == ByQuery {
		return nil, fmt.Errorf("compare: cannot break a query-set comparison down by query")
	}
	if len(qs1) == 0 || len(qs2) == 0 {
		return nil, fmt.Errorf("compare: empty query set")
	}
	s1, s2 := scope, scope
	s1.Queries, s2.Queries = qs1, qs2
	return c.walk(label1, label2, s1, s2, by)
}
