// Package topk solves the paper's Problem 1 (Fairness Quantification):
// return the k members of one dimension — groups, queries or locations —
// for which a site is most or least unfair, averaged over the two other
// dimensions.
//
// The package implements the paper's adaptation of Fagin's Threshold
// Algorithm (Algorithm 1) plus three baselines used by the ablation
// benchmarks: Fagin's original FA, Fagin's No-Random-Access algorithm
// (NRA), and a naive full scan. A source restricted by NewFilteredLists
// answers the paper's "out of these groups…" form of the question.
//
// The algorithms read a ListSource. The three index families of
// internal/index are list sources themselves, with no per-list header:
// NewGroupLists, NewQueryLists and NewLocationLists return the family
// for its full scope, and for a narrower one a view of the list numbers
// the family's ListOf resolves.
package topk

import (
	"fmt"

	"fairjob/internal/core"
	"fairjob/internal/index"
)

// ListSource is the access interface Fagin-style algorithms need: a family
// of posting lists with identical membership (the index completion
// invariant), each sorted by descending value, supporting sorted access
// (At) and random access (Find). Lists are numbered 0 ≤ i < NumLists().
type ListSource interface {
	// NumLists returns the number of posting lists (|Q|·|L| for
	// group-fairness).
	NumLists() int
	// ListLen returns the length of every list (identical by the
	// completion invariant).
	ListLen() int
	// At performs sorted access on list i at position pos.
	At(i, pos int) (index.Entry, bool)
	// Find performs random access for key on list i.
	Find(i int, key string) (float64, bool)
}

// family is an index family as a list source, with the resolver that
// numbers its list of a pair of the other two dimensions.
type family[A, B any] interface {
	ListSource
	ListOf(A, B) (int, bool)
}

// scopedLists is a view of some of a family's lists: list i of the view
// is list lists[i] of the family.
type scopedLists struct {
	fam   ListSource
	lists []int
}

func (s *scopedLists) NumLists() int { return len(s.lists) }
func (s *scopedLists) ListLen() int  { return s.fam.ListLen() }
func (s *scopedLists) At(i, pos int) (index.Entry, bool) {
	return s.fam.At(s.lists[i], pos)
}
func (s *scopedLists) Find(i int, key string) (float64, bool) {
	return s.fam.Find(s.lists[i], key)
}

// lists returns fam over the scope as × bs, where a nil as or bs stands
// for fullA or fullB, the family's own dimension. With both nil it is fam
// itself, every list in the family's order, which is the same as
// resolving every pair; otherwise it is a view of the scope's lists,
// a-major. It fails when a requested pair is not indexed or the scope is
// empty.
func lists[A, B ~string](fam family[A, B], as []A, bs []B, fullA []A, fullB []B) (ListSource, error) {
	if as == nil && bs == nil {
		if fam.NumLists() == 0 {
			return nil, fmt.Errorf("topk: empty scope")
		}
		return fam, nil
	}
	if as == nil {
		as = fullA
	}
	if bs == nil {
		bs = fullB
	}
	v := &scopedLists{fam: fam, lists: make([]int, 0, len(as)*len(bs))}
	for _, a := range as {
		for _, b := range bs {
			i, ok := fam.ListOf(a, b)
			if !ok {
				return nil, fmt.Errorf("topk: pair (%s, %s) not indexed", a, b)
			}
			v.lists = append(v.lists, i)
		}
	}
	if len(v.lists) == 0 {
		return nil, fmt.Errorf("topk: empty scope")
	}
	return v, nil
}

// NewGroupLists builds the group-fairness ListSource over the given scope:
// the I(q,l) family, whose members are group keys. Nil qs or ls default
// to the index's full dimensions; with both nil the source is the family
// itself. It returns an error when a requested pair is not indexed or
// the scope is empty.
func NewGroupLists(gi *index.GroupIndex, qs []core.Query, ls []core.Location) (ListSource, error) {
	return lists(gi, qs, ls, gi.Queries, gi.Locations)
}

// NewQueryLists builds the query-fairness ListSource over a (G, L) scope
// of the I(g,l) family; members are queries. groupKeys and ls nil
// default to the full dimensions, and with both nil the source is the
// family itself.
func NewQueryLists(qi *index.QueryIndex, groupKeys []string, ls []core.Location) (ListSource, error) {
	return lists(qi, groupKeys, ls, qi.GroupKeys, qi.Locations)
}

// NewLocationLists builds the location-fairness ListSource over a (G, Q)
// scope of the I(g,q) family; members are locations. groupKeys and qs
// nil default to the full dimensions, and with both nil the source is
// the family itself.
func NewLocationLists(li *index.LocationIndex, groupKeys []string, qs []core.Query) (ListSource, error) {
	return lists(li, groupKeys, qs, li.GroupKeys, li.Queries)
}

// reversedLists adapts a ListSource so that ascending order on the
// original becomes descending order on the adapter, by reading lists back
// to front with negated values. Running the most-unfair algorithm on the
// adapter yields the least-unfair answer on the original.
type reversedLists struct {
	src ListSource
}

func (r reversedLists) NumLists() int { return r.src.NumLists() }
func (r reversedLists) ListLen() int  { return r.src.ListLen() }
func (r reversedLists) At(i, pos int) (index.Entry, bool) {
	e, ok := r.src.At(i, r.src.ListLen()-1-pos)
	if !ok {
		return index.Entry{}, false
	}
	return index.Entry{Key: e.Key, Value: -e.Value}, true
}
func (r reversedLists) Find(i int, key string) (float64, bool) {
	v, ok := r.src.Find(i, key)
	return -v, ok
}

// filteredLists restricts a ListSource's membership to a subset of keys,
// preserving each list's order. It supports the paper's restricted
// quantification questions ("Out of Black Males, Asian Males, Asian
// Females, and White Females, what are the 2 groups for which the site is
// most unfair?"): top-k must be computed among the subset, not filtered
// out of an unrestricted answer.
type filteredLists struct {
	src     ListSource
	keep    map[string]bool
	listLen int
	// positions[i] holds, for list i, the source positions of the kept
	// entries in order.
	positions [][]int
}

// NewFilteredLists wraps src keeping only the given member keys. It
// returns an error when no key is kept.
func NewFilteredLists(src ListSource, keys []string) (ListSource, error) {
	keep := make(map[string]bool, len(keys))
	for _, k := range keys {
		keep[k] = true
	}
	f := &filteredLists{src: src, keep: keep}
	n := src.NumLists()
	f.positions = make([][]int, n)
	for i := 0; i < n; i++ {
		for pos := 0; pos < src.ListLen(); pos++ {
			e, ok := src.At(i, pos)
			if !ok {
				break
			}
			if keep[e.Key] {
				f.positions[i] = append(f.positions[i], pos)
			}
		}
	}
	if len(f.positions) == 0 || len(f.positions[0]) == 0 {
		return nil, fmt.Errorf("topk: restriction keeps no members")
	}
	f.listLen = len(f.positions[0])
	return f, nil
}

func (f *filteredLists) NumLists() int { return f.src.NumLists() }
func (f *filteredLists) ListLen() int  { return f.listLen }
func (f *filteredLists) At(i, pos int) (index.Entry, bool) {
	if pos < 0 || pos >= len(f.positions[i]) {
		return index.Entry{}, false
	}
	return f.src.At(i, f.positions[i][pos])
}
func (f *filteredLists) Find(i int, key string) (float64, bool) {
	if !f.keep[key] {
		return 0, false
	}
	return f.src.Find(i, key)
}
