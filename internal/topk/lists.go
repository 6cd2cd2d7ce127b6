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
package topk

import (
	"fmt"

	"fairjob/internal/core"
	"fairjob/internal/index"
)

// ListSource is the access interface Fagin-style algorithms need: a family
// of posting lists with identical membership (the index completion
// invariant), each sorted by descending value, supporting sorted access
// (At) and random access (Find).
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

// indexLists is a ListSource over index posting lists: the three
// Table-5 families' scoped sources and SliceLists. ListLen is the longest
// list, which for a family built under the completion invariant is every
// list's length.
type indexLists struct {
	lists  []*index.Inverted
	maxLen int
}

func newIndexLists(lists []*index.Inverted) indexLists {
	s := indexLists{lists: lists}
	for _, iv := range lists {
		s.maxLen = max(s.maxLen, iv.Len())
	}
	return s
}

func (s *indexLists) NumLists() int { return len(s.lists) }
func (s *indexLists) ListLen() int  { return s.maxLen }
func (s *indexLists) At(i, pos int) (index.Entry, bool) {
	return s.lists[i].At(pos)
}
func (s *indexLists) Find(i int, key string) (float64, bool) {
	return s.lists[i].Find(key)
}

// scoped collects get(a, b) for every pair of as × bs, a-major, failing
// when a pair is not indexed or the scope is empty.
func scoped[A, B ~string](as []A, bs []B, get func(A, B) *index.Inverted) (ListSource, error) {
	lists := make([]*index.Inverted, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			iv := get(a, b)
			if iv == nil {
				return nil, fmt.Errorf("topk: pair (%s, %s) not indexed", a, b)
			}
			lists = append(lists, iv)
		}
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("topk: empty scope")
	}
	s := newIndexLists(lists)
	return &s, nil
}

// stored collects a family's n lists in its stored a-major order, which
// is the full scope: every pair of the index's own dimensions. It fails
// when the scope is empty.
func stored(n int, list func(int) *index.Inverted) (ListSource, error) {
	if n == 0 {
		return nil, fmt.Errorf("topk: empty scope")
	}
	lists := make([]*index.Inverted, n)
	for i := range lists {
		lists[i] = list(i)
	}
	s := newIndexLists(lists)
	return &s, nil
}

// NewGroupLists builds the group-fairness ListSource over the given scope:
// the I(q,l) family, whose members are group keys. Nil qs or ls default
// to the index's full dimensions; with both nil the lists are taken in
// the index's stored order, which is the same as resolving every pair.
// It returns an error when a requested pair is not indexed.
func NewGroupLists(gi *index.GroupIndex, qs []core.Query, ls []core.Location) (ListSource, error) {
	if qs == nil && ls == nil {
		return stored(len(gi.Queries)*len(gi.Locations), gi.List)
	}
	if qs == nil {
		qs = gi.Queries
	}
	if ls == nil {
		ls = gi.Locations
	}
	return scoped(qs, ls, gi.Get)
}

// NewQueryLists builds the query-fairness ListSource over a (G, L) scope
// of the I(g,l) family; members are queries. groupKeys and ls nil
// default to the full dimensions, and with both nil the lists are taken
// in the index's stored order.
func NewQueryLists(qi *index.QueryIndex, groupKeys []string, ls []core.Location) (ListSource, error) {
	if groupKeys == nil && ls == nil {
		return stored(len(qi.GroupKeys)*len(qi.Locations), qi.List)
	}
	if groupKeys == nil {
		groupKeys = qi.GroupKeys
	}
	if ls == nil {
		ls = qi.Locations
	}
	return scoped(groupKeys, ls, qi.Get)
}

// NewLocationLists builds the location-fairness ListSource over a (G, Q)
// scope of the I(g,q) family; members are locations. groupKeys and qs
// nil default to the full dimensions, and with both nil the lists are
// taken in the index's stored order.
func NewLocationLists(li *index.LocationIndex, groupKeys []string, qs []core.Query) (ListSource, error) {
	if groupKeys == nil && qs == nil {
		return stored(len(li.GroupKeys)*len(li.Queries), li.List)
	}
	if groupKeys == nil {
		groupKeys = li.GroupKeys
	}
	if qs == nil {
		qs = li.Queries
	}
	return scoped(groupKeys, qs, li.Get)
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
