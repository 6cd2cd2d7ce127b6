package index

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fairjob/internal/core"
	"fairjob/internal/stats"
)

// TestPostingOrderAcrossSortBound pins the posting order on both sides of
// insertionMax: list lengths 1, the bound, one past it and four times
// it, with many exact value ties and both +0 and −0, must come out in
// the order slices.SortFunc(ps, canonical) gives, in built families and
// in NewLists's lists (ragged ones, and a complete one), and sorting
// allocates nothing.
func TestPostingOrderAcrossSortBound(t *testing.T) {
	rng := stats.NewRNG(3)
	lengths := []int{1, insertionMax, insertionMax + 1, 4 * insertionMax}
	negZero := math.Copysign(0, -1)
	value := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return negZero
		case 2, 3:
			return float64(rng.Intn(4)) / 4
		default:
			return rng.Float64()
		}
	}
	// want is list iv's order: its members' postings, numbered by their
	// position in keys, sorted by slices.SortFunc with canonical.
	want := func(iv oneList, keys []string) []posting {
		var ps []posting
		for id, k := range keys {
			if v, ok := iv.Find(k); ok {
				ps = append(ps, posting{int32(id), v})
			}
		}
		slices.SortFunc(ps, canonical)
		return ps
	}
	check := func(name string, iv oneList, keys []string) {
		t.Helper()
		ps := want(iv, keys)
		if iv.Len() != len(ps) {
			t.Fatalf("%s: Len = %d, want %d", name, iv.Len(), len(ps))
		}
		for pos, p := range ps {
			e, ok := iv.At(pos)
			if !ok || e.Key != keys[p.id] || math.Float64bits(e.Value) != math.Float64bits(p.v) {
				t.Fatalf("%s (length %d): At(%d) = %v, %v; slices.SortFunc gives %s %v", name, len(ps), pos, e, ok, keys[p.id], p.v)
			}
		}
	}

	// Built families: one table whose lists hold 1, insertionMax and
	// insertionMax+1 members, and one whose group lists hold 4·insertionMax.
	for _, dims := range [][3]int{{1, insertionMax, insertionMax + 1}, {4 * insertionMax, 2, 1}} {
		tbl := core.NewTable()
		for g := 0; g < dims[0]; g++ {
			grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%03d", g)})
			for q := 0; q < dims[1]; q++ {
				for l := 0; l < dims[2]; l++ {
					if rng.Intn(10) > 0 { // an undefined cell reads +0
						tbl.Set(grp, core.Query(fmt.Sprintf("q%03d", q)), core.Location(fmt.Sprintf("l%03d", l)), value())
					}
				}
			}
		}
		gi, qi, li := BuildAll(tbl)
		for i := range gi.NumLists() {
			check(fmt.Sprintf("%v: group list %d", dims, i), familyList{&gi.family, i}, gi.GroupKeys)
		}
		for i := range qi.NumLists() {
			check(fmt.Sprintf("%v: query list %d", dims, i), familyList{&qi.family, i}, strs(gi.Queries))
		}
		for i := range li.NumLists() {
			check(fmt.Sprintf("%v: location list %d", dims, i), familyList{&li.family, i}, strs(gi.Locations))
		}
	}

	// NewLists: a list of each length over 4·insertionMax keys, given in
	// random order, so the longest list holds every key and is complete.
	universe := make([]string, 4*insertionMax)
	for i := range universe {
		universe[i] = fmt.Sprintf("k%03d", i)
	}
	var lists [][]Entry
	for _, n := range lengths {
		var l []Entry
		for _, i := range rng.Perm(len(universe))[:n] {
			l = append(l, Entry{universe[i], value()})
		}
		lists = append(lists, l)
	}
	for i, iv := range NewLists(lists) {
		check(fmt.Sprintf("NewLists list %d", i), iv, universe)
	}

	// sortPostings itself, on postings in ascending id order (as its
	// callers give them) and shuffled, allocates nothing.
	for _, n := range lengths {
		src := make([]posting, n)
		for i := range src {
			src[i] = posting{int32(i), value()}
		}
		for _, order := range []string{"ascending", "shuffled"} {
			if order == "shuffled" {
				rng.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
			}
			got, ref := slices.Clone(src), slices.Clone(src)
			sortPostings(got)
			slices.SortFunc(ref, canonical)
			if !slices.Equal(got, ref) {
				t.Fatalf("sortPostings of %d %s postings = %v, slices.SortFunc gives %v", n, order, got, ref)
			}
			if allocs := testing.AllocsPerRun(10, func() { copy(got, src); sortPostings(got) }); allocs != 0 {
				t.Errorf("sortPostings of %d postings allocates %.0f objects, want 0", n, allocs)
			}
		}
	}
}

// oneList is the sorted and random access of one posting list.
type oneList interface {
	Len() int
	At(pos int) (Entry, bool)
	Find(key string) (float64, bool)
}

// familyList is list i of a built family as a oneList.
type familyList struct {
	f *family
	i int
}

func (l familyList) Len() int                        { return l.f.ListLen() }
func (l familyList) At(pos int) (Entry, bool)        { return l.f.At(l.i, pos) }
func (l familyList) Find(key string) (float64, bool) { return l.f.Find(l.i, key) }
