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
// from SortPostings itself over ids that skip members, as a cluster node
// sorts its share of a list, and sorting allocates nothing.
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
	want := func(iv familyList, keys []string) []Posting {
		var ps []Posting
		for id, k := range keys {
			if v, ok := iv.Find(k); ok {
				ps = append(ps, Posting{int32(id), v})
			}
		}
		slices.SortFunc(ps, canonical)
		return ps
	}
	check := func(name string, iv familyList, keys []string) {
		t.Helper()
		ps := want(iv, keys)
		if iv.Len() != len(ps) {
			t.Fatalf("%s: Len = %d, want %d", name, iv.Len(), len(ps))
		}
		for pos, p := range ps {
			e, ok := iv.At(pos)
			if !ok || e.Key != keys[p.ID] || math.Float64bits(e.Value) != math.Float64bits(p.Value) {
				t.Fatalf("%s (length %d): At(%d) = %v, %v; slices.SortFunc gives %s %v", name, len(ps), pos, e, ok, keys[p.ID], p.Value)
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

	// SortPostings itself, over n of 4·insertionMax member ids in
	// ascending order (as its callers give them) and shuffled: a list of
	// each length, the longest holding every member. It allocates nothing.
	for _, n := range lengths {
		ids := rng.Perm(4 * insertionMax)[:n]
		slices.Sort(ids)
		src := make([]Posting, n)
		for i, id := range ids {
			src[i] = Posting{int32(id), value()}
		}
		for _, order := range []string{"ascending", "shuffled"} {
			if order == "shuffled" {
				rng.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
			}
			got, ref := slices.Clone(src), slices.Clone(src)
			SortPostings(got)
			slices.SortFunc(ref, canonical)
			if !slices.Equal(got, ref) {
				t.Fatalf("SortPostings of %d %s postings = %v, slices.SortFunc gives %v", n, order, got, ref)
			}
			if allocs := testing.AllocsPerRun(10, func() { copy(got, src); SortPostings(got) }); allocs != 0 {
				t.Errorf("SortPostings of %d postings allocates %.0f objects, want 0", n, allocs)
			}
		}
	}
}

// familyList is list i of a built family.
type familyList struct {
	f *family
	i int
}

func (l familyList) Len() int                        { return l.f.ListLen() }
func (l familyList) At(pos int) (Entry, bool)        { return l.f.At(l.i, pos) }
func (l familyList) Find(key string) (float64, bool) { return l.f.Find(l.i, key) }
