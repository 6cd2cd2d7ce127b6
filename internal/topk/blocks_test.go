package topk

import (
	"sort"
	"testing"

	"fairjob/internal/core"
	"fairjob/internal/index"
)

func TestLessEntriesMatchesInvertedOrder(t *testing.T) {
	// Build an inverted list through the index package and assert
	// LessEntries agrees with its sort on every adjacent pair, through
	// many-way value ties broken by key: four groups at 0.5, two at 0.9
	// and two left undefined (completed to 0).
	tbl := core.NewTable()
	values := map[string]float64{
		"Male": 0.5, "Female": 0.5, "Black": 0.9, "Asian": 0.5,
		"White": 0.9, "Other": 0.5, "Latin": 0.1,
	}
	for name, v := range values {
		tbl.Set(core.NewGroup(core.Predicate{Attr: "cohort", Value: name}), "q", "l", v)
	}
	for _, name := range []string{"Mixed", "None"} {
		tbl.Set(core.NewGroup(core.Predicate{Attr: "cohort", Value: name}), "q", "other", 1)
	}
	gi := index.BuildGroupIndex(tbl)
	list, ok := gi.ListOf("q", "l")
	if !ok {
		t.Fatal("list (q, l) not indexed")
	}
	entries := make([]index.Entry, gi.ListLen())
	for pos := range entries {
		entries[pos], _ = gi.At(list, pos)
	}
	if len(entries) != len(values)+2 {
		t.Fatalf("expected %d entries, got %d", len(values)+2, len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if !LessEntries(entries[i-1], entries[i]) {
			t.Fatalf("index order violates LessEntries at %d: %+v !< %+v", i, entries[i-1], entries[i])
		}
	}
	// Sorting a reversed copy by LessEntries reproduces the index order.
	shuffled := make([]index.Entry, len(entries))
	for i, e := range entries {
		shuffled[len(entries)-1-i] = e
	}
	sortEntries(shuffled)
	for i := range entries {
		if shuffled[i] != entries[i] {
			t.Fatalf("LessEntries order diverged from index order at %d: %+v vs %+v", i, shuffled[i], entries[i])
		}
	}
	if v, ok := gi.Find(list, "cohort=Nobody"); ok || v != 0 {
		t.Fatalf("Find of an absent key = %v, %v; want (0, false)", v, ok)
	}
}

// sortEntries sorts entries in place into the canonical posting-list
// order.
func sortEntries(entries []index.Entry) {
	sort.Slice(entries, func(i, j int) bool { return LessEntries(entries[i], entries[j]) })
}
