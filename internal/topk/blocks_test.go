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

func TestSliceListsAndScanFrom(t *testing.T) {
	// List 0 holds a three-way tie and is given out of order; "a" and
	// "c" are present on it and absent from ragged list 1; list 2 is nil.
	lists := [][]index.Entry{
		{{Key: "d", Value: 2}, {Key: "a", Value: 3}, {Key: "c", Value: 2}, {Key: "b", Value: 2}},
		{{Key: "b", Value: 9}},
		nil,
	}
	s := NewSliceLists(lists)
	if s.NumLists() != 3 {
		t.Fatalf("NumLists = %d, want 3", s.NumLists())
	}
	if s.ListLen() != 4 {
		t.Fatalf("ListLen = %d, want longest list 4", s.ListLen())
	}
	if s.Len(1) != 1 || s.Len(2) != 0 {
		t.Fatalf("ragged Len wrong: %d, %d", s.Len(1), s.Len(2))
	}
	for i, l := range lists {
		want := append([]index.Entry(nil), l...)
		sortEntries(want)
		for pos, w := range want {
			if e, ok := s.At(i, pos); !ok || e != w {
				t.Fatalf("At(%d,%d) = %+v, %v; want %+v", i, pos, e, ok, w)
			}
			if v, ok := s.Find(i, w.Key); !ok || v != w.Value {
				t.Fatalf("Find(%d, %s) = %v, %v; want %v", i, w.Key, v, ok, w.Value)
			}
		}
		if _, ok := s.At(i, len(want)); ok {
			t.Fatalf("At past list %d's end must report !ok", i)
		}
	}
	for _, c := range []struct {
		list int
		key  string
	}{{1, "a"}, {1, "c"}, {2, "b"}, {0, "zzz"}} {
		if v, ok := s.Find(c.list, c.key); ok || v != 0 {
			t.Fatalf("Find(%d, %s) = %v, %v; want (0, false)", c.list, c.key, v, ok)
		}
	}

	// ScanFrom: block reads with caller-owned cursors resume exactly.
	first := ScanFrom(s, 0, 0, 2)
	rest := ScanFrom(s, 0, 2, 3)
	if len(first) != 2 || len(rest) != 2 {
		t.Fatalf("block sizes = %d, %d; want 2, 2", len(first), len(rest))
	}
	got := append(append([]index.Entry{}, first...), rest...)
	for i, key := range []string{"a", "b", "c", "d"} {
		if got[i].Key != key {
			t.Fatalf("resumed scan diverged at %d: %+v, want key %s", i, got[i], key)
		}
	}
	if ScanFrom(s, 0, 4, 4) != nil {
		t.Fatal("scan starting past the end must return nil")
	}
	if ScanFrom(s, 2, 0, 4) != nil {
		t.Fatal("scan of an empty list must return nil")
	}
}

// sortEntries sorts entries in place into the canonical posting-list
// order.
func sortEntries(entries []index.Entry) {
	sort.Slice(entries, func(i, j int) bool { return LessEntries(entries[i], entries[j]) })
}
