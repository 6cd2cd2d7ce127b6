package topk

import (
	"sort"

	"fairjob/internal/index"
)

// This file holds the block-access primitives the scatter-gather
// coordinator (internal/cluster) builds its distributed sorted access
// on: the canonical posting-list order as a standalone comparator, a
// ListSource over ragged index lists (a partition's list fragments), and
// a resumable block scan that a partition node serves without holding
// any per-client cursor state.

// LessEntries reports whether a sorts strictly before b in the
// canonical posting-list order: descending Value, ascending Key on
// ties. This is exactly the order index.Inverted sorts its postings in
// (it breaks ties by member id, and its sorted dictionary makes id
// order key order); merging per-partition fragments with this
// comparator therefore reproduces the single-index list byte-for-byte,
// which is what makes the coordinator's answers byte-identical to a
// single engine's.
func LessEntries(a, b index.Entry) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Key < b.Key
}

// SortEntries sorts entries in place into the canonical posting-list
// order.
func SortEntries(entries []index.Entry) {
	sort.Slice(entries, func(i, j int) bool { return LessEntries(entries[i], entries[j]) })
}

// SliceLists is a ListSource over ragged posting lists built from raw
// entry slices: the form a partition node holds its list fragments in.
// Unlike the index-backed sources the lists may be ragged (a fragment
// holds only the members a partition owns), so ListLen reports the
// longest list, and a key a list lacks Finds as (0, false); algorithms
// that rely on the completion invariant should only be run over
// SliceLists built with equal-length lists.
type SliceLists struct {
	indexLists
}

// NewSliceLists builds a ListSource over the given entry slices through
// index.NewLists, which lays them out columnar and sorts each into the
// canonical posting-list order. A nil slice is an empty list. The value
// is immutable and safe for concurrent use.
func NewSliceLists(lists [][]index.Entry) *SliceLists {
	return &SliceLists{newIndexLists(index.NewLists(lists))}
}

// Len returns the length of list i (fragments are ragged).
func (s *SliceLists) Len(i int) int { return s.lists[i].Len() }

// ScanFrom is the resumable sorted-access primitive: it reads up to max
// entries of list i starting at sorted position start, returning a
// fresh slice. The caller owns the cursor (start), so a stateless
// server can answer interleaved scans from any number of clients — the
// partition node serves the coordinator's block fetches with this. A
// start at or past the end returns nil.
func ScanFrom(src ListSource, i, start, max int) []index.Entry {
	if start < 0 || max <= 0 {
		return nil
	}
	var out []index.Entry
	for pos := start; pos < start+max; pos++ {
		e, ok := src.At(i, pos)
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}
