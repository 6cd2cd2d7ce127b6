package topk

import (
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
// ties. This is exactly the order the index families and index.NewLists
// sort their postings in (they break ties by member id, and a sorted
// dictionary makes id order key order); merging per-partition fragments
// with this comparator therefore reproduces the single-index list
// byte-for-byte, which is what makes the coordinator's answers
// byte-identical to a single engine's.
func LessEntries(a, b index.Entry) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Key < b.Key
}

// SliceLists is a ListSource over ragged posting lists built from raw
// entry slices: the form a partition node holds its list fragments in.
// Unlike the index families the lists may be ragged (a fragment holds
// only the members a partition owns), so ListLen reports the longest
// list, and a key a list lacks Finds as (0, false); algorithms that rely
// on the completion invariant should only be run over SliceLists built
// with equal-length lists.
type SliceLists struct {
	lists  []*index.Inverted
	maxLen int
}

// NewSliceLists builds a ListSource over the given entry slices through
// index.NewLists, which lays them out columnar and sorts each into the
// canonical posting-list order. A nil slice is an empty list. The value
// is immutable and safe for concurrent use.
func NewSliceLists(lists [][]index.Entry) *SliceLists {
	s := &SliceLists{lists: index.NewLists(lists)}
	for _, iv := range s.lists {
		s.maxLen = max(s.maxLen, iv.Len())
	}
	return s
}

func (s *SliceLists) NumLists() int { return len(s.lists) }
func (s *SliceLists) ListLen() int  { return s.maxLen }
func (s *SliceLists) At(i, pos int) (index.Entry, bool) {
	return s.lists[i].At(pos)
}
func (s *SliceLists) Find(i int, key string) (float64, bool) {
	return s.lists[i].Find(key)
}

// Len returns the length of list i (fragments are ragged).
func (s *SliceLists) Len(i int) int { return s.lists[i].Len() }

// ScanFrom is the resumable sorted-access primitive: it reads up to max
// entries of list i starting at sorted position start, returning a
// fresh slice. The caller owns the cursor (start), so a stateless
// server can answer interleaved scans from any number of clients — the
// partition node serves the coordinator's block fetches with this. A
// start at or past the end returns nil. The reply is sized once, by
// list i's own length when src is ragged SliceLists.
func ScanFrom(src ListSource, i, start, max int) []index.Entry {
	n := src.ListLen()
	if s, ok := src.(*SliceLists); ok {
		n = s.Len(i)
	}
	n = min(max, n-start)
	if start < 0 || n <= 0 {
		return nil
	}
	out := make([]index.Entry, 0, n)
	for pos := start; pos < start+n; pos++ {
		e, ok := src.At(i, pos)
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}
