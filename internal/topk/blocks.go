package topk

import (
	"fairjob/internal/index"
)

// LessEntries reports whether a sorts strictly before b in the
// canonical posting-list order: descending Value, ascending Key on
// ties. This is exactly the order index.SortPostings gives (it breaks
// ties by member id, and a sorted dictionary makes id order key order).
// The scatter-gather coordinator (internal/cluster) merges
// per-partition fragments with it, so its merged lists are the single
// index's byte for byte, which is what makes the coordinator's answers
// byte-identical to a single engine's.
func LessEntries(a, b index.Entry) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Key < b.Key
}
