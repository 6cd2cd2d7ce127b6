package serve

import (
	"sync/atomic"

	"fairjob/internal/core"
)

// CountQueryBuilds makes every query-structure build add one to n until
// the returned restore is called.
func CountQueryBuilds(n *atomic.Int64) (restore func()) {
	buildQuery = func(tbl *core.Table) *queryState {
		n.Add(1)
		return newQueryState(tbl)
	}
	return func() { buildQuery = newQueryState }
}

// SnapshotTable returns the table s keeps.
func SnapshotTable(s *Snapshot) *core.Table { return s.tbl }
