package core

import (
	"sync"

	"fairjob/internal/stats"
)

// This file holds the evaluators' worker-scratch recycling. The sharded
// EvaluateAll pipelines used to pay a fixed per-shard allocation tax —
// a fresh measure scratch and a fresh private table per shard per run —
// which on hosts where the shards cannot actually run in parallel made
// workers>1 strictly slower than workers=1 (the BENCH_PR7 regression:
// EMD 100ms→107ms and 661→1908 allocs/op from w=1 to w=8). Pooling
// turns that tax into a one-time warm-up: repeated evaluations
// (benchmark loops, snapshot refreshes, live-churn rebuilds) reuse warm
// scratch buffers and shard tables, and the merge step fills one
// presized table (MergeTables) instead of growing shard 0 incrementally.
// A shard's partitioner is not pooled: it is bound to one evaluation's
// plan, and its state is one bucket slice per plan slot.
//
// Pool safety: every pooled object is owned by exactly one goroutine
// between Get and Put, and nothing retained by a caller is ever pooled —
// shard tables are recycled only when MergeTables copied them into a
// fresh result (w > 1), never when the single shard IS the result.
// Determinism is untouched: scratch buffers are pure caches, and pooled
// tables are fully cleared before reuse.

// shardTablePool recycles the evaluators' per-shard private tables. A
// recycled table keeps its map capacity, so after warm-up a shard's fill
// performs no map growth at all.
var shardTablePool sync.Pool

func getShardTable() *Table {
	if v := shardTablePool.Get(); v != nil {
		return v.(*Table)
	}
	return NewTable()
}

// putShardTables recycles every shard table that out does not own: after
// MergeTables copied the shards into a fresh result their maps are dead
// weight, and clearing them for reuse is cheaper than letting the GC
// sweep them every run.
func putShardTables(shards []*Table, out *Table) {
	for _, s := range shards {
		if s == nil || s == out {
			continue
		}
		s.reset()
		shardTablePool.Put(s)
	}
}

// mktScratchPool recycles the marketplace evaluator's per-worker measure
// scratch (histogram pair + relevance/exposure vectors).
var mktScratchPool sync.Pool

func getMktScratch(bins int) *mktScratch {
	if v := mktScratchPool.Get(); v != nil {
		if sc := v.(*mktScratch); sc.hg.Bins() == bins {
			return sc
		}
	}
	return &mktScratch{
		hg: stats.NewHistogram(0, 1, bins),
		hc: stats.NewHistogram(0, 1, bins),
	}
}

func putMktScratch(sc *mktScratch) {
	if sc != nil {
		mktScratchPool.Put(sc)
	}
}
