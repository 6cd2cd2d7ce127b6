package main

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// smallTable fills every group of the default schema over 6 queries and
// 5 locations, so four partitions each own some cells.
func smallTable() *core.Table {
	rng := rand.New(rand.NewSource(1))
	tbl := core.NewTable()
	for q := 0; q < 6; q++ {
		for l := 0; l < 5; l++ {
			for _, g := range core.DefaultSchema().Universe() {
				tbl.Set(g, core.Query(fmt.Sprintf("q%d", q)), core.Location(fmt.Sprintf("l%d", l)), rng.Float64())
			}
		}
	}
	return tbl
}

// logged serves req with a fresh wire log attached.
func logged(t *testing.T, c *cluster.Coordinator, req serve.Request) *wireLog {
	t.Helper()
	wl := newWireLog()
	if resp := c.DoCtx(withWireLog(context.Background(), wl), req); resp.Err != nil {
		t.Fatalf("%v: %v", req, resp.Err)
	}
	return wl
}

func TestWireCountsOneServeRPCOnOnePartition(t *testing.T) {
	c := newCountedCluster(smallTable(), nil, cluster.Options{Partitions: 1})
	g := c.GroupKeys()
	for _, req := range []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA},
		{Problem: serve.Quantify, Dim: compare.ByLocation, K: 2, Direction: topk.LeastUnfair, Algorithm: topk.TA},
		{Problem: serve.Compare, Of: compare.ByGroup, R1: g[0], R2: g[1], By: compare.ByQuery, DefinedOnly: true},
	} {
		wl := logged(t, c, req)
		if totalRPCs(wl.ops) != 1 || wl.ops[cluster.OpServe] != 1 || wl.repeats != 0 {
			t.Errorf("%v: %d RPCs %v, %d repeats; want exactly one serve RPC", req, totalRPCs(wl.ops), wl.ops, wl.repeats)
		}
	}
}

func TestWireCountsFourCellsRPCsPerCompareOnFourPartitions(t *testing.T) {
	c := newCountedCluster(smallTable(), nil, cluster.Options{Partitions: 4})
	g, q := c.GroupKeys(), c.Queries()
	for _, req := range []serve.Request{
		{Problem: serve.Compare, Of: compare.ByGroup, R1: g[0], R2: g[3], By: compare.ByLocation, DefinedOnly: true},
		{Problem: serve.Compare, Of: compare.ByQuery, R1: string(q[0]), R2: string(q[1]), By: compare.ByGroup},
	} {
		wl := logged(t, c, req)
		if totalRPCs(wl.ops) != 4 || wl.ops[cluster.OpCells] != 4 {
			t.Errorf("%v: %d RPCs %v; want four cells RPCs", req, totalRPCs(wl.ops), wl.ops)
		}
		if wl.entries == 0 {
			t.Errorf("%v: replies carried no cells", req)
		}
	}
	// A partitioned quantify streams: scans and lookups, no serve legs.
	wl := logged(t, c, serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA})
	if wl.ops[cluster.OpScan] == 0 || wl.ops[cluster.OpServe] != 0 {
		t.Errorf("quantify on four partitions: %v", wl.ops)
	}
}

// TestWireLogRepeatsAndCoverage checks what the log derives: a Send
// repeating a call of the request, as a hedge duplicate does, is counted
// apart; a call's entries count once, from whichever Send first brought
// a reply; and the transport time is the union of the Send intervals.
func TestWireLogRepeatsAndCoverage(t *testing.T) {
	wl := newWireLog()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	scan := cluster.Call{Op: cluster.OpScan, PinGen: 1, List: 4, Start: 0, Count: 32}
	first, repeat := wl.begin(2, scan)
	if repeat {
		t.Fatal("first Send counted as a repeat")
	}
	hedge, repeat := wl.begin(2, scan)
	if !repeat {
		t.Fatal("the same call to the same partition not counted as a repeat")
	}
	next := scan
	next.Start = 32
	nextKey, repeat1 := wl.begin(2, next)
	other, repeat2 := wl.begin(3, scan)
	if repeat1 || repeat2 {
		t.Fatal("the next block, or the same block of another partition, counted as a repeat")
	}
	// The hedge duplicate wins and the abandoned first Send brings no
	// reply, so the duplicate's entries count.
	wl.end(hedge, true, at(5), at(15), true, 32)
	wl.end(first, false, at(0), at(10), false, 0)
	wl.end(nextKey, false, at(20), at(30), true, 1)
	wl.end(other, false, at(40), at(45), true, 0)
	retry, _ := wl.begin(2, next)
	wl.end(retry, true, at(41), at(44), true, 1)
	if totalRPCs(wl.ops) != 3 || wl.repeats != 2 || wl.entries != 33 {
		t.Errorf("rpcs %d repeats %d entries %d, want 3, 2, 33", totalRPCs(wl.ops), wl.repeats, wl.entries)
	}
	if got := wl.covered(); got != 30*time.Millisecond {
		t.Errorf("covered %v, want 30ms", got)
	}
}
