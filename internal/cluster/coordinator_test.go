package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// hookTransport forwards to the coordinator's own nodes after running
// before, which may fail the send or act on the nodes first. It is bound
// to the nodes after the coordinator is built.
type hookTransport struct {
	inner  Transport
	before func(p int) error
}

func (t *hookTransport) Send(ctx context.Context, p int, call Call) (Reply, error) {
	if err := t.before(p); err != nil {
		return Reply{}, err
	}
	return t.inner.Send(ctx, p, call)
}

// hookTable is a small fixed table with every cell defined.
func hookTable() *core.Table {
	tbl := core.NewTable()
	for g := 0; g < 4; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%d", g)})
		for q := 0; q < 4; q++ {
			for l := 0; l < 3; l++ {
				v := float64((7*g+3*q+l)%10) / 10
				tbl.Set(grp, core.Query(fmt.Sprintf("q%d", q)), core.Location(fmt.Sprintf("l%d", l)), v)
			}
		}
	}
	return tbl
}

// hookedCoordinator builds an n-partition coordinator over tbl whose
// transport runs before ahead of every send, with leg retries off so a
// refused send fails its leg at once.
func hookedCoordinator(tbl *core.Table, n int, before func(c *Coordinator, p int) error) *Coordinator {
	tp := &hookTransport{}
	c := New(tbl, Options{
		Partitions:    n,
		Transport:     tp,
		NodeCacheSize: -1,
		Retry:         serve.RetryPolicy{MaxAttempts: 1},
	})
	tp.inner = NewLocalTransport(c.nodes)
	tp.before = func(p int) error { return before(c, p) }
	return c
}

// TestDegradedMemoKeepsLatestEngine: with one partition down, every
// survivor refresh changes the degraded engine's memo key. The memo must
// keep only the latest engine, or an outage spanning refreshes retains
// one full engine per refresh, and every degraded answer must reflect
// the survivors' current cells, not the generations the request's pins
// last saw.
func TestDegradedMemoKeepsLatestEngine(t *testing.T) {
	const n, down = 3, 1
	tbl := hookTable()
	c := hookedCoordinator(tbl, n, func(_ *Coordinator, p int) error {
		if p == down {
			return fmt.Errorf("%w: partition %d down", ErrPartitionUnavailable, p)
		}
		return nil
	})
	// edit sets every defined cell partition p owns to v.
	edit := func(tb *core.Table, p int, v float64) {
		for _, g := range tb.Groups() {
			for _, q := range tb.Queries() {
				for _, l := range tb.Locations() {
					if _, ok := tb.Get(g, q, l); ok && Route(q, l, n) == p {
						tb.Set(g, q, l, v)
					}
				}
			}
		}
	}
	gks := c.GroupKeys()
	reqs := []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA},
		{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByQuery},
	}
	ref := tbl.Clone()
	survivors := []int{0, 2}
	for refreshes := 0; refreshes <= 3; refreshes++ {
		if refreshes > 0 {
			p, v := survivors[refreshes%2], float64(refreshes)/10
			c.Node(p).Refresh(func(sub *core.Table) { edit(sub, p, v) })
			edit(ref, p, v)
		}
		survivorTbl := core.NewTable()
		ref.Range(func(tr core.Triple, v float64) {
			if Route(tr.Query, tr.Location, n) != down {
				g, _ := ref.GroupByKey(tr.GroupKey)
				survivorTbl.Set(g, tr.Query, tr.Location, v)
			}
		})
		want := serve.NewEngine(serve.NewSnapshot(survivorTbl), serve.Options{CacheSize: -1, Workers: 1})
		for i, req := range reqs {
			resp := c.Do(req)
			var pres *PartialResultError
			if !errors.As(resp.Err, &pres) || pres.Cause != nil {
				t.Fatalf("after %d refreshes, request %d: want a clean partial result, got %v", refreshes, i, resp.Err)
			}
			w := want.Do(req)
			got, exp := fmt.Sprintf("%+v %+v", resp.Results, resp.Comparison), fmt.Sprintf("%+v %+v", w.Results, w.Comparison)
			if got != exp {
				t.Fatalf("after %d refreshes, request %d: degraded answer is not the survivors' current data:\n got: %s\nwant: %s", refreshes, i, got, exp)
			}
		}
		c.degMu.Lock()
		kept := len(c.deg)
		c.degMu.Unlock()
		if kept > 1 {
			t.Fatalf("after %d survivor refreshes the coordinator retains %d degraded engines, want at most 1", refreshes, kept)
		}
	}
}

// TestSecondGenFlipFailsRequest: a partition that refreshes before every
// send flips the first attempt's pin and then the re-pinned attempt's
// too. The request must fail with ErrGenMismatch after exactly one
// re-pin, never answer from an attempt whose pins flipped.
func TestSecondGenFlipFailsRequest(t *testing.T) {
	const flapping = 0
	c := hookedCoordinator(hookTable(), 2, func(c *Coordinator, p int) error {
		if p == flapping {
			c.nodes[p].Refresh(nil)
		}
		return nil
	})
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	resp := c.Do(req)
	if !errors.Is(resp.Err, ErrGenMismatch) {
		t.Fatalf("want an error wrapping ErrGenMismatch, got err=%v results=%+v", resp.Err, resp.Results)
	}
	if got := c.met.repins.Value(); got != 1 {
		t.Fatalf("cluster_repins_total = %d, want 1", got)
	}
}
