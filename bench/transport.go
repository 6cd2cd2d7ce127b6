package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/core"
)

// opCount is the number of cluster.Op values the wire counts separately.
const opCount = int(cluster.OpServe) + 1

// countingTransport is the benchmark's cluster.Transport: it forwards
// every Send to the coordinator's own in-process transport and, when the
// call's context carries a wireLog, records the Send there. Leg contexts
// derive from the request context, so every Send of one request —
// primaries, retries and hedge duplicates alike — lands in that
// request's log.
type countingTransport struct {
	inner cluster.Transport
}

// newCountedCluster builds a coordinator whose transport is a
// countingTransport over the coordinator's own nodes. The coordinator is
// built with the wrapper before its nodes exist, so the wrapper is bound
// to them right after construction, before the first request.
func newCountedCluster(tbl *core.Table, crawl []*core.MarketplaceRanking, opts cluster.Options) *cluster.Coordinator {
	wire := &countingTransport{}
	opts.Transport = wire
	c := cluster.NewWithRankings(tbl, nil, crawl, opts)
	nodes := make([]*cluster.Node, c.Partitions())
	for p := range nodes {
		nodes[p] = c.Node(p)
	}
	wire.inner = cluster.NewLocalTransport(nodes)
	return c
}

// Send implements cluster.Transport.
func (t *countingTransport) Send(ctx context.Context, partition int, call cluster.Call) (cluster.Reply, error) {
	wl, _ := ctx.Value(wireLogKey{}).(*wireLog)
	if wl == nil {
		return t.inner.Send(ctx, partition, call)
	}
	k, repeat := wl.begin(partition, call)
	start := time.Now()
	reply, err := t.inner.Send(ctx, partition, call)
	wl.end(k, repeat, start, time.Now(), err == nil, entriesOf(call.Op, reply))
	return reply, err
}

// entriesOf counts the items a reply carries.
func entriesOf(op cluster.Op, r cluster.Reply) int {
	switch op {
	case cluster.OpScan:
		return len(r.Entries)
	case cluster.OpLookup:
		return len(r.Row)
	case cluster.OpCells:
		return len(r.Cells)
	default:
		return 0
	}
}

type wireLogKey struct{}

// withWireLog returns a context whose Sends are recorded into wl.
func withWireLog(ctx context.Context, wl *wireLog) context.Context {
	return context.WithValue(ctx, wireLogKey{}, wl)
}

// interval is one Send's extent.
type interval struct{ start, end time.Time }

// callKey identifies one call of a request. Within a request the
// coordinator sends a call to a partition once — a scan names its block,
// a lookup its key, and cells and serve go once to each partition — and
// sends it again only as a hedge duplicate or a retry of that leg.
type callKey struct {
	partition          int
	op                 cluster.Op
	gen                uint64
	dim                int
	list, start, count int
	key                string
}

// wireLog is one request's transport record. Sends that repeat a call
// the request already made are counted apart, and a call's entries are
// taken from its first successful reply, whichever Send brought it, so
// the counts stay exact however the hedge timers fire; the coordinator's
// registry counts hedges and retries.
type wireLog struct {
	mu       sync.Mutex
	sent     map[callKey]bool
	answered map[callKey]bool
	ops      [opCount]int
	repeats  int
	entries  int
	legs     []interval
	legOp    []cluster.Op
}

func newWireLog() *wireLog {
	return &wireLog{sent: make(map[callKey]bool), answered: make(map[callKey]bool)}
}

// begin records the start of a Send: the call's key, and whether the
// Send repeats a call of the request.
func (w *wireLog) begin(partition int, c cluster.Call) (k callKey, repeat bool) {
	k = callKey{partition, c.Op, c.PinGen, int(c.Dim), c.List, c.Start, c.Count, c.Key}
	w.mu.Lock()
	defer w.mu.Unlock()
	repeat = w.sent[k]
	w.sent[k] = true
	return k, repeat
}

// end records a finished Send; ok reports whether it brought a reply.
func (w *wireLog) end(k callKey, repeat bool, start, end time.Time, ok bool, entries int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if repeat {
		w.repeats++
	} else if int(k.op) >= 0 && int(k.op) < opCount {
		w.ops[k.op]++
	}
	if ok && !w.answered[k] {
		w.answered[k] = true
		w.entries += entries
	}
	w.legs = append(w.legs, interval{start, end})
	w.legOp = append(w.legOp, k.op)
}

// totalRPCs sums per-op Send counts.
func totalRPCs(ops [opCount]int) int {
	n := 0
	for _, c := range ops {
		n += c
	}
	return n
}

// covered returns the length of the union of the request's Send
// intervals: the time the request spent waiting on the transport.
func (w *wireLog) covered() time.Duration {
	w.mu.Lock()
	legs := append([]interval(nil), w.legs...)
	w.mu.Unlock()
	sort.Slice(legs, func(i, j int) bool { return legs[i].start.Before(legs[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range legs {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(legs) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}
