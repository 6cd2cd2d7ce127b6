package cluster

import (
	"context"
	"fmt"
	"strconv"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/faultinject"
	"fairjob/internal/index"
	"fairjob/internal/serve"
)

// Op selects what a Call asks a partition node to do.
type Op int

const (
	// OpScan is resumable sorted access: read a block of entries from
	// one list fragment starting at a caller-owned cursor. The
	// coordinator's distributed TA is built from these.
	OpScan Op = iota
	// OpLookup is random access: return the key's value in every list
	// fragment this partition owns for one dimension — a full row from
	// this partition's point of view, which the coordinator merges and
	// caches so one scatter answers all subsequent random accesses for
	// the key.
	OpLookup
	// OpCells returns every defined cell of the partition's sub-table —
	// the gather behind Problem 2 comparisons and behind the degraded
	// recompute when partitions are missing.
	OpCells
	// OpServe passes a full serve.Request through to the partition's
	// local engine — the single-leg fast path (one partition, or a
	// page-local mitigate routed to its owner).
	OpServe
)

func (o Op) String() string {
	switch o {
	case OpScan:
		return "scan"
	case OpLookup:
		return "lookup"
	case OpCells:
		return "cells"
	case OpServe:
		return "serve"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Call is one simulated RPC to a partition node. PinGen carries the
// all-or-nothing generation pin: 0 means "pin to whatever you serve and
// tell me", any other value means "serve exactly this generation or
// refuse with ErrGenMismatch".
type Call struct {
	Op     Op
	PinGen uint64

	// OpScan / OpLookup operands.
	Dim          compare.Dimension
	List         int
	Start, Count int
	Key          string

	// OpServe operand.
	Req serve.Request

	// Trace propagation. These are the wire schema a networked transport
	// would serialize: the coordinator's trace id and the id of the leg
	// span this call runs under, enough for the remote side to emit spans
	// that join the caller's tree. The in-process transport additionally
	// carries the live obs.SpanRef in the context (obs.ContextWithSpan),
	// which is what the node-side engine actually joins today.
	TraceID    uint64
	ParentSpan int32
}

// ListValue is one entry of an OpLookup reply: the key's value in one
// of the partition's owned lists.
type ListValue struct {
	List  int
	Value float64
}

// Cell is one defined cell of a partition's sub-table.
type Cell struct {
	G string
	Q core.Query
	L core.Location
	V float64
}

// Reply is a node's answer to one Call. Gen always reports the
// generation that served it, which is how an unpinned first leg learns
// the pin for the rest of the request.
type Reply struct {
	Gen     uint64
	Entries []index.Entry  // OpScan
	Row     []ListValue    // OpLookup
	Cells   []Cell         // OpCells
	Resp    serve.Response // OpServe
}

// Transport delivers calls to partitions. The in-process LocalTransport
// is the only implementation today; the interface exists so a real
// network split later replaces one type, not the coordinator. Send must
// be safe for concurrent use, and a call whose ctx has ended by the time
// its reply is in hand returns ctx.Err(), never the reply: an OpServe
// reply carries the engine's error inside Reply.Resp, so a
// hedge-canceled leg or one whose budget expired would otherwise come
// back as the leg's answer. How soon an ended ctx releases the caller is
// the implementation's to state (see LocalTransport.Send): a handler
// that runs to its end keeps the caller past the leg deadline by up to
// its own run time.
type Transport interface {
	Send(ctx context.Context, partition int, call Call) (Reply, error)
}

// LocalTransport is the simulated-RPC transport: calls are function
// calls into in-process nodes, with the cluster chaos failpoints
// compiled into the send path so tests can down, slow or flap
// individual partitions exactly where a network would fail. The
// partition id is the failpoint key.
type LocalTransport struct {
	nodes []*Node
}

// NewLocalTransport wraps in-process nodes as a Transport.
func NewLocalTransport(nodes []*Node) *LocalTransport {
	return &LocalTransport{nodes: nodes}
}

// Send delivers one call as a plain function call: the node's handler
// runs on the caller's goroutine, as the first attempt of every leg
// already does (see reqCtx.leg), so the hot path starts no goroutine.
// The failpoint layout mirrors a real RPC: partition-down and
// partition-flap fire before the "wire" (the send errors, the node
// never sees the call), partition-slow fires on the serving side (the
// handler stalls). A caller whose ctx ends — its budget expired, or its
// hedge won — abandons a partition-slow stall at once:
// faultinject.InjectKeyedCtx runs the stall on its own goroutine for
// that. Any other slow handler runs on: an OpServe engine to its next
// round checkpoint, an OpScan, OpLookup or OpCells to its end. The
// longest of those, OpCells, copies a 4-partition node's ~14k cells of
// the benchmark crawl (about 0.8 MB) in 0.4–2.6 ms on a 2-vCPU Xeon, a
// tenth to a quarter of the 10 ms MinLegBudget default, so it checks no
// context. Once Handle returns, an ended ctx makes Send return
// ctx.Err() instead of the reply.
func (t *LocalTransport) Send(ctx context.Context, partition int, call Call) (Reply, error) {
	if partition < 0 || partition >= len(t.nodes) {
		return Reply{}, fmt.Errorf("cluster: no partition %d (have %d)", partition, len(t.nodes))
	}
	key := strconv.Itoa(partition)
	if err := faultinject.InjectKeyedErr(faultinject.ClusterPartitionDown, key); err != nil {
		return Reply{}, fmt.Errorf("%w: partition %d down: %v", ErrPartitionUnavailable, partition, err)
	}
	if err := faultinject.InjectKeyedErr(faultinject.ClusterPartitionFlap, key); err != nil {
		return Reply{}, fmt.Errorf("%w: partition %d flapped: %v", ErrPartitionUnavailable, partition, err)
	}
	if err := faultinject.InjectKeyedCtx(ctx, faultinject.ClusterPartitionSlow, key); err != nil {
		return Reply{}, err
	}
	reply, err := t.nodes[partition].Handle(ctx, call)
	if cerr := ctx.Err(); cerr != nil {
		return Reply{}, cerr
	}
	return reply, err
}
