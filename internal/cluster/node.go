package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/serve"
)

// NodeOptions configures one partition node.
type NodeOptions struct {
	// CacheSize is passed to the node's local serve engine (0 selects
	// the engine default, negative disables — benchmarks disable it so
	// the measured overhead is transport, not cache luck).
	CacheSize int
}

// Node is one partition: a serve snapshot of the cells whose (query,
// location) pair routes here (the node's only copy of them) and a local
// engine over it. What else the node holds follows the partition count,
// because the coordinator reads a node differently at each:
//
//   - At one partition every request is one OpServe to the engine. The
//     snapshot builds its index families at construction, as a single
//     engine's does, and the node holds nothing else: OpScan and OpLookup
//     are refused.
//   - Above one partition the coordinator streams quantify from the
//     node's fragments of the three list families (OpScan, OpLookup),
//     gathers compare from its cells (OpCells), and sends OpServe only
//     for mitigate, which reads the pages. So the node keeps its cells in
//     one array as well, and its snapshot is deferred
//     (serve.NewDeferredSnapshot): the index families would be built only
//     if a quantify or compare reached the engine, which the coordinator
//     never sends there.
//
// A node is a simulated remote process — the coordinator talks to it
// only through the Transport — but lives in-process today.
//
// Fragments are completed against the shared Universe, not the
// sub-table's own dimensions: the I(q,l) fragment of an owned pair
// carries every group in the universe (value 0 where this partition's
// cells don't define one), and the I(g,l) / I(g,q) fragments carry
// exactly the queries/locations whose pairs route here. Each list member
// therefore lives on exactly one partition, so a LessEntries merge of
// the fragments reproduces the single index's lists byte-for-byte. A
// node keeps no sorted fragments: an OpScan reads the fragment from the
// cell array and sorts it with the index families' own posting sort,
// each time it is asked.
type Node struct {
	id   int
	uni  *Universe
	opts NodeOptions
	// slot numbers the pairs the node owns in (query, location) order, at
	// qi·|L| + li, and is -1 on a pair another partition owns; owned is
	// their count. Both are fixed for the node's life, as a refresh edits
	// cells, never ownership. slot is nil at one partition.
	slot  []int32
	owned int

	mu    sync.Mutex // serializes Refresh
	state atomic.Pointer[nodeState]
}

// nodeState is one immutable generation of a node, numbered by its
// snapshot: snapshot, engine and cell array swap together, atomically,
// so a pinned call never sees a torn mix of generations.
type nodeState struct {
	snap   *serve.Snapshot // deferred above one partition, eager at one
	engine *serve.Engine

	// cells holds the owned pairs' cells above one partition: group gi
	// of the pair in slot s at s·|G| + gi, where a cell the sub-table
	// leaves undefined reads 0, the completion value. Nil at one
	// partition.
	cells []float64
}

// newNode builds partition id over its sub-table. owner is the partition
// of every universe pair at qi·|L| + li (Universe.owners), and nil at one
// partition, which selects the one-partition shape (see Node). The
// universe is sealed and the snapshot owns the pages; Refresh replaces
// cells only.
func newNode(id int, uni *Universe, owner []int32, sub *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking, opts NodeOptions) *Node {
	nd := &Node{id: id, uni: uni, opts: opts}
	snapshot := serve.NewSnapshotWithRankings
	if owner != nil {
		nd.slot = make([]int32, len(owner))
		for i, p := range owner {
			nd.slot[i] = -1
			if int(p) == id {
				nd.slot[i] = int32(nd.owned)
				nd.owned++
			}
		}
		snapshot = serve.NewDeferredSnapshot
	}
	nd.state.Store(nd.buildState(snapshot(sub, schema, rankings)))
	return nd
}

// buildState freezes one generation around snap: its engine and, above
// one partition, the cell array, read from the snapshot's cells in one
// pass.
func (nd *Node) buildState(snap *serve.Snapshot) *nodeState {
	st := &nodeState{
		snap: snap,
		engine: serve.NewEngine(snap, serve.Options{
			Workers:   1,
			CacheSize: nd.opts.CacheSize,
		}),
	}
	if nd.slot != nil {
		u := nd.uni
		G, _, L := u.counts()
		st.cells = make([]float64, nd.owned*G)
		snap.Range(func(tr core.Triple, v float64) {
			gi, okG := u.ids[compare.ByGroup][tr.GroupKey]
			qi, okQ := u.ids[compare.ByQuery][string(tr.Query)]
			li, okL := u.ids[compare.ByLocation][string(tr.Location)]
			if !okG || !okQ || !okL {
				return // outside the sealed universe: in no list
			}
			if s := nd.slot[qi*L+li]; s >= 0 {
				st.cells[int(s)*G+gi] = v
			}
		})
	}
	return st
}

// Gen returns the node's current generation.
func (nd *Node) Gen() uint64 {
	return nd.state.Load().snap.Gen()
}

// Refresh applies a copy-on-write edit through Snapshot.WithUpdates (one
// table clone, pages shared) and swaps in the new generation: snapshot,
// engine and cell array together. Above one partition that is the clone
// and one pass over its cells, since the successor snapshot stays
// deferred; at one partition it is the clone and the snapshot's index
// families. Edits must stay within the partition's owned (query,
// location) pairs and must not grow the dimension universe — ownership
// and completion are anchored to the Universe.
func (nd *Node) Refresh(apply func(*core.Table)) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.state.Store(nd.buildState(nd.state.Load().snap.WithUpdates(apply)))
}

// Handle answers one transport call against the node's current
// generation. A non-zero PinGen that no longer matches refuses with
// ErrGenMismatch — the coordinator re-pins and restarts rather than
// merging data from two generations.
//
// Trace propagation: in-process, the coordinator's leg span rides the
// context (obs.ContextWithSpan), so an OpServe request's engine joins
// the caller's trace with no work here. Call.TraceID and
// Call.ParentSpan carry the same join key as wire-visible fields — a
// networked transport would serialize those and reconstruct the
// context server-side; this node reads neither.
func (nd *Node) Handle(ctx context.Context, call Call) (Reply, error) {
	st := nd.state.Load()
	gen := st.snap.Gen()
	if call.PinGen != 0 && call.PinGen != gen {
		return Reply{Gen: gen}, fmt.Errorf("%w: partition %d pinned gen %d, now serving %d",
			ErrGenMismatch, nd.id, call.PinGen, gen)
	}
	switch call.Op {
	case OpScan, OpLookup:
		lists, members, ok := nd.uni.family(call.Dim)
		switch {
		case !ok:
			return Reply{Gen: gen}, fmt.Errorf("cluster: unknown dimension %v", call.Dim)
		case nd.slot == nil:
			return Reply{Gen: gen}, errors.New("cluster: a single partition holds no list fragments; it serves every request through OpServe")
		case call.Op == OpLookup:
			return Reply{Gen: gen, Row: nd.lookup(st.cells, call.Dim, lists, call.Key)}, nil
		case call.List < 0 || call.List >= lists:
			return Reply{Gen: gen}, fmt.Errorf("cluster: partition %d: list %d out of range", nd.id, call.List)
		}
		return Reply{Gen: gen, Entries: nd.scan(st.cells, call, members)}, nil
	case OpCells:
		cells := make([]Cell, 0, st.snap.Len())
		st.snap.Range(func(tr core.Triple, v float64) {
			cells = append(cells, Cell{G: tr.GroupKey, Q: tr.Query, L: tr.Location, V: v})
		})
		return Reply{Gen: gen, Cells: cells}, nil
	case OpServe:
		return Reply{Gen: gen, Resp: st.engine.DoCtx(ctx, call.Req)}, nil
	default:
		return Reply{Gen: gen}, fmt.Errorf("cluster: partition %d: unknown op %v", nd.id, call.Op)
	}
}

// value returns the value of member m on list i of the family dim
// selects, and false when another partition owns the cell's pair.
func (nd *Node) value(cells []float64, dim compare.Dimension, i, m int) (float64, bool) {
	pair, g := nd.uni.cell(dim, i, m)
	s := int(nd.slot[pair])
	if s < 0 {
		return 0, false
	}
	return cells[s*len(nd.uni.GroupKeys)+g], true
}

// scan answers an OpScan: the postings call.Start to call.Start +
// call.Count of this partition's fragment of list call.List, in posting
// order. It reads the fragment's members off the cell array in id order
// and sorts them all on every call, in a buffer on the stack for a
// fragment of up to 64 postings, so the reply is its only allocation.
func (nd *Node) scan(cells []float64, call Call, members int) []index.Entry {
	var buf [64]index.Posting
	ps := buf[:0]
	for m := 0; m < members; m++ {
		if v, ok := nd.value(cells, call.Dim, call.List, m); ok {
			ps = append(ps, index.Posting{ID: int32(m), Value: v})
		}
	}
	n := min(call.Count, len(ps)-call.Start)
	if call.Start < 0 || n <= 0 {
		return nil
	}
	index.SortPostings(ps)
	out := make([]index.Entry, n)
	for i, p := range ps[call.Start : call.Start+n] {
		out[i] = index.Entry{Key: nd.uni.keys[call.Dim][p.ID], Value: p.Value}
	}
	return out
}

// lookup answers an OpLookup: key's value on each of the family's lists
// that holds key on this partition, in list order; nil when none does,
// as for a key outside the universe. It counts the lists first, so the
// row is its only allocation.
func (nd *Node) lookup(cells []float64, dim compare.Dimension, lists int, key string) []ListValue {
	m, ok := nd.uni.ids[dim][key]
	if !ok {
		return nil
	}
	n := 0
	for i := 0; i < lists; i++ {
		if _, ok := nd.value(cells, dim, i, m); ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	row := make([]ListValue, 0, n)
	for i := 0; i < lists; i++ {
		if v, ok := nd.value(cells, dim, i, m); ok {
			row = append(row, ListValue{List: i, Value: v})
		}
	}
	return row
}
