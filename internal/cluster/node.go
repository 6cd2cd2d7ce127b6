package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// NodeOptions configures one partition node.
type NodeOptions struct {
	// CacheSize is passed to the node's local serve engine (0 selects
	// the engine default, negative disables — benchmarks disable it so
	// the measured overhead is transport, not cache luck).
	CacheSize int
}

// Node is one partition: a serve snapshot of the cells whose (query,
// location) pair routes here (the node's only copy of them), a local
// engine over it (the single-leg OpServe path), and the three
// list-fragment families the distributed TA scans. A node is a simulated
// remote process — the coordinator talks to it only through the
// Transport — but lives in-process today.
//
// Fragments are completed against the shared Universe, not the
// sub-table's own dimensions: the I(q,l) fragments carry every group in
// the universe (value 0 where this partition's cells don't define one),
// and the I(g,l) / I(g,q) fragments carry exactly the queries/locations
// whose pairs route here. Each list member therefore lives on exactly
// one partition, so a LessEntries merge of the fragments reproduces the
// single index's lists byte-for-byte.
type Node struct {
	id, n int
	uni   *Universe
	opts  NodeOptions

	mu    sync.Mutex // serializes Refresh
	state atomic.Pointer[nodeState]
}

// nodeState is one immutable generation of a node, numbered by its
// snapshot: snapshot, engine and fragment families swap together,
// atomically, so a pinned call never sees a torn mix of generations.
type nodeState struct {
	snap   *serve.Snapshot
	engine *serve.Engine

	group, query, loc *fragFamily
}

// fragFamily is one list family's fragments: a global-listID-indexed
// ragged ListSource (nil slices for lists this partition owns no piece
// of) plus the owned list ids for row lookups.
type fragFamily struct {
	lists *topk.SliceLists
	owned []int
}

// NewNode builds partition id of n over its sub-table. The universe is
// sealed and the snapshot owns the pages; Refresh replaces cells only.
func NewNode(id, n int, uni *Universe, sub *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking, opts NodeOptions) *Node {
	nd := &Node{id: id, n: n, uni: uni, opts: opts}
	nd.state.Store(nd.buildState(serve.NewSnapshotWithRankings(sub, schema, rankings)))
	return nd
}

// buildState freezes one generation around snap: its engine and the
// three fragment families, all read from the snapshot's sealed cells.
func (nd *Node) buildState(snap *serve.Snapshot) *nodeState {
	st := &nodeState{
		snap: snap,
		engine: serve.NewEngine(snap, serve.Options{
			Workers:   1,
			CacheSize: nd.opts.CacheSize,
		}),
	}
	st.group, st.query, st.loc = nd.buildFragments(snap)
	return st
}

// buildFragments materializes this partition's fragments of the three
// list families, completed against the universe.
func (nd *Node) buildFragments(snap *serve.Snapshot) (group, query, loc *fragFamily) {
	G, Q, L := nd.uni.GroupKeys, nd.uni.Queries, nd.uni.Locations

	// Ownership per (q, l) pair, plus the owned member sets per axis:
	// ownedQ[li] = queries q with Route(q, L[li]) == id, ownedL[qi]
	// symmetric.
	ownedQ := make([][]core.Query, len(L))
	ownedL := make([][]core.Location, len(Q))
	for qi, q := range Q {
		for li, l := range L {
			if Route(q, l, nd.n) == nd.id {
				ownedQ[li] = append(ownedQ[li], q)
				ownedL[qi] = append(ownedL[qi], l)
			}
		}
	}

	// I(q,l) family: one list per owned pair, carrying every group.
	glists := make([][]index.Entry, len(Q)*len(L))
	for qi, q := range Q {
		for li, l := range L {
			if Route(q, l, nd.n) != nd.id {
				continue
			}
			entries := make([]index.Entry, len(G))
			for gi, g := range G {
				v, _ := snap.Cell(g, q, l) // undefined completes to 0
				entries[gi] = index.Entry{Key: g, Value: v}
			}
			topk.SortEntries(entries)
			glists[qi*len(L)+li] = entries
		}
	}

	// I(g,l) family: for every (g, l), the queries whose (q, l) pair
	// routes here.
	qlists := make([][]index.Entry, len(G)*len(L))
	for gi, g := range G {
		for li, l := range L {
			qs := ownedQ[li]
			if len(qs) == 0 {
				continue
			}
			entries := make([]index.Entry, len(qs))
			for i, q := range qs {
				v, _ := snap.Cell(g, q, l)
				entries[i] = index.Entry{Key: string(q), Value: v}
			}
			topk.SortEntries(entries)
			qlists[gi*len(L)+li] = entries
		}
	}

	// I(g,q) family: for every (g, q), the locations whose (q, l) pair
	// routes here.
	llists := make([][]index.Entry, len(G)*len(Q))
	for gi, g := range G {
		for qi, q := range Q {
			ls := ownedL[qi]
			if len(ls) == 0 {
				continue
			}
			entries := make([]index.Entry, len(ls))
			for i, l := range ls {
				v, _ := snap.Cell(g, q, l)
				entries[i] = index.Entry{Key: string(l), Value: v}
			}
			topk.SortEntries(entries)
			llists[gi*len(Q)+qi] = entries
		}
	}

	return newFragFamily(glists), newFragFamily(qlists), newFragFamily(llists)
}

func newFragFamily(lists [][]index.Entry) *fragFamily {
	f := &fragFamily{lists: topk.NewSliceLists(lists)}
	for i, l := range lists {
		if l != nil {
			f.owned = append(f.owned, i)
		}
	}
	return f
}

// Gen returns the node's current generation.
func (nd *Node) Gen() uint64 {
	return nd.state.Load().snap.Gen()
}

// Refresh applies a copy-on-write edit through Snapshot.WithUpdates (one
// table clone, pages shared) and swaps in the new generation: snapshot,
// engine and fragments together. Edits must stay within the partition's
// owned (query, location) pairs and must not grow the dimension
// universe — ownership and completion are anchored to the Universe.
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
	case OpScan:
		fam, err := st.family(call.Dim)
		if err != nil {
			return Reply{Gen: gen}, err
		}
		if call.List < 0 || call.List >= fam.lists.NumLists() {
			return Reply{Gen: gen}, fmt.Errorf("cluster: partition %d: list %d out of range", nd.id, call.List)
		}
		return Reply{Gen: gen, Entries: topk.ScanFrom(fam.lists, call.List, call.Start, call.Count)}, nil
	case OpLookup:
		fam, err := st.family(call.Dim)
		if err != nil {
			return Reply{Gen: gen}, err
		}
		var row []ListValue
		for _, li := range fam.owned {
			if v, ok := fam.lists.Find(li, call.Key); ok {
				row = append(row, ListValue{List: li, Value: v})
			}
		}
		return Reply{Gen: gen, Row: row}, nil
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

// family resolves the fragment family for a quantification dimension.
func (st *nodeState) family(dim compare.Dimension) (*fragFamily, error) {
	switch dim {
	case compare.ByGroup:
		return st.group, nil
	case compare.ByQuery:
		return st.query, nil
	case compare.ByLocation:
		return st.loc, nil
	default:
		return nil, fmt.Errorf("cluster: unknown dimension %v", dim)
	}
}
