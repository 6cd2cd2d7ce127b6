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
// location) pair routes here (the node's only copy of them) and a local
// engine over it. What else the node builds follows the partition count,
// because the coordinator reads a node differently at each:
//
//   - At one partition every request is one OpServe to the engine. The
//     snapshot builds its index families at construction, as a single
//     engine's does, and the node builds no fragments: OpScan and
//     OpLookup are refused.
//   - Above one partition the coordinator streams quantify from the
//     node's three list-fragment families (OpScan, OpLookup), gathers
//     compare from its cells (OpCells), and sends OpServe only for
//     mitigate, which reads the pages. So the node builds the fragments,
//     and its snapshot is deferred (serve.NewDeferredSnapshot): the index
//     families would be built only if a quantify or compare reached the
//     engine, which the coordinator never sends there.
//
// A node is a simulated remote process — the coordinator talks to it
// only through the Transport — but lives in-process today.
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
	snap   *serve.Snapshot // deferred above one partition, eager at one
	engine *serve.Engine

	// group, query and loc are the three families' fragments, indexed
	// by global list id; a list this partition owns no piece of is
	// empty. All three are nil at one partition.
	group, query, loc *topk.SliceLists
}

// NewNode builds partition id of n over its sub-table, in the shape n
// selects (see Node). The universe is sealed and the snapshot owns the
// pages; Refresh replaces cells only.
func NewNode(id, n int, uni *Universe, sub *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking, opts NodeOptions) *Node {
	nd := &Node{id: id, n: n, uni: uni, opts: opts}
	snapshot := serve.NewSnapshotWithRankings
	if n > 1 {
		snapshot = serve.NewDeferredSnapshot
	}
	nd.state.Store(nd.buildState(snapshot(sub, schema, rankings)))
	return nd
}

// buildState freezes one generation around snap: its engine and, above
// one partition, the three fragment families, read from the snapshot's
// sealed cells.
func (nd *Node) buildState(snap *serve.Snapshot) *nodeState {
	st := &nodeState{
		snap: snap,
		engine: serve.NewEngine(snap, serve.Options{
			Workers:   1,
			CacheSize: nd.opts.CacheSize,
		}),
	}
	if nd.n > 1 {
		st.group, st.query, st.loc = nd.buildFragments(snap)
	}
	return st
}

// buildFragments materializes this partition's fragments of the three
// list families, completed against the universe. It routes each (query,
// location) pair once, reads the sealed cells in one Range pass into an
// array of the owned pairs' values by universe ids, where a cell left
// undefined keeps 0 (the completion value), and cuts every fragment's
// entries from that array. Each family is one index.NewLists call
// (through topk.NewSliceLists), which sorts every fragment into the
// canonical order.
func (nd *Node) buildFragments(snap *serve.Snapshot) (group, query, loc *topk.SliceLists) {
	u := nd.uni
	G, Q, L := u.GroupKeys, u.Queries, u.Locations

	// Ownership per (q, l) pair: slot[qi·|L| + li] numbers the pairs
	// routed here and is -1 elsewhere. ownedQ[li] holds the queries qi
	// with Route(Q[qi], L[li]) == id, ownedL[qi] the symmetric locations.
	slot := make([]int32, len(Q)*len(L))
	ownedQ := make([][]int, len(L))
	ownedL := make([][]int, len(Q))
	pairs := 0
	for qi, q := range Q {
		for li, l := range L {
			slot[qi*len(L)+li] = -1
			if Route(q, l, nd.n) == nd.id {
				slot[qi*len(L)+li] = int32(pairs)
				pairs++
				ownedQ[li] = append(ownedQ[li], qi)
				ownedL[qi] = append(ownedL[qi], li)
			}
		}
	}

	// cells[slot·|G| + gi] is group G[gi]'s value on an owned pair.
	cells := make([]float64, pairs*len(G))
	value := func(gi, qi, li int) float64 { return cells[int(slot[qi*len(L)+li])*len(G)+gi] }
	snap.Range(func(tr core.Triple, v float64) {
		gi, okG := u.gid[tr.GroupKey]
		qi, okQ := u.qid[tr.Query]
		li, okL := u.lid[tr.Location]
		if !okG || !okQ || !okL {
			return // outside the sealed universe: in no fragment
		}
		if s := slot[qi*len(L)+li]; s >= 0 {
			cells[int(s)*len(G)+gi] = v
		}
	})

	// Each family holds |G| postings per owned pair; its fragments are
	// consecutive slices of one array of exactly that size.
	var buf []index.Entry
	cut := func(start int) []index.Entry { return buf[start:len(buf):len(buf)] }

	// I(q,l) family: one list per owned pair, carrying every group.
	glists := make([][]index.Entry, len(Q)*len(L))
	buf = make([]index.Entry, 0, len(G)*pairs)
	for li, qs := range ownedQ {
		for _, qi := range qs {
			start := len(buf)
			for gi, g := range G {
				buf = append(buf, index.Entry{Key: g, Value: value(gi, qi, li)})
			}
			glists[qi*len(L)+li] = cut(start)
		}
	}

	// I(g,l) family: for every (g, l), the queries whose (q, l) pair
	// routes here.
	qlists := make([][]index.Entry, len(G)*len(L))
	buf = make([]index.Entry, 0, len(G)*pairs)
	for gi := range G {
		for li, qs := range ownedQ {
			if len(qs) == 0 {
				continue
			}
			start := len(buf)
			for _, qi := range qs {
				buf = append(buf, index.Entry{Key: string(Q[qi]), Value: value(gi, qi, li)})
			}
			qlists[gi*len(L)+li] = cut(start)
		}
	}

	// I(g,q) family: for every (g, q), the locations whose (q, l) pair
	// routes here.
	llists := make([][]index.Entry, len(G)*len(Q))
	buf = make([]index.Entry, 0, len(G)*pairs)
	for gi := range G {
		for qi, ls := range ownedL {
			if len(ls) == 0 {
				continue
			}
			start := len(buf)
			for _, li := range ls {
				buf = append(buf, index.Entry{Key: string(L[li]), Value: value(gi, qi, li)})
			}
			llists[gi*len(Q)+qi] = cut(start)
		}
	}

	return topk.NewSliceLists(glists), topk.NewSliceLists(qlists), topk.NewSliceLists(llists)
}

// Gen returns the node's current generation.
func (nd *Node) Gen() uint64 {
	return nd.state.Load().snap.Gen()
}

// Refresh applies a copy-on-write edit through Snapshot.WithUpdates (one
// table clone, pages shared) and swaps in the new generation: snapshot,
// engine and fragments together. Above one partition that is the clone
// and the fragments, since the successor snapshot stays deferred; at one
// partition it is the clone and the snapshot's index families. Edits
// must stay within the partition's owned (query, location) pairs and
// must not grow the dimension universe — ownership and completion are
// anchored to the Universe.
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
		if call.List < 0 || call.List >= fam.NumLists() {
			return Reply{Gen: gen}, fmt.Errorf("cluster: partition %d: list %d out of range", nd.id, call.List)
		}
		return Reply{Gen: gen, Entries: topk.ScanFrom(fam, call.List, call.Start, call.Count)}, nil
	case OpLookup:
		fam, err := st.family(call.Dim)
		if err != nil {
			return Reply{Gen: gen}, err
		}
		var row []ListValue
		for li := 0; li < fam.NumLists(); li++ {
			if fam.Len(li) == 0 {
				continue // a list this partition owns no piece of
			}
			if v, ok := fam.Find(li, call.Key); ok {
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
// A node at one partition holds none: its coordinator sends it OpServe
// only.
func (st *nodeState) family(dim compare.Dimension) (*topk.SliceLists, error) {
	var fam *topk.SliceLists
	switch dim {
	case compare.ByGroup:
		fam = st.group
	case compare.ByQuery:
		fam = st.query
	case compare.ByLocation:
		fam = st.loc
	default:
		return nil, fmt.Errorf("cluster: unknown dimension %v", dim)
	}
	if fam == nil {
		return nil, errors.New("cluster: a single partition holds no list fragments; it serves every request through OpServe")
	}
	return fam, nil
}
