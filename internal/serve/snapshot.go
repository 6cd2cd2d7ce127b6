// Package serve is the concurrent query-serving layer over the paper's
// problems: Problem 1 (fairness quantification, Fagin-style top-k over
// the Table-5 indices), Problem 2 (fairness comparison, Algorithms
// 2–3), and Problem 3 (fairness mitigation — re-rank one marketplace
// page to reduce a group's measured Exposure deviation, internal/
// mitigate). It exists so that one machine can answer many simultaneous
// fairness queries — the "heavy traffic" regime of the ROADMAP —
// without any caller ever observing a torn index.
//
// The design splits serving into two pieces:
//
//   - Snapshot: a frozen, shared-read view of one core.Table and of what
//     answers Problems 1 and 2 over it — the three index families, which
//     are Problem 1's list sources, and the two comparers — plus
//     the marketplace pages Problem 3 re-ranks. A snapshot is sealed —
//     constructed only by its constructors or WithUpdates, never mutated
//     afterwards — and carries a process-unique generation number. The
//     query structures are built at most once: before NewSnapshot or
//     NewSnapshotWithRankings returns, or, for NewDeferredSnapshot, on
//     the first quantify or compare. Table refreshes are copy-on-write:
//     WithUpdates clones the snapshot's table, applies the edits, and
//     returns a brand-new snapshot; readers of the old generation are
//     completely undisturbed.
//
//   - Engine: a query executor holding the current snapshot behind an
//     atomic pointer, a bounded worker pool for batches (the PR 1
//     Workers/GOMAXPROCS convention of internal/core), and an LRU result
//     cache keyed by request shape and invalidated by snapshot
//     generation.
//
// All query-time state of the underlying algorithms lives in per-call
// structs (topk's taState et al.) or in the call itself (compare's sums),
// which is what makes a single snapshot safe for N simultaneous queries;
// the package's concurrency and fuzz tests pin that contract under -race.
package serve

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/topk"
)

// generation is the process-wide snapshot generation counter. Every
// snapshot ever constructed gets a unique number, so a cache entry keyed
// on a generation can never be satisfied by data from a different
// snapshot — even across independent engines.
var generation atomic.Uint64

// Snapshot is an immutable, shared-read view of one unfairness table, of
// the query structures that answer Problems 1 and 2 over it, and of the
// marketplace pages Problem 3 re-ranks. There is no mutating method. The
// table is sealed by copy (producers keep editing theirs), the
// marketplace pages by ownership (nothing writes a page after the
// crawl; see NewSnapshotWithRankings). The query structures are derived
// from the table at most once, before the constructor returns or, for
// NewDeferredSnapshot, on first use. A snapshot may be shared by any
// number of goroutines without synchronization.
type Snapshot struct {
	gen     uint64
	created time.Time // freeze time, for the snapshot-age gauge
	// tbl is the snapshot's table, never mutated after construction: a
	// sealed copy (core.Table.Sealed), whose rows the index families read
	// in place, or for a deferred snapshot a page-major private clone.
	tbl *core.Table

	// query returns the query structures, building them on its first
	// call; concurrent first callers wait for that one build. deferred
	// records whether the constructor left that call to the first
	// quantify or compare, so WithUpdates can keep the choice.
	query    func() *queryState
	deferred bool

	// Problem 3 (mitigation) state: the raw marketplace pages behind the
	// table, one per (query, location) and sorted by it, so Ranking
	// binary-searches them and a page costs its pointer, plus the schema
	// that projects workers onto group labels. Both are only read
	// (mitigation builds permutations, not edits), so every later
	// generation shares them; nil without pages, whose mitigate requests
	// then error per-call.
	schema *core.Schema
	pages  []*core.MarketplaceRanking
}

// queryState is what quantify and compare read: the three Table-5 index
// families, which are Problem 1's full-scope list sources, and the two
// Problem 2 comparers (completion and defined-only semantics), which read
// the snapshot's table. It is read-only once built.
type queryState struct {
	groupIdx *index.GroupIndex // also the snapshot's sorted dimensions
	queryIdx *index.QueryIndex
	locIdx   *index.LocationIndex

	completion  *compare.Comparer
	definedOnly *compare.Comparer
}

// buildQuery derives a snapshot's query structures from its table. It is
// a variable so the package's tests can count builds.
var buildQuery = newQueryState

// newQueryState builds the three index families from tbl (one goroutine
// per family) and both comparers. The families read a sealed tbl in
// place; a deferred snapshot's page-major table is sealed once for them.
// Both comparers read tbl itself.
func newQueryState(tbl *core.Table) *queryState {
	gi, qi, li := index.BuildAll(tbl)
	return &queryState{
		groupIdx:    gi,
		queryIdx:    qi,
		locIdx:      li,
		completion:  compare.New(tbl),
		definedOnly: compare.NewDefinedOnlyWith(gi, tbl),
	}
}

// NewSnapshot freezes tbl into a snapshot: the snapshot keeps a sealed
// copy of the table (core.Table.Sealed, or tbl itself when it is already
// sealed), and the three index families are built over that copy's values
// in place (one goroutine per family). The caller's table remains its
// own — it may keep mutating it and later produce a fresh generation with
// another NewSnapshot or with Snapshot.WithUpdates.
func NewSnapshot(tbl *core.Table) *Snapshot {
	return newSnapshot(tbl, false)
}

// NewSnapshotWithRankings freezes tbl together with the marketplace
// pages it was evaluated from, enabling Problem 3 (mitigation) requests:
// the engine re-ranks a pinned page and re-measures it against the same
// generation both measurements see. The table is sealed by copy, as in
// NewSnapshot; the pages are not copied — the snapshot takes ownership
// of them, and the caller must not modify a page or its workers
// afterwards; the rankings slice itself stays the caller's. Nil pages
// are skipped, and a (query, location) given more than once keeps the
// last page given. schema projects workers onto the group labels
// mitigation targets (nil selects core.DefaultSchema).
func NewSnapshotWithRankings(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking) *Snapshot {
	return newSnapshotWithRankings(tbl, schema, rankings, false)
}

// NewDeferredSnapshot is NewSnapshotWithRankings without the index
// build: the three index families and the comparers are built on the
// first quantify or compare (or the first call of GroupKeys, Queries,
// Locations, Group or DimensionOf), once, however many requests arrive
// together. A snapshot that only serves mitigate requests and lends its
// cells through Cell, Range and Len — a cluster node above one partition
// — never builds them. Snapshots derived with WithUpdates stay deferred. Its table is a page-major Clone, not a
// sealed copy: a sealed table holds a row for every (query, location)
// pair, and a cluster node's sub-table owns only about 1/N of the pairs
// of its dimensions, so a sealed copy would hold about N times its cells.
// A serving engine should not use it: the build would land on the first
// request after start and after every refresh, with the requests behind
// it waiting.
func NewDeferredSnapshot(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking) *Snapshot {
	return newSnapshotWithRankings(tbl, schema, rankings, true)
}

// newSnapshotWithRankings is the shared body of the two constructors
// that take pages.
func newSnapshotWithRankings(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking, deferred bool) *Snapshot {
	if deferred {
		tbl = tbl.Clone()
	}
	s := newSnapshot(tbl, deferred)
	if schema == nil {
		schema = core.DefaultSchema()
	}
	s.schema = schema
	s.pages = sealPages(rankings)
	return s
}

// sealPages returns the non-nil pages of rankings sorted by (query,
// location), one per pair: a pair given more than once keeps the last
// page given for it. It sorts with two stable counting passes, by
// location and then by query, so it compares only the few distinct
// strings, where a comparison sort compares two pages' strings about
// log2(n) times a page: on the crawl's 5,361 pages that took four times
// as long.
func sealPages(rankings []*core.MarketplaceRanking) []*core.MarketplaceRanking {
	pages := make([]*core.MarketplaceRanking, 0, len(rankings))
	for _, r := range rankings {
		if r != nil {
			pages = append(pages, r)
		}
	}
	pages = sortedBy(pages, func(r *core.MarketplaceRanking) core.Location { return r.Location })
	pages = sortedBy(pages, func(r *core.MarketplaceRanking) core.Query { return r.Query })
	// Both passes are stable, so a repeated pair's last page is last in
	// its run.
	out := pages[:0]
	for i, r := range pages {
		if i+1 < len(pages) && comparePage(pages[i+1], r.Query, r.Location) == 0 {
			continue
		}
		out = append(out, r)
	}
	return out
}

// sortedBy returns pages stably sorted by key: a counting sort over the
// pages' distinct keys, which a map numbers and one sort of the distinct
// keys orders.
func sortedBy[K cmp.Ordered](pages []*core.MarketplaceRanking, key func(*core.MarketplaceRanking) K) []*core.MarketplaceRanking {
	ids := make(map[K]int)
	var keys []K
	var count []int
	of := make([]int, len(pages))
	for i, r := range pages {
		k := key(r)
		id, ok := ids[k]
		if !ok {
			id = len(keys)
			ids[k] = id
			keys = append(keys, k)
			count = append(count, 0)
		}
		of[i] = id
		count[id]++
	}
	byKey := make([]int, len(keys))
	for id := range byKey {
		byKey[id] = id
	}
	slices.SortFunc(byKey, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	// next[id] is where the next page with key id goes: after every page
	// whose key sorts first and every earlier page with key id.
	next, at := make([]int, len(keys)), 0
	for _, id := range byKey {
		next[id], at = at, at+count[id]
	}
	out := make([]*core.MarketplaceRanking, len(pages))
	for i, r := range pages {
		out[next[of[i]]] = r
		next[of[i]]++
	}
	return out
}

// comparePage orders page r against the pair (q, l), query first.
func comparePage(r *core.MarketplaceRanking, q core.Query, l core.Location) int {
	if c := cmp.Compare(r.Query, q); c != 0 {
		return c
	}
	return cmp.Compare(r.Location, l)
}

// Ranking returns the sealed marketplace page for (q, l), when the
// snapshot carries pages at all. The result is shared and read-only.
func (s *Snapshot) Ranking(q core.Query, l core.Location) (*core.MarketplaceRanking, bool) {
	i, ok := slices.BinarySearchFunc(s.pages, q, func(r *core.MarketplaceRanking, q core.Query) int {
		return comparePage(r, q, l)
	})
	if !ok {
		return nil, false
	}
	return s.pages[i], true
}

// HasRankings reports whether the snapshot can serve mitigate requests.
func (s *Snapshot) HasRankings() bool { return len(s.pages) > 0 }

// Pages returns the (query, location) coordinates of every sealed
// marketplace page, sorted — what a caller needs to pick a mitigation
// target without holding the crawl itself.
func (s *Snapshot) Pages() [][2]string {
	out := make([][2]string, len(s.pages))
	for i, r := range s.pages {
		out[i] = [2]string{string(r.Query), string(r.Location)}
	}
	return out
}

// newSnapshot freezes tbl, building its query structures now unless
// deferred. An eager snapshot keeps tbl's sealed copy; a deferred one
// keeps tbl itself, which the caller must own exclusively.
func newSnapshot(tbl *core.Table, deferred bool) *Snapshot {
	if !deferred {
		tbl = tbl.Sealed()
	}
	query := sync.OnceValue(func() *queryState { return buildQuery(tbl) })
	if !deferred {
		query()
	}
	return &Snapshot{
		gen:      generation.Add(1),
		created:  time.Now(),
		tbl:      tbl,
		query:    query,
		deferred: deferred,
	}
}

// WithUpdates returns a new snapshot whose table is a copy of this one
// with apply's edits: the snapshot's table is cloned into a writable
// table, apply mutates the clone freely (Set, SetKey, anything on
// core.Table), and the clone is frozen under a fresh generation, sealed
// with its query structures built now, or deferred, as the receiver was.
// The receiver is untouched — queries running against it concurrently
// keep seeing the old generation, and cache entries for the old
// generation simply stop being produced.
func (s *Snapshot) WithUpdates(apply func(*core.Table)) *Snapshot {
	clone := s.tbl.Clone()
	if apply != nil {
		apply(clone)
	}
	next := newSnapshot(clone, s.deferred)
	// The mitigation pages ride along unchanged: they are sealed, so the
	// new generation may share them with the old one. A producer whose
	// pages themselves changed rebuilds with NewSnapshotWithRankings.
	next.schema = s.schema
	next.pages = s.pages
	return next
}

// Cell returns the snapshot table's value for (groupKey, q, l) and whether
// it is defined. Cell, Range and Len let callers derive structures from
// the snapshot's cells without keeping a second copy of them.
func (s *Snapshot) Cell(groupKey string, q core.Query, l core.Location) (float64, bool) {
	return s.tbl.GetKey(groupKey, q, l)
}

// Range calls fn once for every defined cell of the snapshot's table.
func (s *Snapshot) Range(fn func(tr core.Triple, v float64)) { s.tbl.Range(fn) }

// Len returns the number of defined cells in the snapshot's table.
func (s *Snapshot) Len() int { return s.tbl.Len() }

// Gen returns the snapshot's process-unique generation number.
func (s *Snapshot) Gen() uint64 { return s.gen }

// GroupKeys returns the canonical group keys of the snapshot's group
// dimension, sorted.
func (s *Snapshot) GroupKeys() []string { return s.query().groupIdx.GroupKeys }

// Queries returns the snapshot's query dimension, sorted.
func (s *Snapshot) Queries() []core.Query { return s.query().groupIdx.Queries }

// Locations returns the snapshot's location dimension, sorted.
func (s *Snapshot) Locations() []core.Location { return s.query().groupIdx.Locations }

// Group resolves a canonical group key to the core.Group recorded in the
// snapshot's table.
func (s *Snapshot) Group(key string) (core.Group, bool) { return s.query().groupIdx.Group(key) }

// DimensionOf resolves which dimension a comparison operand belongs to: a
// canonical group key, a query, or a location. The second return is false
// when the value appears in none of the snapshot's dimensions.
func (s *Snapshot) DimensionOf(v string) (compare.Dimension, bool) {
	gi := s.query().groupIdx
	if _, ok := gi.Group(v); ok {
		return compare.ByGroup, true
	}
	for _, q := range gi.Queries {
		if string(q) == v {
			return compare.ByQuery, true
		}
	}
	for _, l := range gi.Locations {
		if string(l) == v {
			return compare.ByLocation, true
		}
	}
	return 0, false
}

// source returns the full-scope list source for a quantification
// dimension, its index family, or nil for an unknown dimension or an
// empty table.
func (s *Snapshot) source(dim compare.Dimension) topk.ListSource {
	q := s.query()
	var src topk.ListSource
	switch dim {
	case compare.ByGroup:
		src = q.groupIdx
	case compare.ByQuery:
		src = q.queryIdx
	case compare.ByLocation:
		src = q.locIdx
	default:
		return nil
	}
	if src.NumLists() == 0 {
		return nil
	}
	return src
}

// comparer returns the Problem 2 comparer for the requested semantics.
func (s *Snapshot) comparer(definedOnly bool) *compare.Comparer {
	q := s.query()
	if definedOnly {
		return q.definedOnly
	}
	return q.completion
}
