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
//     answers Problems 1 and 2 over it — the three index families, a
//     full-scope list source per family, and the two comparers — plus
//     the marketplace pages Problem 3 re-ranks. A snapshot is sealed —
//     constructed only by its constructors or WithUpdates, never mutated
//     afterwards — and carries a process-unique generation number. The
//     query structures are built at most once: before NewSnapshot or
//     NewSnapshotWithRankings returns, or, for NewDeferredSnapshot, on
//     the first quantify or compare. Table refreshes are copy-on-write:
//     WithUpdates clones the sealed table, applies the edits, and returns
//     a brand-new snapshot; readers of the old generation are completely
//     undisturbed.
//
//   - Engine: a query executor holding the current snapshot behind an
//     atomic pointer, a bounded worker pool for batches (the PR 1
//     Workers/GOMAXPROCS convention of internal/core), and an LRU result
//     cache keyed by request shape and invalidated by snapshot
//     generation.
//
// All query-time state of the underlying algorithms lives in per-call
// structs (topk's taState et al., compare's accum), which is what makes a
// single snapshot safe for N simultaneous queries; the package's
// concurrency and fuzz tests pin that contract under -race.
package serve

import (
	"sort"
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
// from the sealed table at most once, before the constructor returns or,
// for NewDeferredSnapshot, on first use. A snapshot may be shared by any
// number of goroutines without synchronization.
type Snapshot struct {
	gen     uint64
	created time.Time   // freeze time, for the snapshot-age gauge
	tbl     *core.Table // private clone; never mutated after construction

	// query returns the query structures, building them on its first
	// call; concurrent first callers wait for that one build. deferred
	// records whether the constructor left that call to the first
	// quantify or compare, so WithUpdates can keep the choice.
	query    func() *queryState
	deferred bool

	// Problem 3 (mitigation) state: the raw marketplace pages behind the
	// table, keyed by (query, location), plus the schema that projects
	// workers onto group labels. Both are only read (mitigation builds
	// permutations, not edits), so every later generation shares them;
	// nil without pages, whose mitigate requests then error per-call.
	schema   *core.Schema
	rankings map[rankKey]*core.MarketplaceRanking
}

// queryState is what quantify and compare read: the three Table-5 index
// families, held through their full-scope list sources, and the two
// Problem 2 comparers (completion and defined-only semantics). It is
// read-only once built.
type queryState struct {
	groupIdx *index.GroupIndex // also the snapshot's sorted dimensions

	// Full-scope list sources, prebuilt once so per-query setup does not
	// re-collect |Q|·|L| inverted lists; nil for an empty table, whose
	// quantify requests then error per call.
	groupSrc, querySrc, locSrc topk.ListSource

	completion  *compare.Comparer
	definedOnly *compare.Comparer
}

// buildQuery derives a snapshot's query structures from its sealed
// table. It is a variable so the package's tests can count builds.
var buildQuery = newQueryState

// newQueryState builds the three index families from tbl (one goroutine
// per family), their full-scope list sources and both comparers.
func newQueryState(tbl *core.Table) *queryState {
	gi, qi, li := index.BuildAll(tbl)
	q := &queryState{
		groupIdx:    gi,
		completion:  compare.New(gi),
		definedOnly: compare.NewDefinedOnlyWith(gi, tbl),
	}
	// The full-scope sources fail only on an empty table: every pair of
	// the table's own dimensions is indexed by construction.
	var err error
	if q.groupSrc, err = topk.NewGroupLists(gi, nil, nil); err != nil {
		q.groupSrc = nil
	}
	if q.querySrc, err = topk.NewQueryLists(qi, nil, nil); err != nil {
		q.querySrc = nil
	}
	if q.locSrc, err = topk.NewLocationLists(li, nil, nil); err != nil {
		q.locSrc = nil
	}
	return q
}

// rankKey addresses one marketplace page inside a snapshot.
type rankKey struct {
	q core.Query
	l core.Location
}

// NewSnapshot freezes tbl into a snapshot: the table is deep-cloned, the
// three index families are built from the clone (one goroutine per
// family), and the result is sealed. The caller's table remains its own —
// it may keep mutating it and later produce a fresh generation with
// another NewSnapshot or with Snapshot.WithUpdates.
func NewSnapshot(tbl *core.Table) *Snapshot {
	return newOwnedSnapshot(tbl.Clone(), false)
}

// NewSnapshotWithRankings freezes tbl together with the marketplace
// pages it was evaluated from, enabling Problem 3 (mitigation) requests:
// the engine re-ranks a pinned page and re-measures it against the same
// generation both measurements see. The table is cloned; the pages are
// not — the snapshot takes ownership of them, and the caller must not
// modify a page or its workers afterwards. schema projects workers onto
// the group labels mitigation targets (nil selects core.DefaultSchema).
func NewSnapshotWithRankings(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking) *Snapshot {
	return newSnapshotWithRankings(tbl, schema, rankings, false)
}

// NewDeferredSnapshot is NewSnapshotWithRankings without the index
// build: the three index families, their list sources and the comparers
// are built on the first quantify or compare (or the first call of
// GroupKeys, Queries, Locations, Group or DimensionOf), once, however
// many requests arrive together. A snapshot that only serves mitigate
// requests and lends its cells through Cell, Range and Len — a cluster
// node above one partition — never builds them. Snapshots derived with
// WithUpdates stay deferred. A serving engine should not use it: the
// build would land on the first request after start and after every
// refresh, with the requests behind it waiting.
func NewDeferredSnapshot(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking) *Snapshot {
	return newSnapshotWithRankings(tbl, schema, rankings, true)
}

// newSnapshotWithRankings is the shared body of the two constructors
// that take pages.
func newSnapshotWithRankings(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking, deferred bool) *Snapshot {
	s := newOwnedSnapshot(tbl.Clone(), deferred)
	if schema == nil {
		schema = core.DefaultSchema()
	}
	s.schema = schema
	s.rankings = make(map[rankKey]*core.MarketplaceRanking, len(rankings))
	for _, r := range rankings {
		if r != nil {
			s.rankings[rankKey{r.Query, r.Location}] = r
		}
	}
	return s
}

// Ranking returns the sealed marketplace page for (q, l), when the
// snapshot carries pages at all. The result is shared and read-only.
func (s *Snapshot) Ranking(q core.Query, l core.Location) (*core.MarketplaceRanking, bool) {
	r, ok := s.rankings[rankKey{q, l}]
	return r, ok
}

// HasRankings reports whether the snapshot can serve mitigate requests.
func (s *Snapshot) HasRankings() bool { return len(s.rankings) > 0 }

// Pages returns the (query, location) coordinates of every sealed
// marketplace page, sorted — what a caller needs to pick a mitigation
// target without holding the crawl itself.
func (s *Snapshot) Pages() [][2]string {
	out := make([][2]string, 0, len(s.rankings))
	for k := range s.rankings {
		out = append(out, [2]string{string(k.q), string(k.l)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// newOwnedSnapshot seals a table the snapshot already owns exclusively,
// building its query structures now unless deferred.
func newOwnedSnapshot(tbl *core.Table, deferred bool) *Snapshot {
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
// with apply's edits: the sealed table is cloned, apply mutates the clone
// freely (Set / Merge / anything on core.Table), and the clone is frozen
// under a fresh generation, its query structures built now or deferred
// as the receiver's were. The receiver is untouched — queries running
// against it concurrently keep seeing the old generation, and cache
// entries for the old generation simply stop being produced.
func (s *Snapshot) WithUpdates(apply func(*core.Table)) *Snapshot {
	clone := s.tbl.Clone()
	if apply != nil {
		apply(clone)
	}
	next := newOwnedSnapshot(clone, s.deferred)
	// The mitigation pages ride along unchanged: they are sealed, so the
	// new generation may share them with the old one. A producer whose
	// pages themselves changed rebuilds with NewSnapshotWithRankings.
	next.schema = s.schema
	next.rankings = s.rankings
	return next
}

// Cell returns the sealed table's value for (groupKey, q, l) and whether
// it is defined. Cell, Range and Len let callers derive structures from
// the snapshot's cells without keeping a second copy of them.
func (s *Snapshot) Cell(groupKey string, q core.Query, l core.Location) (float64, bool) {
	return s.tbl.GetKey(groupKey, q, l)
}

// Range calls fn once for every defined cell of the sealed table.
func (s *Snapshot) Range(fn func(tr core.Triple, v float64)) { s.tbl.Range(fn) }

// Len returns the number of defined cells in the sealed table.
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
// sealed table.
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

// source returns the prebuilt full-scope list source for a quantification
// dimension, or nil for an unknown dimension or an empty table.
func (s *Snapshot) source(dim compare.Dimension) topk.ListSource {
	q := s.query()
	switch dim {
	case compare.ByGroup:
		return q.groupSrc
	case compare.ByQuery:
		return q.querySrc
	case compare.ByLocation:
		return q.locSrc
	default:
		return nil
	}
}

// comparer returns the Problem 2 comparer for the requested semantics.
func (s *Snapshot) comparer(definedOnly bool) *compare.Comparer {
	q := s.query()
	if definedOnly {
		return q.definedOnly
	}
	return q.completion
}
