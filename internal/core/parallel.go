package core

import (
	"context"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fairjob/internal/obs"
)

// This file holds the shared machinery of the parallel evaluation
// pipeline: the precomputed evaluation plan, the evaluate function both
// evaluators run, and the sharding helpers. See
// DESIGN.md §7 ("Concurrency model") for the invariants.

// evalPlan precomputes everything about the group dimension that is
// constant across result pages. It numbers every group a page must
// bucket, the evaluated groups plus their comparable groups, once per
// key: that number is the group's slot, and a page partition is indexed
// by slot. Membership is resolved in id space: per schema attribute, the
// values the plan's groups name are numbered from 1 and every other
// value reads as 0; an individual's value ids combine into one combo
// id, and each combo's slots are listed once here. A value's id is
// found by scanning the attribute's named values, which beats hashing
// for a short domain. A plan is read-only after construction and safe
// to share across worker goroutines.
type evalPlan struct {
	groups []Group
	slot   []int    // slot[i] is groups[i]'s slot
	comp   [][]int  // comp[i] holds the slots of schema.Comparable(groups[i])
	keys   []string // keys[s] is the group key of slot s

	attrs  []Attribute // the schema's attributes, in order
	vals   [][]string  // per attribute: named values; value id = position + 1
	radix  []int       // per attribute: its stride in a combo id
	combos [][]int     // combo id → the slots its individuals belong to
}

func newEvalPlan(s *Schema, groups []Group) *evalPlan {
	p := &evalPlan{
		groups: groups,
		slot:   make([]int, len(groups)),
		comp:   make([][]int, len(groups)),
		attrs:  s.attrs,
		vals:   make([][]string, len(s.attrs)),
		radix:  make([]int, len(s.attrs)),
	}
	slots := make(map[string]int)
	var wants [][]int // by slot, as want returns
	slotOf := func(g Group) int {
		key := g.Key()
		sl, ok := slots[key]
		if !ok {
			sl = len(p.keys)
			slots[key] = sl
			p.keys = append(p.keys, key)
			wants = append(wants, p.want(g.Label))
		}
		return sl
	}
	for i, g := range groups {
		p.slot[i] = slotOf(g)
		cgs := s.Comparable(g)
		p.comp[i] = make([]int, len(cgs))
		for j, cg := range cgs {
			p.comp[i][j] = slotOf(cg)
		}
	}
	n := 1
	for j := range p.attrs {
		p.radix[j] = n
		n *= len(p.vals[j]) + 1
	}
	p.combos = make([][]int, n)
	for c := range p.combos {
		for sl, w := range wants {
			if w != nil && p.admits(c, w) {
				p.combos[c] = append(p.combos[c], sl)
			}
		}
	}
	return p
}

// want returns the value id l requires per schema attribute (0 where l
// does not constrain it), numbering the values l names on first sight.
// It returns nil for a label no individual is bucketed under: an empty
// one, or one whose predicates are not on strictly increasing schema
// attributes (an attribute the schema does not track, or a label not in
// canonical order). A value numbered before such a label is rejected
// changes no membership: no slot requires it.
func (p *evalPlan) want(l Label) []int {
	w := make([]int, len(p.attrs))
	prev := -1
	for _, pr := range l {
		j := slices.Index(p.attrs, pr.Attr)
		if j <= prev {
			return nil
		}
		prev = j
		if w[j] = slices.Index(p.vals[j], pr.Value) + 1; w[j] == 0 {
			p.vals[j] = append(p.vals[j], pr.Value)
			w[j] = len(p.vals[j])
		}
	}
	if prev < 0 {
		return nil
	}
	return w
}

// admits reports whether an individual of combo c meets every value w
// requires. An unnamed value has id 0, which no requirement takes.
func (p *evalPlan) admits(c int, w []int) bool {
	for j, id := range w {
		if id != 0 && c/p.radix[j]%(len(p.vals[j])+1) != id {
			return false
		}
	}
	return true
}

// combo returns the combo id of an individual with assignment a.
func (p *evalPlan) combo(a Assignment) int {
	c := 0
	for j, attr := range p.attrs {
		c += (slices.Index(p.vals[j], a[attr]) + 1) * p.radix[j]
	}
	return c
}

// cellRow is one page's cells in an evaluation buffer: a value per plan
// group, and a defined bit per plan group in words of 64.
type cellRow struct {
	v   []float64
	def []uint64
}

// set records plan group i's cell; an undefined cell stays unset.
func (r cellRow) set(i int, v float64, ok bool) {
	if ok {
		r.v[i] = v
		r.def[i/64] |= 1 << (i % 64)
	}
}

// page returns page k's row of a buffer of ng-group rows.
func (r cellRow) page(k, ng int) cellRow {
	nw := words(ng)
	return cellRow{r.v[k*ng : (k+1)*ng], r.def[k*nw : (k+1)*nw]}
}

// defined returns the number of defined cells in r.
func (r cellRow) defined() int {
	n := 0
	for _, w := range r.def {
		n += bits.OnesCount64(w)
	}
	return n
}

// evalJob is one EvaluateAllCtx call as evaluate runs it: the
// evaluator's settings and its per-shard part. P is its page type.
type evalJob[P any] struct {
	schema  *Schema
	family  string // "market" or "search": the eval label of profiles and telemetry
	measure string // the measure label of profiles
	workers int
	obs     *obs.Registry
	at      func(P) (Query, Location) // a page's query and location
	// shard returns what one shard runs per page: partition the page
	// with pt and compute its cells into row, one per plan group in the
	// order of pt's plan. It is called on the shard's goroutine, so the
	// closure may own that shard's scratch.
	shard func(pt *partitioner, run *evalRun) func(p P, row cellRow)
}

// evaluate is both evaluators' EvaluateAllCtx pipeline. A nil groups
// slice evaluates the schema universe. It shards the pages across
// j.workers goroutines (BoundedWorkers); a shard computes its pages'
// cells into their rows of one buffer, sized once for every (page, plan
// group): a value and a defined bit each. Then one serial pass fills a
// single table from the buffer in page order, so the table is
// byte-identical to a serial Set loop at any worker count. A context
// that ends mid-evaluation stops every shard at its next page boundary
// and returns ctx.Err().
//
// An individual's groups are those of its ID's first entry in page
// order (partitioner). A shard memoizes each ID from its own first
// entry, so once the shards finish their memos are merged in shard
// order; if two shards resolved one ID to different combos, a later
// shard bucketed that ID by an entry other than its first, and the
// evaluation runs again on one shard, which applies the rule by
// construction. Input whose IDs keep their attributes never runs twice.
func evaluate[P any](ctx context.Context, j evalJob[P], pages []P, groups []Group) (*Table, error) {
	if groups == nil {
		groups = j.schema.Universe()
	}
	plan := newEvalPlan(j.schema, groups)
	run := newEvalMetrics(j.obs, j.family).begin()
	ng := len(plan.groups)
	buf := cellRow{make([]float64, len(pages)*ng), make([]uint64, len(pages)*words(ng))}
	done := ctx.Done()
	// Run the fan-out under pprof labels: the shard goroutines inherit
	// them, so CPU profiles attribute evaluation samples to the evaluator
	// family and measure (and keep any request labels already on ctx).
	defer pprof.SetGoroutineLabels(ctx)
	ctx = pprof.WithLabels(ctx, pprof.Labels("eval", j.family, "measure", j.measure))
	pprof.SetGoroutineLabels(ctx)
	// shards computes every page's cells into buf across w shards and
	// returns each shard's partitioner.
	shards := func(w int) ([]*partitioner, error) {
		pts := make([]*partitioner, w)
		errs := make([]error, w)
		RunSharded(len(pages), w, func(shard, lo, hi int) {
			start := time.Now()
			pts[shard] = newPartitioner(plan)
			page := j.shard(pts[shard], run)
			n := 0
			for k := lo; k < hi; k++ {
				if done != nil {
					select {
					case <-done:
						errs[shard] = ctx.Err()
						return
					default:
					}
				}
				row := buf.page(k, ng)
				page(pages[k], row)
				n += row.defined()
			}
			run.shardDone(start, hi-lo, n)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return pts, nil
	}
	w := BoundedWorkers(j.workers, len(pages))
	pts, err := shards(w)
	if err == nil && w > 1 && !memosAgree(pts) {
		clear(buf.v)
		clear(buf.def)
		w = 1
		_, err = shards(w)
	}
	if err != nil {
		return nil, err
	}
	t := fill(plan, pages, j.at, buf)
	run.finish(w)
	return t, nil
}

// fill writes an evaluation's defined cells into one table, page by page
// in order, by member id. The table is presized for one row per page
// with a defined cell, each a slot wide per evaluated group. fill interns
// a page's query and location on the page's first defined cell, and a
// slot's group on the first cell defined for it, so the table numbers its
// members in first-Set order as SetKey does, and a repeated (query,
// location) page overwrites the earlier one's cells in its row.
func fill[P any](plan *evalPlan, pages []P, at func(P) (Query, Location), buf cellRow) *Table {
	ng := len(plan.groups)
	rows, width := 0, 0 // pages with a defined cell; the evaluated groups' distinct slots
	for k := range pages {
		if buf.page(k, ng).defined() > 0 {
			rows++
		}
	}
	for i, s := range plan.slot {
		if !slices.Contains(plan.slot[:i], s) {
			width++
		}
	}
	t := NewTableSized(rows*width, width, 0, 0)
	gids := make([]int32, len(plan.keys)) // table id by slot; -1 until interned
	for s := range gids {
		gids[s] = -1
	}
	for k, p := range pages {
		row := buf.page(k, ng)
		var qid, lid int32 = -1, -1
		for wi, w := range row.def {
			for ; w != 0; w &= w - 1 {
				i := wi*64 + bits.TrailingZeros64(w)
				if qid < 0 {
					q, l := at(p)
					qid, lid = t.qs.intern(q, "queries"), t.ls.intern(l, "locations")
				}
				s := plan.slot[i]
				if gids[s] < 0 {
					gids[s] = t.groupID(plan.keys[s], plan.groups[i])
				}
				t.set(gids[s], qid, lid, row.v[i])
			}
		}
	}
	return t
}

// BoundedWorkers resolves a Workers setting against the number of
// independent work items: 0 means runtime.GOMAXPROCS(0), and the result
// never exceeds the item count (one goroutine per item is the useful
// maximum) and never drops below 1. It is the single convention every
// concurrent component of the repository uses to size its pool — the
// evaluators' sharded pipelines and the serve layer's query batches.
func BoundedWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunSharded splits n items across w worker goroutines and calls run with
// each shard's index and half-open item range [lo, hi). Shards are
// contiguous, in order, and differ in size by at most one. It returns
// once every shard is done. With w == 1 it runs inline on the caller's
// goroutine. Static shards are the right shape for the evaluators, whose
// per-item cost is uniform; use RunIndexed when item costs vary.
func RunSharded(n, w int, run func(shard, lo, hi int)) {
	if w <= 1 {
		run(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		go func(shard, lo, hi int) {
			defer wg.Done()
			run(shard, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
}

// RunIndexed calls fn(i) for every i in [0, n) across w worker goroutines,
// handing out indices dynamically through a shared atomic counter. Unlike
// RunSharded's static partition, a worker that finishes a cheap item
// immediately pulls the next one, which keeps the pool busy when item
// costs vary wildly — the regime of a mixed query batch where one request
// is a cache hit and the next runs a full table scan. fn is called at most
// once per index; writes to distinct result slots need no synchronization.
// With w <= 1 it runs inline on the caller's goroutine.
func RunIndexed(n, w int, fn func(i int)) {
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
