package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file holds the shared machinery of the parallel evaluation
// pipeline: the precomputed evaluation plan and the sharding helpers. See
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

// shardFill writes one evaluation shard's cells into its table by member
// id. It interns a page's query and location on the page's first defined
// cell, and a slot's group on the first cell defined for it, so the
// table numbers its members in first-Set order as SetKey does; every
// other cell is one packed-key write.
type shardFill struct {
	t        *Table
	plan     *evalPlan
	gids     []int32 // table id by slot; -1 until interned
	q        Query
	l        Location
	qid, lid int32 // the page's ids; qid is -1 until interned
}

func newShardFill(t *Table, plan *evalPlan) *shardFill {
	f := &shardFill{t: t, plan: plan, gids: make([]int32, len(plan.keys))}
	for s := range f.gids {
		f.gids[s] = -1
	}
	return f
}

// page starts the cells of the page at (q, l).
func (f *shardFill) page(q Query, l Location) {
	f.q, f.l, f.qid = q, l, -1
}

// set records v for plan group i on the current page.
func (f *shardFill) set(i int, v float64) {
	if f.qid < 0 {
		f.qid, f.lid = f.t.qs.intern(f.q, "queries"), f.t.ls.intern(f.l, "locations")
	}
	s := f.plan.slot[i]
	if f.gids[s] < 0 {
		f.gids[s] = f.t.groupID(f.plan.keys[s], f.plan.groups[i])
	}
	f.t.cells[pack(f.gids[s], f.qid, f.lid)] = v
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

// shardBounds returns the half-open range [lo, hi) of items assigned to
// shard i of w over n items. Shards are contiguous, in order, and differ
// in size by at most one, so concatenating shard outputs in shard order
// replays the serial iteration order exactly — the invariant the
// deterministic merge relies on.
func shardBounds(n, w, i int) (lo, hi int) {
	return i * n / w, (i + 1) * n / w
}

// RunSharded splits n items across w worker goroutines and calls run with
// each shard's index and item range. It returns once every shard is done.
// With w == 1 it runs inline on the caller's goroutine. Static contiguous
// shards are the right shape for the evaluators, whose per-item cost is
// uniform and whose merge step needs shard order; use RunIndexed when item
// costs vary.
func RunSharded(n, w int, run func(shard, lo, hi int)) {
	if w <= 1 {
		run(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		lo, hi := shardBounds(n, w, i)
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
