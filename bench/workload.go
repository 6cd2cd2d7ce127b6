package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/mitigate"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// workload is one traffic mix. Its rate and latency limit are fixed
// here, so that later changes are measured at the same offered load;
// README.md gives the reason for each value.
type workload struct {
	name string
	// rate is the reference offered load in requests per second.
	rate float64
	// limit bounds p90 latency in the max_rps search.
	limit time.Duration
	// hot draws from the fixed catalog; otherwise every request is
	// freshly generated.
	hot bool
	// skew is the Zipf exponent of the catalog draws; 0 draws uniformly.
	skew float64
	// churn runs the writer beside the readers.
	churn bool
	// partitions > 0 serves through the scatter-gather coordinator.
	partitions int
}

var workloads = []workload{
	// The cache-hit path: the catalog fits the cache.
	{name: "hot-mix", rate: 20000, limit: 10 * time.Millisecond, hot: true, skew: 1.1},
	// The compute path: nearly every request is new.
	{name: "cold-mix", rate: 60, limit: 100 * time.Millisecond},
	// The write path beside the reads: catalog requests while a writer
	// refreshes the snapshot. Uniform draws make most of them misses of
	// the fresh generation, spread evenly over the catalog's costs.
	{name: "churn", rate: 40, limit: 100 * time.Millisecond, hot: true, churn: true},
	// The scatter-gather path: cold-mix requests over four partitions.
	{name: "cluster-p4", rate: 10, limit: 500 * time.Millisecond, partitions: 4},
}

// workloadByName resolves a -workload value.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// catalogSize is the hot catalog's question count; it fits the engine's
// default 1024-entry cache with room to spare.
const catalogSize = 256

// universe is the request space: the served dimensions, and the crawl's
// pages with the groups each page can be mitigated for.
type universe struct {
	groups  []string
	queries []core.Query
	locs    []core.Location
	pages   []*core.MarketplaceRanking
	parsed  map[string]core.Group
	present map[*core.MarketplaceRanking][]string
}

func newUniverse(in *inputs) *universe {
	u := &universe{
		groups:  in.gi.GroupKeys,
		queries: in.gi.Queries,
		locs:    in.gi.Locations,
		pages:   append([]*core.MarketplaceRanking(nil), in.crawl...),
		parsed:  make(map[string]core.Group),
		present: make(map[*core.MarketplaceRanking][]string),
	}
	sort.Slice(u.pages, func(i, j int) bool {
		a, b := u.pages[i], u.pages[j]
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.Location < b.Location
	})
	for _, k := range u.groups {
		g, _ := in.gi.Group(k)
		u.parsed[k] = g
	}
	return u
}

// mitigable returns the groups with at least one worker on the page: the
// targets whose Exposure deviation is defined there, so a mitigate
// request for them cannot fail.
func (u *universe) mitigable(r *core.MarketplaceRanking) []string {
	if got, ok := u.present[r]; ok {
		return got
	}
	var out []string
	for _, k := range u.groups {
		for _, w := range r.Workers {
			if w.Attrs.Matches(u.parsed[k].Label) {
				out = append(out, k)
				break
			}
		}
	}
	u.present[r] = out
	return out
}

// coldQuantify asks for the top-k among a fresh random candidate subset,
// with random k and direction: a distinct cache key almost every time.
func (u *universe) coldQuantify(rng *rand.Rand) serve.Request {
	var cand []string
	for len(cand) < 2 {
		cand = cand[:0]
		for _, g := range u.groups {
			if rng.Intn(2) == 0 {
				cand = append(cand, g)
			}
		}
	}
	return serve.Request{
		Problem:    serve.Quantify,
		Dim:        compare.ByGroup,
		K:          1 + rng.Intn(len(cand)),
		Direction:  topk.Direction(rng.Intn(2)),
		Algorithm:  topk.TA,
		Candidates: cand,
	}
}

// hotQuantify asks for the top-k of any dimension, without a candidate
// restriction half the time on the group dimension.
func (u *universe) hotQuantify(rng *rand.Rand) serve.Request {
	dim := compare.Dimension(rng.Intn(3))
	if dim == compare.ByGroup && rng.Intn(2) == 0 {
		return u.coldQuantify(rng)
	}
	return serve.Request{
		Problem:   serve.Quantify,
		Dim:       dim,
		K:         1 + rng.Intn(10),
		Direction: topk.Direction(rng.Intn(2)),
		Algorithm: topk.TA,
	}
}

// compareReq compares two random members of dimension of, broken down
// by dimension by, with the CLI's DefinedOnly semantics.
func (u *universe) compareReq(rng *rand.Rand, of, by compare.Dimension) serve.Request {
	var members []string
	switch of {
	case compare.ByGroup:
		members = u.groups
	case compare.ByQuery:
		for _, q := range u.queries {
			members = append(members, string(q))
		}
	default:
		for _, l := range u.locs {
			members = append(members, string(l))
		}
	}
	i := rng.Intn(len(members))
	j := rng.Intn(len(members) - 1)
	if j >= i {
		j++
	}
	return serve.Request{Problem: serve.Compare, Of: of, R1: members[i], R2: members[j], By: by, DefinedOnly: true}
}

// mitigateReq re-ranks a random page for a random group present on it.
func (u *universe) mitigateReq(rng *rand.Rand) serve.Request {
	for {
		r := u.pages[rng.Intn(len(u.pages))]
		gs := u.mitigable(r)
		if len(gs) == 0 {
			continue
		}
		return serve.Request{
			Problem:   serve.Mitigate,
			Mitigator: mitigate.Kinds()[rng.Intn(3)],
			Group:     gs[rng.Intn(len(gs))],
			Query:     string(r.Query),
			Location:  string(r.Location),
		}
	}
}

// deck deals its cards in freshly shuffled rounds. Dealing the request
// mix this way gives every stretch of a run the mix's exact proportions,
// so seeds differ in which questions are asked, not in how many of each
// kind — the binomial spread of an independent draw would otherwise move
// the run-to-run medians by several percent on the slower workloads.
type deck[T any] struct {
	rng   *rand.Rand
	cards []T
	left  []T
}

func newDeck[T any](rng *rand.Rand, cards ...T) *deck[T] {
	return &deck[T]{rng: rng, cards: cards}
}

func (d *deck[T]) next() T {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.cards...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	c := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return c
}

// mixDeck deals the request mix: 60% quantify (TA, the paper's
// Algorithm 1), 30% compare, 10% mitigate.
func mixDeck(rng *rand.Rand) *deck[serve.Problem] {
	q, c, m := serve.Quantify, serve.Compare, serve.Mitigate
	return newDeck(rng, q, q, q, q, q, q, c, c, c, m)
}

// comparePair is one (compared dimension, breakdown dimension) shape.
type comparePair struct{ of, by compare.Dimension }

// compareDeck deals the six compare shapes evenly.
func compareDeck(rng *rand.Rand) *deck[comparePair] {
	g, q, l := compare.ByGroup, compare.ByQuery, compare.ByLocation
	return newDeck(rng, comparePair{g, q}, comparePair{g, l}, comparePair{q, g}, comparePair{q, l}, comparePair{l, g}, comparePair{l, q})
}

// requestSource draws the requests of one phase. next returns the index
// of the next request in table, appending it when it is new, so a plan
// of a million cache-hitting arrivals holds a million small indices and
// one catalog, not a million requests.
type requestSource interface {
	next(table *[]serve.Request) int32
}

// coldSource generates every request fresh.
type coldSource struct {
	u     *universe
	rng   *rand.Rand
	mix   *deck[serve.Problem]
	pairs *deck[comparePair]
}

func newColdSource(u *universe, rng *rand.Rand) *coldSource {
	return &coldSource{u: u, rng: rng, mix: mixDeck(rng), pairs: compareDeck(rng)}
}

func (s *coldSource) next(table *[]serve.Request) int32 {
	var req serve.Request
	switch s.mix.next() {
	case serve.Quantify:
		req = s.u.coldQuantify(s.rng)
	case serve.Compare:
		p := s.pairs.next()
		req = s.u.compareReq(s.rng, p.of, p.by)
	default:
		req = s.u.mitigateReq(s.rng)
	}
	*table = append(*table, req)
	return int32(len(*table) - 1)
}

// catalog is the hot workloads' fixed question set, grouped by problem so
// that Zipf popularity applies within each problem and the mix keeps its
// proportions: questions of problem p sit at all[start[p]:start[p+1]].
type catalog struct {
	all   []serve.Request
	start [4]int
}

// newCatalog draws catalogSize distinct questions from seed. The
// benchmark fixes the seed, so that runs with different seeds ask the
// same questions and differ only in which are popular when: a catalog
// redrawn per seed would move the cost of the churn workload's cache
// misses from run to run.
func newCatalog(u *universe, seed int64) *catalog {
	rng := rand.New(rand.NewSource(seed))
	pairs := compareDeck(rng)
	// The mix's 60/30/10 split of catalogSize.
	sizes := [3]int{154, 77, 25}
	c := &catalog{}
	seen := make(map[string]bool)
	for p, n := range sizes {
		c.start[p] = len(c.all)
		for len(c.all)-c.start[p] < n {
			var req serve.Request
			switch serve.Problem(p) {
			case serve.Quantify:
				req = u.hotQuantify(rng)
			case serve.Compare:
				pr := pairs.next()
				req = u.compareReq(rng, pr.of, pr.by)
			default:
				req = u.mitigateReq(rng)
			}
			if key := fmt.Sprint(req); !seen[key] {
				seen[key] = true
				c.all = append(c.all, req)
			}
		}
	}
	c.start[3] = len(c.all)
	return c
}

// hotSource draws catalog questions, with Zipf popularity when skew is
// positive and uniformly otherwise. Its table is the catalog itself.
type hotSource struct {
	c    *catalog
	rng  *rand.Rand
	mix  *deck[serve.Problem]
	zipf [3]*rand.Zipf
}

func newHotSource(c *catalog, skew float64, rng *rand.Rand) *hotSource {
	s := &hotSource{c: c, rng: rng, mix: mixDeck(rng)}
	if skew > 0 {
		for p := range s.zipf {
			s.zipf[p] = rand.NewZipf(rng, skew, 1, uint64(c.start[p+1]-c.start[p]-1))
		}
	}
	return s
}

func (s *hotSource) next(table *[]serve.Request) int32 {
	if len(*table) == 0 {
		*table = s.c.all
	}
	p := s.mix.next()
	if s.zipf[p] == nil {
		return int32(s.c.start[p] + s.rng.Intn(s.c.start[p+1]-s.c.start[p]))
	}
	return int32(s.c.start[p] + int(s.zipf[p].Uint64()))
}

// phase names one open-loop stretch of a run; each draws its arrivals
// and requests from its own stream, so a phase's inputs depend only on
// the seed and the phase, never on how long earlier phases ran.
type phase int64

const (
	phaseWarmup phase = iota + 1
	phaseReference
	phaseTraced
	phaseChurn
	phaseGate
	phaseSearch // + step number
)

// streamSeed derives a phase's seed.
func streamSeed(seed int64, ph phase) int64 { return seed*1_000_003 + int64(ph)*7919 }

// newSource returns the request source of one phase.
func newSource(w workload, u *universe, c *catalog, seed int64, ph phase) requestSource {
	rng := rand.New(rand.NewSource(streamSeed(seed, ph)))
	if w.hot {
		return newHotSource(c, w.skew, rng)
	}
	return newColdSource(u, rng)
}

// arrivals draws Poisson arrival offsets at rate for d.
func arrivals(rate float64, d time.Duration, seed int64, ph phase) []time.Duration {
	rng := rand.New(rand.NewSource(streamSeed(seed, ph) ^ 0x5eed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// plan is one phase's precomputed open-loop schedule: every arrival's
// offset from the phase start, and which request of the table it sends.
type plan struct {
	due   []time.Duration
	pick  []int32
	table []serve.Request
}

// newPlan draws Poisson arrivals at rate for d, each with the next
// request of src.
func newPlan(src requestSource, rate float64, d time.Duration, seed int64, ph phase) plan {
	p := plan{due: arrivals(rate, d, seed, ph)}
	p.pick = make([]int32, len(p.due))
	for i := range p.pick {
		p.pick[i] = src.next(&p.table)
	}
	return p
}

// req returns arrival i's request.
func (p plan) req(i int) serve.Request { return p.table[p.pick[i]] }

// churnEdits is the writer's edit stream: each batch rewrites 1% of the
// table's cells with fresh values in [0, 1), the range of the Exposure
// deviation.
type churnEdits struct {
	cells []core.Triple
	rng   *rand.Rand
}

// churnFrac is the share of cells one refresh edits.
const churnFrac = 0.01

// churnEvery is the writer's refresh period.
const churnEvery = 500 * time.Millisecond

func newChurnEdits(tbl *core.Table, seed int64) *churnEdits {
	e := &churnEdits{rng: rand.New(rand.NewSource(streamSeed(seed, phaseChurn)))}
	tbl.Range(func(tr core.Triple, _ float64) { e.cells = append(e.cells, tr) })
	sort.Slice(e.cells, func(i, j int) bool {
		a, b := e.cells[i], e.cells[j]
		if a.GroupKey != b.GroupKey {
			return a.GroupKey < b.GroupKey
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.Location < b.Location
	})
	return e
}

// edit is one cell rewrite.
type edit struct {
	tr core.Triple
	v  float64
}

// batch draws the next refresh's edits.
func (e *churnEdits) batch() []edit {
	n := int(float64(len(e.cells)) * churnFrac)
	out := make([]edit, n)
	for i := range out {
		out[i] = edit{e.cells[e.rng.Intn(len(e.cells))], e.rng.Float64()}
	}
	return out
}

// apply returns the table mutation that performs the edits.
func apply(edits []edit, groups map[string]core.Group) func(*core.Table) {
	return func(t *core.Table) {
		for _, ed := range edits {
			t.Set(groups[ed.tr.GroupKey], ed.tr.Query, ed.tr.Location, ed.v)
		}
	}
}
