package core

// This file implements the per-page group partition the evaluators use on
// their hot path. The naive membership test scans the whole result page
// once per group and again per comparable group, so a page is scanned
// O(|universe| × (1 + |comparable|)) times; the partition scans it once,
// appending every individual to the bucket of each plan slot its combo
// lists, and every later lookup indexes a slice.

// partitioner buckets one result page at a time by the slots of one
// evaluation plan. Its buckets are reused between pages, truncated in
// place, so a warm page allocates nothing. A partitioner belongs to one
// goroutine; each evaluation worker creates its own.
type partitioner struct {
	plan *evalPlan
	part [][]int // slot → page positions of its members, in page order
}

func newPartitioner(plan *evalPlan) *partitioner {
	return &partitioner{plan: plan, part: make([][]int, len(plan.keys))}
}

// page buckets n individuals, where attrsOf(i) is individual i's
// attribute assignment. The result maps a slot to the page positions of
// its members, in page order; a slot with no member on the page has an
// empty bucket. It is owned by the partitioner and overwritten by the
// next page call.
//
// An individual whose value for some attribute no plan group names
// matches no group constraining that attribute, as Assignment.Matches
// gives.
func (p *partitioner) page(n int, attrsOf func(int) Assignment) [][]int {
	for s, b := range p.part {
		p.part[s] = b[:0]
	}
	for i := 0; i < n; i++ {
		for _, s := range p.plan.combos[p.plan.combo(attrsOf(i))] {
			p.part[s] = append(p.part[s], i)
		}
	}
	return p.part
}

// ranking partitions a marketplace result page by worker demographics.
func (p *partitioner) ranking(r *MarketplaceRanking) [][]int {
	return p.page(len(r.Workers), func(i int) Assignment { return r.Workers[i].Attrs })
}

// users partitions a search study's participants by user demographics.
func (p *partitioner) users(sr *SearchResults) [][]int {
	return p.page(len(sr.Users), func(i int) Assignment { return sr.Users[i].Attrs })
}
