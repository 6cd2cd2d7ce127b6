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
// goroutine; each evaluation shard creates its own.
//
// Demographics belong to the individual, not to the page entry, so a
// partitioner resolves each individual's combo once: memo maps a
// non-empty ID to the combo of the first entry it saw with that ID, and
// every later entry with the ID reads the memo instead of its own
// attributes. An entry with an empty ID is resolved from its own
// attributes every time.
type partitioner struct {
	plan *evalPlan
	part [][]int        // slot → page positions of its members, in page order
	memo map[string]int // ID → combo of its first entry
}

func newPartitioner(plan *evalPlan) *partitioner {
	return &partitioner{plan: plan, part: make([][]int, len(plan.keys)), memo: make(map[string]int)}
}

// page buckets n individuals, where entry(i) is individual i's ID and
// attribute assignment. The result maps a slot to the page positions of
// its members, in page order; a slot with no member on the page has an
// empty bucket. It is owned by the partitioner and overwritten by the
// next page call.
//
// An individual whose value for some attribute no plan group names
// matches no group constraining that attribute, as Assignment.Matches
// gives.
func (p *partitioner) page(n int, entry func(int) (string, Assignment)) [][]int {
	for s, b := range p.part {
		p.part[s] = b[:0]
	}
	for i := 0; i < n; i++ {
		for _, s := range p.plan.combos[p.combo(entry(i))] {
			p.part[s] = append(p.part[s], i)
		}
	}
	return p.part
}

// combo returns the combo of an entry: the memoized combo of a non-empty
// id, resolved from a on the id's first entry, or a's own for an empty
// id. A repeated id reads no attribute.
func (p *partitioner) combo(id string, a Assignment) int {
	if id == "" {
		return p.plan.combo(a)
	}
	c, ok := p.memo[id]
	if !ok {
		c = p.plan.combo(a)
		p.memo[id] = c
	}
	return c
}

// ranking partitions a marketplace result page by worker demographics.
func (p *partitioner) ranking(r *MarketplaceRanking) [][]int {
	return p.page(len(r.Workers), func(i int) (string, Assignment) { return r.Workers[i].ID, r.Workers[i].Attrs })
}

// users partitions a search study's participants by user demographics.
func (p *partitioner) users(sr *SearchResults) [][]int {
	return p.page(len(sr.Users), func(i int) (string, Assignment) { return sr.Users[i].ID, sr.Users[i].Attrs })
}

// memosAgree reports whether the shards' partitioners, in shard order,
// resolved every ID they share to one combo. Each shard memoized an ID
// from its own first entry, which is the ID's first entry overall only
// in the first shard that holds it; where they agree, every shard
// bucketed the ID as that first entry does. It merges the memos into the
// first shard's.
func memosAgree(pts []*partitioner) bool {
	m := pts[0].memo
	for k, pt := range pts[1:] {
		last := k == len(pts)-2 // nothing reads the merge after the last shard
		for id, c := range pt.memo {
			if c0, ok := m[id]; ok {
				if c0 != c {
					return false
				}
			} else if !last {
				m[id] = c
			}
		}
	}
	return true
}
