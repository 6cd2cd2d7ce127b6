// Package metrics implements the four unfairness distance measures the
// paper builds on (§3.2–3.3): Kendall Tau and Jaccard for search-engine
// result lists, and Earth Mover's Distance and exposure deviation for
// marketplace rankings.
//
// Orientation convention (see DESIGN.md §5): every function whose name ends
// in Distance returns a value in [0, 1] where higher means *more different*
// and therefore more unfair when plugged into the framework's DIST role.
package metrics

// KendallTauDistance returns the normalized Kendall tau distance between
// two ranked lists in [0, 1]: the fraction of discordant pairs among all
// pairs of items that appear in both lists.
//
// Real search-result lists rarely contain identical item sets, so the
// comparison is projected onto the intersection first, following the
// methodology of Hannak et al. (WWW 2013) that the paper adopts for
// personalization measurement. When the intersection has fewer than two
// items there is no pair to compare; in that degenerate case the function
// falls back to the Jaccard distance of the two lists, which preserves the
// "identical lists → 0, disjoint lists → 1" boundary behaviour.
//
// Duplicate items keep their first (best-ranked) position.
func KendallTauDistance(a, b []string) float64 {
	posA := firstPositions(a)
	posB := firstPositions(b)

	// Project b's positions onto the common items in a's rank order,
	// taking only the first occurrence of each item in a.
	common := make([]int, 0, len(posA))
	for i, item := range a {
		if posA[item] != i {
			continue
		}
		if pb, inB := posB[item]; inB {
			common = append(common, pb)
		}
	}
	if len(common) < 2 {
		return JaccardDistance(a, b)
	}
	pairs := len(common) * (len(common) - 1) / 2
	discordant := countInversions(common)
	return float64(discordant) / float64(pairs)
}

func firstPositions(list []string) map[string]int {
	pos := make(map[string]int, len(list))
	for i, item := range list {
		if _, seen := pos[item]; !seen {
			pos[item] = i
		}
	}
	return pos
}

// countInversions counts pairs (i, j) with i < j and s[i] > s[j] using
// merge sort, O(n log n). Ties are not counted as inversions; projected
// positions are distinct by construction, so ties cannot occur here.
func countInversions(s []int) int {
	buf := make([]int, len(s))
	work := append([]int(nil), s...)
	return mergeCount(work, buf)
}

func mergeCount(s, buf []int) int {
	n := len(s)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(s[:mid], buf[:mid]) + mergeCount(s[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if s[i] <= s[j] {
			buf[k] = s[i]
			i++
		} else {
			buf[k] = s[j]
			j++
			inv += mid - i
		}
		k++
	}
	for i < mid {
		buf[k] = s[i]
		i++
		k++
	}
	for j < n {
		buf[k] = s[j]
		j++
		k++
	}
	copy(s, buf[:k])
	return inv
}
