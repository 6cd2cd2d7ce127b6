package topk

import (
	"fairjob/internal/core"
	"fairjob/internal/index"
)

// GroupFairness solves the group-fairness instance of Problem 1 with the
// Threshold Algorithm: the k groups for which the site is most/least
// unfair over the (qs × ls) scope. Nil qs/ls use the index's full scope.
// Result keys are group keys resolvable via idx.Group.
func GroupFairness(idx *index.GroupIndex, qs []core.Query, ls []core.Location, k int, dir Direction) ([]Result, error) {
	src, err := NewGroupLists(idx, qs, ls)
	if err != nil {
		return nil, err
	}
	results, _, err := TopK(src, k, dir, TA)
	return results, err
}

// QueryFairness solves the query-fairness instance: the k most/least
// unfair queries over the (groups × locations) scope.
func QueryFairness(idx *index.QueryIndex, groupKeys []string, ls []core.Location, k int, dir Direction) ([]Result, error) {
	src, err := NewQueryLists(idx, groupKeys, ls)
	if err != nil {
		return nil, err
	}
	results, _, err := TopK(src, k, dir, TA)
	return results, err
}

// LocationFairness solves the location-fairness instance: the k most/least
// unfair locations over the (groups × queries) scope.
func LocationFairness(idx *index.LocationIndex, groupKeys []string, qs []core.Query, k int, dir Direction) ([]Result, error) {
	src, err := NewLocationLists(idx, groupKeys, qs)
	if err != nil {
		return nil, err
	}
	results, _, err := TopK(src, k, dir, TA)
	return results, err
}
