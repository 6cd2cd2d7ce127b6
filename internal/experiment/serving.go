package experiment

import (
	"fmt"
	"math"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/report"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// servingRunner (SV1) validates the concurrent query-serving path on the
// TaskRabbit substrate: it freezes the marketplace EMD table into an
// immutable IndexSnapshot, fans a mixed Problem 1 / Problem 2 workload
// across the engine's worker pool, and cross-checks every response
// against a direct topk/compare computation on the same table. A second
// pass of the identical batch must be answered entirely from the result
// cache with byte-identical answers.
func servingRunner() Runner {
	return Runner{
		ID:    "SV1",
		Title: "Serving — concurrent batch equivalence on the marketplace table",
		Description: "Freezes the TaskRabbit EMD table into an IndexSnapshot, runs every " +
			"dimension × direction × algorithm quantification plus top-pair reversal " +
			"analyses through the batch engine, and cross-checks responses against " +
			"direct Algorithm 1–3 calls; a repeat batch must be all cache hits.",
		Run: func(env *Env) (*Result, error) {
			tbl := env.MarketTable(core.MeasureEMD)
			eng := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{Workers: env.Workers})

			reqs := servingWorkload(tbl)
			first := eng.DoBatch(reqs)
			mismatches, errors := 0, 0
			for i, resp := range first {
				if resp.Err != nil {
					errors++
					continue
				}
				if !servingMatchesDirect(tbl, reqs[i], resp) {
					mismatches++
				}
			}

			second := eng.DoBatch(reqs)
			hits := 0
			for i, resp := range second {
				if resp.CacheHit && servingSameAnswer(first[i], resp) {
					hits++
				}
			}
			cs := eng.CacheStats()

			res := &Result{ID: "SV1", Title: "Concurrent serving equivalence"}
			out := report.NewTable("Batch serving on the marketplace EMD table",
				"Quantity", "Value")
			out.AddRow("batch size", len(reqs))
			out.AddRow("worker pool", core.BoundedWorkers(env.Workers, len(reqs)))
			out.AddRow("responses matching direct computation", len(reqs)-mismatches-errors)
			out.AddRow("request errors", errors)
			out.AddRow("repeat batch served from cache", hits)
			out.AddRow("engine cache hits / misses / entries", fmt.Sprintf("%d / %d / %d", cs.Hits, cs.Misses, cs.Entries))
			res.Tables = append(res.Tables, out)

			res.check(errors == 0, "all %d batch requests executed without error", len(reqs))
			res.check(mismatches == 0, "engine responses ≡ direct Algorithm 1–3 computations (%d mismatch(es))", mismatches)
			res.check(hits == len(reqs), "repeat batch is 100%% cache hits with identical answers (%d/%d)", hits, len(reqs))
			return res, nil
		},
	}
}

// servingWorkload builds the SV1 request mix: every dimension × direction
// × algorithm quantification at two ks, plus the reversal analysis of the
// two most unfair members of each dimension under both aggregation
// semantics. Operands come from direct computation on the source table so
// the workload itself is independent of the serve layer under test.
func servingWorkload(tbl *core.Table) []serve.Request {
	var reqs []serve.Request
	dims := []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation}
	for _, d := range dims {
		for _, dir := range []topk.Direction{topk.MostUnfair, topk.LeastUnfair} {
			for _, algo := range topk.Algorithms() {
				for _, k := range []int{1, 5} {
					reqs = append(reqs, serve.Request{
						Problem: serve.Quantify, Dim: d, K: k, Direction: dir, Algorithm: algo,
					})
				}
			}
		}
	}
	for _, d := range dims {
		top := quantifyDirect(tbl, d, 2, topk.MostUnfair)
		if len(top) < 2 {
			continue
		}
		by := compare.ByQuery
		if d == compare.ByQuery {
			by = compare.ByLocation
		}
		for _, definedOnly := range []bool{false, true} {
			reqs = append(reqs, serve.Request{
				Problem: serve.Compare, Of: d, R1: top[0].Key, R2: top[1].Key,
				By: by, DefinedOnly: definedOnly,
			})
		}
	}
	return reqs
}

// quantifyDirect answers Problem 1 without the serve layer, building a
// fresh index — the independent reference SV1 cross-checks against.
func quantifyDirect(tbl *core.Table, d compare.Dimension, k int, dir topk.Direction) []topk.Result {
	var (
		res []topk.Result
		err error
	)
	switch d {
	case compare.ByGroup:
		res, err = topk.GroupFairness(index.BuildGroupIndex(tbl), nil, nil, k, dir)
	case compare.ByQuery:
		res, err = topk.QueryFairness(index.BuildQueryIndex(tbl), nil, nil, k, dir)
	case compare.ByLocation:
		res, err = topk.LocationFairness(index.BuildLocationIndex(tbl), nil, nil, k, dir)
	}
	if err != nil {
		return nil
	}
	return res
}

// servingMatchesDirect recomputes a request with direct topk/compare
// calls on the source table and compares member sets and values (1e-12,
// absorbing nothing — index construction is deterministic, so the sums
// are bitwise-reproducible, but the tolerance keeps the check honest if
// iteration order ever changes).
func servingMatchesDirect(tbl *core.Table, req serve.Request, resp serve.Response) bool {
	const eps = 1e-12
	switch req.Problem {
	case serve.Quantify:
		want := quantifyDirect(tbl, req.Dim, req.K, req.Direction)
		if len(want) != len(resp.Results) {
			return false
		}
		for i := range want {
			if want[i].Key != resp.Results[i].Key || math.Abs(want[i].Value-resp.Results[i].Value) > eps {
				return false
			}
		}
		return true
	case serve.Compare:
		var c *compare.Comparer
		if req.DefinedOnly {
			c = compare.NewDefinedOnly(tbl)
		} else {
			c = compare.New(tbl)
		}
		var (
			want *compare.Comparison
			err  error
		)
		switch req.Of {
		case compare.ByGroup:
			want, err = c.Groups(req.R1, req.R2, req.By, compare.Scope{})
		case compare.ByQuery:
			want, err = c.Queries(core.Query(req.R1), core.Query(req.R2), req.By, compare.Scope{})
		case compare.ByLocation:
			want, err = c.Locations(core.Location(req.R1), core.Location(req.R2), req.By, compare.Scope{})
		}
		if err != nil || want == nil || resp.Comparison == nil {
			return false
		}
		got := resp.Comparison
		if math.Abs(want.Overall1-got.Overall1) > eps || math.Abs(want.Overall2-got.Overall2) > eps {
			return false
		}
		if len(want.Reversed) != len(got.Reversed) {
			return false
		}
		for i := range want.Reversed {
			if want.Reversed[i].B != got.Reversed[i].B {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// servingSameAnswer reports whether two responses carry the same payload
// (the cache-hit ≡ cache-miss contract, checked field-wise).
func servingSameAnswer(a, b serve.Response) bool {
	return fmt.Sprintf("%+v%+v%+v", a.Results, a.Stats, a.Comparison) ==
		fmt.Sprintf("%+v%+v%+v", b.Results, b.Stats, b.Comparison)
}
