package experiment

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/obs"
	"fairjob/internal/report"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// observabilityRunner (OB1) validates the telemetry layer end to end on
// the marketplace substrate: it drives the serve engine's Problem 1 path
// under TA and NRA with an attached registry and tracer, scrapes the
// admin endpoint's Prometheus exposition (live TCP when the sandbox
// permits listening, in-process otherwise), and checks that the
// per-algorithm access-cost histograms recovered from /metrics equal the
// Stats the algorithms returned directly — the §6.3 / Table-6-style
// numbers, read back through the observability path instead of from
// benchmark output.
func observabilityRunner() Runner {
	return Runner{
		ID:    "OB1",
		Title: "Observability — access-cost telemetry round-trip through /metrics",
		Description: "Runs every dimension × direction quantification under TA and NRA " +
			"through an instrumented engine, scrapes the Prometheus exposition from " +
			"the admin endpoint, and cross-checks the recovered per-algorithm " +
			"sorted/random access totals against the directly returned topk.Stats; " +
			"also verifies the per-query trace ring saw every request.",
		Run: func(env *Env) (*Result, error) {
			tbl := env.MarketTable(core.MeasureEMD)
			reg := obs.NewRegistry()
			tz := obs.NewTracer(obs.DefaultTraceCapacity)
			// Caching is disabled so every request executes its algorithm
			// and contributes one Stats sample — the same accounting the
			// paper's cost tables use.
			eng := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{
				Workers: env.Workers, CacheSize: -1, Obs: reg, Tracer: tz,
			})

			algos := []topk.Algorithm{topk.TA, topk.NRA}
			direct := map[topk.Algorithm]*topk.Stats{topk.TA: {}, topk.NRA: {}}
			requests := 0
			for _, algo := range algos {
				for _, d := range []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation} {
					for _, dir := range []topk.Direction{topk.MostUnfair, topk.LeastUnfair} {
						for _, k := range []int{1, 5} {
							resp := eng.Do(serve.Request{
								Problem: serve.Quantify, Dim: d, K: k, Direction: dir, Algorithm: algo,
							})
							if resp.Err != nil {
								return nil, fmt.Errorf("OB1 request failed: %w", resp.Err)
							}
							direct[algo].SortedAccesses += resp.Stats.SortedAccesses
							direct[algo].RandomAccesses += resp.Stats.RandomAccesses
							direct[algo].Rounds += resp.Stats.Rounds
							requests++
						}
					}
				}
			}

			exposition, transport, err := scrapeMetrics(reg, tz)
			if err != nil {
				return nil, err
			}

			res := &Result{ID: "OB1", Title: "Telemetry round-trip"}
			out := report.NewTable("Access costs recovered from /metrics vs direct topk.Stats",
				"Algorithm", "Sorted (metrics)", "Sorted (direct)", "Random (metrics)", "Random (direct)", "Samples")
			allEqual := true
			for _, algo := range algos {
				sortedSum, sortedCount := expositionHistogram(exposition, "topk_sorted_accesses", algo.String())
				randomSum, _ := expositionHistogram(exposition, "topk_random_accesses", algo.String())
				out.AddRow(algo.String(),
					int(sortedSum), direct[algo].SortedAccesses,
					int(randomSum), direct[algo].RandomAccesses,
					int(sortedCount))
				if int(sortedSum) != direct[algo].SortedAccesses ||
					int(randomSum) != direct[algo].RandomAccesses ||
					int(sortedCount) != requests/len(algos) {
					allEqual = false
				}
			}
			res.Tables = append(res.Tables, out)

			res.notef("exposition scraped over %s", transport)
			res.check(allEqual, "per-algorithm access totals from /metrics ≡ directly returned Stats")
			res.check(direct[topk.NRA].RandomAccesses == 0,
				"NRA performs no random accesses (its defining property, visible in telemetry)")
			res.check(direct[topk.TA].RandomAccesses > 0,
				"TA performs random accesses (%d recorded)", direct[topk.TA].RandomAccesses)
			res.check(tz.Finished() == uint64(requests),
				"trace ring finished one trace per request (%d/%d)", tz.Finished(), requests)
			reqLine := fmt.Sprintf(`serve_requests_total{problem="quantify"} %d`, requests)
			res.check(strings.Contains(exposition, reqLine),
				"exposition carries the exact request counter line %q", reqLine)
			return res, nil
		},
	}
}

// scrapeMetrics fetches the /metrics exposition, preferring a real TCP
// round-trip through obs.ServeAdmin and falling back to an in-process
// request when the environment forbids listening.
func scrapeMetrics(reg *obs.Registry, tz *obs.Tracer) (body, transport string, err error) {
	if srv, serr := obs.ServeAdmin("127.0.0.1:0", obs.AdminOptions{Registry: reg, Tracer: tz}); serr == nil {
		defer srv.Close()
		resp, gerr := http.Get("http://" + srv.Addr() + "/metrics")
		if gerr == nil {
			defer resp.Body.Close()
			b, rerr := io.ReadAll(resp.Body)
			if rerr != nil {
				return "", "", rerr
			}
			return string(b), "live TCP (" + srv.Addr() + ")", nil
		}
	}
	rec := httptest.NewRecorder()
	obs.NewHandler(obs.AdminOptions{Registry: reg, Tracer: tz}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String(), "in-process handler (listen unavailable)", nil
}

// expositionHistogram extracts a histogram's _sum and _count for one algo
// label from Prometheus exposition text.
func expositionHistogram(body, base, algo string) (sum, count float64) {
	sumPrefix := fmt.Sprintf(`%s_sum{algo="%s"} `, base, algo)
	countPrefix := fmt.Sprintf(`%s_count{algo="%s"} `, base, algo)
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, sumPrefix); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(line, countPrefix); ok {
			count, _ = strconv.ParseFloat(v, 64)
		}
	}
	return sum, count
}
