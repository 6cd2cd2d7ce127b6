package fairjob_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fairjob/internal/core"
	"fairjob/internal/experiment"
	"fairjob/internal/index"
	"fairjob/internal/marketplace"
	"fairjob/internal/metrics"
	"fairjob/internal/search"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// The benchmark environment is built once: dataset generation is the
// expensive part and is benchmarked separately (BenchmarkCrawl*); the
// per-table benchmarks then measure the analysis cost of regenerating each
// of the paper's artifacts.
var (
	benchEnvOnce sync.Once
	benchEnv     *experiment.Env
)

func env(b *testing.B) *experiment.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = experiment.NewEnv(0)
		// Pre-build every table the runners read so the timed loop
		// measures analysis, not dataset synthesis.
		benchEnv.MarketTable(core.MeasureEMD)
		benchEnv.MarketTable(core.MeasureExposure)
		benchEnv.GoogleTable(core.MeasureKendallTau)
		benchEnv.GoogleTable(core.MeasureJaccard)
		benchEnv.MarketDataset()
	})
	return benchEnv
}

// benchRunner regenerates one paper artifact per iteration.
func benchRunner(b *testing.B, id string) {
	b.Helper()
	e := env(b)
	r, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(e); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure and table of the paper's evaluation.

func BenchmarkFig1(b *testing.B)   { benchRunner(b, "F1") }
func BenchmarkFig2(b *testing.B)   { benchRunner(b, "F2") }
func BenchmarkFig3(b *testing.B)   { benchRunner(b, "F3") }
func BenchmarkFig4(b *testing.B)   { benchRunner(b, "F4") }
func BenchmarkFig5(b *testing.B)   { benchRunner(b, "F5") }
func BenchmarkFig7(b *testing.B)   { benchRunner(b, "F7") }
func BenchmarkFig8(b *testing.B)   { benchRunner(b, "F8") }
func BenchmarkTable6(b *testing.B) { benchRunner(b, "T6") }
func BenchmarkTable7(b *testing.B) { benchRunner(b, "T7") }
func BenchmarkTable8(b *testing.B) { benchRunner(b, "T8") }
func BenchmarkTable9(b *testing.B) { benchRunner(b, "T9") }

// BenchmarkTable10 covers the paper's Tables 10 and 11 (one runner emits
// both).
func BenchmarkTable10(b *testing.B) { benchRunner(b, "T10") }
func BenchmarkTable12(b *testing.B) { benchRunner(b, "T12") }

// BenchmarkTable13 covers Tables 13 and 14.
func BenchmarkTable13(b *testing.B)     { benchRunner(b, "T13") }
func BenchmarkTable15(b *testing.B)     { benchRunner(b, "T15") }
func BenchmarkGoogleQuant(b *testing.B) { benchRunner(b, "GQ") }
func BenchmarkTable16(b *testing.B)     { benchRunner(b, "T16") }
func BenchmarkTable18(b *testing.B)     { benchRunner(b, "T18") }
func BenchmarkTable20(b *testing.B)     { benchRunner(b, "T20") }

// BenchmarkCrawlTaskRabbit measures the full 5,361-query synthetic crawl.
func BenchmarkCrawlTaskRabbit(b *testing.B) {
	m := marketplace.New(marketplace.Config{Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(m.CrawlAll()); got != marketplace.PaperQueryCount {
			b.Fatalf("crawl = %d", got)
		}
	}
}

// BenchmarkCrawlGoogle measures the full 11-study Google sweep.
func BenchmarkCrawlGoogle(b *testing.B) {
	e := search.New(search.Config{Seed: 11})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(e.CrawlAll()); got != 55 {
			b.Fatalf("sweep = %d", got)
		}
	}
}

// BenchmarkEvaluate measures the F-Box itself: turning the crawl into the
// d<g,q,l> table under each marketplace measure.
func BenchmarkEvaluate(b *testing.B) {
	m := marketplace.New(marketplace.Config{Seed: 7})
	crawl := m.CrawlAll()
	for _, measure := range []core.MarketplaceMeasure{core.MeasureEMD, core.MeasureExposure} {
		b.Run(measure.String(), func(b *testing.B) {
			ev := &core.MarketplaceEvaluator{Schema: core.DefaultSchema(), Measure: measure}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.EvaluateAll(crawl, nil)
			}
		})
	}
}

// BenchmarkEvaluateParallel measures the sharded evaluation pipeline at
// increasing worker counts, for both marketplace measures. workers=1 is
// the single-threaded partitioned pipeline (contrast with the serial
// nested scan timed by BenchmarkEvaluate before PR 1; see EXPERIMENTS.md
// for the recorded trajectory); higher counts show the sharding scaling
// on multi-core hosts.
func BenchmarkEvaluateParallel(b *testing.B) {
	m := marketplace.New(marketplace.Config{Seed: 7})
	crawl := m.CrawlAll()
	for _, measure := range []core.MarketplaceMeasure{core.MeasureEMD, core.MeasureExposure} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", measure, workers), func(b *testing.B) {
				ev := &core.MarketplaceEvaluator{Schema: core.DefaultSchema(), Measure: measure, Workers: workers}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.EvaluateAll(crawl, nil)
				}
			})
		}
	}
}

// BenchmarkSearchEvaluate measures the F-Box on the Google sweep under
// both search measures, with worker-count sub-benchmarks. The pairwise
// distance cache means each user pair is measured once per result set
// regardless of how many (g, g') combinations include it.
func BenchmarkSearchEvaluate(b *testing.B) {
	e := search.New(search.Config{Seed: 11})
	sweep := e.CrawlAll()
	for _, measure := range []core.SearchMeasure{core.MeasureKendallTau, core.MeasureJaccard} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", measure, workers), func(b *testing.B) {
				ev := &core.SearchEvaluator{Schema: core.DefaultSchema(), Measure: measure, Workers: workers}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.EvaluateAll(sweep, nil)
				}
			})
		}
	}
}

// BenchmarkSetup measures what the repository benchmark's setup_s times
// for a single engine (bench/setup.go): evaluating its crawl,
// experiment.NewEnv(7).MarketCrawl(), under the Exposure measure with
// UseScores, through EvaluateAllCtx, then freezing the table with the
// crawl's pages through serve.NewSnapshotWithRankings, which builds the
// three index families and their full-scope list sources. The evaluator
// runs without a telemetry registry. evaluate-ns/op and snapshot-ns/op
// split each iteration between the two calls.
func BenchmarkSetup(b *testing.B) {
	crawl := experiment.NewEnv(7).MarketCrawl()
	ev := &core.MarketplaceEvaluator{Schema: core.DefaultSchema(), Measure: core.MeasureExposure, UseScores: true}
	ctx := context.Background()
	var eval, snap time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		tbl, err := ev.EvaluateAllCtx(ctx, crawl, nil)
		if err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		benchSnapshot = serve.NewSnapshotWithRankings(tbl, nil, crawl)
		eval += mid.Sub(start)
		snap += time.Since(mid)
	}
	b.ReportMetric(float64(eval.Nanoseconds())/float64(b.N), "evaluate-ns/op")
	b.ReportMetric(float64(snap.Nanoseconds())/float64(b.N), "snapshot-ns/op")
}

// benchSnapshot keeps BenchmarkSetup's snapshot reachable, so the
// compiler cannot drop the call that builds it.
var benchSnapshot *serve.Snapshot

// BenchmarkAblationTopK compares the paper's Threshold Algorithm against
// Fagin's original FA and a naive full scan on the group-fairness
// instance, for growing scopes (DESIGN.md A1).
func BenchmarkAblationTopK(b *testing.B) {
	gi := index.BuildGroupIndex(env(b).MarketTable(core.MeasureEMD))
	for _, nq := range []int{8, 32, 96} {
		qs := gi.Queries[:nq]
		src, err := topk.NewGroupLists(gi, qs, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, algo := range []topk.Algorithm{topk.TA, topk.FA, topk.Naive, topk.NRA} {
			b.Run(fmt.Sprintf("algo=%v/queries=%d", algo, nq), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := topk.TopK(src, 3, topk.MostUnfair, algo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationEMDBins measures the EMD measure's sensitivity to the
// histogram bin count (DESIGN.md A2).
func BenchmarkAblationEMDBins(b *testing.B) {
	m := marketplace.New(marketplace.Config{Seed: 7})
	crawl := m.CrawlAll()[:200]
	groups := core.DefaultSchema().Universe()
	for _, bins := range []int{5, 10, 20, 50} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			ev := &core.MarketplaceEvaluator{Schema: core.DefaultSchema(), Measure: core.MeasureEMD, Bins: bins}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.EvaluateAll(crawl, groups)
			}
		})
	}
}

// BenchmarkAblationIndexBuild measures building the three index families
// from the full unfairness table (DESIGN.md A3).
func BenchmarkAblationIndexBuild(b *testing.B) {
	tbl := env(b).MarketTable(core.MeasureEMD)
	b.Run("group-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.BuildGroupIndex(tbl)
		}
	})
	b.Run("query-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.BuildQueryIndex(tbl)
		}
	})
	b.Run("location-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.BuildLocationIndex(tbl)
		}
	})
}

// BenchmarkMetrics micro-benchmarks the four distance measures on
// realistic list/histogram sizes.
func BenchmarkMetrics(b *testing.B) {
	rng := stats.NewRNG(5)
	listA := make([]string, 30)
	listB := make([]string, 30)
	perm := rng.Perm(30)
	for i := 0; i < 30; i++ {
		listA[i] = fmt.Sprintf("item%02d", i)
		listB[i] = fmt.Sprintf("item%02d", perm[i])
	}
	b.Run("KendallTau30", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			metrics.KendallTauDistance(listA, listB)
		}
	})
	b.Run("Jaccard30", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			metrics.JaccardDistance(listA, listB)
		}
	})
	h1 := stats.NewHistogram(0, 1, 10)
	h2 := stats.NewHistogram(0, 1, 10)
	for i := 0; i < 25; i++ {
		h1.Add(rng.Float64())
		h2.Add(rng.Float64())
	}
	b.Run("EMD10bins", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			metrics.EMDHistograms(h1, h2)
		}
	})
	xs := make([]float64, 25)
	ys := make([]float64, 25)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	b.Run("EMDSamples25", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			metrics.EMDSamples(xs, ys, 0, 1)
		}
	})
}
