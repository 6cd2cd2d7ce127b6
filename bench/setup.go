package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/core"
	"fairjob/internal/experiment"
	"fairjob/internal/index"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
)

// crawlSeed fixes the marketplace crawl: seeds vary the traffic, never
// the data, so runs with different seeds stay comparable.
const crawlSeed = 7

// inputs is everything the benchmark derives from the crawl before any
// timing starts: the crawl itself, the benchmark's own evaluation of it
// (the reference the correctness gate checks against), and digests that
// identify both.
type inputs struct {
	crawl []*core.MarketplaceRanking
	tbl   *core.Table
	gi    *index.GroupIndex
	qi    *index.QueryIndex
	li    *index.LocationIndex

	crawlDigest string
	tableDigest string
}

// evaluator is the table build the CLI's loadtest mode performs.
func evaluator(reg *obs.Registry) *core.MarketplaceEvaluator {
	return &core.MarketplaceEvaluator{Schema: core.DefaultSchema(), Measure: core.MeasureExposure, UseScores: true, Obs: reg}
}

// loadInputs generates the crawl and the benchmark's reference table and
// indices.
func loadInputs(ctx context.Context) (*inputs, error) {
	crawl := experiment.NewEnv(crawlSeed).MarketCrawl()
	tbl, err := evaluator(nil).EvaluateAllCtx(ctx, crawl, nil)
	if err != nil {
		return nil, fmt.Errorf("evaluate crawl: %w", err)
	}
	in := &inputs{crawl: crawl, tbl: tbl, crawlDigest: digestCrawl(crawl), tableDigest: digestTable(tbl)}
	in.gi, in.qi, in.li = index.BuildAll(tbl)
	return in, nil
}

// digestCrawl hashes every page's coordinates and ranked workers.
func digestCrawl(crawl []*core.MarketplaceRanking) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range crawl {
		fmt.Fprintf(h, "%s\x1f%s\x1e", r.Query, r.Location)
		for _, w := range r.Workers {
			attrs := make([]string, 0, len(w.Attrs))
			for a, v := range w.Attrs {
				attrs = append(attrs, string(a)+"="+v)
			}
			sort.Strings(attrs)
			fmt.Fprintf(h, "%s\x1f%d\x1f%v\x1e", w.ID, w.Rank, attrs)
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w.Score))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestTable hashes every cell in canonical order, values bit-exact.
func digestTable(tbl *core.Table) string {
	type cell struct {
		tr core.Triple
		v  float64
	}
	cells := make([]cell, 0, tbl.Len())
	tbl.Range(func(tr core.Triple, v float64) { cells = append(cells, cell{tr, v}) })
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].tr, cells[j].tr
		if a.GroupKey != b.GroupKey {
			return a.GroupKey < b.GroupKey
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.Location < b.Location
	})
	h := sha256.New()
	var buf [8]byte
	for _, c := range cells {
		fmt.Fprintf(h, "%s\x1f%s\x1f%s\x1f", c.tr.GroupKey, c.tr.Query, c.tr.Location)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// target is what the open loop sends requests to: a single engine or the
// scatter-gather coordinator.
type target interface {
	DoCtx(ctx context.Context, req serve.Request) serve.Response
}

// stack is one ready-to-serve system under test.
type stack struct {
	target target
	eng    *serve.Engine        // single-engine workloads
	coord  *cluster.Coordinator // partitioned workloads
}

// setupTimes splits one set-up into the layers that built it.
type setupTimes struct {
	total    time.Duration
	evaluate time.Duration
	snapshot time.Duration // single engine: NewSnapshotWithRankings
	cluster  time.Duration // partitioned: cluster.NewWithRankings
}

// telemetry is the observability stack `fairjob loadtest` wires with its
// default flags: a registry with runtime metrics, a tail-sampled tracer
// keeping every trace, and wide events into an in-memory ring.
type telemetry struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *obs.Logger
}

func newTelemetry() telemetry {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	return telemetry{
		reg:    reg,
		tracer: obs.NewTracerTailSampled(obs.DefaultTraceCapacity, obs.TailSamplingPolicy{KeepOneInN: 1}),
		log: obs.NewLogger(obs.LoggerOptions{
			Component: "serve",
			Measure:   "exposure",
			Sink:      obs.NewRingSink(obs.DefaultEventCapacity),
			SampleN:   1,
		}),
	}
}

// buildStack evaluates the crawl and builds the serving system for w,
// timing each layer. The whole call is what a user waits for between
// having a crawl and being able to serve it.
func buildStack(ctx context.Context, crawl []*core.MarketplaceRanking, w workload) (*stack, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	tel := newTelemetry()
	tbl, err := evaluator(tel.reg).EvaluateAllCtx(ctx, crawl, nil)
	if err != nil {
		return nil, st, fmt.Errorf("evaluate crawl: %w", err)
	}
	st.evaluate = time.Since(start)
	s := &stack{}
	if w.partitions == 0 {
		t := time.Now()
		snap := serve.NewSnapshotWithRankings(tbl, nil, crawl)
		st.snapshot = time.Since(t)
		s.eng = serve.NewEngine(snap, serve.Options{Obs: tel.reg, Tracer: tel.tracer, Log: tel.log})
		s.target = s.eng
	} else {
		t := time.Now()
		s.coord = cluster.NewWithRankings(tbl, nil, crawl, clusterOptions(w, tel))
		st.cluster = time.Since(t)
		s.target = s.coord
	}
	st.total = time.Since(start)
	return s, st, nil
}

// clusterOptions configures a coordinator over w's partitions with tel,
// its transport left to the default.
func clusterOptions(w workload, tel telemetry) cluster.Options {
	return cluster.Options{
		Partitions: w.partitions,
		Obs:        tel.reg,
		Tracer:     tel.tracer,
		Log:        tel.log,
		Seed:       crawlSeed,
	}
}
