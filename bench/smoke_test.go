package main

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload for half a second with the
// traced run, the replays and a small correctness gate, and checks that
// each reports every metric BENCHMARK.json lists. The max_rps search,
// which takes tens of seconds, is covered by the search tests. The
// workloads run side by side, since a run spends most of its windows
// waiting for arrivals; the numbers they report are not checked.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full crawl and runs every workload; skipped with -short")
	}
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in, err := loadInputs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*runRecord, len(workloads))
	errs := make([]error, len(workloads))
	var wg sync.WaitGroup
	for i, w := range workloads {
		root := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i], errs[i] = runWorkload(ctx, runConfig{
				w: w, seed: 1, seconds: time.Second / 2, trace: true,
				root: root, gateSize: 20,
			}, in)
		}()
	}
	wg.Wait()
	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec := recs[i]
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !rec.Correct || rec.Failed != 0 || rec.Checked == 0 {
				t.Fatalf("correct=%v failed=%d checked=%d: %v", rec.Correct, rec.Failed, rec.Checked, rec.Errors)
			}
			for _, bm := range append(append([]benchMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
				if _, ok := rec.Metrics[bm.Name]; !ok {
					t.Errorf("no %s", bm.Name)
				}
			}
			if filepath.Base(rec.SpansFile) != w.name+"-1.spans.jsonl" {
				t.Errorf("spans written to %q", rec.SpansFile)
			}
		})
	}
}
