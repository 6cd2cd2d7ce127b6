package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareJudgesUnboundedMetricsBySpread checks that a metric
// BENCHMARK.json bounds is judged by its bound, and one it does not by
// the old file's own quartile spread.
func TestCompareJudgesUnboundedMetricsBySpread(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, setup, p50 []float64) string {
		res := &results{Seconds: 20, CrawlDigest: "c", TableDigest: "t", Workloads: map[string]*workloadResults{"cold-mix": {}}}
		for i := range setup {
			res.Workloads["cold-mix"].Runs = append(res.Workloads["cold-mix"].Runs, &runRecord{Metrics: map[string]float64{"setup_s": setup[i], "p50_ms": p50[i]}})
		}
		res.summarize()
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bf := &benchmarkFile{EndToEnd: []benchMetric{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}}}
	// setup_s rises 10%, inside its 25% bound; p50_ms rises 10%, past
	// the old runs' 1% spread.
	old := write("old.json", []float64{1.00, 0.99, 1.01, 1.00, 1.00}, []float64{10.0, 9.9, 10.1, 10.0, 10.0})
	cur := write("new.json", []float64{1.10, 1.09, 1.11, 1.10, 1.10}, []float64{11.0, 10.9, 11.1, 11.0, 11.0})
	var out strings.Builder
	if err := compareResults(&out, bf, old, cur); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"setup_s": "25.0%  unchanged", "p50_ms": "spread 1.0%  worse"}
	for _, line := range strings.Split(out.String(), "\n") {
		for name, tail := range want {
			if strings.Contains(line, " "+name+" ") {
				if !strings.HasSuffix(line, tail) {
					t.Errorf("%q, want it to end in %q", line, tail)
				}
				delete(want, name)
			}
		}
	}
	if len(want) > 0 {
		t.Errorf("no line for %v in:\n%s", want, out.String())
	}
}

// TestCompareRefusesDifferentWindows checks that compare will not set
// files measured over windows of different lengths, or one traced and
// one not, against each other.
func TestCompareRefusesDifferentWindows(t *testing.T) {
	write := func(name string, seconds int, trace bool) string {
		data, err := json.Marshal(&results{Seconds: seconds, Trace: trace, CrawlDigest: "c", TableDigest: "t"})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bf := &benchmarkFile{}
	base := write("base.json", 25, false)
	if err := compareResults(io.Discard, bf, base, write("same.json", 25, false)); err != nil {
		t.Fatalf("same windows refused: %v", err)
	}
	for _, other := range []string{write("longer.json", 30, false), write("traced.json", 25, true)} {
		if err := compareResults(io.Discard, bf, base, other); err == nil || !strings.Contains(err.Error(), "different windows") {
			t.Errorf("%s: got %v, want a refusal", filepath.Base(other), err)
		}
	}
}

// TestQuartileMatchesPython pins the quartiles to Python's
// statistics.quantiles(values, n=4), which the run-to-run spread is
// defined by.
func TestQuartileMatchesPython(t *testing.T) {
	cases := []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 5, 11}, 3, 5, 11},
	}
	for _, c := range cases {
		s := newStat("ms", c.v)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("%v: got %v/%v/%v, want %v/%v/%v", c.v, s.Q1, s.Median, s.Q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	old := newStat("ms", []float64{10, 10.1, 9.9, 10.05, 9.95})
	cases := []struct {
		name string
		cur  []float64
		want string
	}{
		{"same", []float64{10, 10.1, 9.9, 10.05, 9.95}, "unchanged"},
		{"slower", []float64{12, 12.1, 11.9, 12.05, 11.95}, "worse"},
		{"faster", []float64{8, 8.1, 7.9, 8.05, 7.95}, "better"},
		{"noisy", []float64{6, 14, 10, 7, 13}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(old, newStat("ms", c.cur), 0.1, true, false); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Every run of the change beating every run of the parent resolves a
	// spread wider than the bound.
	wide := newStat("ms", []float64{10, 16, 13, 11, 15})
	if _, got := verdict(wide, newStat("ms", []float64{5, 6, 7, 8, 9}), 0.1, true, false); got != "better" {
		t.Errorf("separated runs: verdict %s, want better", got)
	}
}
