package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchmarkFile is the repository's BENCHMARK.json: the command, the
// workloads, and the metrics with their regression bounds.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkFile reads BENCHMARK.json and checks that it names only
// workloads and metrics this program measures, with their units.
func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range bf.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	for _, bm := range append(append([]benchMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
		def, ok := metricByName(bm.Name)
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json: unknown metric %q", bm.Name)
		}
		if def.unit != bm.Unit || def.lower != (bm.Better == "lower") {
			return nil, fmt.Errorf("BENCHMARK.json: metric %q is %s, %s is better here, not %s/%s", bm.Name, def.unit, map[bool]string{true: "lower", false: "higher"}[def.lower], bm.Unit, bm.Better)
		}
	}
	return &bf, nil
}

// host fingerprints the machine a results file was measured on.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func fingerprint(root string) host {
	return host{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: clients,
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commitOf(root),
	}
}

// cpuModel reads the CPU model name, "unknown" where /proc has none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf resolves the checked-out commit from .git without running
// git; "unknown" outside a repository.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// stat is one metric's distribution over a workload's runs, with
// quartiles as Python's statistics.quantiles(values, n=4) gives them.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the quartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func newStat(unit string, values []float64) stat {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := stat{Unit: unit, Values: values, Median: median(v)}
	s.Q1, s.Q3 = s.Median, s.Median
	if len(v) >= 2 {
		s.Q1, s.Q3 = quartile(v, 1), quartile(v, 3)
	}
	return s
}

// median of sorted values.
func median(v []float64) float64 {
	n := len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// quartile is Python's "exclusive" method for cut point i of 4 over
// sorted values (at least two).
func quartile(v []float64, i int) float64 {
	const n = 4
	ld := len(v)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (v[j-1]*(n-delta) + v[j]*delta) / n
}

// workloadResults is every run of one workload.
type workloadResults struct {
	Runs    []*runRecord    `json:"runs"`
	Summary map[string]stat `json:"summary"`
}

// results is what -out writes and `compare` reads.
type results struct {
	Host        host                        `json:"host"`
	Seconds     int                         `json:"seconds"`
	Trace       bool                        `json:"trace"`
	CrawlDigest string                      `json:"crawl_digest"`
	TableDigest string                      `json:"table_digest"`
	Workloads   map[string]*workloadResults `json:"workloads"`
}

// summarize fills each workload's per-metric distributions.
func (res *results) summarize() {
	for _, wr := range res.Workloads {
		values := map[string][]float64{}
		for _, run := range wr.Runs {
			for k, v := range run.Metrics {
				values[k] = append(values[k], v)
			}
		}
		wr.Summary = map[string]stat{}
		for k, vs := range values {
			def, _ := metricByName(k)
			wr.Summary[k] = newStat(def.unit, vs)
		}
	}
}

// printTable writes a workload's metrics, end-to-end first.
func printTable(w io.Writer, name string, wr *workloadResults) {
	fmt.Fprintf(w, "\n%s (%d run(s))\n", name, len(wr.Runs))
	fmt.Fprintf(w, "  %-30s %-6s %14s %14s %14s\n", "metric", "unit", "median", "q1", "q3")
	for _, fam := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range fam {
			s, ok := wr.Summary[def.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-30s %-6s %14.6g %14.6g %14.6g\n", def.name, def.unit, s.Median, s.Q1, s.Q3)
		}
	}
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// failFracBound is fail_frac's bound, absolute: it is zero when all is
// well, so a share of it means nothing.
const failFracBound = 0.001

// verdict compares one metric's runs on two commits. The change is
// worse or better when the medians differ by more than the bound; it is
// unresolved when either side's own spread is wider than the bound,
// unless every run of one side beats every run of the other.
func verdict(old, cur stat, bound float64, lower, absolute bool) (change float64, v string) {
	change = cur.Median - old.Median
	spread := math.Max(old.Q3-old.Q1, cur.Q3-cur.Q1)
	if !absolute && old.Median != 0 {
		change /= math.Abs(old.Median)
		spread = math.Max(old.spread(), cur.spread())
	}
	gain := change
	if lower {
		gain = -change
	}
	separated := func(a, b []float64) bool { // every a beats every b
		for _, x := range a {
			for _, y := range b {
				if (lower && x >= y) || (!lower && x <= y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case spread > bound && !separated(cur.Values, old.Values) && !separated(old.Values, cur.Values):
		return change, "unresolved"
	case gain < -bound:
		return change, "worse"
	case gain > bound:
		return change, "better"
	default:
		return change, "unchanged"
	}
}

// compareResults prints a verdict for every end-to-end metric of every
// workload both files measured. A metric BENCHMARK.json bounds is judged
// against its bound; any other is judged against the old file's own
// quartile spread, the rule a claimed gain must meet. Files measured on
// different inputs, or over windows of different lengths or tracing, are
// refused.
func compareResults(w io.Writer, bf *benchmarkFile, oldPath, newPath string) error {
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	if old.CrawlDigest != cur.CrawlDigest || old.TableDigest != cur.TableDigest {
		return fmt.Errorf("the two files measured different inputs (crawl %s vs %s, table %s vs %s)", old.CrawlDigest, cur.CrawlDigest, old.TableDigest, cur.TableDigest)
	}
	if old.Seconds != cur.Seconds || old.Trace != cur.Trace {
		return fmt.Errorf("the two files measured different windows (%d s vs %d s, trace %v vs %v)", old.Seconds, cur.Seconds, old.Trace, cur.Trace)
	}
	if old.Host != cur.Host {
		fmt.Fprintf(w, "note: hosts differ: %+v vs %+v\n", old.Host, cur.Host)
	}
	bounds := map[string]float64{"fail_frac": failFracBound}
	for _, bm := range bf.EndToEnd {
		bounds[bm.Name] = bm.Bound
	}
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %12s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	names := make([]string, 0, len(cur.Workloads))
	for name := range cur.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ow, ok := old.Workloads[name]
		if !ok {
			continue
		}
		nw := cur.Workloads[name]
		for _, def := range endToEnd {
			before, ok1 := ow.Summary[def.name]
			after, ok2 := nw.Summary[def.name]
			if !ok1 || !ok2 {
				continue
			}
			absolute := def.name == "fail_frac"
			bound, bounded := bounds[def.name]
			rule := fmt.Sprintf("%.4g", bound)
			if !absolute {
				rule = fmt.Sprintf("%.1f%%", 100*bound)
			}
			if !bounded {
				bound = before.spread()
				rule = fmt.Sprintf("spread %.1f%%", 100*bound)
			}
			change, v := verdict(before, after, bound, def.lower, absolute)
			unit := "%"
			if absolute || before.Median == 0 {
				unit = ""
			} else {
				change *= 100
			}
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %+8.2f%s %12s  %s\n", name, def.name, before.Median, after.Median, change, unit, rule, v)
		}
	}
	return nil
}
