// Command bench is the repository's benchmark: it serves four open-loop
// traffic mixes through the fairness engine and the scatter-gather
// cluster, checks every answer it samples, and prints end-to-end and
// per-layer metrics by name with their units. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-search=false] [-runs N] [-out results.json]
//	bash bench/run.sh compare old.json new.json
//
// Each workload run happens in a child process of its own. The last line
// of standard output is one JSON object: correct, attempted, failed and
// the metrics BENCHMARK.json lists (end-to-end, or per-layer with
// -trace 1). The exit code is 0 only when every run finished and every
// checked answer was right.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one workload run, including its set-up.
const childTimeout = 175 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: bench compare old.json new.json")
		}
		return compareResults(os.Stdout, bf, args[1], args[2])
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty runs all: "+workloadNames()+")")
	seed := fs.Int64("seed", 1, "seed of the arrivals, the request draws and the churn edits")
	// BENCHMARK.json's command is run with --seconds run_seconds; the flag
	// defaults to the same value, and compare refuses files that differ.
	seconds := fs.Int("seconds", bf.RunSeconds, "measured seconds per run (a traced run splits them between its two windows)")
	trace := fs.String("trace", "0", "1 adds the traced run and reports per-layer metrics")
	search := fs.Bool("search", true, "search for max_rps after the reference window (adds tens of seconds)")
	runs := fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, …")
	out := fs.String("out", "", "write every run and its summary to this JSON file")
	child := fs.Bool("child", false, "run one workload in this process (used by the parent)")
	if err := fs.Parse(boolTrace(args)); err != nil {
		return err
	}
	traced := *trace == "1" || *trace == "true"
	if !traced && *trace != "0" && *trace != "false" {
		return fmt.Errorf("-trace must be 0 or 1, got %q", *trace)
	}
	if *seconds < 1 || *runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}
	var selected []workload
	if *name == "" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}

	if *child {
		runtime.GOMAXPROCS(clients)
		in, err := loadInputs(ctx)
		if err != nil {
			return err
		}
		rec, err := runWorkload(ctx, runConfig{
			w: selected[0], seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			trace: traced, search: *search, root: root, gateSize: gateSize,
		}, in)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rec)
	}

	res := &results{Host: fingerprint(root), Seconds: *seconds, Trace: traced, Workloads: map[string]*workloadResults{}}
	var failures, wrong []string
	for _, w := range selected {
		wr := &workloadResults{}
		res.Workloads[w.name] = wr
		for k := 0; k < *runs; k++ {
			rec, err := runChild(ctx, w, *seed+int64(k), *seconds, traced, *search)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s seed %d: %v", w.name, *seed+int64(k), err))
				continue
			}
			if !rec.Correct {
				wrong = append(wrong, fmt.Sprintf("%s seed %d: wrong answers: %s", w.name, rec.Seed, strings.Join(rec.Errors, "; ")))
			}
			if res.CrawlDigest == "" {
				res.CrawlDigest, res.TableDigest = rec.CrawlDigest, rec.TableDigest
			}
			wr.Runs = append(wr.Runs, rec)
		}
	}
	res.summarize()
	for _, w := range selected {
		printTable(os.Stderr, w.name, res.Workloads[w.name])
	}
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "\n"))
	}
	// A run with wrong answers still prints its line, with correct false,
	// before the command fails.
	if err := printResultLine(bf, res, selected, traced); err != nil {
		return err
	}
	if len(wrong) > 0 {
		return errors.New(strings.Join(wrong, "\n"))
	}
	return nil
}

// boolTrace lets -trace stand alone as a switch: a -trace not followed
// by a value means -trace 1.
func boolTrace(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(args) || strings.HasPrefix(args[i+1], "-") {
			out = append(out, "1")
		}
	}
	return out
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// findRoot walks up from the working directory to the repository root:
// the directory holding bench/go.mod and BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errMod := os.Stat(filepath.Join(dir, "bench", "go.mod"))
		_, errBench := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		if errMod == nil && errBench == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory with BENCHMARK.json and bench/go.mod) above the working directory")
		}
		dir = parent
	}
}

// runChild runs one workload in a child process of this binary and
// reads the record it prints; the child's progress goes to our standard
// error.
func runChild(ctx context.Context, w workload, seed int64, seconds int, traced, search bool) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", trace, fmt.Sprintf("-search=%v", search))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var rec runRecord
	if err := json.Unmarshal([]byte(last), &rec); err != nil {
		return nil, fmt.Errorf("child printed no record: %w", err)
	}
	return &rec, nil
}

// resultValue is one metric of the result line.
type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints the one-line summary: the metrics BENCHMARK.json
// lists, as medians over the runs. With several workloads each name is
// prefixed by its workload.
func printResultLine(bf *benchmarkFile, res *results, selected []workload, traced bool) error {
	list := bf.EndToEnd
	if traced {
		list = bf.PerLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]resultValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]resultValue{}}
	for _, w := range selected {
		wr := res.Workloads[w.name]
		for _, rec := range wr.Runs {
			line.Attempted += rec.Attempted
			line.Failed += rec.Failed
			line.Correct = line.Correct && rec.Correct
		}
		for _, bm := range list {
			s, ok := wr.Summary[bm.Name]
			if !ok {
				return fmt.Errorf("%s did not measure %s", w.name, bm.Name)
			}
			key := bm.Name
			if len(selected) > 1 {
				key = w.name + "." + bm.Name
			}
			line.Metrics[key] = resultValue{s.Median, bm.Unit}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}
