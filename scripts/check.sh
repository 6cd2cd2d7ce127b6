#!/bin/sh
# check.sh — the repo's verification gate, make-free by design. Each
# test runs once: the named gates only check that their tests still
# exist, and the final race suite runs them.
#
# Runs, in order:
#   1. gofmt -l .            every Go file in the tree is gofmt-formatted;
#                            fails when gofmt lists any file
#   2. go vet ./...          static checks
#   3. go build ./...        everything compiles
#   4. benchmark module      go -C bench vet . and go test -short in
#                            bench/: the benchmark is a module of its
#                            own, outside ./..., so without this step an
#                            internal API change that breaks its build
#                            would still pass
#   5. named gates           every test the repo's invariants rest on
#                            must still exist under its name: the
#                            observability stress suite and the closed
#                            wide-event schema, span well-formedness and
#                            cluster tracing, the mitigation fuzz corpus
#                            and served-path goldens, the profiler,
#                            admin-endpoint and runtime-bridge tests,
#                            the exact-equivalence contracts (TA ≡ FA ≡
#                            NRA ≡ Naive, coordinator ≡ engine, the
#                            Figure-5 goldens, deferred ≡ eager
#                            snapshots), the byte-identity contracts of
#                            the table build (evaluators at any worker
#                            count and group set ≡ the serial loop, in
#                            values and member numbering, an
#                            individual's groups ≡ its ID's first
#                            entry at any worker count, the
#                            page partition ≡ naive membership, the
#                            by-rank exposure ≡ ExposureAtRank, the
#                            table ≡ its reference model, the index
#                            families ≡ their invariants whatever the
#                            table's fill order, posting order ≡
#                            slices.SortFunc across the insertion-sort
#                            bound, nil-scope list sources ≡ the
#                            full-dimension scope), Problem 2's
#                            access-count pin and operand rule, the cost
#                            of Problems 1 and 2 by request shape on
#                            every serving path, and the memory and
#                            allocation pins. A renamed test fails the
#                            script here instead of silently dropping
#                            out; step 8 runs them
#   6. chaos gate            go test -race -tags faultinject over the
#                            serving stack, the failpoint registry, topk
#                            and the partitioned cluster — ./... does not
#                            build the tag. The chaos suite arms every
#                            failpoint (slow evaluator, panicking
#                            measure, failing refresh, queue delay,
#                            partition down/slow/flap) and asserts the
#                            engine and the scatter-gather coordinator
#                            converge back to correct answers once
#                            faults clear
#   7. loadtest smoke        one short fairjob loadtest run must emit a
#                            JSON artifact joining CO-corrected latency
#                            with labeled CPU attribution
#   8. go test -race -count=1 ./...
#                            the full suite under the race detector,
#                            never from the test cache — the evaluators'
#                            sharded worker pools and the serve engine's
#                            concurrent query paths must stay race-clean
#                            at any worker count
#   9. overhead gate         one all-layers-on vs all-layers-off pair per
#                            deployed serving stack, each with a < 5%
#                            budget for the sum of its layers:
#                            BenchmarkEngineOverhead (registry, tracer,
#                            logger, SLO monitor, deadline, admission
#                            gate and a running profiler) and
#                            BenchmarkClusterOverhead (a one-partition
#                            coordinator with its tracer, logger and
#                            deadline, over a bare engine). Each
#                            measurement is 5 ABBA rounds — four
#                            single-variant invocations per round in the
#                            order off, on, on, off — and the gate takes
#                            the MEDIAN of the per-round
#                            sum(on)-vs-sum(off) deltas. The estimator is
#                            chosen against measured host behaviour:
#                            run-to-run drift here reaches ±15%, which
#                            dwarfs the 5% budget, so (a) a single
#                            -count=N run (off×N then on×N) reads
#                            block-to-block drift as overhead, (b)
#                            per-variant aggregates (median or min across
#                            runs) are skewed by one lucky run of one
#                            variant, and (c) back-to-back off/on pairs
#                            bias against whichever variant always runs
#                            second. ABBA puts both variants at the same
#                            mean timeline position, cancelling any drift
#                            linear over a round; the median drops the
#                            occasional wild round. Every round's delta
#                            is printed beside the median, with a host
#                            fingerprint (nproc, GOMAXPROCS, CPU model,
#                            go version); the median's line also carries
#                            what the host cannot blur: the range of the
#                            round deltas and each side's allocs/op and
#                            B/op (-benchmem, median over its runs). The
#                            gate reads the wall clock alone. A pair
#                            that breaches gets ONE independent
#                            re-measure a minute later (the
#                            sleep is the point: drift windows span whole
#                            measurements, so re-measuring immediately
#                            samples the same window): a real regression
#                            reproduces, a drift window does not. A
#                            breach in both measurements FAILS the build.
#
# Usage: scripts/check.sh [-short]
#
# With -short the test step runs `go test -race -short -count=1 ./...`,
# trimming the iteration counts of the randomized equivalence and
# concurrency suites, and the overhead gate is skipped — a fast
# pre-commit signal; the full run stays the gate.
#
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

echo "== gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "check.sh: FAIL — gofmt -l lists unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== benchmark module: go -C bench vet . && (cd bench && go test -short ./...)"
go -C bench vet .
(cd bench && go test -short ./...)

# gate PATTERN PKG fails unless every |-separated alternative of PATTERN
# matches at least one Test or Fuzz name that go test -list reports for
# PKG, so a renamed test cannot silently drop out of the suite.
gate() {
    for alt in $(printf '%s\n' "$1" | tr '|' ' '); do
        if ! go test -race -list "$alt" "$2" | grep -Eq '^(Test|Fuzz)'; then
            echo "check.sh: FAIL — gate pattern '$alt' matches no test in $2" >&2
            exit 1
        fi
    done
}

echo "== named gates: observability, tracing, mitigation, profiling"
gate 'TestStress|TestSpan|TestWaterfall|TestTraceIDLookup|TestProfiler|TestDebugProfilesEndpoint|TestRegisterRuntimeMetrics|TestStressAdminEndpointsUnderLoad' ./internal/obs/
gate 'TestWideEventSchemaGate|TestServeMitigate' ./internal/serve/
gate 'TestWideEventSchemaGate|TestClusterTracing' ./internal/cluster/
gate 'FuzzMitigators' ./internal/mitigate/

echo "== named gates: correctness contracts and memory pins"
gate '^TestAlgorithmsEquivalentOnRandomTables$|^TestFullScopeSourcesMatchScoped$' ./internal/topk/
gate '^TestCoordinatorEquivalence$|^TestCoordinatorEquivalenceAfterRefresh$|^FuzzClusterEquivalence$|^TestNodeScansMatchEngineLists$|^TestSplitTableAllocations$|^TestNodeFootprint$|^TestScanReplyAllocatesOnce$|^TestCoordinatorPagesMatchEngine$|^TestCompareCostByShape$|^TestQuantifyCostByShape$|^TestHedgedLegSettlesBeforeReturn$' ./internal/cluster/
gate '^TestGoldenCompletionSemantics$|^TestGoldenDefinedOnlySemantics$|^TestGoldenQueryAndLocationComparisons$|^TestComparisonAccesses$|^TestUnindexedScopeErrors$|^TestUnknownGroupReadsAsZero$|^TestComparisonAllocations$' ./internal/compare/
gate '^TestExposureMatchesPaperFigure5$|^TestTableFootprint$|^TestMarketplaceEvaluateAllDeterministicAcrossWorkers$|^TestSearchEvaluateAllDeterministicAcrossWorkers$|^TestPartitionMatchesNaiveMembership$|^TestMarketplaceEvaluatorMatchesReference$|^TestTableMatchesReferenceModel$|^TestWarmPartitionerAllocatesNothing$|^TestScratchExposureMatchesExposureAtRank$|^TestGroupsFollowFirstEntryOfID$|^TestMemosAgreeAcrossShards$' ./internal/core/
gate '^TestBuildAllFootprint$|^TestIndexInvariantsProperty$|^TestBuildAllIgnoresFillOrder$|^TestBuildAllReadsSealedTableInPlace$|^TestBuildAllKeepsOnlyTheCube$|^TestPostingOrderAcrossSortBound$' ./internal/index/
gate '^TestTracingAllocatesNothing$|^TestDeferredSnapshotMatchesEager$|^TestDeferredSnapshotBuildsOnce$|^TestWithUpdatesKeepsDeferral$|^TestSnapshotPagesFootprint$|^TestSnapshotPagesOrderAndRepeats$|^TestSnapshotFootprint$' ./internal/serve/
gate '^TestMitigateGolden$' ./internal/mitigate/

echo "== go test -race -tags faultinject ./internal/serve/... ./internal/faultinject/... ./internal/topk/... ./internal/cluster/... (chaos gate)"
go test -race -tags faultinject -count=1 ./internal/serve/... ./internal/faultinject/... ./internal/topk/... ./internal/cluster/...

echo "== loadtest smoke: labeled CPU attribution"
lt_smoke="$(mktemp)"
bench_raw="$(mktemp)"
trap 'rm -f "$lt_smoke" "$bench_raw"' EXIT
go run ./cmd/fairjob loadtest -rate 150 -warmup 300ms -duration 1500ms -out "$lt_smoke" 2>/dev/null
for key in '"p99_ns"' '"p999_ns"' '"top_cpu_labels"' '"cpu_sample_total_ns"' '"by_label"'; do
    if ! grep -q "$key" "$lt_smoke"; then
        echo "check.sh: FAIL — loadtest smoke artifact lacks $key" >&2
        exit 1
    fi
done
# The captured CPU profile must decompose by the request labels the
# engine attaches: at 150 rps for 1.5s at least one of the label keys
# must have accumulated samples.
if ! grep -Eq '"key": "(problem|algo|dim|mitigator|cache)"' "$lt_smoke"; then
    echo "check.sh: FAIL — loadtest smoke captured no request-labeled CPU samples" >&2
    exit 1
fi
echo "check.sh: loadtest smoke artifact carries labeled CPU attribution"

echo "== go test -race -count=1 ${short:+$short }./..."
go test -race -count=1 $short ./...

if [ -n "$short" ]; then
    echo "== overhead gate skipped (-short)"
    echo "check.sh: all green"
    exit 0
fi

echo "== overhead gate: engine and cluster stacks on-vs-off, < 5% budget (median of 5 ABBA round deltas)"
# Five ABBA rounds over the benchmark pairs $1 (names joined with |):
# off, on, on, off as four single-variant invocations. At -benchtime=1s
# the ~10ms/op pairs collect too few iterations on a 1-vCPU host and
# single rounds swing ±20%, which false-positives the 5% budget.
measure_abba() {
    : > "$bench_raw"
    for round in 1 2 3 4 5; do
        for v in off on on off; do
            if ! go test -run '^$' -bench "($1)/$v\$" -benchtime=2s -benchmem -count=1 ./internal/serve/ >> "$bench_raw" 2>&1; then
                cat "$bench_raw" >&2
                echo "check.sh: FAIL — an overhead benchmark run failed" >&2
                exit 1
            fi
        done
    done
}
# Prints one line per ABBA round of benchmark $1 with its delta (%), then
# on the last line the median of those deltas followed by the summary
# printed beside it; exits nonzero when the raw file holds no complete
# round for it. Each round line also carries the process CPU time per op
# (the benchmarks' cpu-ns/op, from getrusage) beside the wall clock, so a
# round that waited for the host's processors reads apart from one that
# did more work. The summary is the range of the round deltas and each
# side's median allocs/op and B/op over its runs. The gate reads the
# median wall-clock delta alone.
round_deltas() {
    awk -v b="$1" '
        function unit(u,   i) {
            for (i = 4; i < NF; i++) if ($(i + 1) == u) return $i
            return 0
        }
        function median(a, n,   c, i, j, t) {
            for (i = 1; i <= n; i++) c[i] = a[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && c[j] < c[j-1]; j--) { t = c[j]; c[j] = c[j-1]; c[j-1] = t }
            return c[int((n + 1) / 2)]
        }
        $1 ~ "^" b "/off" { off[++no] = $3; offc[no] = unit("cpu-ns/op"); offa[no] = unit("allocs/op"); offm[no] = unit("B/op") }
        $1 ~ "^" b "/on"  { on[++nn] = $3; onc[nn] = unit("cpu-ns/op"); ona[nn] = unit("allocs/op"); onm[nn] = unit("B/op") }
        END {
            rounds = int((no < nn ? no : nn) / 2)
            if (rounds == 0) exit 1
            for (r = 1; r <= rounds; r++) {
                o = off[2*r-1] + off[2*r]; n = on[2*r-1] + on[2*r]
                oc = offc[2*r-1] + offc[2*r]; nc = onc[2*r-1] + onc[2*r]
                d[r] = (n - o) / o * 100
                c = oc > 0 ? sprintf("; CPU off %.0f ns/op, on %.0f ns/op, delta %+.2f%%", oc / 2, nc / 2, (nc - oc) / oc * 100) : ""
                printf "round %d: off %.0f ns/op, on %.0f ns/op, delta %+.2f%%%s\n", r, o / 2, n / 2, d[r], c
            }
            for (i = 2; i <= rounds; i++)
                for (j = i; j > 1 && d[j] < d[j-1]; j--) { t = d[j]; d[j] = d[j-1]; d[j-1] = t }
            printf "%.2f (rounds %+.2f%% … %+.2f%%; allocs/op off %.0f, on %.0f; B/op off %.0f, on %.0f)\n", d[int((rounds + 1) / 2)], d[1], d[rounds], median(offa, no), median(ona, nn), median(offm, no), median(onm, nn)
        }' "$bench_raw"
}
# Returns 0 when pair $1's budget is BREACHED, 1 when within budget.
gate_breached() {
    deltas="$(round_deltas "$1")" || {
        echo "check.sh: FAIL — $1 produced no off/on results" >&2
        exit 1
    }
    printf '%s\n' "$deltas" | sed '$d' | sed "s/^/check.sh: $1 /"
    last="$(printf '%s\n' "$deltas" | tail -n 1)"
    pct="${last%% *}"
    echo "check.sh: $1 overhead (median of ABBA round deltas): $pct% ${last#* }"
    awk -v p="$pct" 'BEGIN { exit !(p >= 5) }'
}
# The host the rounds ran on. GOMAXPROCS is read off the benchmark
# names' -N suffix, which is what the runs actually used (go test omits
# the suffix at GOMAXPROCS 1).
fingerprint() {
    procs="$(awk '$1 ~ /^Benchmark/ { n = split($1, p, "-"); print (n > 1 ? p[n] : 1); exit }' "$bench_raw")"
    cpu="$(sed -n 's/^cpu: //p' "$bench_raw" | head -n 1)"
    echo "check.sh: host: nproc $(nproc), GOMAXPROCS ${procs:-?}, cpu ${cpu:-unknown}, $(go version)"
}
pairs='BenchmarkEngineOverhead|BenchmarkClusterOverhead'
measure_abba "$pairs"
fingerprint
breached=""
for pair in $(printf '%s\n' "$pairs" | tr '|' ' '); do
    if gate_breached "$pair"; then breached="$breached $pair"; fi
done
for pair in $breached; do
    echo "check.sh: $pair breached the < 5% budget — re-measuring once after a cool-down to rule out machine drift"
    sleep 60
    measure_abba "$pair"
    fingerprint
    if gate_breached "$pair"; then
        echo "check.sh: FAIL — $pair breached the < 5% acceptance budget in two independent measurements" >&2
        exit 1
    fi
    echo "check.sh: $pair cleared on re-measure (first breach attributed to machine drift)"
done

echo "check.sh: all green"
