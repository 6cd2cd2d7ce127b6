package main

// metricDef describes one reported number.
type metricDef struct {
	name  string
	unit  string
	lower bool // lower is better
}

// endToEnd are the numbers a user of the serving system sees, measured
// with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"p50_ms", "ms", true},
	{"p75_ms", "ms", true},
	{"p90_ms", "ms", true},
	{"p95_ms", "ms", true},
	{"p99_ms", "ms", true},
	{"max_rps", "rps", false},
	{"fail_frac", "ratio", true},
	{"cpu_us_per_op", "us", true},
	{"heap_mb", "MB", true},
	{"refresh_ms", "ms", true},
}

// perLayer are the numbers of single layers, from the traced run.
var perLayer = []metricDef{
	{"serve.service_us_p50", "us", true},
	{"serve.service_us_p99", "us", true},
	{"serve.queue_us_p99", "us", true},
	{"serve.hit_frac", "ratio", false},
	{"serve.hit_us_p50", "us", true},
	{"serve.miss_us_p50", "us", true},
	{"serve.self_us_per_miss", "us", true},
	{"obs.us_per_op", "us", true},
	{"topk.sorted_per_op", "count", true},
	{"topk.random_per_op", "count", true},
	{"topk.rounds_per_op", "count", true},
	{"topk.us_per_op", "us", true},
	{"compare.accesses_per_op", "count", true},
	{"compare.us_per_op", "us", true},
	{"mitigate.us_per_op", "us", true},
	{"cluster.rpcs_per_op", "count", true},
	{"cluster.scan_rpcs_per_op", "count", true},
	{"cluster.lookup_rpcs_per_op", "count", true},
	{"cluster.cells_rpcs_per_op", "count", true},
	{"cluster.serve_rpcs_per_op", "count", true},
	{"cluster.leg_us_p50", "us", true},
	{"cluster.entries_per_op", "count", true},
	{"cluster.self_us_per_op", "us", true},
	{"cluster.hedges_per_op", "count", true},
	{"cluster.retries_per_op", "count", true},
	{"core.evaluate_s", "s", true},
	{"serve.snapshot_s", "s", true},
	{"cluster.build_s", "s", true},
	{"serve.refresh_load_ms", "ms", true},
	{"core.clone_ms", "ms", true},
	{"index.build_ms", "ms", true},
	{"runtime.allocs_per_op", "count", true},
	{"runtime.alloc_bytes_per_op", "bytes", true},
	{"runtime.gc_cpu_frac", "ratio", true},
	{"bench.trace_overhead_frac", "ratio", true},
	{"bench.gen_late_us_p99", "us", true},
}

// metricByName finds a definition in either family.
func metricByName(name string) (metricDef, bool) {
	for _, fam := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range fam {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
