// Package faultinject provides named failpoints for deterministic chaos
// testing of the serving stack. A failpoint is a call site compiled into
// production code — Inject at a point where a fault could plausibly
// occur — whose behavior is supplied by tests: sleep to simulate a slow
// evaluator, panic to simulate a crashing measure, return an error to
// simulate a failing snapshot build.
//
// The package has two implementations selected by the `faultinject`
// build tag:
//
//   - Without the tag (the default, what production and the tier-1 test
//     suite build), every function is an empty no-op that the compiler
//     inlines away; Set is inert and Enabled is the constant false, so
//     dead failpoint plumbing costs nothing on the hot paths.
//   - With `-tags faultinject` (the chaos gate in scripts/check.sh),
//     Inject consults a process-wide registry of handlers installed by
//     Set, counts every trigger, and runs whatever fault the test
//     registered.
//
// Failpoint names are exported constants so injection sites and tests
// share one catalog (see DESIGN.md §10 for the semantics of each):
//
//	SlowEvaluator  delays every top-k round — exercises the cooperative
//	               cancellation checkpoints and deadline enforcement
//	PanicMeasure   panics inside the engine's execute path — exercises
//	               panic isolation (one bad request, not a dead batch)
//	RefreshFail    fails snapshot builds — exercises the Refresh retry
//	               helper's backoff loop
//	QueueDelay     delays a request between its cache probe and the
//	               admission gate — exercises shed-under-load behavior
//	               and the cache-hit bypass
//	ClusterPartitionDown / ClusterPartitionSlow / ClusterPartitionFlap
//	               fault individual partitions behind the scatter-gather
//	               coordinator — exercise hedging, per-leg retries and
//	               partial-result degradation
//
// The cluster failpoints are keyed: the injection site passes the target
// partition id, and a handler installed with SetKeyed decides per key
// whether (and how) to fault. Unkeyed handlers installed with Set fire
// for every key of the same name, so a blanket fault needs no routing.
//
// Handlers run on the goroutine that hits the failpoint, except under
// InjectKeyedCtx, which runs them on a goroutine of their own so the
// caller can abandon a stall when its context ends. Handlers must be
// safe for concurrent use; the chaos tests run under -race.
package faultinject

// The failpoint catalog. Every name is "<package>.<site>" of the point
// it arms.
const (
	// SlowEvaluator is hit once per round of every top-k algorithm
	// (internal/topk); a sleeping handler turns any quantify query into a
	// slow one.
	SlowEvaluator = "topk.slow-evaluator"
	// PanicMeasure is hit at the top of the serve engine's execute path;
	// a panicking handler simulates an unfairness measure crashing
	// mid-query.
	PanicMeasure = "serve.panic-measure"
	// RefreshFail is hit inside every snapshot build performed by
	// Engine.RefreshCtx; an erroring handler simulates a failing
	// copy-on-write table refresh.
	RefreshFail = "serve.refresh-fail"
	// QueueDelay is hit between a request's cache probe and its admission
	// to the compute path; a sleeping handler piles requests up against
	// the admission gate.
	QueueDelay = "serve.queue-delay"
	// ClusterPartitionDown is hit (keyed by partition id) at the top of
	// every simulated-RPC send; an erroring handler makes the partition
	// unreachable, exercising leg retries and partial-result degradation.
	ClusterPartitionDown = "cluster.partition-down"
	// ClusterPartitionSlow is hit (keyed by partition id) on the serving
	// side of every simulated RPC; a sleeping or channel-blocking handler
	// stalls the leg, exercising the p99-derived hedge and leg deadline
	// budgets. The site injects through InjectKeyedCtx, so a caller whose
	// context ends abandons the stall.
	ClusterPartitionSlow = "cluster.partition-slow"
	// ClusterPartitionFlap is hit (keyed by partition id) at the top of
	// every simulated-RPC send, after ClusterPartitionDown; a handler
	// failing every other call simulates an intermittently reachable
	// partition that per-leg backoff should absorb without degrading.
	ClusterPartitionFlap = "cluster.partition-flap"
)
