//go:build !faultinject

package faultinject

import (
	"context"
	"testing"
)

// TestNoopBuildIsInert pins the default build's contract: failpoints are
// disabled, Set and SetKeyed do not arm anything, and the Inject
// functions are free no-ops — the guarantee that lets production code
// keep injection sites on hot paths.
func TestNoopBuildIsInert(t *testing.T) {
	if Enabled {
		t.Fatal("default build must report failpoints disabled")
	}
	Set(SlowEvaluator, func() error { panic("must never run") })
	Inject(SlowEvaluator)
	if err := InjectErr(SlowEvaluator); err != nil {
		t.Fatalf("InjectErr = %v, want nil", err)
	}
	SetKeyed(ClusterPartitionSlow, func(string) error { panic("must never run") })
	if err := InjectKeyedCtx(context.Background(), ClusterPartitionSlow, "0"); err != nil {
		t.Fatalf("InjectKeyedCtx = %v, want nil", err)
	}
	if Hits(SlowEvaluator) != 0 {
		t.Fatalf("hits = %d, want 0", Hits(SlowEvaluator))
	}
	Clear(SlowEvaluator)
	Reset()
}
