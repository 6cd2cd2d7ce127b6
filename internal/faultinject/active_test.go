//go:build faultinject

package faultinject

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestInjectRunsArmedHandler(t *testing.T) {
	defer Reset()
	if !Enabled {
		t.Fatal("faultinject build must report Enabled")
	}
	fired := 0
	Set("t.site", func() error { fired++; return errors.New("ignored") })
	Inject("t.site")
	Inject("t.site")
	if fired != 2 {
		t.Fatalf("handler fired %d times, want 2", fired)
	}
	if Hits("t.site") != 2 {
		t.Fatalf("hits = %d, want 2", Hits("t.site"))
	}
}

func TestInjectErrPropagates(t *testing.T) {
	defer Reset()
	want := errors.New("boom")
	Set("t.err", func() error { return want })
	if err := InjectErr("t.err"); !errors.Is(err, want) {
		t.Fatalf("InjectErr = %v, want %v", err, want)
	}
	if err := InjectErr("t.unarmed"); err != nil {
		t.Fatalf("unarmed failpoint returned %v", err)
	}
}

func TestClearKeepsHitsResetZeroes(t *testing.T) {
	defer Reset()
	Set("t.clear", func() error { return nil })
	Inject("t.clear")
	Clear("t.clear")
	Inject("t.clear") // disarmed: must not count
	if Hits("t.clear") != 1 {
		t.Fatalf("hits after Clear = %d, want 1", Hits("t.clear"))
	}
	Reset()
	if Hits("t.clear") != 0 {
		t.Fatalf("hits after Reset = %d, want 0", Hits("t.clear"))
	}
}

// TestConcurrentInjects hammers one failpoint from many goroutines while
// another goroutine re-arms it — the registry must stay race-clean (run
// under -race via the chaos gate).
func TestConcurrentInjects(t *testing.T) {
	defer Reset()
	Set("t.conc", func() error { return nil })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				Inject("t.conc")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			Set("t.conc", func() error { return nil })
		}
	}()
	wg.Wait()
	if Hits("t.conc") != 4000 {
		t.Fatalf("hits = %d, want 4000", Hits("t.conc"))
	}
}

// TestInjectKeyedCtxAbandonsStall pins the context-aware injection: an
// unarmed site returns nil, a handler that finishes first returns its
// error, and a stalled handler is abandoned with ctx.Err() once the
// context ends, while it is still blocked.
func TestInjectKeyedCtxAbandonsStall(t *testing.T) {
	defer Reset()
	if err := InjectKeyedCtx(context.Background(), "t.ctx", "0"); err != nil {
		t.Fatalf("unarmed InjectKeyedCtx = %v, want nil", err)
	}
	want := errors.New("boom")
	SetKeyed("t.ctx", func(key string) error {
		if key == "1" {
			return want
		}
		return nil
	})
	if err := InjectKeyedCtx(context.Background(), "t.ctx", "1"); !errors.Is(err, want) {
		t.Fatalf("InjectKeyedCtx = %v, want the handler's %v", err, want)
	}

	release := make(chan struct{})
	defer close(release)
	stalled := make(chan struct{})
	Set("t.stall", func() error { close(stalled); <-release; return nil })
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-stalled; cancel() }()
	if err := InjectKeyedCtx(ctx, "t.stall", "0"); !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled InjectKeyedCtx = %v, want context.Canceled", err)
	}
	if Hits("t.ctx") != 1 || Hits("t.stall") != 1 {
		t.Fatalf("hits = %d and %d, want 1 and 1", Hits("t.ctx"), Hits("t.stall"))
	}
}
