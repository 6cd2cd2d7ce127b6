//go:build faultinject

package faultinject

import (
	"context"
	"sync"
	"sync/atomic"
)

// Enabled reports whether failpoints are compiled in. This build has
// them armed.
const Enabled = true

// registry is the process-wide failpoint table. Handlers are installed
// by tests and read by injection sites on arbitrary goroutines; hit
// counts survive Clear so tests can assert a fault fired even after
// disarming it.
var registry struct {
	mu       sync.RWMutex
	handlers map[string]func() error
	keyed    map[string]func(key string) error
	hits     map[string]*atomic.Uint64
}

// ensureLocked lazily allocates the registry maps; callers hold mu.
func ensureLocked() {
	if registry.handlers == nil {
		registry.handlers = make(map[string]func() error)
		registry.keyed = make(map[string]func(key string) error)
		registry.hits = make(map[string]*atomic.Uint64)
	}
}

// Set arms the named failpoint: every subsequent Inject/InjectErr at
// that site runs fn. fn may sleep, panic, or return an error (Inject
// discards the error; InjectErr propagates it). It replaces any handler
// previously installed under the name.
func Set(name string, fn func() error) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	ensureLocked()
	registry.handlers[name] = fn
	if registry.hits[name] == nil {
		registry.hits[name] = new(atomic.Uint64)
	}
}

// SetKeyed arms the named failpoint with a per-key handler: every
// subsequent InjectKeyedErr at that site passes its key (e.g. a
// partition id) to fn, which decides per key whether to fault. A keyed
// handler coexists with an unkeyed one installed under the same name;
// InjectKeyedErr prefers the keyed handler and falls back to the
// unkeyed one. Hits are counted under the same name either way.
func SetKeyed(name string, fn func(key string) error) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	ensureLocked()
	registry.keyed[name] = fn
	if registry.hits[name] == nil {
		registry.hits[name] = new(atomic.Uint64)
	}
}

// Clear disarms the named failpoint — both its keyed and unkeyed
// handlers; its hit count is retained.
func Clear(name string) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	delete(registry.handlers, name)
	delete(registry.keyed, name)
}

// Reset disarms every failpoint and zeroes all hit counts — test
// teardown for a clean next test.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.handlers = nil
	registry.keyed = nil
	registry.hits = nil
}

// Hits returns how many times the named failpoint has fired since the
// last Reset.
func Hits(name string) uint64 {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	if c := registry.hits[name]; c != nil {
		return c.Load()
	}
	return 0
}

// lookup fetches the armed handler and hit counter for name, or nil.
func lookup(name string) (func() error, *atomic.Uint64) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.handlers[name], registry.hits[name]
}

// Inject fires the named failpoint, discarding any error the handler
// returns — for sites where the interesting faults are delay and panic.
// Unarmed failpoints are no-ops.
func Inject(name string) {
	fn, hits := lookup(name)
	if fn == nil {
		return
	}
	hits.Add(1)
	_ = fn()
}

// InjectErr fires the named failpoint and returns the handler's error —
// for sites that can propagate a failure. Unarmed failpoints return
// nil.
func InjectErr(name string) error {
	fn, hits := lookup(name)
	if fn == nil {
		return nil
	}
	hits.Add(1)
	return fn()
}

// lookupKeyed fetches the armed keyed handler and hit counter for name,
// or nil.
func lookupKeyed(name string) (func(key string) error, *atomic.Uint64) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.keyed[name], registry.hits[name]
}

// armedKeyed resolves what a keyed injection at name fires for key:
// the keyed handler installed with SetKeyed, else an unkeyed one
// installed with Set, counting the hit. It returns nil when nothing is
// armed.
func armedKeyed(name, key string) func() error {
	if fn, hits := lookupKeyed(name); fn != nil {
		hits.Add(1)
		return func() error { return fn(key) }
	}
	if fn, hits := lookup(name); fn != nil {
		hits.Add(1)
		return fn
	}
	return nil
}

// InjectKeyedErr fires the named failpoint with a site-supplied key
// (e.g. a partition id) and returns the handler's error. A keyed
// handler installed with SetKeyed sees the key; absent one, an unkeyed
// handler installed with Set fires for every key. Unarmed failpoints
// return nil.
func InjectKeyedErr(name, key string) error {
	if fire := armedKeyed(name, key); fire != nil {
		return fire()
	}
	return nil
}

// InjectKeyedCtx fires the named failpoint like InjectKeyedErr, but
// abandonably: an armed handler runs on its own goroutine, and the call
// returns ctx.Err() as soon as ctx ends, leaving a stalled handler to
// finish on its own. A handler that finishes first has its error
// returned. Unarmed failpoints return nil and start no goroutine.
func InjectKeyedCtx(ctx context.Context, name, key string) error {
	fire := armedKeyed(name, key)
	if fire == nil {
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- fire() }()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case err := <-done:
		return err
	}
}
