//go:build !faultinject

package faultinject

import "context"

// Enabled reports whether failpoints are compiled in. This build
// compiles them all to no-ops; every function below is empty and
// inlines away, so injection sites on hot paths cost nothing.
const Enabled = false

// Set is inert without the faultinject build tag.
func Set(string, func() error) {}

// SetKeyed is inert without the faultinject build tag.
func SetKeyed(string, func(string) error) {}

// Clear is inert without the faultinject build tag.
func Clear(string) {}

// Reset is inert without the faultinject build tag.
func Reset() {}

// Hits always reports zero without the faultinject build tag.
func Hits(string) uint64 { return 0 }

// Inject is a no-op without the faultinject build tag.
func Inject(string) {}

// InjectErr always returns nil without the faultinject build tag.
func InjectErr(string) error { return nil }

// InjectKeyedErr always returns nil without the faultinject build tag.
func InjectKeyedErr(string, string) error { return nil }

// InjectKeyedCtx always returns nil without the faultinject build tag.
func InjectKeyedCtx(context.Context, string, string) error { return nil }
