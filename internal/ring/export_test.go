package ring

import (
	"testing"

	"ciflow/internal/mod"
)

// EachExpander runs f as a subtest (or sub-benchmark) under every seed
// expander body this host has: the Go loop always, the vector lanes
// where the CPU provides them, named as mod.Kernel names them. It is
// the only writer of vector, and restores it.
func EachExpander[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, f func(T)) {
	t.Helper()
	host := vector
	defer func() { vector = host }()
	vector = false
	t.Run(mod.KernelGeneric, f)
	if host {
		vector = true
		t.Run(mod.KernelVector, f)
	}
}
