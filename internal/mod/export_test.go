package mod

import "testing"

// EachKernel runs f as a subtest under every body this host has: the
// Go loops always, the vector lane where the CPU provides it. It is the
// only writer of vector, and restores it.
func EachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	host := vector
	defer func() { vector = host }()
	vector = false
	t.Run(Kernel(), f)
	if host {
		vector = true
		t.Run(Kernel(), f)
	}
}
