//go:build !amd64

package ring

// No vector body off amd64: mod.Kernel is generic there, so vecRow is
// false and the stub below is never reached.

func uniformRow52(row []uint64, st *[4][lanes]uint64, q, c, c52, mu uint64) {
	panic("ring: no vector body on this architecture")
}
