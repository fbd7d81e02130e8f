//go:build !amd64

package mod

// No vector bodies off amd64: hasIFMA is false, so the drivers never
// reach the stubs below.

func hasIFMA() bool { return false }

func mulAccRows52(acc []uint64, a, b [][]uint64, keep, q, c, c52, mu uint64) {
	panic("mod: no vector body on this architecture")
}

func mulAccScalars52(acc []uint64, a [][]uint64, w []uint64, keep, q, c, c52, mu uint64) {
	panic("mod: no vector body on this architecture")
}

func mulShoupRow52(out, in []uint64, w, w52, q uint64) (done int) {
	panic("mod: no vector body on this architecture")
}

func subMulShoupRow52(out, a, b []uint64, w, w52, q uint64) {
	panic("mod: no vector body on this architecture")
}
