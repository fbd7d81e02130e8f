//go:build !amd64

package ntt

// No vector bodies off amd64: mod.Kernel is generic there, so no table
// selects them and the stubs below are never reached.

func fwdStage52(a, w, ws []uint64, step int, q uint64, perm *[5][8]uint64) {
	panic("ntt: no vector body on this architecture")
}

func invStage52(a, w, ws []uint64, step int, q uint64, perm *[5][8]uint64) {
	panic("ntt: no vector body on this architecture")
}

func invLast52(a []uint64, nInv, nInvShoup, lastInv, lastInvShoup, q uint64) {
	panic("ntt: no vector body on this architecture")
}
