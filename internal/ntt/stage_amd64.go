package ntt

// The AVX-512 IFMA stage bodies (stage_amd64.s). They serve N ≥ 16 and
// q < 2^mod.VectorModulusBits; NewTable decides.

//go:noescape
func fwdStage52(a, w, ws []uint64, step int, q uint64, perm *[5][8]uint64)

//go:noescape
func invStage52(a, w, ws []uint64, step int, q uint64, perm *[5][8]uint64)

//go:noescape
func invLast52(a []uint64, nInv, nInvShoup, lastInv, lastInvShoup, q uint64)
