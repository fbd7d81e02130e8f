package mod

// The AVX-512 IFMA bodies (vec_amd64.s). Rows are handled eight
// coefficients at a time with the tail under a lane mask, so any
// length is served; the bounds on q and the operands are the drivers'.

//go:noescape
func mulAccRows52(acc []uint64, a, b [][]uint64, keep, q, c, c52, mu uint64)

// mulAccPacked52 is mulAccRows52 with b rows packed at w bytes per
// residue, widened eight at a time by sp.
//
//go:noescape
func mulAccPacked52(acc []uint64, a [][]uint64, b [][]byte, keep, q, c, c52, mu uint64, w int, sp *spread)

//go:noescape
func mulAccScalars52(acc []uint64, a [][]uint64, w []uint64, keep, q, c, c52, mu uint64)

// mulShoupRow52 returns how many coefficients it wrote: all of them,
// or those before the first block holding a word of 52 bits or more.
//
//go:noescape
func mulShoupRow52(out, in []uint64, w, w52, q uint64) (done int)

//go:noescape
func subMulShoupRow52(out, a, b []uint64, w, w52, q uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasIFMA reports whether the CPU has every extension the vector
// bodies use — AVX512F and AVX512IFMA, and for the packed rows'
// byte-masked load and byte permute AVX512BW and AVX512_VBMI — and the
// OS saves the opmask and ZMM state across context switches. Every
// CPU with IFMA has the other three, so one answer serves every body.
func hasIFMA() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		zmmState = 0xE6    // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
		avx512f  = 1 << 16 // CPUID.7.0:EBX
		ifma     = 1 << 21
		avx512bw = 1 << 30
		vbmi     = 1 << 1 // CPUID.7.0:ECX
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&ifma != 0 && ebx&avx512bw != 0 && ecx&vbmi != 0
}
