#include "textflag.h"

// The AVX-512 IFMA body of the seed expander in seed.go: eight lanes of
// one xoshiro256** stream, one lane per 64-bit element of four state
// registers, each drawing its own contiguous run of the row. Eight
// steps are buffered, transposed 8×8 so that each register holds eight
// consecutive words of one lane, and stored as one 64-byte block per
// lane.
//
// A word x = H·2^52 + L is reduced as H·c + L with c = 2^52 mod q, the
// way internal/mod's REDUCE folds its accumulator: H < 2^12 and L <
// 2^52 are both valid IFMA multiplicands, their two Shoup products by
// c and by 1 lie in [0, 2q) each, and with q < 2^50 the sum, below 4q,
// is recovered exactly modulo 2^52. Two corrections make it canonical.
//
// Register conventions:
//   Z0–Z3 s0–s3, lane k in element k    Z4, Z5 scratch
//   Z8–Z15 eight steps' words, then the transpose's middle stage
//   Z23–Z30 the transpose's first stage, then lane k's block in Z23+k
//   Z16 q    Z17 −q (its low 52 bits are 2^52 − q)    Z21 2^52 − 1
//   Z18 c = 2^52 mod q    Z19 ⌊c·2^52/q⌋    Z20 ⌊2^52/q⌋    Z22 2q

// CORRECT maps r in [0, 2·bound) to [0, bound): the smaller of r and
// r − bound as unsigned words.
#define CORRECT(bound, r, t) \
	VPSUBQ bound, r, t; \
	VPMINUQ t, r, r

// REDUCE replaces the word in x with x mod q; h and t are scratch. The
// quotients of the two Shoup products share t, their remainders x.
#define REDUCE(x, h, t) \
	VPSRLQ $52, x, h; \
	VPXORQ t, t, t; \
	VPMADD52HUQ Z19, h, t; \
	VPMADD52HUQ Z20, x, t; \
	VPMADD52LUQ Z18, h, x; \
	VPMADD52LUQ Z17, t, x; \
	VPANDQ Z21, x, x; \
	CORRECT(Z22, x, h); \
	CORRECT(Z16, x, h)

// STEP advances every lane one position and leaves its word, reduced,
// in r. The word is rotl(s1·5, 7)·9, the multiplies as shift-adds; in
// the update s1 ^= s2 ^ s0 and s2 ^= s0 ^ (s1 << 17) are one
// three-way XOR each (VPTERNLOGQ 0x96), both of the old state, before
// s0 ^= s3 ^ s1 and the rotation of s3.
#define STEP(r) \
	VPSLLQ $2, Z1, Z4; \
	VPADDQ Z1, Z4, Z4; \
	VPROLQ $7, Z4, Z4; \
	VPSLLQ $3, Z4, r; \
	VPADDQ Z4, r, r; \
	VPSLLQ $17, Z1, Z5; \
	VPXORQ Z1, Z3, Z3; \
	VPTERNLOGQ $0x96, Z0, Z2, Z1; \
	VPTERNLOGQ $0x96, Z5, Z0, Z2; \
	VPXORQ Z3, Z0, Z0; \
	VPROLQ $45, Z3, Z3; \
	REDUCE(r, Z4, Z5)

// TRANSPOSE turns Z8+t = word t of every lane into Z23+k = words 0..7
// of lane k: pairs of 64-bit elements, then pairs of 128-bit chunks
// twice (VSHUFI64X2 0x88 takes chunks 0 and 2 of each source, 0xDD
// chunks 1 and 3).
#define TRANSPOSE \
	VPUNPCKLQDQ Z9, Z8, Z23; \
	VPUNPCKHQDQ Z9, Z8, Z24; \
	VPUNPCKLQDQ Z11, Z10, Z25; \
	VPUNPCKHQDQ Z11, Z10, Z26; \
	VPUNPCKLQDQ Z13, Z12, Z27; \
	VPUNPCKHQDQ Z13, Z12, Z28; \
	VPUNPCKLQDQ Z15, Z14, Z29; \
	VPUNPCKHQDQ Z15, Z14, Z30; \
	VSHUFI64X2 $0x88, Z25, Z23, Z8; \
	VSHUFI64X2 $0xDD, Z25, Z23, Z9; \
	VSHUFI64X2 $0x88, Z26, Z24, Z10; \
	VSHUFI64X2 $0xDD, Z26, Z24, Z11; \
	VSHUFI64X2 $0x88, Z29, Z27, Z12; \
	VSHUFI64X2 $0xDD, Z29, Z27, Z13; \
	VSHUFI64X2 $0x88, Z30, Z28, Z14; \
	VSHUFI64X2 $0xDD, Z30, Z28, Z15; \
	VSHUFI64X2 $0x88, Z12, Z8, Z23; \
	VSHUFI64X2 $0xDD, Z12, Z8, Z27; \
	VSHUFI64X2 $0x88, Z14, Z10, Z24; \
	VSHUFI64X2 $0xDD, Z14, Z10, Z28; \
	VSHUFI64X2 $0x88, Z13, Z9, Z25; \
	VSHUFI64X2 $0xDD, Z13, Z9, Z29; \
	VSHUFI64X2 $0x88, Z15, Z11, Z26; \
	VSHUFI64X2 $0xDD, Z15, Z11, Z30

// func uniformRow52(row []uint64, st *[4][lanes]uint64, q, c, c52, mu uint64)
TEXT ·uniformRow52(SB), NOSPLIT, $0-64
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ st+24(FP), SI
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPBROADCASTQ q+32(FP), Z16
	VPXORQ Z17, Z17, Z17
	VPSUBQ Z16, Z17, Z17
	VPADDQ Z16, Z16, Z22
	VPBROADCASTQ c+40(FP), Z18
	VPBROADCASTQ c52+48(FP), Z19
	VPBROADCASTQ mu+56(FP), Z20
	MOVQ $0xFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z21
	MOVQ CX, R8               // a lane's run in bytes: len/8 words
	LEAQ (R8)(R8*2), R9       // three runs
	SHRQ $6, CX               // blocks of eight steps
	JZ done
loop:
	STEP(Z8)
	STEP(Z9)
	STEP(Z10)
	STEP(Z11)
	STEP(Z12)
	STEP(Z13)
	STEP(Z14)
	STEP(Z15)
	TRANSPOSE
	LEAQ (DI)(R8*4), R10
	VMOVDQU64 Z23, (DI)
	VMOVDQU64 Z24, (DI)(R8*1)
	VMOVDQU64 Z25, (DI)(R8*2)
	VMOVDQU64 Z26, (DI)(R9*1)
	VMOVDQU64 Z27, (R10)
	VMOVDQU64 Z28, (R10)(R8*1)
	VMOVDQU64 Z29, (R10)(R8*2)
	VMOVDQU64 Z30, (R10)(R9*1)
	ADDQ $64, DI
	DECQ CX
	JNZ loop
done:
	VMOVDQU64 Z0, 0(SI)
	VMOVDQU64 Z1, 64(SI)
	VMOVDQU64 Z2, 128(SI)
	VMOVDQU64 Z3, 192(SI)
	VZEROUPPER
	RET
