#include "textflag.h"

// The AVX-512 IFMA bodies of the row kernels in vec.go, eight
// coefficients per iteration. VPMADD52LUQ/HUQ add the low/high 52 bits
// of a 52×52-bit product to a lane and read only the low 52 bits of
// each multiplicand, so every value multiplied here is kept below 2^52
// (the drivers' dispatch rule; mulShoupRow52, whose input is any word,
// checks for itself) and arithmetic modulo 2^52 recovers any true value
// known to lie below 2^52.
//
// Register conventions of every body:
//   Z16 q    Z17 −q (its low 52 bits are 2^52 − q)    Z21 2^52 − 1
//   K1  the lanes of this iteration: all eight, or the row's tail

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// CONSTS loads q from its argument slot and derives Z17 and Z21.
#define CONSTS(qarg) \
	VPBROADCASTQ qarg, Z16; \
	VPXORQ Z17, Z17, Z17; \
	VPSUBQ Z16, Z17, Z17; \
	MOVQ $0xFFFFFFFFFFFFF, AX; \
	VPBROADCASTQ AX, Z21; \
	MOVL $0xFF, AX; \
	KMOVW AX, K1

// LANES narrows K1 to the CX < 8 coefficients of a row's tail.
#define LANES(full) \
	CMPQ CX, $8; \
	JAE full; \
	MOVL $1, AX; \
	SHLL CX, AX; \
	DECL AX; \
	KMOVW AX, K1

// SHOUP sets r = x·w − ⌊x·w52/2^52⌋·q, in [0, 2q) for x < 2^52, where
// w52 = ⌊w·2^52/q⌋. r and t are distinct from x.
#define SHOUP(x, w, w52, r, t) \
	VPXORQ t, t, t; \
	VPMADD52HUQ w52, x, t; \
	VPXORQ r, r, r; \
	VPMADD52LUQ w, x, r; \
	VPMADD52LUQ Z17, t, r; \
	VPANDQ Z21, r, r

// CORRECT maps r in [0, 2·bound) to [0, bound): the smaller of r and
// r − bound as unsigned words.
#define CORRECT(bound, r, t) \
	VPSUBQ bound, r, t; \
	VPMINUQ t, r, r

// REDUCE folds the accumulator pair Z0 (low halves, plus the kept
// accumulator) and Z1 (high halves) into the canonical residue in Z0.
// With H = Z1 + Z0>>52 < 2^52 and L = Z0 mod 2^52 the sum is H·2^52 + L
// ≡ H·c + L·1, two Shoup products: their quotients share Z3, their
// remainders Z0, and the result lies in [0, 4q).
// Z18 c = 2^52 mod q, Z19 ⌊c·2^52/q⌋, Z20 ⌊2^52/q⌋, Z22 2q.
#define REDUCE \
	VPSRLQ $52, Z0, Z2; \
	VPADDQ Z2, Z1, Z1; \
	VPXORQ Z3, Z3, Z3; \
	VPMADD52HUQ Z19, Z1, Z3; \
	VPMADD52HUQ Z20, Z0, Z3; \
	VPMADD52LUQ Z18, Z1, Z0; \
	VPMADD52LUQ Z17, Z3, Z0; \
	VPANDQ Z21, Z0, Z0; \
	CORRECT(Z22, Z0, Z2); \
	CORRECT(Z16, Z0, Z2)

// func mulAccRows52(acc []uint64, a, b [][]uint64, keep, q, c, c52, mu uint64)
TEXT ·mulAccRows52(SB), NOSPLIT, $0-112
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ b_base+48(FP), DX
	MOVQ keep+72(FP), R15
	CONSTS(q+80(FP))
	VPBROADCASTQ c+88(FP), Z18
	VPBROADCASTQ c52+96(FP), Z19
	VPBROADCASTQ mu+104(FP), Z20
	VPADDQ Z16, Z16, Z22
	XORQ R9, R9 // byte offset of this iteration in every row
	TESTQ CX, CX
	JZ rowsDone
rowsLoop:
	LANES(rowsFull)
rowsFull:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	TESTQ R15, R15
	JZ rowsTerms
	VMOVDQU64.Z (DI)(R9*1), K1, Z0
rowsTerms:
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12
	TESTQ R12, R12
	JZ rowsReduce
rowsTerm:
	MOVQ (R10), R13
	MOVQ (R11), R14
	VMOVDQU64.Z (R13)(R9*1), K1, Z2
	VMOVDQU64.Z (R14)(R9*1), K1, Z3
	VPMADD52LUQ Z3, Z2, Z0
	VPMADD52HUQ Z3, Z2, Z1
	ADDQ $24, R10
	ADDQ $24, R11
	DECQ R12
	JNZ rowsTerm
rowsReduce:
	REDUCE
	VMOVDQU64 Z0, K1, (DI)(R9*1)
	ADDQ $64, R9
	SUBQ $8, CX
	JG rowsLoop
rowsDone:
	VZEROUPPER
	RET

// func mulAccScalars52(acc []uint64, a [][]uint64, w []uint64, keep, q, c, c52, mu uint64)
TEXT ·mulAccScalars52(SB), NOSPLIT, $0-112
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ w_base+48(FP), DX
	MOVQ keep+72(FP), R15
	CONSTS(q+80(FP))
	VPBROADCASTQ c+88(FP), Z18
	VPBROADCASTQ c52+96(FP), Z19
	VPBROADCASTQ mu+104(FP), Z20
	VPADDQ Z16, Z16, Z22
	XORQ R9, R9
	TESTQ CX, CX
	JZ scalarsDone
scalarsLoop:
	LANES(scalarsFull)
scalarsFull:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	TESTQ R15, R15
	JZ scalarsTerms
	VMOVDQU64.Z (DI)(R9*1), K1, Z0
scalarsTerms:
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12
	TESTQ R12, R12
	JZ scalarsReduce
scalarsTerm:
	MOVQ (R10), R13
	VMOVDQU64.Z (R13)(R9*1), K1, Z2
	VPMADD52LUQ.BCST (R11), Z2, Z0
	VPMADD52HUQ.BCST (R11), Z2, Z1
	ADDQ $24, R10
	ADDQ $8, R11
	DECQ R12
	JNZ scalarsTerm
scalarsReduce:
	REDUCE
	VMOVDQU64 Z0, K1, (DI)(R9*1)
	ADDQ $64, R9
	SUBQ $8, CX
	JG scalarsLoop
scalarsDone:
	VZEROUPPER
	RET

// func mulShoupRow52(out, in []uint64, w, w52, q uint64) (done int)
TEXT ·mulShoupRow52(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ in_base+24(FP), SI
	VPBROADCASTQ w+48(FP), Z18
	VPBROADCASTQ w52+56(FP), Z19
	CONSTS(q+64(FP))
	TESTQ CX, CX
	JZ shoupDone
shoupLoop:
	LANES(shoupFull)
shoupFull:
	VMOVDQU64.Z (SI), K1, Z0
	VPSRLQ $52, Z0, Z2
	VPTESTMQ Z2, Z2, K2 // lanes too wide for a multiplicand
	KORTESTW K2, K2
	JNZ shoupDone
	SHOUP(Z0, Z18, Z19, Z1, Z2)
	CORRECT(Z16, Z1, Z2)
	VMOVDQU64 Z1, K1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JG shoupLoop
	XORQ CX, CX
shoupDone:
	MOVQ out_len+8(FP), AX
	SUBQ CX, AX // CX coefficients are left
	MOVQ AX, done+72(FP)
	VZEROUPPER
	RET

// func subMulShoupRow52(out, a, b []uint64, w, w52, q uint64)
TEXT ·subMulShoupRow52(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	VPBROADCASTQ w+72(FP), Z18
	VPBROADCASTQ w52+80(FP), Z19
	CONSTS(q+88(FP))
	TESTQ CX, CX
	JZ subDone
subLoop:
	LANES(subFull)
subFull:
	VMOVDQU64.Z (SI), K1, Z0
	VMOVDQU64.Z (DX), K1, Z1
	VPADDQ Z16, Z0, Z0
	VPSUBQ Z1, Z0, Z0
	SHOUP(Z0, Z18, Z19, Z1, Z2)
	CORRECT(Z16, Z1, Z2)
	VMOVDQU64 Z1, K1, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JG subLoop
subDone:
	VZEROUPPER
	RET
