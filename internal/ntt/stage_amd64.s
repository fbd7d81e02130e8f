#include "textflag.h"

// The AVX-512 IFMA bodies of the transform stages in ntt.go, eight
// butterflies per iteration. VPMADD52LUQ/HUQ add the low/high 52 bits
// of a 52×52-bit product to a lane and read only the low 52 bits of
// each multiplicand. With q < 2^50 every lazy value — [0,4q) forward,
// [0,2q) inverse, a difference x − y + 2q — is below 2^52, so the
// Shoup product y·w − ⌊y·w52/2^52⌋·q with w52 = ⌊w·2^52/q⌋ lies in
// [0,2q) exactly as the 64-bit one does, and arithmetic modulo 2^52
// recovers it. w52 is the table's 64-bit companion shifted right by
// 12, so the body needs no tables of its own.
//
// Register conventions:
//   Z16 q    Z17 −q (its low 52 bits are 2^52 − q)    Z21 2^52 − 1
//   Z22 2q   Z18 twiddle w    Z19 w52
//   Z0, Z1 butterfly inputs x, y    Z2, Z3 outputs    Z4, Z5 scratch

#define CONSTS(qarg) \
	VPBROADCASTQ qarg, Z16; \
	VPXORQ Z17, Z17, Z17; \
	VPSUBQ Z16, Z17, Z17; \
	VPADDQ Z16, Z16, Z22; \
	MOVQ $0xFFFFFFFFFFFFF, AX; \
	VPBROADCASTQ AX, Z21

// SHOUP sets r = x·w − ⌊x·w52/2^52⌋·q, in [0, 2q) for x < 2^52.
// r and t are distinct from x.
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

// FWDBF is the lazy Cooley–Tukey butterfly: x, y in [0,4q) to
// Z2 = x + y·w and Z3 = x − y·w + 2q, both in [0,4q).
#define FWDBF \
	CORRECT(Z22, Z0, Z4); \
	SHOUP(Z1, Z18, Z19, Z5, Z4); \
	VPADDQ Z5, Z0, Z2; \
	VPSUBQ Z5, Z0, Z3; \
	VPADDQ Z22, Z3, Z3

// INVBF is the lazy Gentleman–Sande butterfly: x, y in [0,2q) to
// Z2 = x + y and Z3 = (x − y)·w, both in [0,2q).
#define INVBF \
	VPADDQ Z1, Z0, Z2; \
	CORRECT(Z22, Z2, Z4); \
	VPSUBQ Z1, Z0, Z1; \
	VPADDQ Z22, Z1, Z1; \
	SHOUP(Z1, Z18, Z19, Z3, Z4)

// Short strides (step 4, 2, 1) put both halves of a butterfly inside
// one 16-value window. SHORTSETUP loads the step's lane permutations
// (stage_amd64.go) and the width of its twiddle loads: a window holds
// 8/step blocks, so K2 selects that many twiddles and R9 steps over
// them. SHORTLOAD gathers the window at (DI) into x, y and spreads its
// twiddles over their lanes; SHORTSTORE scatters Z2, Z3 back.
//   Z24, Z25 window → x, y    Z26, Z27 x, y → window halves    Z28 twiddle lanes
#define SHORTSETUP \
	MOVQ perm+88(FP), R8; \
	VMOVDQU64 0(R8), Z24; \
	VMOVDQU64 64(R8), Z25; \
	VMOVDQU64 128(R8), Z26; \
	VMOVDQU64 192(R8), Z27; \
	VMOVDQU64 256(R8), Z28; \
	MOVQ BX, CX; \
	SHRQ $1, CX; \
	MOVL $8, R9; \
	SHRL CX, R9; \
	MOVQ R9, CX; \
	MOVL $1, AX; \
	SHLL CX, AX; \
	DECL AX; \
	KMOVW AX, K2; \
	SHLQ $3, R9

#define SHORTLOAD \
	VMOVDQU64.Z (SI), K2, Z4; \
	VPERMQ Z4, Z28, Z18; \
	VMOVDQU64.Z (DX), K2, Z5; \
	VPERMQ Z5, Z28, Z19; \
	VPSRLQ $12, Z19, Z19; \
	VMOVDQU64 (DI), Z6; \
	VMOVDQU64 64(DI), Z7; \
	VMOVDQA64 Z24, Z0; \
	VPERMI2Q Z7, Z6, Z0; \
	VMOVDQA64 Z25, Z1; \
	VPERMI2Q Z7, Z6, Z1

#define SHORTSTORE \
	VMOVDQA64 Z26, Z6; \
	VPERMI2Q Z3, Z2, Z6; \
	VMOVDQA64 Z27, Z7; \
	VPERMI2Q Z3, Z2, Z7; \
	VMOVDQU64 Z6, (DI); \
	VMOVDQU64 Z7, 64(DI)

// func fwdStage52(a, w, ws []uint64, step int, q uint64, perm *[5][8]uint64)
//
// One forward stage over all of a: len(w) blocks of 2·step values.
// step 1 is the transform's last stage and corrects to [0,q).
TEXT ·fwdStage52(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ ws_base+48(FP), DX
	MOVQ step+72(FP), BX
	CONSTS(q+80(FP))
	CMPQ BX, $8
	JB fwdShort
	MOVQ w_len+32(FP), R8
	LEAQ (DI)(BX*8), R10 // y half of the first block
fwdBlock:
	VPBROADCASTQ (SI), Z18
	VPBROADCASTQ (DX), Z19
	VPSRLQ $12, Z19, Z19
	MOVQ BX, R11
fwdInner:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (R10), Z1
	FWDBF
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, (R10)
	ADDQ $64, DI
	ADDQ $64, R10
	SUBQ $8, R11
	JNZ fwdInner
	MOVQ R10, DI
	LEAQ (DI)(BX*8), R10
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ R8
	JNZ fwdBlock
	VZEROUPPER
	RET
fwdShort:
	SHORTSETUP
	MOVQ a_len+8(FP), R11
fwdWindow:
	SHORTLOAD
	FWDBF
	CMPQ BX, $1
	JNE fwdStore
	CORRECT(Z22, Z2, Z4)
	CORRECT(Z16, Z2, Z4)
	CORRECT(Z22, Z3, Z4)
	CORRECT(Z16, Z3, Z4)
fwdStore:
	SHORTSTORE
	ADDQ $128, DI
	ADDQ R9, SI
	ADDQ R9, DX
	SUBQ $16, R11
	JNZ fwdWindow
	VZEROUPPER
	RET

// func invStage52(a, w, ws []uint64, step int, q uint64, perm *[5][8]uint64)
//
// One inverse stage before the last, over all of a.
TEXT ·invStage52(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ ws_base+48(FP), DX
	MOVQ step+72(FP), BX
	CONSTS(q+80(FP))
	CMPQ BX, $8
	JB invShort
	MOVQ w_len+32(FP), R8
	LEAQ (DI)(BX*8), R10
invBlock:
	VPBROADCASTQ (SI), Z18
	VPBROADCASTQ (DX), Z19
	VPSRLQ $12, Z19, Z19
	MOVQ BX, R11
invInner:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (R10), Z1
	INVBF
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, (R10)
	ADDQ $64, DI
	ADDQ $64, R10
	SUBQ $8, R11
	JNZ invInner
	MOVQ R10, DI
	LEAQ (DI)(BX*8), R10
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ R8
	JNZ invBlock
	VZEROUPPER
	RET
invShort:
	SHORTSETUP
	MOVQ a_len+8(FP), R11
invWindow:
	SHORTLOAD
	INVBF
	SHORTSTORE
	ADDQ $128, DI
	ADDQ R9, SI
	ADDQ R9, DX
	SUBQ $16, R11
	JNZ invWindow
	VZEROUPPER
	RET

// func invLast52(a []uint64, nInv, nInvShoup, lastInv, lastInvShoup, q uint64)
//
// The inverse's last stage with N⁻¹ folded into both twiddles:
// x' = (x+y)·N⁻¹ and y' = (x−y+2q)·ψ⁻¹N⁻¹, corrected to [0,q).
TEXT ·invLast52(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), R11
	SHRQ $1, R11
	LEAQ (DI)(R11*8), R10
	CONSTS(q+56(FP))
	VPBROADCASTQ nInv+24(FP), Z18
	VPBROADCASTQ nInvShoup+32(FP), Z19
	VPSRLQ $12, Z19, Z19
	VPBROADCASTQ lastInv+40(FP), Z23
	VPBROADCASTQ lastInvShoup+48(FP), Z24
	VPSRLQ $12, Z24, Z24
lastLoop:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (R10), Z1
	VPADDQ Z1, Z0, Z6
	VPSUBQ Z1, Z0, Z7
	VPADDQ Z22, Z7, Z7
	SHOUP(Z6, Z18, Z19, Z2, Z4)
	CORRECT(Z16, Z2, Z4)
	SHOUP(Z7, Z23, Z24, Z3, Z4)
	CORRECT(Z16, Z3, Z4)
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, (R10)
	ADDQ $64, DI
	ADDQ $64, R10
	SUBQ $8, R11
	JNZ lastLoop
	VZEROUPPER
	RET
