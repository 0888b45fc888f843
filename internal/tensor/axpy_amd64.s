//go:build amd64

#include "textflag.h"

// func axpy4(d0, d1, d2, d3, b *float32, n int, v0, v1, v2, v3 float32)
//
// d_r[j] += v_r * b[j] for r = 0..3, j = 0..n-1. SSE only (MOVUPS/MULPS/
// ADDPS are amd64 baseline). Elementwise multiply then add — no FMA, no
// horizontal ops — so every output element sees the exact IEEE operation
// sequence of the scalar loop.
TEXT ·axpy4(SB), NOSPLIT, $0-64
	MOVQ d0+0(FP), R8
	MOVQ d1+8(FP), R9
	MOVQ d2+16(FP), R10
	MOVQ d3+24(FP), R11
	MOVQ b+32(FP), BX
	MOVQ n+40(FP), CX
	MOVSS v0+48(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS v1+52(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS v2+56(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS v3+60(FP), X3
	SHUFPS $0x00, X3, X3

	CMPQ CX, $4
	JL   tail

loop:
	MOVUPS (BX), X4

	MOVAPS X4, X5
	MULPS  X0, X5
	MOVUPS (R8), X6
	ADDPS  X5, X6
	MOVUPS X6, (R8)

	MOVAPS X4, X5
	MULPS  X1, X5
	MOVUPS (R9), X6
	ADDPS  X5, X6
	MOVUPS X6, (R9)

	MOVAPS X4, X5
	MULPS  X2, X5
	MOVUPS (R10), X6
	ADDPS  X5, X6
	MOVUPS X6, (R10)

	MOVAPS X4, X5
	MULPS  X3, X5
	MOVUPS (R11), X6
	ADDPS  X5, X6
	MOVUPS X6, (R11)

	ADDQ $16, BX
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  loop

tail:
	CMPQ CX, $0
	JLE  done

tailloop:
	MOVSS (BX), X4

	MOVAPS X4, X5
	MULSS  X0, X5
	MOVSS  (R8), X6
	ADDSS  X5, X6
	MOVSS  X6, (R8)

	MOVAPS X4, X5
	MULSS  X1, X5
	MOVSS  (R9), X6
	ADDSS  X5, X6
	MOVSS  X6, (R9)

	MOVAPS X4, X5
	MULSS  X2, X5
	MOVSS  (R10), X6
	ADDSS  X5, X6
	MOVSS  X6, (R10)

	MOVAPS X4, X5
	MULSS  X3, X5
	MOVSS  (R11), X6
	ADDSS  X5, X6
	MOVSS  X6, (R11)

	ADDQ $4, BX
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JG   tailloop

done:
	RET

// func axpy8(d0, d1, d2, d3, b *float32, n int, v0, v1, v2, v3 float32)
//
// AVX2 variant of axpy4: eight lanes per VMULPS/VADDPS. Still elementwise
// multiply then add — no FMA, so every output element sees the exact IEEE
// operation sequence of the scalar loop (multiplication and addition are
// commutative in IEEE 754, so operand order is immaterial). The < 8 tail
// runs scalar after VZEROUPPER; VBROADCASTSS leaves the scalar in lane 0,
// which the tail's MULSS uses.
TEXT ·axpy8(SB), NOSPLIT, $0-64
	MOVQ d0+0(FP), R8
	MOVQ d1+8(FP), R9
	MOVQ d2+16(FP), R10
	MOVQ d3+24(FP), R11
	MOVQ b+32(FP), BX
	MOVQ n+40(FP), CX
	VBROADCASTSS v0+48(FP), Y0
	VBROADCASTSS v1+52(FP), Y1
	VBROADCASTSS v2+56(FP), Y2
	VBROADCASTSS v3+60(FP), Y3

	CMPQ CX, $8
	JL   avx2tail

avx2loop:
	VMOVUPS (BX), Y4

	VMULPS  Y0, Y4, Y5
	VMOVUPS (R8), Y6
	VADDPS  Y5, Y6, Y6
	VMOVUPS Y6, (R8)

	VMULPS  Y1, Y4, Y5
	VMOVUPS (R9), Y6
	VADDPS  Y5, Y6, Y6
	VMOVUPS Y6, (R9)

	VMULPS  Y2, Y4, Y5
	VMOVUPS (R10), Y6
	VADDPS  Y5, Y6, Y6
	VMOVUPS Y6, (R10)

	VMULPS  Y3, Y4, Y5
	VMOVUPS (R11), Y6
	VADDPS  Y5, Y6, Y6
	VMOVUPS Y6, (R11)

	ADDQ $32, BX
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  avx2loop

avx2tail:
	VZEROUPPER
	CMPQ CX, $0
	JLE  avx2done

avx2tailloop:
	MOVSS (BX), X4

	MOVAPS X4, X5
	MULSS  X0, X5
	MOVSS  (R8), X6
	ADDSS  X5, X6
	MOVSS  X6, (R8)

	MOVAPS X4, X5
	MULSS  X1, X5
	MOVSS  (R9), X6
	ADDSS  X5, X6
	MOVSS  X6, (R9)

	MOVAPS X4, X5
	MULSS  X2, X5
	MOVSS  (R10), X6
	ADDSS  X5, X6
	MOVSS  X6, (R10)

	MOVAPS X4, X5
	MULSS  X3, X5
	MOVSS  (R11), X6
	ADDSS  X5, X6
	MOVSS  X6, (R11)

	ADDQ $4, BX
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JG   avx2tailloop

avx2done:
	RET

// func bias8(seg *float32, n int, b float32)
//
// seg[i] += b, eight lanes at a time. n must be a positive multiple of 8
// (the Go wrapper peels the tail).
TEXT ·bias8(SB), NOSPLIT, $0-20
	MOVQ         seg+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS b+16(FP), Y0

bias8loop:
	VMOVUPS (SI), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	JG      bias8loop

	VZEROUPPER
	RET

// func biasReLU8(seg *float32, n int, b float32)
//
// v = seg[i] + b; seg[i] = v > 0 ? v : 0. VMAXPS with the zero vector as
// Intel SRC2 matches the scalar select exactly: ties (v == ±0) and NaN
// both yield SRC2 = +0, just like the scalar `v > 0` test failing.
TEXT ·biasReLU8(SB), NOSPLIT, $0-20
	MOVQ         seg+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS b+16(FP), Y0
	VXORPS       Y2, Y2, Y2

relu8loop:
	VMOVUPS (SI), Y1
	VADDPS  Y0, Y1, Y1
	VMAXPS  Y2, Y1, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	JG      relu8loop

	VZEROUPPER
	RET

// func biasLeaky8(seg *float32, n int, b, slope float32)
//
// v = seg[i] + b; seg[i] = v > 0 ? v : v*slope. A true select:
// VCMPPS(GT_OQ) builds the v > 0 mask (false on NaN, like the scalar
// comparison) and VBLENDVPS picks v or v*slope per lane, so the result is
// bit-identical to the scalar branch on every input, signed zeros and
// denormal underflow included.
TEXT ·biasLeaky8(SB), NOSPLIT, $0-24
	MOVQ         seg+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS b+16(FP), Y0
	VBROADCASTSS slope+20(FP), Y7
	VXORPS       Y2, Y2, Y2

leaky8loop:
	VMOVUPS   (SI), Y1
	VADDPS    Y0, Y1, Y1        // v = seg + b
	VMULPS    Y7, Y1, Y3        // v * slope
	VCMPPS    $0x1E, Y2, Y1, Y4 // GT_OQ: v > 0 (false on NaN)
	VBLENDVPS Y4, Y1, Y3, Y1    // v > 0 ? v : v*slope
	VMOVUPS   Y1, (SI)
	ADDQ      $32, SI
	SUBQ      $8, CX
	JG        leaky8loop

	VZEROUPPER
	RET

// func maxPool2x8(dst, r0, r1 *float32, n int)
//
// One 2×2 stride-2 pooling row, 8 outputs per iteration. Each block loads
// 16 floats of each input row, splits even/odd taps with VSHUFPS (which
// leaves the four output pairs in a lane-crossed qword order), folds the
// four tap vectors with VMAXPS in the scalar reference's exact order —
// Intel MAXPS returns the second source unless the first is strictly
// greater, which is precisely the `if v > best` fold, ties, signed zeros
// and NaN included — and restores output order with one VPERMPD.
TEXT ·maxPool2x8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ n+24(FP), CX

pool8loop:
	VMOVUPS (SI), Y0           // r0[0:8]
	VMOVUPS 32(SI), Y1         // r0[8:16]
	VSHUFPS $0x88, Y1, Y0, Y2  // r0 even taps  (qword-scrambled)
	VSHUFPS $0xDD, Y1, Y0, Y3  // r0 odd taps
	VMOVUPS (DX), Y0           // r1[0:8]
	VMOVUPS 32(DX), Y1         // r1[8:16]
	VSHUFPS $0x88, Y1, Y0, Y4  // r1 even taps
	VSHUFPS $0xDD, Y1, Y0, Y5  // r1 odd taps

	// best = r0even; best = max(r0odd, best); ... — SRC2 is the running
	// best, so each VMAXPS keeps it unless the new tap is strictly greater.
	VMAXPS  Y2, Y3, Y2
	VMAXPS  Y2, Y4, Y2
	VMAXPS  Y2, Y5, Y2
	VPERMPD $0xD8, Y2, Y2      // undo the VSHUFPS qword scramble
	VMOVUPS Y2, (DI)

	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	SUBQ $8, CX
	JG   pool8loop

	VZEROUPPER
	RET

// func axpy16(d0, d1, d2, d3, b *float32, n int, v0, v1, v2, v3 float32)
//
// AVX-512 variant of axpy8: sixteen lanes per VMULPS/VADDPS on ZMM
// registers. Still elementwise multiply then add — no FMA — so every
// output element sees the exact IEEE operation sequence of the scalar
// loop. The < 16 tail runs scalar after VZEROUPPER; VBROADCASTSS leaves
// the scalar in lane 0, which the tail's MULSS uses.
TEXT ·axpy16(SB), NOSPLIT, $0-64
	MOVQ         d0+0(FP), R8
	MOVQ         d1+8(FP), R9
	MOVQ         d2+16(FP), R10
	MOVQ         d3+24(FP), R11
	MOVQ         b+32(FP), BX
	MOVQ         n+40(FP), CX
	VBROADCASTSS v0+48(FP), Z0
	VBROADCASTSS v1+52(FP), Z1
	VBROADCASTSS v2+56(FP), Z2
	VBROADCASTSS v3+60(FP), Z3

	CMPQ CX, $16
	JL   z16tail

z16loop:
	VMOVUPS (BX), Z4

	VMULPS  Z0, Z4, Z5
	VMOVUPS (R8), Z6
	VADDPS  Z5, Z6, Z6
	VMOVUPS Z6, (R8)

	VMULPS  Z1, Z4, Z5
	VMOVUPS (R9), Z6
	VADDPS  Z5, Z6, Z6
	VMOVUPS Z6, (R9)

	VMULPS  Z2, Z4, Z5
	VMOVUPS (R10), Z6
	VADDPS  Z5, Z6, Z6
	VMOVUPS Z6, (R10)

	VMULPS  Z3, Z4, Z5
	VMOVUPS (R11), Z6
	VADDPS  Z5, Z6, Z6
	VMOVUPS Z6, (R11)

	ADDQ $64, BX
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  z16loop

z16tail:
	VZEROUPPER
	CMPQ CX, $0
	JLE  z16done

z16tailloop:
	MOVSS (BX), X4

	MOVAPS X4, X5
	MULSS  X0, X5
	MOVSS  (R8), X6
	ADDSS  X5, X6
	MOVSS  X6, (R8)

	MOVAPS X4, X5
	MULSS  X1, X5
	MOVSS  (R9), X6
	ADDSS  X5, X6
	MOVSS  X6, (R9)

	MOVAPS X4, X5
	MULSS  X2, X5
	MOVSS  (R10), X6
	ADDSS  X5, X6
	MOVSS  X6, (R10)

	MOVAPS X4, X5
	MULSS  X3, X5
	MOVSS  (R11), X6
	ADDSS  X5, X6
	MOVSS  X6, (R11)

	ADDQ $4, BX
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JG   z16tailloop

z16done:
	RET

// func bias16(seg *float32, n int, b float32)
//
// seg[i] += b, sixteen lanes at a time. n must be a positive multiple of
// 16 (the Go wrapper peels the tail).
TEXT ·bias16(SB), NOSPLIT, $0-20
	MOVQ         seg+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS b+16(FP), Z0

bias16loop:
	VMOVUPS (SI), Z1
	VADDPS  Z0, Z1, Z1
	VMOVUPS Z1, (SI)
	ADDQ    $64, SI
	SUBQ    $16, CX
	JG      bias16loop

	VZEROUPPER
	RET

// func biasReLU16(seg *float32, n int, b float32)
//
// v = seg[i] + b; seg[i] = v > 0 ? v : 0 — the 16-wide VMAXPS select of
// biasReLU8. The zero vector comes from a VEX VXORPS on the YMM alias,
// which zeroes the full ZMM (AVX-512F has no VXORPS on ZMM; that needs
// AVX-512DQ, which we do not require).
TEXT ·biasReLU16(SB), NOSPLIT, $0-20
	MOVQ         seg+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS b+16(FP), Z0
	VXORPS       Y2, Y2, Y2

relu16loop:
	VMOVUPS (SI), Z1
	VADDPS  Z0, Z1, Z1
	VMAXPS  Z2, Z1, Z1
	VMOVUPS Z1, (SI)
	ADDQ    $64, SI
	SUBQ    $16, CX
	JG      relu16loop

	VZEROUPPER
	RET

// func biasLeaky16(seg *float32, n int, b, slope float32)
//
// v = seg[i] + b; seg[i] = v > 0 ? v : v*slope. The AVX-512 form of the
// true select: VCMPPS builds the v > 0 opmask (false on NaN, like the
// scalar comparison) in K1 and VBLENDMPS picks v or v*slope per lane, so
// the result is bit-identical to the scalar branch on every input.
TEXT ·biasLeaky16(SB), NOSPLIT, $0-24
	MOVQ         seg+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS b+16(FP), Z0
	VBROADCASTSS slope+20(FP), Z7
	VXORPS       Y2, Y2, Y2

leaky16loop:
	VMOVUPS   (SI), Z1
	VADDPS    Z0, Z1, Z1        // v = seg + b
	VMULPS    Z7, Z1, Z3        // v * slope
	VCMPPS    $0x1E, Z2, Z1, K1 // GT_OQ: v > 0 (false on NaN)
	VBLENDMPS Z1, Z3, K1, Z1    // v > 0 ? v : v*slope
	VMOVUPS   Z1, (SI)
	ADDQ      $64, SI
	SUBQ      $16, CX
	JG        leaky16loop

	VZEROUPPER
	RET

// Dword index tables for VPERMT2PS: the even (0,2,..,30) and odd
// (1,3,..,31) elements of a 32-float concatenation, in output order.
GLOBL ·permEven16<>(SB), RODATA, $64
DATA ·permEven16<>+0(SB)/8, $0x0000000200000000
DATA ·permEven16<>+8(SB)/8, $0x0000000600000004
DATA ·permEven16<>+16(SB)/8, $0x0000000A00000008
DATA ·permEven16<>+24(SB)/8, $0x0000000E0000000C
DATA ·permEven16<>+32(SB)/8, $0x0000001200000010
DATA ·permEven16<>+40(SB)/8, $0x0000001600000014
DATA ·permEven16<>+48(SB)/8, $0x0000001A00000018
DATA ·permEven16<>+56(SB)/8, $0x0000001E0000001C
GLOBL ·permOdd16<>(SB), RODATA, $64
DATA ·permOdd16<>+0(SB)/8, $0x0000000300000001
DATA ·permOdd16<>+8(SB)/8, $0x0000000700000005
DATA ·permOdd16<>+16(SB)/8, $0x0000000B00000009
DATA ·permOdd16<>+24(SB)/8, $0x0000000F0000000D
DATA ·permOdd16<>+32(SB)/8, $0x0000001300000011
DATA ·permOdd16<>+40(SB)/8, $0x0000001700000015
DATA ·permOdd16<>+48(SB)/8, $0x0000001B00000019
DATA ·permOdd16<>+56(SB)/8, $0x0000001F0000001D

// func maxPool2x16(dst, r0, r1 *float32, n int)
//
// One 2×2 stride-2 pooling row, 16 outputs per iteration. Each block
// loads 32 floats of each input row and deinterleaves even/odd taps with
// VPERMT2PS (a full cross-lane permute, so unlike the AVX2 VSHUFPS path
// the taps land directly in output order — no VPERMPD repair needed),
// then folds the four tap vectors with VMAXPS in the scalar reference's
// exact order: the running best is the second source, kept unless the
// new tap is strictly greater, ties, signed zeros and NaN included.
TEXT ·maxPool2x16(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    r0+8(FP), SI
	MOVQ    r1+16(FP), DX
	MOVQ    n+24(FP), CX
	VMOVUPS ·permEven16<>(SB), Z8
	VMOVUPS ·permOdd16<>(SB), Z9

pool16loop:
	VMOVUPS   (SI), Z0   // r0[0:16]
	VMOVUPS   64(SI), Z1 // r0[16:32]
	VMOVAPS   Z0, Z2
	VPERMT2PS Z1, Z8, Z2 // r0 even taps
	VMOVAPS   Z0, Z3
	VPERMT2PS Z1, Z9, Z3 // r0 odd taps
	VMOVUPS   (DX), Z0   // r1[0:16]
	VMOVUPS   64(DX), Z1 // r1[16:32]
	VMOVAPS   Z0, Z4
	VPERMT2PS Z1, Z8, Z4 // r1 even taps
	VMOVAPS   Z0, Z5
	VPERMT2PS Z1, Z9, Z5 // r1 odd taps

	VMAXPS  Z2, Z3, Z2
	VMAXPS  Z2, Z4, Z2
	VMAXPS  Z2, Z5, Z2
	VMOVUPS Z2, (DI)

	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $64, DI
	SUBQ $16, CX
	JG   pool16loop

	VZEROUPPER
	RET

// 1.0f, for the rasteriser clamp kernels.
GLOBL ·one32<>(SB), RODATA, $4
DATA ·one32<>+0(SB)/4, $0x3F800000

// func fill8(dst *float32, n int, v float32)
//
// dst[0:n] = v, eight lanes at a time (n a positive multiple of 8). Pure
// stores — trivially bit-identical to the scalar loop.
TEXT ·fill8(SB), NOSPLIT, $0-20
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS v+16(FP), Y0

fill8loop:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JG      fill8loop

	VZEROUPPER
	RET

// func fill16(dst *float32, n int, v float32)
//
// dst[0:n] = v, sixteen lanes at a time (n a positive multiple of 16).
TEXT ·fill16(SB), NOSPLIT, $0-20
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS v+16(FP), Z0

fill16loop:
	VMOVUPS Z0, (DI)
	ADDQ    $64, DI
	SUBQ    $16, CX
	JG      fill16loop

	VZEROUPPER
	RET

// func addClamp8(dst, add *float32, n int)
//
// v = dst[i] + add[i]; v = v < 0 ? 0 : v; v = v > 1 ? 1 : v — the
// rasteriser's sensor-noise epilogue as true selects (VCMPPS +
// VBLENDVPS), bit-identical to the scalar else-if chain on every input:
// the low clamp's LT_OQ compare is false on NaN (NaN passes through,
// like the scalar), ties keep the original signed value, and the
// operation order (add, low clamp, high clamp) matches exactly.
TEXT ·addClamp8(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         add+8(FP), SI
	MOVQ         n+16(FP), CX
	VXORPS       Y2, Y2, Y2
	VBROADCASTSS ·one32<>(SB), Y3

clamp8loop:
	VMOVUPS   (DI), Y0
	VMOVUPS   (SI), Y1
	VADDPS    Y1, Y0, Y0       // v = dst + add
	VCMPPS    $0x11, Y2, Y0, Y4 // LT_OQ: v < 0 (false on NaN)
	VBLENDVPS Y4, Y2, Y0, Y0   // v < 0 ? 0 : v
	VCMPPS    $0x1E, Y3, Y0, Y4 // GT_OQ: v > 1 (false on NaN)
	VBLENDVPS Y4, Y3, Y0, Y0   // v > 1 ? 1 : v
	VMOVUPS   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	SUBQ      $8, CX
	JG        clamp8loop

	VZEROUPPER
	RET

// func addClamp16(dst, add *float32, n int)
//
// The 16-wide AVX-512 form of addClamp8: opmask compares + VBLENDMPS
// selects, same IEEE operation order, bit-identical to the scalar chain.
TEXT ·addClamp16(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         add+8(FP), SI
	MOVQ         n+16(FP), CX
	VXORPS       Y2, Y2, Y2
	VBROADCASTSS ·one32<>(SB), Z3

clamp16loop:
	VMOVUPS   (DI), Z0
	VMOVUPS   (SI), Z1
	VADDPS    Z1, Z0, Z0        // v = dst + add
	VCMPPS    $0x11, Z2, Z0, K1 // LT_OQ: v < 0
	VBLENDMPS Z2, Z0, K1, Z0    // v < 0 ? 0 : v
	VCMPPS    $0x1E, Z3, Z0, K1 // GT_OQ: v > 1
	VBLENDMPS Z3, Z0, K1, Z0    // v > 1 ? 1 : v
	VMOVUPS   Z0, (DI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	SUBQ      $16, CX
	JG        clamp16loop

	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
//
// Reads XCR0. Callers must have confirmed CPUID.1:ECX.OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
