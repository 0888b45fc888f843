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

// func maxPool2Plane16(dst, src *float32, oh, ow, rowStride int)
//
// One plane of 2×2 stride-2 max pooling: output row y (ow floats, dense
// in dst) folds source rows 2y and 2y+1, rowStride floats apart. Each
// 16-output block loads 32 floats of each source row and deinterleaves
// even/odd taps with VPERMT2PS (a full cross-lane permute, so the taps
// land directly in output order), then folds the four tap vectors with
// VMAXPS in the scalar reference's exact order: the running best is the
// second source, kept unless the new tap is strictly greater, ties,
// signed zeros and NaN included. The last ow mod 16 outputs of a row run
// as one block under opmasks: K1/K2 select the input floats, so the
// zeroing loads never touch memory past them, and K3 stores only the
// remaining outputs. Requires oh, ow >= 1.
TEXT ·maxPool2Plane16(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), BX
	MOVQ oh+16(FP), R10
	MOVQ ow+24(FP), R11
	MOVQ rowStride+32(FP), R8
	SHLQ $2, R8                 // row stride in bytes
	MOVQ R11, R12
	ANDQ $15, R12               // tail outputs t
	SHRQ $4, R11                // full blocks per row

	MOVQ  R12, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K3                // t output lanes
	ADDL  CX, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX                    // 2t <= 30 input lanes
	KMOVW AX, K1
	SHRL  $16, AX
	KMOVW AX, K2

	VMOVUPS ·permEven16<>(SB), Z8
	VMOVUPS ·permOdd16<>(SB), Z9

pool16row:
	MOVQ BX, SI                 // source row 2y
	LEAQ (BX)(R8*1), DX         // source row 2y+1
	MOVQ R11, CX
	TESTQ CX, CX
	JZ   pool16tail

pool16blk:
	VMOVUPS   (SI), Z0
	VMOVUPS   64(SI), Z1
	VMOVAPS   Z0, Z2
	VPERMT2PS Z1, Z8, Z2 // row 2y even taps
	VMOVAPS   Z0, Z3
	VPERMT2PS Z1, Z9, Z3 // row 2y odd taps
	VMOVUPS   (DX), Z0
	VMOVUPS   64(DX), Z1
	VMOVAPS   Z0, Z4
	VPERMT2PS Z1, Z8, Z4 // row 2y+1 even taps
	VMOVAPS   Z0, Z5
	VPERMT2PS Z1, Z9, Z5 // row 2y+1 odd taps
	VMAXPS    Z2, Z3, Z2
	VMAXPS    Z2, Z4, Z2
	VMAXPS    Z2, Z5, Z2
	VMOVUPS   Z2, (DI)
	ADDQ      $128, SI
	ADDQ      $128, DX
	ADDQ      $64, DI
	DECQ      CX
	JNZ       pool16blk

pool16tail:
	TESTQ     R12, R12
	JZ        pool16next
	VMOVUPS.Z (SI), K1, Z0
	VMOVUPS.Z 64(SI), K2, Z1
	VMOVAPS   Z0, Z2
	VPERMT2PS Z1, Z8, Z2
	VMOVAPS   Z0, Z3
	VPERMT2PS Z1, Z9, Z3
	VMOVUPS.Z (DX), K1, Z0
	VMOVUPS.Z 64(DX), K2, Z1
	VMOVAPS   Z0, Z4
	VPERMT2PS Z1, Z8, Z4
	VMOVAPS   Z0, Z5
	VPERMT2PS Z1, Z9, Z5
	VMAXPS    Z2, Z3, Z2
	VMAXPS    Z2, Z4, Z2
	VMAXPS    Z2, Z5, Z2
	VMOVUPS   Z2, K3, (DI)
	LEAQ      (DI)(R12*4), DI

pool16next:
	LEAQ (BX)(R8*2), BX         // next pair of source rows
	DECQ R10
	JNZ  pool16row

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

// func gemmTile512(d *float32, ldc int, b *float32, taps *tap, ntaps, width int, resume bool)
//
// The AVX-512 register-blocked GEMM tile. It computes four output rows
// (row r at d + r·ldc floats) over width columns: for each tile of 64
// columns its sixteen accumulators Z16–Z31 start at +0 (or, with resume,
// at the sums dst holds) and stay in registers across the whole tap loop —
// acc += b·v for every tap, B read at b + tap.off — then are stored once.
// The < 64 remainder runs 16 columns at a time under the K1 opmask, whose
// zeroing loads never touch memory past the last column.
//
// Per lane the IEEE sequence is axpy4's exactly: VMULPS with the B
// element as first source and the A value second, then VADDPS with the
// accumulator first, so results match bit for bit, NaN payloads included.
// A tap is {off int64; v [4]float32}, 24 bytes. Each tap also prefetches
// its B row's lines for the next tile: a plain GEMM's B rows lie a whole
// row apart, more streams than the hardware prefetcher follows.
TEXT ·gemmTile512(SB), NOSPLIT, $0-49
	MOVQ    d+0(FP), DI
	MOVQ    ldc+8(FP), R8
	SHLQ    $2, R8              // row stride in bytes
	LEAQ    (R8)(R8*2), R10     // three rows
	MOVQ    b+16(FP), BX
	MOVQ    taps+24(FP), R12
	MOVQ    ntaps+32(FP), R13
	MOVQ    width+40(FP), DX
	MOVBQZX resume+48(FP), R11

t64:
	CMPQ DX, $64
	JL   t16
	TESTQ R11, R11
	JNZ  t64load
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VPXORD Z30, Z30, Z30
	VPXORD Z31, Z31, Z31
	JMP  t64taps

t64load:
	VMOVUPS (DI), Z16
	VMOVUPS 64(DI), Z17
	VMOVUPS 128(DI), Z18
	VMOVUPS 192(DI), Z19
	VMOVUPS (DI)(R8*1), Z20
	VMOVUPS 64(DI)(R8*1), Z21
	VMOVUPS 128(DI)(R8*1), Z22
	VMOVUPS 192(DI)(R8*1), Z23
	VMOVUPS (DI)(R8*2), Z24
	VMOVUPS 64(DI)(R8*2), Z25
	VMOVUPS 128(DI)(R8*2), Z26
	VMOVUPS 192(DI)(R8*2), Z27
	VMOVUPS (DI)(R10*1), Z28
	VMOVUPS 64(DI)(R10*1), Z29
	VMOVUPS 128(DI)(R10*1), Z30
	VMOVUPS 192(DI)(R10*1), Z31

t64taps:
	MOVQ  R12, SI
	MOVQ  R13, CX
	TESTQ CX, CX
	JZ    t64store

t64tap:
	MOVQ         (SI), AX
	VMOVUPS      (BX)(AX*4), Z0
	VMOVUPS      64(BX)(AX*4), Z1
	VMOVUPS      128(BX)(AX*4), Z2
	VMOVUPS      192(BX)(AX*4), Z3
	PREFETCHT0   256(BX)(AX*4)
	PREFETCHT0   320(BX)(AX*4)
	PREFETCHT0   384(BX)(AX*4)
	PREFETCHT0   448(BX)(AX*4)
	VBROADCASTSS 8(SI), Z4
	VBROADCASTSS 12(SI), Z5
	VBROADCASTSS 16(SI), Z6
	VBROADCASTSS 20(SI), Z7

	VMULPS Z4, Z0, Z8
	VADDPS Z8, Z16, Z16
	VMULPS Z4, Z1, Z9
	VADDPS Z9, Z17, Z17
	VMULPS Z4, Z2, Z10
	VADDPS Z10, Z18, Z18
	VMULPS Z4, Z3, Z11
	VADDPS Z11, Z19, Z19

	VMULPS Z5, Z0, Z12
	VADDPS Z12, Z20, Z20
	VMULPS Z5, Z1, Z13
	VADDPS Z13, Z21, Z21
	VMULPS Z5, Z2, Z14
	VADDPS Z14, Z22, Z22
	VMULPS Z5, Z3, Z15
	VADDPS Z15, Z23, Z23

	VMULPS Z6, Z0, Z8
	VADDPS Z8, Z24, Z24
	VMULPS Z6, Z1, Z9
	VADDPS Z9, Z25, Z25
	VMULPS Z6, Z2, Z10
	VADDPS Z10, Z26, Z26
	VMULPS Z6, Z3, Z11
	VADDPS Z11, Z27, Z27

	VMULPS Z7, Z0, Z12
	VADDPS Z12, Z28, Z28
	VMULPS Z7, Z1, Z13
	VADDPS Z13, Z29, Z29
	VMULPS Z7, Z2, Z14
	VADDPS Z14, Z30, Z30
	VMULPS Z7, Z3, Z15
	VADDPS Z15, Z31, Z31

	ADDQ $24, SI
	DECQ CX
	JNZ  t64tap

t64store:
	VMOVUPS Z16, (DI)
	VMOVUPS Z17, 64(DI)
	VMOVUPS Z18, 128(DI)
	VMOVUPS Z19, 192(DI)
	VMOVUPS Z20, (DI)(R8*1)
	VMOVUPS Z21, 64(DI)(R8*1)
	VMOVUPS Z22, 128(DI)(R8*1)
	VMOVUPS Z23, 192(DI)(R8*1)
	VMOVUPS Z24, (DI)(R8*2)
	VMOVUPS Z25, 64(DI)(R8*2)
	VMOVUPS Z26, 128(DI)(R8*2)
	VMOVUPS Z27, 192(DI)(R8*2)
	VMOVUPS Z28, (DI)(R10*1)
	VMOVUPS Z29, 64(DI)(R10*1)
	VMOVUPS Z30, 128(DI)(R10*1)
	VMOVUPS Z31, 192(DI)(R10*1)
	ADDQ    $256, DI
	ADDQ    $256, BX
	SUBQ    $64, DX
	JMP     t64

t16:
	TESTQ DX, DX
	JLE   tdone
	MOVL  $0xFFFF, AX
	CMPQ  DX, $16
	JGE   t16mask
	MOVQ  DX, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX                    // (1 << remaining) - 1

t16mask:
	KMOVW AX, K1
	TESTQ R11, R11
	JNZ   t16load
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	JMP   t16taps

t16load:
	VMOVUPS.Z (DI), K1, Z16
	VMOVUPS.Z (DI)(R8*1), K1, Z17
	VMOVUPS.Z (DI)(R8*2), K1, Z18
	VMOVUPS.Z (DI)(R10*1), K1, Z19

t16taps:
	MOVQ  R12, SI
	MOVQ  R13, CX
	TESTQ CX, CX
	JZ    t16store

t16tap:
	MOVQ         (SI), AX
	VMOVUPS.Z    (BX)(AX*4), K1, Z0
	VBROADCASTSS 8(SI), Z4
	VBROADCASTSS 12(SI), Z5
	VBROADCASTSS 16(SI), Z6
	VBROADCASTSS 20(SI), Z7
	VMULPS       Z4, Z0, Z8
	VADDPS       Z8, Z16, Z16
	VMULPS       Z5, Z0, Z9
	VADDPS       Z9, Z17, Z17
	VMULPS       Z6, Z0, Z10
	VADDPS       Z10, Z18, Z18
	VMULPS       Z7, Z0, Z11
	VADDPS       Z11, Z19, Z19
	ADDQ         $24, SI
	DECQ         CX
	JNZ          t16tap

t16store:
	VMOVUPS Z16, K1, (DI)
	VMOVUPS Z17, K1, (DI)(R8*1)
	VMOVUPS Z18, K1, (DI)(R8*2)
	VMOVUPS Z19, K1, (DI)(R10*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $16, DX
	JMP     t16

tdone:
	VZEROUPPER
	RET

// Eight all-ones dwords then eight zero dwords: the eight-dword window
// starting at dword 8-r is the VMASKMOVPS mask that selects r lanes.
GLOBL ·laneMask8<>(SB), RODATA, $64
DATA ·laneMask8<>+0(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·laneMask8<>+8(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·laneMask8<>+16(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·laneMask8<>+24(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·laneMask8<>+32(SB)/8, $0
DATA ·laneMask8<>+40(SB)/8, $0
DATA ·laneMask8<>+48(SB)/8, $0
DATA ·laneMask8<>+56(SB)/8, $0

// func gemmTile256(d *float32, ldc int, b *float32, taps *tap, ntaps, width int, resume bool)
//
// The AVX2 form of gemmTile512: 16-column tiles whose eight accumulators
// Y8–Y15 stay in registers across the tap loop (sixteen YMM registers
// allow no wider tile), then an 8-column loop whose last block loads and
// stores under a VMASKMOVPS lane mask. Same per-lane operand order as
// axpy4: B first in VMULPS, the accumulator first in VADDPS, and the same
// next-tile prefetch.
TEXT ·gemmTile256(SB), NOSPLIT, $0-49
	MOVQ    d+0(FP), DI
	MOVQ    ldc+8(FP), R8
	SHLQ    $2, R8
	LEAQ    (R8)(R8*2), R10
	MOVQ    b+16(FP), BX
	MOVQ    taps+24(FP), R12
	MOVQ    ntaps+32(FP), R13
	MOVQ    width+40(FP), DX
	MOVBQZX resume+48(FP), R11

y16:
	CMPQ  DX, $16
	JL    y8
	TESTQ R11, R11
	JNZ   y16load
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	JMP   y16taps

y16load:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VMOVUPS (DI)(R8*1), Y10
	VMOVUPS 32(DI)(R8*1), Y11
	VMOVUPS (DI)(R8*2), Y12
	VMOVUPS 32(DI)(R8*2), Y13
	VMOVUPS (DI)(R10*1), Y14
	VMOVUPS 32(DI)(R10*1), Y15

y16taps:
	MOVQ  R12, SI
	MOVQ  R13, CX
	TESTQ CX, CX
	JZ    y16store

y16tap:
	MOVQ         (SI), AX
	VMOVUPS      (BX)(AX*4), Y0
	VMOVUPS      32(BX)(AX*4), Y1
	PREFETCHT0   64(BX)(AX*4)
	VBROADCASTSS 8(SI), Y2
	VMULPS       Y2, Y0, Y4
	VADDPS       Y4, Y8, Y8
	VMULPS       Y2, Y1, Y5
	VADDPS       Y5, Y9, Y9
	VBROADCASTSS 12(SI), Y3
	VMULPS       Y3, Y0, Y6
	VADDPS       Y6, Y10, Y10
	VMULPS       Y3, Y1, Y7
	VADDPS       Y7, Y11, Y11
	VBROADCASTSS 16(SI), Y2
	VMULPS       Y2, Y0, Y4
	VADDPS       Y4, Y12, Y12
	VMULPS       Y2, Y1, Y5
	VADDPS       Y5, Y13, Y13
	VBROADCASTSS 20(SI), Y3
	VMULPS       Y3, Y0, Y6
	VADDPS       Y6, Y14, Y14
	VMULPS       Y3, Y1, Y7
	VADDPS       Y7, Y15, Y15
	ADDQ         $24, SI
	DECQ         CX
	JNZ          y16tap

y16store:
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, (DI)(R8*1)
	VMOVUPS Y11, 32(DI)(R8*1)
	VMOVUPS Y12, (DI)(R8*2)
	VMOVUPS Y13, 32(DI)(R8*2)
	VMOVUPS Y14, (DI)(R10*1)
	VMOVUPS Y15, 32(DI)(R10*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $16, DX
	JMP     y16

y8:
	TESTQ DX, DX
	JLE   ydone
	MOVQ  $8, AX
	CMPQ  DX, AX
	CMOVQLT DX, AX             // lanes in this block
	NEGQ  AX
	LEAQ  ·laneMask8<>+32(SB), CX
	VMOVUPS (CX)(AX*4), Y15     // first min(remaining, 8) lanes set
	TESTQ R11, R11
	JNZ   y8load
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	JMP   y8taps

y8load:
	VMASKMOVPS (DI), Y15, Y8
	VMASKMOVPS (DI)(R8*1), Y15, Y9
	VMASKMOVPS (DI)(R8*2), Y15, Y10
	VMASKMOVPS (DI)(R10*1), Y15, Y11

y8taps:
	MOVQ  R12, SI
	MOVQ  R13, CX
	TESTQ CX, CX
	JZ    y8store

y8tap:
	MOVQ         (SI), AX
	VMASKMOVPS   (BX)(AX*4), Y15, Y0
	VBROADCASTSS 8(SI), Y2
	VMULPS       Y2, Y0, Y4
	VADDPS       Y4, Y8, Y8
	VBROADCASTSS 12(SI), Y3
	VMULPS       Y3, Y0, Y5
	VADDPS       Y5, Y9, Y9
	VBROADCASTSS 16(SI), Y6
	VMULPS       Y6, Y0, Y7
	VADDPS       Y7, Y10, Y10
	VBROADCASTSS 20(SI), Y12
	VMULPS       Y12, Y0, Y13
	VADDPS       Y13, Y11, Y11
	ADDQ         $24, SI
	DECQ         CX
	JNZ          y8tap

y8store:
	VMASKMOVPS Y8, Y15, (DI)
	VMASKMOVPS Y9, Y15, (DI)(R8*1)
	VMASKMOVPS Y10, Y15, (DI)(R8*2)
	VMASKMOVPS Y11, Y15, (DI)(R10*1)
	ADDQ       $32, DI
	ADDQ       $32, BX
	SUBQ       $8, DX
	JMP        y8

ydone:
	VZEROUPPER
	RET
