//go:build amd64

package tensor

// axpy4 computes d_r[j] += v_r * b[j] for r = 0..3 over j = 0..n-1, four
// lanes at a time with SSE MULPS/ADDPS (baseline on amd64, no AVX/FMA
// needed). The operations are elementwise multiply-then-add — the exact
// IEEE sequence of the scalar loop — so results are bit-identical to the
// generic path; only the instruction width differs. Implemented in
// axpy_amd64.s.
//
//go:noescape
func axpy4(d0, d1, d2, d3, b *float32, n int, v0, v1, v2, v3 float32)

// axpy8 is the AVX2 variant of axpy4: eight lanes per VMULPS/VADDPS
// (VEX-encoded, no FMA — multiply then add, like every other variant),
// with an in-asm scalar tail for n % 8. Implemented in axpy_amd64.s.
//
//go:noescape
func axpy8(d0, d1, d2, d3, b *float32, n int, v0, v1, v2, v3 float32)

// bias8 adds b to seg[0:n] eight lanes at a time (n must be a multiple of
// 8; the Go wrapper peels the tail).
//
//go:noescape
func bias8(seg *float32, n int, b float32)

// biasReLU8 computes seg[i] = max(seg[i]+b, 0) via VMAXPS with the zero
// vector as the second source, which reproduces the scalar `if v > 0`
// select exactly: ties, signed zeros and NaN all resolve to +0.
//
//go:noescape
func biasReLU8(seg *float32, n int, b float32)

// biasLeaky8 computes v = seg[i]+b; seg[i] = v > 0 ? v : v*slope using
// VCMPPS(GT_OQ) + VBLENDVPS — a true select, not an arithmetic identity,
// so it is bit-identical to the scalar branch on every input.
//
//go:noescape
func biasLeaky8(seg *float32, n int, b, slope float32)

// maxPool2x8 writes n outputs (n a positive multiple of 8) of one 2×2
// stride-2 pooling row: dst[x] = fold-max of r0[2x], r0[2x+1], r1[2x],
// r1[2x+1] in reference order. Even/odd lanes are deinterleaved with
// VSHUFPS, folded with three VMAXPS in the scalar loop's order, and
// restored with one VPERMPD per block.
//
//go:noescape
func maxPool2x8(dst, r0, r1 *float32, n int)

// maxPool2RowAVX2 is the 8-wide dispatch target for the k=2 pooling row.
func maxPool2RowAVX2(dst, r0, r1 []float32) {
	n8 := len(dst) &^ 7
	if n8 > 0 {
		maxPool2x8(&dst[0], &r0[0], &r1[0], n8)
	}
	if n8 < len(dst) {
		maxPool2RowGeneric(dst[n8:], r0[2*n8:], r1[2*n8:])
	}
}

// axpy16 is the AVX-512 variant of axpy8: sixteen lanes per VMULPS/VADDPS
// on ZMM registers (still multiply then add — no FMA), with an in-asm
// scalar tail for n % 16. Implemented in axpy_amd64.s.
//
//go:noescape
func axpy16(d0, d1, d2, d3, b *float32, n int, v0, v1, v2, v3 float32)

// bias16 adds b to seg[0:n] sixteen lanes at a time (n must be a multiple
// of 16; the Go wrapper peels the tail).
//
//go:noescape
func bias16(seg *float32, n int, b float32)

// biasReLU16 computes seg[i] = max(seg[i]+b, 0), the 16-wide analogue of
// biasReLU8 with the identical VMAXPS tie/NaN semantics.
//
//go:noescape
func biasReLU16(seg *float32, n int, b float32)

// biasLeaky16 computes v = seg[i]+b; seg[i] = v > 0 ? v : v*slope with an
// opmask compare + VBLENDMPS — a true select, bit-identical to the scalar
// branch on every input.
//
//go:noescape
func biasLeaky16(seg *float32, n int, b, slope float32)

// maxPool2x16 writes n outputs (n a positive multiple of 16) of one 2×2
// stride-2 pooling row using VPERMT2PS deinterleaves and the reference
// VMAXPS fold order.
//
//go:noescape
func maxPool2x16(dst, r0, r1 *float32, n int)

// fill8 sets dst[0:n] = v eight lanes at a time (n a positive multiple of
// 8; the Go wrapper peels the tail).
//
//go:noescape
func fill8(dst *float32, n int, v float32)

// fill16 sets dst[0:n] = v sixteen lanes at a time (n a positive multiple
// of 16).
//
//go:noescape
func fill16(dst *float32, n int, v float32)

// addClamp8 computes dst[i] = clamp01(dst[i]+add[i]) with compare+blend
// selects in the scalar chain's exact order (n a positive multiple of 8).
//
//go:noescape
func addClamp8(dst, add *float32, n int)

// addClamp16 is the 16-wide opmask form of addClamp8 (n a positive
// multiple of 16).
//
//go:noescape
func addClamp16(dst, add *float32, n int)

// cpuidex executes CPUID with the given leaf/subleaf. Implemented in
// axpy_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (callers must check CPUID.1:ECX.OSXSAVE first).
// Implemented in axpy_amd64.s.
func xgetbv0() (eax, edx uint32)

// axpyQuadSSE is the 4-wide dispatch target used by the GEMM micro-kernel.
func axpyQuadSSE(d0, d1, d2, d3, b []float32, v0, v1, v2, v3 float32) {
	if len(b) == 0 {
		return
	}
	axpy4(&d0[0], &d1[0], &d2[0], &d3[0], &b[0], len(b), v0, v1, v2, v3)
}

// axpyQuadAVX2 is the 8-wide dispatch target.
func axpyQuadAVX2(d0, d1, d2, d3, b []float32, v0, v1, v2, v3 float32) {
	if len(b) == 0 {
		return
	}
	axpy8(&d0[0], &d1[0], &d2[0], &d3[0], &b[0], len(b), v0, v1, v2, v3)
}

// epilogueRowAVX2 applies the bias+activation epilogue with the 8-wide
// select kernels. The scalar epilogue's activation branches mispredict
// constantly on random-sign activations, so the branch-free compare+blend
// versions are a large win even beyond the width; the tail (< 8 elements)
// runs the generic loop, which computes the same values bit-for-bit.
func epilogueRowAVX2(seg []float32, b float32, act Act, slope float32) {
	n8 := len(seg) &^ 7
	if n8 > 0 {
		switch act {
		case ActReLU:
			biasReLU8(&seg[0], n8, b)
		case ActLeakyReLU:
			biasLeaky8(&seg[0], n8, b, slope)
		default:
			bias8(&seg[0], n8, b)
		}
	}
	if n8 < len(seg) {
		epilogueRowGeneric(seg[n8:], b, act, slope)
	}
}

// axpyQuadAVX512 is the 16-wide dispatch target.
func axpyQuadAVX512(d0, d1, d2, d3, b []float32, v0, v1, v2, v3 float32) {
	if len(b) == 0 {
		return
	}
	axpy16(&d0[0], &d1[0], &d2[0], &d3[0], &b[0], len(b), v0, v1, v2, v3)
}

// epilogueRowAVX512 applies the bias+activation epilogue with the 16-wide
// opmask kernels; the tail (< 16 elements) runs the generic loop, which
// computes the same values bit-for-bit.
func epilogueRowAVX512(seg []float32, b float32, act Act, slope float32) {
	n16 := len(seg) &^ 15
	if n16 > 0 {
		switch act {
		case ActReLU:
			biasReLU16(&seg[0], n16, b)
		case ActLeakyReLU:
			biasLeaky16(&seg[0], n16, b, slope)
		default:
			bias16(&seg[0], n16, b)
		}
	}
	if n16 < len(seg) {
		epilogueRowGeneric(seg[n16:], b, act, slope)
	}
}

// maxPool2RowAVX512 is the 16-wide dispatch target for the k=2 pooling row.
// An 8–15-output remainder takes one 8-wide AVX2 block before the scalar
// loop: the backbones' 12- and 8-wide second pools are all remainder.
func maxPool2RowAVX512(dst, r0, r1 []float32) {
	n := len(dst) &^ 15
	if n > 0 {
		maxPool2x16(&dst[0], &r0[0], &r1[0], n)
	}
	if len(dst)-n >= 8 {
		maxPool2x8(&dst[n], &r0[2*n], &r1[2*n], 8)
		n += 8
	}
	if n < len(dst) {
		maxPool2RowGeneric(dst[n:], r0[2*n:], r1[2*n:])
	}
}

// fillRowAVX2 is the 8-wide dispatch target for the rasteriser row fill.
func fillRowAVX2(dst []float32, v float32) {
	n8 := len(dst) &^ 7
	if n8 > 0 {
		fill8(&dst[0], n8, v)
	}
	if n8 < len(dst) {
		fillRowGeneric(dst[n8:], v)
	}
}

// fillRowAVX512 is the 16-wide dispatch target for the rasteriser row fill.
func fillRowAVX512(dst []float32, v float32) {
	n16 := len(dst) &^ 15
	if n16 > 0 {
		fill16(&dst[0], n16, v)
	}
	if n16 < len(dst) {
		fillRowGeneric(dst[n16:], v)
	}
}

// addClampRowAVX2 is the 8-wide dispatch target for the rasteriser's noise
// add+clamp epilogue.
func addClampRowAVX2(dst, add []float32) {
	n8 := len(add) &^ 7
	if n8 > 0 {
		addClamp8(&dst[0], &add[0], n8)
	}
	if n8 < len(add) {
		addClampRowGeneric(dst[n8:], add[n8:])
	}
}

// addClampRowAVX512 is the 16-wide dispatch target for the rasteriser's
// noise add+clamp epilogue.
func addClampRowAVX512(dst, add []float32) {
	n16 := len(add) &^ 15
	if n16 > 0 {
		addClamp16(&dst[0], &add[0], n16)
	}
	if n16 < len(add) {
		addClampRowGeneric(dst[n16:], add[n16:])
	}
}

// hasAVX2 reports whether the CPU and OS support AVX2 (CPUID feature bit
// plus OSXSAVE/XCR0 confirmation that the OS preserves YMM state).
func hasAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// hasAVX512 reports whether the CPU and OS support the AVX-512 subset the
// 16-wide kernels need: AVX512F + AVX512VL (CPUID.(7,0):EBX bits 16 and
// 31) with the OS preserving opmask and ZMM state (XCR0 bits 5-7, on top
// of the XMM/YMM bits). It also requires AVX2, which the 16-wide pooling
// row uses for its 8-output remainder.
func hasAVX512() bool {
	if !hasAVX2() { // also confirms CPUID leaf 7 and OSXSAVE
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0xE6 != 0xE6 { // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	const avx512vl = 1 << 31
	return ebx7&avx512f != 0 && ebx7&avx512vl != 0
}

// archKernels returns the SIMD kernel levels this CPU supports. The "sse"
// level is exactly the pre-AVX2 system: 4-wide axpy with the scalar
// epilogue, pooling and rasteriser rows.
func archKernels() map[string]kernelImpl {
	ks := map[string]kernelImpl{
		"sse": {
			axpy:     axpyQuadSSE,
			epilogue: epilogueRowGeneric,
			pool2:    maxPool2RowGeneric,
			fill:     fillRowGeneric,
			addClamp: addClampRowGeneric,
		},
	}
	if hasAVX2() {
		ks["avx2"] = kernelImpl{
			axpy:     axpyQuadAVX2,
			epilogue: epilogueRowAVX2,
			pool2:    maxPool2RowAVX2,
			fill:     fillRowAVX2,
			addClamp: addClampRowAVX2,
		}
	}
	if hasAVX512() {
		ks["avx512"] = kernelImpl{
			axpy:     axpyQuadAVX512,
			epilogue: epilogueRowAVX512,
			pool2:    maxPool2RowAVX512,
			fill:     fillRowAVX512,
			addClamp: addClampRowAVX512,
		}
	}
	return ks
}

// defaultKernelName selects the widest available level.
func defaultKernelName() string {
	if hasAVX512() {
		return "avx512"
	}
	if hasAVX2() {
		return "avx2"
	}
	return "sse"
}
