//go:build amd64

package tensor

import "unsafe"

// axpy4 computes d_r[j] += v_r * b[j] for r = 0..3 over j = 0..n-1, four
// lanes at a time with SSE MULPS/ADDPS (baseline on amd64, no AVX/FMA
// needed). The operations are elementwise multiply-then-add — the exact
// IEEE sequence of the scalar loop — so results are bit-identical to the
// generic path; only the instruction width differs. Implemented in
// axpy_amd64.s.
//
//go:noescape
func axpy4(d0, d1, d2, d3, b *float32, n int, v0, v1, v2, v3 float32)

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

// maxPool2PlaneAVX2 is the 8-wide dispatch target for k=2 pooling.
func maxPool2PlaneAVX2(dst, src []float32, oh, ow, rowStride int) {
	poolRows(maxPool2RowAVX2, dst, src, oh, ow, rowStride)
}

// maxPool2RowAVX2 pools one row, 8 outputs per assembly block.
func maxPool2RowAVX2(dst, r0, r1 []float32) {
	n8 := len(dst) &^ 7
	if n8 > 0 {
		maxPool2x8(&dst[0], &r0[0], &r1[0], n8)
	}
	if n8 < len(dst) {
		maxPool2RowGeneric(dst[n8:], r0[2*n8:], r1[2*n8:])
	}
}

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

// maxPool2Plane16 pools one plane, oh output rows of ow outputs, from
// source rows rowStride floats apart (oh, ow >= 1): 16-output blocks
// with VPERMT2PS deinterleaves and the reference VMAXPS fold order, and
// an opmasked block for each row's last ow mod 16 outputs.
//
//go:noescape
func maxPool2Plane16(dst, src *float32, oh, ow, rowStride int)

// gemmTile512 is the AVX-512 register-blocked GEMM tile: four output rows
// (row r at d + r·ldc) over width columns, 4×64 accumulators held in
// registers across all ntaps taps, stored once. resume starts from the
// sums d holds instead of zero. Implemented in axpy_amd64.s.
//
//go:noescape
func gemmTile512(d *float32, ldc int, b *float32, taps *tap, ntaps, width int, resume bool)

// gemmTile256 is the AVX2 form of gemmTile512 with a 4×16 tile.
//
//go:noescape
func gemmTile256(d *float32, ldc int, b *float32, taps *tap, ntaps, width int, resume bool)

// The tile kernels read a tap as {off int64 at byte 0, v [4]float32 at
// byte 8}, 24 bytes apart; these fail to compile if the layout changes.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(tap{})-24]
	_ = [1]struct{}{}[unsafe.Offsetof(tap{}.v)-8]
)

// quadPassAVX2 is the avx2 level's GEMM quad pass: the 4×16
// register-blocked tile. gemm has proved every tap's B segment in range;
// the rows are checked here.
func quadPassAVX2(p quadPass) {
	var buf [gemmKC]tap
	taps := p.pack(&buf)
	checkTileRows(p)
	gemmTile256(&p.d[0], p.ldc, unsafe.SliceData(p.b), unsafe.SliceData(taps), len(taps), p.width, p.k0 > 0)
}

// quadPassAVX512 is the avx512 level's GEMM quad pass: the 4×64 tile.
func quadPassAVX512(p quadPass) {
	var buf [gemmKC]tap
	taps := p.pack(&buf)
	checkTileRows(p)
	gemmTile512(&p.d[0], p.ldc, unsafe.SliceData(p.b), unsafe.SliceData(taps), len(taps), p.width, p.k0 > 0)
}

func checkTileRows(p quadPass) {
	if p.width <= 0 || len(p.d) < 3*p.ldc+p.width {
		panic("tensor: gemm tile rows out of range")
	}
}

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

// axpyQuadSSE is the 4-wide axpy behind the sse level's quad pass.
func axpyQuadSSE(d0, d1, d2, d3, b []float32, v0, v1, v2, v3 float32) {
	if len(b) == 0 {
		return
	}
	axpy4(&d0[0], &d1[0], &d2[0], &d3[0], &b[0], len(b), v0, v1, v2, v3)
}

// quadPassSSE is the sse level's GEMM quad pass: the axpyQuad loop.
func quadPassSSE(p quadPass) { axpyPass(axpyQuadSSE, p) }

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

// maxPool2PlaneAVX512 is the 16-wide dispatch target for k=2 pooling: one
// assembly call per plane, its rows and their remainders included.
func maxPool2PlaneAVX512(dst, src []float32, oh, ow, rowStride int) {
	if oh == 0 || ow == 0 {
		return
	}
	_ = dst[oh*ow-1]
	_ = src[(2*oh-1)*rowStride+2*ow-1]
	maxPool2Plane16(&dst[0], &src[0], oh, ow, rowStride)
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
// of the XMM/YMM bits). hasAVX2 supplies the CPUID leaf 7 and OSXSAVE
// checks.
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
			quad:     quadPassSSE,
			epilogue: epilogueRowGeneric,
			pool2:    maxPool2PlaneGeneric,
			fill:     fillRowGeneric,
			addClamp: addClampRowGeneric,
		},
	}
	if hasAVX2() {
		ks["avx2"] = kernelImpl{
			quad:     quadPassAVX2,
			epilogue: epilogueRowAVX2,
			pool2:    maxPool2PlaneAVX2,
			fill:     fillRowAVX2,
			addClamp: addClampRowAVX2,
		}
	}
	if hasAVX512() {
		ks["avx512"] = kernelImpl{
			quad:     quadPassAVX512,
			epilogue: epilogueRowAVX512,
			pool2:    maxPool2PlaneAVX512,
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
