package tensor

// The portable micro-kernels behind the blocked GEMM. Every architecture
// compiles these: they are the correctness reference the SIMD variants are
// property-tested against (bit-identical outputs on every input, including
// signed zeros, denormals and NaN), and the fallback the "generic" kernel
// selection (VMQ_KERNEL=generic, or SetKernel) pins for debugging.

// axpyQuadGeneric computes d_r[j] += v_r * b[j] for the four accumulator
// rows. The SIMD variants perform the identical elementwise operations,
// only more lanes at a time.
func axpyQuadGeneric(d0, d1, d2, d3, b []float32, v0, v1, v2, v3 float32) {
	d0 = d0[:len(b)]
	d1 = d1[:len(b)]
	d2 = d2[:len(b)]
	d3 = d3[:len(b)]
	for j, bv := range b {
		d0[j] += v0 * bv
		d1[j] += v1 * bv
		d2[j] += v2 * bv
		d3[j] += v3 * bv
	}
}

// quadPassGeneric is the generic level's GEMM quad pass.
func quadPassGeneric(p quadPass) { axpyPass(axpyQuadGeneric, p) }

// maxPool2PlaneGeneric pools one plane with 2×2 stride-2 windows: output
// row y (ow values, dense in dst) folds source rows 2y and 2y+1 of src,
// rowStride apart.
func maxPool2PlaneGeneric(dst, src []float32, oh, ow, rowStride int) {
	poolRows(maxPool2RowGeneric, dst, src, oh, ow, rowStride)
}

// poolRows runs a plane's k=2 pooling one output row at a time.
func poolRows(row func(dst, r0, r1 []float32), dst, src []float32, oh, ow, rowStride int) {
	for oy := 0; oy < oh; oy++ {
		r0 := src[(2*oy)*rowStride:][: 2*ow : 2*ow]
		r1 := src[(2*oy+1)*rowStride:][: 2*ow : 2*ow]
		row(dst[oy*ow:][:ow:ow], r0, r1)
	}
}

// maxPool2RowGeneric writes one output row of 2×2 stride-2 max pooling:
// dst[x] folds r0[2x], r0[2x+1], r1[2x], r1[2x+1] in that order with a
// strict-greater compare, so ties (signed zeros) and NaN keep the earlier
// value. The AVX2 and AVX-512 variants perform the identical fold with
// VMAXPS, whose tie/NaN rule (return the second source unless the first
// is strictly greater) matches exactly.
func maxPool2RowGeneric(dst, r0, r1 []float32) {
	r0 = r0[:2*len(dst)]
	r1 = r1[:2*len(dst)]
	for ox := range dst {
		best := r0[2*ox]
		if v := r0[2*ox+1]; v > best {
			best = v
		}
		if v := r1[2*ox]; v > best {
			best = v
		}
		if v := r1[2*ox+1]; v > best {
			best = v
		}
		dst[ox] = best
	}
}

// fillRowGeneric sets every element of dst to v — the reference for the
// rasteriser's row/rectangle fills. No arithmetic, so every level's output
// is identical by construction.
func fillRowGeneric(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// addClampRowGeneric computes dst[i] = clamp01(dst[i] + add[i]) with the
// rasteriser's exact select chain: add, then `if v < 0 { v = 0 } else if
// v > 1 { v = 1 }`. NaN fails both comparisons and passes through. The
// SIMD variants implement the same chain with compare+blend selects in the
// same order, so outputs stay bit-identical.
func addClampRowGeneric(dst, add []float32) {
	dst = dst[:len(add)]
	for i, a := range add {
		v := dst[i] + a
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		dst[i] = v
	}
}

// epilogueRowGeneric applies the bias and activation to one L1-hot dst
// segment. The AVX2 variant implements the same select semantics with
// compare+blend (not arithmetic identities), so outputs stay bit-identical
// even on signed zeros and NaN.
func epilogueRowGeneric(seg []float32, b float32, act Act, slope float32) {
	switch act {
	case ActReLU:
		for i := range seg {
			if v := seg[i] + b; v > 0 {
				seg[i] = v
			} else {
				seg[i] = 0
			}
		}
	case ActLeakyReLU:
		for i := range seg {
			if v := seg[i] + b; v > 0 {
				seg[i] = v
			} else {
				seg[i] = v * slope
			}
		}
	default:
		for i := range seg {
			seg[i] += b
		}
	}
}
