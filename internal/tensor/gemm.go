package tensor

import "fmt"

// The blocked GEMM below is the inference hot path: every batched
// convolution and fully connected layer is one call of gemm. It
// blocks the output columns so a block of B stays cache-resident while
// every four-row quad of the output passes over it, and the per-row bias
// and activation epilogue runs on each column block while it is still
// cache-hot.
//
// B is addressed through bRows, a per-k row offset: a plain row-major
// matrix is one layout, and the batched convolution's shifted views of a
// zero-bordered input (see ConvBatchInto) are another, so convolution
// needs no im2col matrix.
//
// Each pass of a four-row quad (runQuadPass, the active kernel level's)
// first packs its k steps whose four A values are not all zero (skipping
// those is exact), then runs over the packed taps: on AVX2 and AVX-512 a
// register-blocked tile holds its accumulators in registers across the
// whole tap loop and stores them once; the generic and SSE levels run the
// axpyQuad loop over dst.
//
// Accumulation order is load-bearing: every output element is a sum of
// terms in ascending-k order, each term multiply-then-add, with the bias
// added after the sum, exactly like the naive per-frame path, and that
// order does not depend on how rows or columns are blocked or which level
// runs. Batched and single-frame forwards therefore produce bit-identical
// per-frame results.
//
// The multiply always runs on the calling goroutine. How many cores one
// batch evaluation uses is decided once, above this package: the trained
// filter backends split a batch's frames into one part per core, and
// nothing below them fans out.

// A column block is at most gemmNC columns wide, and narrower when its
// B segments would exceed gemmBFloats (256 KiB), so that they stay in
// L2 while every quad passes over them. A convolution's kh·kw taps per
// channel are shifted views of one row, so only its channels count.
const (
	gemmNC      = 2048
	gemmBFloats = 1 << 16
)

// gemmKC is the number of k steps packed per pass. A quad with more runs
// several passes, each resuming from the float32 sums the last one
// stored, which is exact. It bounds the stack-resident tap buffer.
const gemmKC = 256

// tap is one packed k step of a row quad: where its B row segment starts
// and the quad's four A values.
type tap struct {
	off int
	v   [4]float32
}

// bRows locates the rows of a GEMM's B operand inside one slice. Row
// kk = (c·kh + ky)·kw + kx starts at c·cs + ky·rs + kx. A row-major k×n
// matrix is {1, 1, n, 0}; a shifted-row convolution is {KH, KW, channel
// stride, padded row width}.
type bRows struct{ kh, kw, cs, rs int }

func (r bRows) off(kk int) int {
	t := kk % (r.kh * r.kw)
	return kk/(r.kh*r.kw)*r.cs + t/r.kw*r.rs + t%r.kw
}

// Act selects the fused activation of MatMulBiasAct's epilogue.
type Act uint8

// Epilogue activations.
const (
	ActNone Act = iota
	ActReLU
	ActLeakyReLU
)

// MatMulInto computes dst = a×b for 2-D tensors a (m×k) and b (k×n) with
// the cache-blocked kernel, writing into dst (m×n) without allocating
// (dst contents need not be zeroed). A nil dst allocates a fresh output.
// It returns dst. Results are bit-identical to MatMul's.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	return MatMulBiasAct(dst, a, b, nil, ActNone, 0, 1)
}

// MatMulBiasAct computes dst = act(a×b + bias) — the fused convolution /
// fully-connected forward: bias (length m, added per output row after the
// k-sum, exactly like the per-frame path; nil skips it) and the activation
// are applied to each column block while it is cache-hot. Results are
// bit-identical to MatMul followed by separate bias and activation passes.
//
// workers is unused: the multiply runs on the calling goroutine for every
// value. The parameter stays because existing callers pass it.
func MatMulBiasAct(dst, a, b *Tensor, bias []float32, act Act, slope float32, workers int) *Tensor {
	m, k, n := checkMatMul(a, b)
	if bias != nil && len(bias) != m {
		panic(fmt.Sprintf("tensor: MatMulBiasAct bias length %d, want %d", len(bias), m))
	}
	dst = ensureDst(dst, m, n)
	gemm(dst.Data, n, a.Data, m, k, b.Data, bRows{1, 1, n, 0}, n, bias, act, slope)
	return dst
}

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInto needs rank-2 operands, got %v x %v", a.Shape, b.Shape))
	}
	m, k = a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulInto inner dims %d vs %d", k, b.Shape[0]))
	}
	return m, k, b.Shape[1]
}

func ensureDst(dst *Tensor, m, n int) *Tensor {
	if dst == nil {
		return New(m, n)
	}
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	return dst
}

// gemm computes act(a×B + bias) for the m×k matrix a, overwriting output
// row i at dst[i*ldc:][:n]. B row kk is b[rows.off(kk):][:n].
func gemm(dst []float32, ldc int, a []float32, m, k int, b []float32, rows bRows, n int, bias []float32, act Act, slope float32) {
	if m == 0 || n == 0 {
		return
	}
	// The tile kernels index b and dst unchecked; prove every access in
	// range once. Row offsets grow with kk, so the last row reaches
	// furthest.
	if len(a) < m*k || len(dst) < (m-1)*ldc+n || ldc < n || (k > 0 && rows.off(k-1)+n > len(b)) {
		panic(fmt.Sprintf("tensor: gemm operands out of range (m=%d k=%d n=%d ldc=%d, len a=%d b=%d dst=%d)",
			m, k, n, ldc, len(a), len(b), len(dst)))
	}
	nc := gemmNC
	if distinct := k / (rows.kh * rows.kw); distinct > 0 {
		nc = min(nc, max(64, gemmBFloats/distinct&^63))
	}
	var buf [gemmKC]tap // the remainder rows' taps
	for jb := 0; jb < n; jb += nc {
		width := min(nc, n-jb)
		i := 0
		for ; i+4 <= m; i += 4 {
			p := quadPass{d: dst[i*ldc+jb:], ldc: ldc, width: width, a: a[i*k : (i+4)*k], k: k, b: b, rows: rows, jb: jb}
			// At least one pass, so k = 0 still zeroes the rows.
			for p.k0 = 0; p.k0 < k || p.k0 == 0; p.k0 += gemmKC {
				p.k1 = min(p.k0+gemmKC, k)
				runQuadPass(p)
			}
			if bias != nil || act != ActNone {
				for r := 0; r < 4; r++ {
					epilogueRow(p.d[r*ldc:][:width], biasAt(bias, i+r), act, slope)
				}
			}
		}
		for ; i < m; i++ {
			d := dst[i*ldc+jb:][:width]
			clear(d)
			for k0 := 0; k0 < k; k0 += gemmKC {
				for _, t := range packTaps(buf[:0], a[i*k:(i+1)*k], k, false, rows, k0, min(k0+gemmKC, k), jb) {
					av := t.v[0]
					for j, bv := range b[t.off:][:width] {
						d[j] = madd(d[j], bv, av)
					}
				}
			}
			if bias != nil || act != ActNone {
				epilogueRow(d, biasAt(bias, i), act, slope)
			}
		}
	}
}

func biasAt(bias []float32, i int) float32 {
	if bias == nil {
		return 0
	}
	return bias[i]
}

// packTaps appends to taps the steps kk in [k0, k1) at which the A rows
// are not all zero — four rows a[r*k:] when quad is set, else one — with
// their B row offsets shifted by the column block start jb. Unused lanes
// of v stay zero.
func packTaps(taps []tap, a []float32, k int, quad bool, rows bRows, k0, k1, jb int) []tap {
	if k0 >= k1 {
		return taps
	}
	a0 := a[k0:k1]
	a1, a2, a3 := a0, a0, a0 // unread unless quad
	if quad {
		a1, a2, a3 = a[k+k0:k+k1], a[2*k+k0:2*k+k1], a[3*k+k0:3*k+k1]
	}
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	t := k0 % (rows.kh * rows.kw)
	ky, kx := t/rows.kw, t%rows.kw
	off := rows.off(k0) + jb
	rowStep := rows.rs - rows.kw + 1
	chanStep := rows.cs - (rows.kh-1)*rows.rs - rows.kw + 1
	n := len(taps)
	taps = taps[:cap(taps)]
	for i, v0 := range a0 {
		var v1, v2, v3 float32
		if quad {
			v1, v2, v3 = a1[i], a2[i], a3[i]
		}
		if v0 != 0 || v1 != 0 || v2 != 0 || v3 != 0 { // -0 is zero; NaN is not
			p := &taps[n]
			p.off, p.v[0], p.v[1], p.v[2], p.v[3] = off, v0, v1, v2, v3
			n++
		}
		// Step to row kk+1 without dividing.
		off++
		if kx++; kx == rows.kw {
			kx = 0
			off += rowStep - 1
			if ky++; ky == rows.kh {
				ky = 0
				off += chanStep - rowStep
			}
		}
	}
	return taps[:n]
}

// quadPass is one pass of a four-row quad: it accumulates the products of
// A steps [k0, k1) into the rows d[r*ldc:][:width], starting from zero
// when k0 is 0 and otherwise from the sums the last pass stored there.
// Each kernel level runs it (runQuadPass) with its own stack buffer for
// the packed taps: a buffer passed through the function value would
// escape to the heap.
type quadPass struct {
	d          []float32
	ldc, width int
	a          []float32 // the quad's four A rows, k apart
	k, k0, k1  int
	b          []float32
	rows       bRows
	jb         int
}

// pack packs the pass's taps into buf.
func (p *quadPass) pack(buf *[gemmKC]tap) []tap {
	return packTaps(buf[:0], p.a, p.k, true, p.rows, p.k0, p.k1, p.jb)
}

// axpyPass is the quad pass of the levels without a tile: one axpy call
// per packed tap over dst.
func axpyPass(axpy func(d0, d1, d2, d3, b []float32, v0, v1, v2, v3 float32), p quadPass) {
	var buf [gemmKC]tap
	taps := p.pack(&buf)
	d0 := p.d[:p.width]
	d1 := p.d[p.ldc:][:p.width]
	d2 := p.d[2*p.ldc:][:p.width]
	d3 := p.d[3*p.ldc:][:p.width]
	if p.k0 == 0 {
		clear(d0)
		clear(d1)
		clear(d2)
		clear(d3)
	}
	for _, t := range taps {
		axpy(d0, d1, d2, d3, p.b[t.off:][:p.width], t.v[0], t.v[1], t.v[2], t.v[3])
	}
}
