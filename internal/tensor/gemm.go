package tensor

import "fmt"

// The blocked GEMM below is the inference hot path: Conv2D lowers to one
// matrix multiply per layer, and with batching those multiplies are large
// enough that the naive ikj loop of MatMul thrashes cache. The kernel
// blocks the output columns so the active segments of dst stay L1-resident
// while four rows accumulate per pass, and the per-row bias and activation
// epilogue runs on each column block while it is still cache-hot — the
// whole conv layer makes a single streaming pass over its output instead
// of three.
//
// Accumulation order is load-bearing: every output element is a sum of
// terms in ascending-k order with the bias added after the sum, exactly
// like the naive per-frame path, and that order does not depend on how
// rows or columns are blocked. Batched and single-frame forwards therefore
// produce bit-identical per-frame results.
//
// The multiply always runs on the calling goroutine. How many cores one
// batch evaluation uses is decided once, above this package: the trained
// filter backends hand the rasteriser its worker count, and nothing below
// them fans out.

// gemmNC is the column block: 4 dst segments of gemmNC floats plus one
// b-row segment must stay L1-resident across the k loop.
const gemmNC = 1024

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
	gemmBlocked(dst.Data, a.Data, b.Data, m, k, n, bias, act, slope)
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

// gemmBlocked computes dst = act(a×b + bias), overwriting dst.
func gemmBlocked(dst, a, b []float32, m, k, n int, bias []float32, act Act, slope float32) {
	for jb := 0; jb < n; jb += gemmNC {
		jEnd := jb + gemmNC
		if jEnd > n {
			jEnd = n
		}
		i := 0
		for ; i+4 <= m; i += 4 {
			gemmQuadRows(dst, a, b, i, k, n, jb, jEnd)
			if bias != nil || act != ActNone {
				for r := i; r < i+4; r++ {
					epilogueRow(dst[r*n+jb:r*n+jEnd], biasAt(bias, r), act, slope)
				}
			}
		}
		for ; i < m; i++ {
			gemmOneRow(dst, a, b, i, k, n, jb, jEnd)
			if bias != nil || act != ActNone {
				epilogueRow(dst[i*n+jb:i*n+jEnd], biasAt(bias, i), act, slope)
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

// gemmQuadRows accumulates four output rows over one column block. The b
// row segment is read once per quad instead of once per row, and the four
// independent accumulator streams give the scalar inner loop
// instruction-level parallelism. All row slices are cut to the same width
// so the compiler can prove the indexing in range and drop bounds checks.
func gemmQuadRows(dst, a, b []float32, i, k, n, jb, jEnd int) {
	width := jEnd - jb
	a0 := a[i*k : (i+1)*k]
	a1 := a[(i+1)*k : (i+2)*k]
	a2 := a[(i+2)*k : (i+3)*k]
	a3 := a[(i+3)*k : (i+4)*k]
	d0 := dst[i*n+jb:][:width]
	d1 := dst[(i+1)*n+jb:][:width]
	d2 := dst[(i+2)*n+jb:][:width]
	d3 := dst[(i+3)*n+jb:][:width]
	for j := range d0 {
		d0[j] = 0
	}
	for j := range d1 {
		d1[j] = 0
	}
	for j := range d2 {
		d2[j] = 0
	}
	for j := range d3 {
		d3[j] = 0
	}
	for kk := 0; kk < k; kk++ {
		v0, v1, v2, v3 := a0[kk], a1[kk], a2[kk], a3[kk]
		if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
			continue // zero taps contribute nothing; skipping is exact
		}
		brow := b[kk*n+jb:][:width]
		axpyQuad(d0, d1, d2, d3, brow, v0, v1, v2, v3)
	}
}

// gemmOneRow accumulates one output row over a column block (m%4 tail).
func gemmOneRow(dst, a, b []float32, i, k, n, jb, jEnd int) {
	width := jEnd - jb
	arow := a[i*k : (i+1)*k]
	drow := dst[i*n+jb:][:width]
	for j := range drow {
		drow[j] = 0
	}
	for kk := 0; kk < k; kk++ {
		av := arow[kk]
		if av == 0 {
			continue
		}
		brow := b[kk*n+jb:][:width]
		for j, bv := range brow {
			drow[j] += av * bv
		}
	}
}
