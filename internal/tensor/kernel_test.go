package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// withEveryKernel runs f once per kernel level selectable on this CPU,
// restoring the auto-selected kernel afterwards. On amd64 this covers
// generic + sse (+ avx2/avx512 on modern hardware); elsewhere generic
// only.
func withEveryKernel(t *testing.T, f func(t *testing.T, kernel string)) {
	t.Helper()
	prev := Kernel()
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range Kernels() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		f(t, name)
	}
}

// awkwardFloats seeds inputs with the values where SIMD shortcuts diverge
// from scalar semantics if the kernel is not a true select: signed zeros,
// denormals (whose products underflow to signed zero), and values that
// straddle the activation threshold.
func awkwardFloats(rng *rand.Rand, dst []float32) {
	for i := range dst {
		switch rng.IntN(8) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = float32(math.Copysign(0, -1))
		case 2:
			dst[i] = math.Float32frombits(uint32(1 + rng.IntN(16))) // tiny denormal
		case 3:
			dst[i] = -math.Float32frombits(uint32(1 + rng.IntN(16)))
		default:
			dst[i] = float32(rng.NormFloat64())
		}
	}
}

func requireBits(t *testing.T, label string, kernel string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: kernel %s diverges at %d: %g (%#x) vs %g (%#x)",
				label, kernel, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// Every level's GEMM quad pass — the axpyQuad loop on generic and sse,
// the register-blocked tile on avx2 and avx512 — must add one tap's
// products to dirty accumulators bit-identically to axpyQuadGeneric on
// ragged widths covering all lane tails (1..67 spans the 64-, 16-, 8- and
// 4-wide bodies and every remainder).
func TestAxpyQuadVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0))
	for n := 1; n <= 67; n++ {
		b := make([]float32, n)
		d := make([]float32, 4*n) // four rows, n apart
		awkwardFloats(rng, b)
		awkwardFloats(rng, d)
		vs := [4]float32{float32(rng.NormFloat64()), 0, float32(math.Copysign(0, -1)), float32(rng.NormFloat64())}
		a := []float32{0, vs[0], 0, vs[1], 0, vs[2], 0, vs[3]} // step 1 of four 2-step rows: one tap at B row 1
		bb := append(make([]float32, n), b...)

		want := append([]float32(nil), d...)
		axpyQuadGeneric(want[:n], want[n:2*n], want[2*n:3*n], want[3*n:], b, vs[0], vs[1], vs[2], vs[3])

		withEveryKernel(t, func(t *testing.T, kernel string) {
			got := append([]float32(nil), d...)
			runQuadPass(quadPass{d: got, ldc: n, width: n, a: a, k: 2, k0: 1, k1: 2, b: bb, rows: bRows{1, 1, n, 0}})
			requireBits(t, "quad pass", kernel, got, want)
		})
	}
}

// Every compiled epilogue variant must apply bias + activation with the
// exact select semantics of the scalar reference, including on signed
// zeros, denormal underflow (v*slope rounding to -0) and NaN.
func TestEpilogueVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	nan := float32(math.NaN())
	for n := 0; n <= 67; n++ {
		seg := make([]float32, n)
		awkwardFloats(rng, seg)
		if n > 0 {
			seg[rng.IntN(n)] = nan
		}
		for _, act := range []Act{ActNone, ActReLU, ActLeakyReLU} {
			for _, bias := range []float32{0, float32(math.Copysign(0, -1)), float32(rng.NormFloat64())} {
				want := append([]float32(nil), seg...)
				epilogueRowGeneric(want, bias, act, 0.1)
				withEveryKernel(t, func(t *testing.T, kernel string) {
					got := append([]float32(nil), seg...)
					epilogueRow(got, bias, act, 0.1)
					requireBits(t, "epilogue", kernel, got, want)
				})
			}
		}
	}
}

// Every compiled k=2 pooling variant must reproduce the scalar fold —
// first tap wins ties (signed zeros) and NaN never displaces an earlier
// value — on every output width up to 67, which covers each remainder
// length of the 16- and 8-wide blocks, both for a single row and for a
// multi-row plane read at a row stride wider than the pooled rows.
func TestMaxPool2RowVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 0))
	nan := float32(math.NaN())
	for n := 0; n <= 67; n++ {
		for _, shape := range [][2]int{{1, 2 * n}, {5, 2*n + 3}} {
			oh, stride := shape[0], shape[1]
			src := make([]float32, 2*oh*stride)
			awkwardFloats(rng, src)
			for i := 0; i < oh && n > 0; i++ {
				src[rng.IntN(len(src))] = nan
			}
			want := make([]float32, oh*n)
			maxPool2PlaneGeneric(want, src, oh, n, stride)
			withEveryKernel(t, func(t *testing.T, kernel string) {
				got := make([]float32, oh*n+1)
				got[oh*n] = 7 // the kernel must not write past its plane
				maxPool2(got[:oh*n], src, oh, n, stride)
				requireBits(t, fmt.Sprintf("maxPool2 %dx%d stride %d", oh, n, stride), kernel, got, append(want, 7))
			})
		}
	}
}

// gemmOperands returns an m×k A and a k×n B of awkward values. A gets
// all-zero four-row quads at about a third of its k steps, so the packed
// zero-tap skip runs; with special set, both also get NaNs of several
// payloads and ±Inf.
func gemmOperands(rng *rand.Rand, m, k, n int, special bool) (a, b *Tensor) {
	a, b = New(m, k), New(k, n)
	awkwardFloats(rng, a.Data)
	awkwardFloats(rng, b.Data)
	for i := 0; i+4 <= m; i += 4 {
		for kk := 0; kk < k; kk++ {
			if rng.IntN(3) == 0 {
				for r := i; r < i+4; r++ {
					a.Data[r*k+kk] = float32(math.Copysign(0, float64(rng.IntN(2)-1)))
				}
			}
		}
	}
	if special {
		specials := []float32{
			float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc01234), math.Float32frombits(0xffc00567),
		}
		for _, t := range []*Tensor{a, b} {
			for i := 0; i < 1+t.Len()/50; i++ {
				t.Data[rng.IntN(t.Len())] = specials[rng.IntN(len(specials))]
			}
		}
	}
	return a, b
}

// gemmShapes covers every column tail of the 64-, 16- and 8-wide tiles
// (n up to 140 at small k), k beyond one packed pass (gemmKC) and beyond
// the 288 of CountOnlyNet's 32→16 3×3 conv, several column blocks (at
// gemmNC, and narrower ones at large k), and m with and without a
// partial quad.
func gemmShapes() [][3]int {
	var shapes [][3]int
	for n := 1; n <= 140; n++ {
		shapes = append(shapes, [3]int{5 + n%4, 3 + n%7, n})
	}
	return append(shapes, [3]int{8, 300, 300}, [3]int{9, 301, 333}, [3]int{4, 27, 2100}, [3]int{6, 520, 70}, [3]int{1, 1, 1})
}

// The full blocked GEMM must agree bit-for-bit with the naive reference
// under every kernel level — the end-to-end guarantee the per-lane tests
// above underwrite.
//
// With NaN and ±Inf in the operands the naive loop's per-element zero
// skip (0·Inf is NaN) no longer matches the GEMM's per-quad skip, so the
// levels are held to each other instead. The assembly levels share one
// operand order (B first in the multiply, the accumulator first in the
// add), so they agree NaN payloads included, and are held to "sse". The
// generic loop is Go code: gc fuses the accumulator load into ADDSS as
// the second source, so where two NaNs of different payloads meet in one
// sum it keeps the other payload; it is held to the same values and the
// same NaN positions.
func TestGEMMBitIdenticalAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 0))
	for _, sh := range gemmShapes() {
		m, k, n := sh[0], sh[1], sh[2]
		label := fmt.Sprintf("%dx%dx%d", m, k, n)
		a, b := gemmOperands(rng, m, k, n, false)
		bias := make([]float32, m)
		awkwardFloats(rng, bias)
		want := MatMul(a, b)
		epi := want.Clone()
		for i := 0; i < m; i++ {
			epilogueRowGeneric(epi.Data[i*n:(i+1)*n], bias[i], ActLeakyReLU, 0.1)
		}
		withEveryKernel(t, func(t *testing.T, kernel string) {
			requireBits(t, "MatMulInto "+label, kernel, MatMulInto(nil, a, b).Data, want.Data)
			requireBits(t, "MatMulBiasAct "+label, kernel,
				MatMulBiasAct(nil, a, b, bias, ActLeakyReLU, 0.1, 1).Data, epi.Data)
		})

		a, b = gemmOperands(rng, m, k, n, true)
		got := map[string][]float32{}
		withEveryKernel(t, func(t *testing.T, kernel string) {
			dst := New(m, n)
			dst.Fill(float32(math.NaN())) // a stale value must not leak through
			got[kernel] = MatMulBiasAct(dst, a, b, bias, ActLeakyReLU, 0.1, 1).Data
		})
		ref := got["sse"]
		if ref == nil {
			continue // generic is the only level
		}
		for kernel, data := range got {
			if kernel != "generic" {
				requireBits(t, "MatMulBiasAct NaN/Inf "+label, kernel, data, ref)
				continue
			}
			for i := range ref {
				if x, y := data[i], ref[i]; math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
					t.Fatalf("MatMulBiasAct NaN/Inf %s: kernel generic diverges at %d: %g vs %g", label, i, x, y)
				}
			}
		}
	}
}

// The rasteriser row primitives (Fill, AddClamp01) must be bit-identical
// across every selectable kernel level on ragged lengths covering the
// 16-wide, 8-wide and scalar tails, including out-of-range values (both
// clamps firing), signed zeros and NaN pass-through.
func TestFillAddClampVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 0))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for n := 0; n <= 67; n++ {
		base := make([]float32, n)
		add := make([]float32, n)
		awkwardFloats(rng, base)
		awkwardFloats(rng, add)
		for i := range add {
			if rng.IntN(3) == 0 {
				add[i] *= 5 // force both clamp branches to fire
			}
		}
		if n > 0 {
			add[rng.IntN(n)] = nan
		}
		wantFill := make([]float32, n)
		fillRowGeneric(wantFill, negZero)
		wantClamp := append([]float32(nil), base...)
		addClampRowGeneric(wantClamp, add)
		withEveryKernel(t, func(t *testing.T, kernel string) {
			gotF := make([]float32, n)
			Fill(gotF, negZero)
			requireBits(t, "fill", kernel, gotF, wantFill)
			gotC := append([]float32(nil), base...)
			AddClamp01(gotC, add)
			requireBits(t, "addClamp01", kernel, gotC, wantClamp)
		})
	}
}

// An unknown or unavailable VMQ_KERNEL value must fall back to the default
// level with a single warning line naming the available levels; valid
// values select silently. The retired fma level is an unknown value.
func TestVMQKernelStartupSelection(t *testing.T) {
	prevK := Kernel()
	defer func() {
		if err := SetKernel(prevK); err != nil {
			t.Error(err)
		}
	}()

	var buf strings.Builder
	initKernel("avx1024", &buf)
	if Kernel() != defaultKernelName() {
		t.Fatalf("unknown VMQ_KERNEL selected %q; want default %q", Kernel(), defaultKernelName())
	}
	warning := buf.String()
	if !strings.Contains(warning, `VMQ_KERNEL="avx1024"`) ||
		!strings.Contains(warning, "generic") ||
		!strings.Contains(warning, defaultKernelName()) {
		t.Fatalf("warning does not name the bad value, the fallback and the available levels: %q", warning)
	}
	if got := strings.Count(warning, "\n"); got != 1 {
		t.Fatalf("warning should be exactly one line, got %d: %q", got, warning)
	}

	buf.Reset()
	initKernel("", &buf)
	if buf.Len() != 0 || Kernel() != defaultKernelName() {
		t.Fatalf("empty VMQ_KERNEL: kernel %q, warning %q", Kernel(), buf.String())
	}

	buf.Reset()
	initKernel("generic", &buf)
	if buf.Len() != 0 || Kernel() != "generic" {
		t.Fatalf("VMQ_KERNEL=generic: kernel %q, warning %q", Kernel(), buf.String())
	}

	buf.Reset()
	initKernel("fma", &buf)
	if Kernel() != defaultKernelName() {
		t.Fatalf("VMQ_KERNEL=fma selected %q; want default %q", Kernel(), defaultKernelName())
	}
	if !strings.Contains(buf.String(), `VMQ_KERNEL="fma" is unknown or unavailable`) {
		t.Fatalf("VMQ_KERNEL=fma should take the unknown-value warning path, got %q", buf.String())
	}
}

// SetKernel must reject unknown levels and report the active one.
func TestSetKernelValidation(t *testing.T) {
	prev := Kernel()
	defer SetKernel(prev)
	if err := SetKernel("avx1024"); err == nil {
		t.Fatal("SetKernel accepted an unknown kernel")
	}
	if Kernel() != prev {
		t.Fatalf("failed SetKernel changed the active kernel to %q", Kernel())
	}
	for _, name := range Kernels() {
		if err := SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		if Kernel() != name {
			t.Fatalf("Kernel() = %q after SetKernel(%q)", Kernel(), name)
		}
	}
}
