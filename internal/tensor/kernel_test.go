package tensor

import (
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

// Every compiled axpyQuad variant must produce bit-identical accumulators
// on ragged lengths covering all lane tails (0..67 spans the 8-wide body,
// the 4-wide body and every scalar remainder).
func TestAxpyQuadVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0))
	for n := 0; n <= 67; n++ {
		b := make([]float32, n)
		d := make([][]float32, 4)
		awkwardFloats(rng, b)
		for r := range d {
			d[r] = make([]float32, n)
			awkwardFloats(rng, d[r])
		}
		vs := [4]float32{float32(rng.NormFloat64()), 0, float32(math.Copysign(0, -1)), float32(rng.NormFloat64())}

		want := make([][]float32, 4)
		for r := range want {
			want[r] = append([]float32(nil), d[r]...)
		}
		axpyQuadGeneric(want[0], want[1], want[2], want[3], b, vs[0], vs[1], vs[2], vs[3])

		withEveryKernel(t, func(t *testing.T, kernel string) {
			got := make([][]float32, 4)
			for r := range got {
				got[r] = append([]float32(nil), d[r]...)
			}
			axpyQuad(got[0], got[1], got[2], got[3], b, vs[0], vs[1], vs[2], vs[3])
			for r := range got {
				requireBits(t, "axpyQuad", kernel, got[r], want[r])
			}
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

// Every compiled k=2 pooling row variant must reproduce the scalar fold —
// first tap wins ties (signed zeros) and NaN never displaces an earlier
// value — on ragged output widths covering every 8-wide tail.
func TestMaxPool2RowVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 0))
	nan := float32(math.NaN())
	for n := 0; n <= 67; n++ {
		r0 := make([]float32, 2*n)
		r1 := make([]float32, 2*n)
		awkwardFloats(rng, r0)
		awkwardFloats(rng, r1)
		if n > 0 {
			r0[rng.IntN(2*n)] = nan
			r1[rng.IntN(2*n)] = nan
		}
		want := make([]float32, n)
		maxPool2RowGeneric(want, r0, r1)
		withEveryKernel(t, func(t *testing.T, kernel string) {
			got := make([]float32, n)
			maxPool2Row(got, r0, r1)
			requireBits(t, "maxPool2Row", kernel, got, want)
		})
	}
}

// The full blocked GEMM must agree bit-for-bit with the naive reference
// under every kernel level — the end-to-end guarantee the per-lane tests
// above underwrite.
func TestGEMMBitIdenticalAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 0))
	for trial := 0; trial < 8; trial++ {
		m := 1 + rng.IntN(9)
		k := 1 + rng.IntN(40)
		n := 1 + rng.IntN(150)
		a, b := New(m, k), New(k, n)
		a.RandN(rng, 1)
		b.RandN(rng, 1)
		bias := make([]float32, m)
		awkwardFloats(rng, bias)
		want := MatMul(a, b)
		epi := want.Clone()
		for i := 0; i < m; i++ {
			epilogueRowGeneric(epi.Data[i*n:(i+1)*n], bias[i], ActLeakyReLU, 0.1)
		}
		withEveryKernel(t, func(t *testing.T, kernel string) {
			requireBits(t, "MatMulInto", kernel, MatMulInto(nil, a, b).Data, want.Data)
			requireBits(t, "MatMulBiasAct", kernel,
				MatMulBiasAct(nil, a, b, bias, ActLeakyReLU, 0.1, 1).Data, epi.Data)
		})
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
