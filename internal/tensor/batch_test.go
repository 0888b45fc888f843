package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// The blocked GEMM must agree with the naive reference loop. Tolerance is
// zero: both kernels accumulate each output element in ascending-k order,
// and skipping zero terms is exact in IEEE arithmetic, so the results are
// bit-identical, which is what keeps the batched inference path
// result-identical to the sequential reference at the engine level.
func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.IntN(70)
		k := 1 + rng.IntN(300)
		n := 1 + rng.IntN(400)
		a, b := New(m, k), New(k, n)
		a.RandN(rng, 1)
		b.RandN(rng, 1)
		// Inject sparsity so the zero-skip paths are exercised.
		for i := range a.Data {
			if rng.Float64() < 0.3 {
				a.Data[i] = 0
			}
		}
		want := MatMul(a, b)
		got := MatMulInto(nil, a, b)
		requireBitEqual(t, "MatMulInto", got, want)
		// Reused dirty dst.
		dirty := New(m, n)
		dirty.Fill(999)
		requireBitEqual(t, "MatMulInto reuse", MatMulInto(dirty, a, b), want)
	}
}

// The GEMM runs on the calling goroutine whatever the worker argument and
// processor count, so a multiply into a preallocated dst allocates
// nothing: no goroutines, no wait group, no closures.
func TestMatMulBiasActAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a, b := New(16, 144), New(144, 4096)
	rng := rand.New(rand.NewPCG(13, 0))
	a.RandN(rng, 1)
	b.RandN(rng, 1)
	bias := make([]float32, 16)
	dst := New(16, 4096)
	allocs := testing.AllocsPerRun(5, func() {
		MatMulBiasAct(dst, a, b, bias, ActLeakyReLU, 0.1, 0)
	})
	if allocs != 0 {
		t.Fatalf("MatMulBiasAct into a preallocated dst: %.1f allocs per call, want 0", allocs)
	}
}

func requireBitEqual(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got.Data[i], want.Data[i])
		}
	}
}

// Property test for the whole batched convolution lowering: for random
// batch sizes, channel counts, spatial sizes, kernels, strides and
// paddings, Im2ColBatchInto + the blocked GEMM must match the direct
// Conv2DNaive reference on every frame of the batch.
func TestBatchedConvMatchesNaivePerFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 0))
	for trial := 0; trial < 30; trial++ {
		batch := 1 + rng.IntN(7)
		c := 1 + rng.IntN(4)
		outC := 1 + rng.IntN(6)
		kk := 1 + rng.IntN(3)
		stride := 1 + rng.IntN(2)
		pad := rng.IntN(kk) // padding < kernel keeps the output non-empty
		h := kk + rng.IntN(14)
		w := kk + rng.IntN(14)
		p := ConvParams{KH: kk, KW: kk, Stride: stride, Padding: pad}
		oh, ow := p.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}

		frames := make([]*Tensor, batch)
		fm := New(c, batch, h, w) // feature-major batch
		for f := 0; f < batch; f++ {
			frames[f] = New(c, h, w)
			frames[f].RandN(rng, 1)
			for ci := 0; ci < c; ci++ {
				copy(fm.Data[(ci*batch+f)*h*w:(ci*batch+f+1)*h*w],
					frames[f].Data[ci*h*w:(ci+1)*h*w])
			}
		}
		weights := New(outC, c, kk, kk)
		weights.RandN(rng, 0.5)
		bias := New(outC)
		bias.RandN(rng, 0.5)

		// Batched path: im2col into a dirty scratch, one GEMM.
		cols := New(c*kk*kk, batch*oh*ow)
		cols.Fill(7)
		Im2ColBatchInto(cols, fm, p)
		out := MatMulInto(nil, weights.Reshape(outC, c*kk*kk), cols)
		for o := 0; o < outC; o++ {
			row := out.Data[o*batch*oh*ow : (o+1)*batch*oh*ow]
			for i := range row {
				row[i] += bias.Data[o]
			}
		}

		for f := 0; f < batch; f++ {
			want := Conv2DNaive(frames[f], weights, bias, p)
			for o := 0; o < outC; o++ {
				for s := 0; s < oh*ow; s++ {
					got := out.Data[(o*batch+f)*oh*ow+s]
					if math.Abs(float64(got-want.Data[o*oh*ow+s])) > 1e-4 {
						t.Fatalf("trial %d (B=%d c=%d outC=%d k=%d s=%d p=%d %dx%d): frame %d out[%d,%d] = %g, want %g",
							trial, batch, c, outC, kk, stride, pad, h, w, f, o, s, got, want.Data[o*oh*ow+s])
					}
				}
			}
		}
	}
}

// ConvBatchInto's shifted-row GEMM must reproduce the im2col lowering it
// replaces bit for bit — Im2ColBatchInto, MatMulBiasAct with the fused
// activation, then MaxPool2DBatchInto when pooling — under every kernel
// level, on ragged channel counts, batch widths, plane sizes, kernels and
// paddings with
// signed zeros, denormals, NaN, ±Inf and all-zero weight quads, and with
// dirty working memory.
func TestConvBatchIntoMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0))
	inf := float32(math.Inf(1))
	dirty := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = 7
		}
		return s
	}
	// c, n, h, w, outC, kernel, pad: random small shapes, then three whose
	// wide output exceeds convWideFloats, so it is made in frame groups.
	shapes := make([][7]int, 0, 43)
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, [7]int{1 + rng.IntN(6), 1 + rng.IntN(5), 1 + rng.IntN(13), 1 + rng.IntN(13),
			1 + rng.IntN(10), 1 + rng.IntN(3), rng.IntN(3)}) // pad > kernel/2 widens the shared borders
	}
	shapes = append(shapes, [7]int{2, 7, 40, 37, 12, 3, 1}, [7]int{3, 5, 48, 48, 8, 3, 1}, [7]int{5, 9, 24, 30, 13, 1, 0})
	for trial, sh := range shapes {
		c, n, h, w, outC, kk, pad := sh[0], sh[1], sh[2], sh[3], sh[4], sh[5], sh[6]
		p := ConvParams{KH: kk, KW: kk, Stride: 1, Padding: pad}
		oh, ow := p.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}
		in := New(c, n, h, w)
		awkwardFloats(rng, in.Data)
		in.Data[rng.IntN(in.Len())] = float32(math.NaN())
		in.Data[rng.IntN(in.Len())] = -inf
		weights := New(outC, c, kk, kk)
		awkwardFloats(rng, weights.Data)
		for i := 0; i+4 <= outC; i += 4 { // all-zero quad taps
			for j := 0; j < c*kk*kk; j++ {
				if rng.IntN(3) == 0 {
					for r := i; r < i+4; r++ {
						weights.Data[r*c*kk*kk+j] = 0
					}
				}
			}
		}
		bias := make([]float32, outC)
		awkwardFloats(rng, bias)
		act := Act(rng.IntN(3))
		pool := 1
		if oh >= 2 && ow >= 2 && (rng.IntN(2) == 0 || trial == len(shapes)-1) {
			pool = 2
		}

		withEveryKernel(t, func(t *testing.T, kernel string) {
			cols := Im2ColBatchInto(nil, in, p)
			want := MatMulBiasAct(nil, weights.Reshape(outC, c*kk*kk), cols, bias, act, 0.1, 1)
			want.Shape = []int{outC, n, oh, ow}
			if pool > 1 {
				want = MaxPool2DBatchInto(nil, want, pool)
			}
			got := ConvBatchInto(dirty, in, weights, bias, p, act, 0.1, pool)
			if !got.SameShape(want) {
				t.Fatalf("trial %d: shape %v, want %v", trial, got.Shape, want.Shape)
			}
			label := fmt.Sprintf("trial %d (c=%d n=%d %dx%d outC=%d k=%d pad=%d act=%d pool=%d)",
				trial, c, n, h, w, outC, kk, pad, act, pool)
			requireBits(t, label, kernel, got.Data, want.Data)
		})
	}
}

// Batched pooling and GAP must match their single-frame references
// bit-for-bit on every frame.
func TestBatchedPoolingMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	for trial := 0; trial < 20; trial++ {
		batch := 1 + rng.IntN(6)
		c := 1 + rng.IntN(5)
		k := 1 + rng.IntN(3)
		h := k * (1 + rng.IntN(8))
		w := k * (1 + rng.IntN(8))
		fm := New(c, batch, h, w)
		fm.RandN(rng, 1)
		frame := func(f int) *Tensor {
			out := New(c, h, w)
			for ci := 0; ci < c; ci++ {
				copy(out.Data[ci*h*w:(ci+1)*h*w], fm.Data[(ci*batch+f)*h*w:(ci*batch+f+1)*h*w])
			}
			return out
		}

		pooled := MaxPool2DBatchInto(nil, fm, k)
		gap := GlobalAvgPoolBatchInto(nil, fm)
		oh, ow := h/k, w/k
		for f := 0; f < batch; f++ {
			single, _ := MaxPool2D(frame(f), k)
			for ci := 0; ci < c; ci++ {
				for s := 0; s < oh*ow; s++ {
					if pooled.Data[(ci*batch+f)*oh*ow+s] != single.Data[ci*oh*ow+s] {
						t.Fatalf("maxpool frame %d ch %d pos %d diverged", f, ci, s)
					}
				}
			}
			g := GlobalAvgPool(frame(f))
			for ci := 0; ci < c; ci++ {
				if gap.Data[ci*batch+f] != g.Data[ci] {
					t.Fatalf("gap frame %d ch %d: %g vs %g", f, ci, gap.Data[ci*batch+f], g.Data[ci])
				}
			}
		}
	}
}

// SwapBatchChannel is an involution that actually transposes.
func TestSwapBatchChannel(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 0))
	in := New(3, 5, 2, 4)
	in.RandN(rng, 1)
	out := SwapBatchChannel(nil, in)
	if out.Shape[0] != 5 || out.Shape[1] != 3 {
		t.Fatalf("swapped shape %v", out.Shape)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			for s := 0; s < 8; s++ {
				if out.Data[(j*3+i)*8+s] != in.Data[(i*5+j)*8+s] {
					t.Fatalf("swap mismatch at (%d,%d,%d)", i, j, s)
				}
			}
		}
	}
	back := SwapBatchChannel(New(3, 5, 2, 4), out)
	requireBitEqual(t, "swap involution", back, in)
}
