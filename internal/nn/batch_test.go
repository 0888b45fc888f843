package nn

import (
	"math/rand/v2"
	"testing"

	"vmq/internal/tensor"
)

// randomFrames builds a batch-major NCHW tensor and the per-frame CHW
// views of the same data.
func randomFrames(rng *rand.Rand, n, c, img int) (*tensor.Tensor, []*tensor.Tensor) {
	batch := tensor.New(n, c, img, img)
	batch.RandN(rng, 1)
	frames := make([]*tensor.Tensor, n)
	for f := 0; f < n; f++ {
		frames[f] = tensor.FromSlice(batch.Data[f*c*img*img:(f+1)*c*img*img], c, img, img)
	}
	return batch, frames
}

// ForwardBatch must be bit-identical per frame to the per-frame Forward
// path: both accumulate every output element in ascending-k order, so no
// tolerance is needed. This is the property that keeps batched engine
// execution result-identical to the sequential reference.
func TestCountLocNetForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	for _, tc := range []struct {
		name string
		od   bool
		n    int
	}{
		{"ic-b1", false, 1},
		{"ic-b5", false, 5},
		{"od-b7", true, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const img, d, classes = 32, 16, 3
			var backbone *Sequential
			if tc.od {
				backbone = ODBackbone(rng, 3, img, d)
			} else {
				backbone = ICBackbone(rng, 3, img, d)
			}
			net := NewCountLocNet(rng, backbone, d, img/4, classes)
			batch, frames := randomFrames(rng, tc.n, 3, img)

			ar := &Arena{}
			ar.Reset()
			counts, maps := net.ForwardBatch(ar, batch)
			if counts.Shape[0] != tc.n || counts.Shape[1] != classes {
				t.Fatalf("counts shape %v", counts.Shape)
			}
			g := img / 4
			if maps.Shape[0] != tc.n || maps.Shape[1] != classes || maps.Shape[2] != g {
				t.Fatalf("maps shape %v", maps.Shape)
			}
			for f := 0; f < tc.n; f++ {
				wc, wm := net.Forward(frames[f])
				for ci := 0; ci < classes; ci++ {
					if got := counts.Data[f*classes+ci]; got != wc.Data[ci] {
						t.Fatalf("frame %d class %d count = %g, want %g", f, ci, got, wc.Data[ci])
					}
				}
				for i := 0; i < classes*g*g; i++ {
					if got := maps.Data[f*classes*g*g+i]; got != wm.Data[i] {
						t.Fatalf("frame %d map elem %d = %g, want %g", f, i, got, wm.Data[i])
					}
				}
			}

			// A second pass over the same arena (dirty buffers) must agree.
			ar.Reset()
			counts2, _ := net.ForwardBatch(ar, batch)
			for i := range counts.Data {
				if counts2.Data[i] != counts.Data[i] {
					t.Fatalf("arena reuse changed counts at %d", i)
				}
			}
		})
	}
}

func TestCountOnlyNetForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 0))
	const img = 32
	net := NewCountOnlyNet(rng, 3, img)
	batch, frames := randomFrames(rng, 6, 3, img)
	ar := &Arena{}
	ar.Reset()
	out := net.ForwardBatch(ar, batch)
	if out.Len() != 6 {
		t.Fatalf("batch output length %d", out.Len())
	}
	for f, frame := range frames {
		want := net.Forward(frame)
		if got := float64(out.Data[f]); got != want {
			t.Fatalf("frame %d total = %g, want %g", f, got, want)
		}
	}
}

// Sequential.ForwardBatch handles a conv stack ending in GAP + Linear (the
// COF topology) and plain conv outputs alike, and a Linear directly after
// a spatial layer flattens frames in the same order Forward does.
func TestSequentialForwardBatchFlatten(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 0))
	const img = 8
	seq := &Sequential{Layers: []Layer{
		NewConv2D(rng, 2, 4, 3, 1, 1),
		&ReLU{},
		NewLinear(rng, 4*img*img, 5),
	}}
	batch, frames := randomFrames(rng, 3, 2, img)
	ar := &Arena{}
	ar.Reset()
	out := seq.ForwardBatch(ar, batch)
	if out.Shape[0] != 3 || out.Shape[1] != 5 {
		t.Fatalf("output shape %v", out.Shape)
	}
	for f, frame := range frames {
		want := seq.Forward(frame)
		for o := 0; o < 5; o++ {
			if got := out.Data[f*5+o]; got != want.Data[o] {
				t.Fatalf("frame %d out %d = %g, want %g", f, o, got, want.Data[o])
			}
		}
	}
}

// The batched pass must not allocate per frame: a 32-frame ForwardBatch on
// a warmed arena performs at least 5x fewer allocations than 32 per-frame
// Forwards (the acceptance bar; in practice it is closer to 100x).
func TestForwardBatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 0))
	const img, d, classes, b = 32, 16, 2, 32
	net := NewCountLocNet(rng, ICBackbone(rng, 3, img, d), d, img/4, classes)
	batch, frames := randomFrames(rng, b, 3, img)
	ar := &Arena{}
	ar.Reset()
	net.ForwardBatch(ar, batch) // warm the arena
	batched := testing.AllocsPerRun(3, func() {
		ar.Reset()
		net.ForwardBatch(ar, batch)
	})
	perFrame := testing.AllocsPerRun(3, func() {
		for _, f := range frames {
			net.Forward(f)
		}
	})
	if batched*5 > perFrame {
		t.Fatalf("batched pass allocates %.0f for %d frames vs %.0f per-frame — want >=5x fewer", batched, b, perFrame)
	}
}

// A warmed ForwardBatch allocates nothing at all: the arena reuses its
// tensor headers and shape slices as well as its buffers, for every
// network the trained filters serve and the flattening Linear path.
func TestForwardBatchWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 0))
	const img, d, classes = 32, 16, 3
	od := NewCountLocNet(rng, ODBackbone(rng, 3, img, d), d, img/4, classes)
	ic := NewCountLocNet(rng, ICBackbone(rng, 3, img, d), d, img/4, classes)
	cof := NewCountOnlyNet(rng, 3, img)
	flat := &Sequential{Layers: []Layer{NewConv2D(rng, 3, 4, 3, 1, 1), &ReLU{}, NewLinear(rng, 4*img*img, 5)}}
	for _, tc := range []struct {
		name string
		fwd  func(*Arena, *tensor.Tensor)
	}{
		{"od", func(ar *Arena, b *tensor.Tensor) { od.ForwardBatch(ar, b) }},
		{"ic", func(ar *Arena, b *tensor.Tensor) { ic.ForwardBatch(ar, b) }},
		{"cof", func(ar *Arena, b *tensor.Tensor) { cof.ForwardBatch(ar, b) }},
		{"flatten", func(ar *Arena, b *tensor.Tensor) { flat.ForwardBatch(ar, b) }},
	} {
		for _, n := range []int{1, 7, 32} {
			batch, _ := randomFrames(rng, n, 3, img)
			ar := &Arena{}
			tc.fwd(ar, batch) // warm the arena
			if allocs := testing.AllocsPerRun(5, func() {
				ar.Reset()
				tc.fwd(ar, batch)
			}); allocs != 0 {
				t.Errorf("%s at width %d: warmed ForwardBatch allocates %v times, want 0", tc.name, n, allocs)
			}
		}
	}
}

// ForwardFlops must be positive and track the architecture monotonically.
func TestForwardFlops(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 0))
	const img, d, classes = 32, 16, 3
	net := NewCountLocNet(rng, ODBackbone(rng, 3, img, d), d, img/4, classes)

	fl := net.ForwardFlops(3, img, img)
	if fl <= 0 {
		t.Fatalf("ForwardFlops = %d, want positive", fl)
	}
	// A deeper/wider net must cost more.
	big := NewCountLocNet(rng, ODBackbone(rng, 3, img, 2*d), 2*d, img/4, classes)
	if bfl := big.ForwardFlops(3, img, img); bfl <= fl {
		t.Fatalf("wider backbone ForwardFlops %d not > %d", bfl, fl)
	}
	cof := NewCountOnlyNet(rng, 3, img)
	if cfl := cof.ForwardFlops(3, img, img); cfl <= 0 {
		t.Fatalf("CountOnlyNet.ForwardFlops = %d, want positive", cfl)
	}
}
