package nn

import (
	"fmt"

	"vmq/internal/tensor"
)

// Batched inference
//
// ForwardBatch runs B frames through the network with one GEMM per layer
// instead of B, using the kernels of package tensor and a reusable
// activation arena so the steady-state hot path performs no per-frame
// allocations. Activations are kept in the feature-major batch layout
// (C×N×H×W, see tensor.SwapBatchChannel) between layers; the public entry
// points take batch-major NCHW and convert at the boundary. A convolution
// runs with the activation and the max pool that follow it as one
// tensor.ConvBatchInto call: its GEMM reads shifted rows of a
// zero-bordered copy of the input, so no im2col matrix is built, and the
// pool reads the GEMM's output in place.
//
// The batched pass is bit-identical to the per-frame Forward path: every
// kernel accumulates each output element in ascending-k order regardless
// of batch width, which is what lets the trained filter
// backends serve Evaluate and EvaluateBatch from one code path with
// results independent of how frames were grouped.
//
// ForwardBatch is inference-only: it records no caches for Backward. The
// naive per-frame Forward/Backward path remains the training
// implementation and the correctness reference the batched kernels are
// property-tested against. It supports stride-1 convolutions only, which
// is every convolution the networks here use.

// Arena is the reusable scratch allocator behind ForwardBatch. A forward
// pass grabs buffers in a deterministic sequence, so after the first call
// every buffer is reused and the pass allocates nothing per frame.
// ForwardBatch only reads the network, so concurrent passes over one
// network are safe with one Arena each — the trained filter backends run
// one per core on disjoint parts of a batch. An Arena (and any tensor
// returned from a ForwardBatch using it) must not be shared between
// concurrent passes; results are valid until the arena's next Reset.
type Arena struct {
	slots [][]float32
	next  int
}

// Reset rewinds the arena so the next forward pass reuses its buffers.
// Tensors handed out since the previous Reset become invalid.
func (a *Arena) Reset() { a.next = 0 }

// grab returns the next scratch buffer, growing it to n elements. The
// contents are arbitrary; kernels writing into arena tensors must not
// assume zeroed memory.
//
// Regrowth carries headroom: the server's cross-feed coalescing hands the
// same network batches whose width fluctuates run to run (a lone frame
// that found the evaluator idle, up to a merged run at the batch cap),
// and doubling-with-slack lets a ratcheting batch width settle
// after one reallocation instead of reallocating at each new maximum.
func (a *Arena) grab(n int) []float32 {
	if a.next == len(a.slots) {
		a.slots = append(a.slots, make([]float32, n))
	}
	s := a.slots[a.next]
	if cap(s) < n {
		c := 2 * cap(s)
		if c < n+n/4 {
			c = n + n/4
		}
		s = make([]float32, c)
		a.slots[a.next] = s
	}
	a.next++
	return s[:n]
}

// tensor returns an arena-backed tensor of the given shape with undefined
// contents.
func (a *Arena) tensor(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &tensor.Tensor{Shape: shape, Data: a.grab(n)}
}

// ForwardBatch runs a batch of inputs (leading batch dimension: N×C×H×W)
// through the layer stack and returns the batch-major output (N×C×OH×OW
// after a conv stack, N×C after GAP, N×out after a Linear head). The
// result is arena-backed: valid until the arena is next Reset. Per-frame
// results are bit-identical to Forward.
func (s *Sequential) ForwardBatch(ar *Arena, batch *tensor.Tensor) *tensor.Tensor {
	if batch.Rank() != 4 {
		panic(fmt.Sprintf("nn: ForwardBatch needs an NCHW batch, got %v", batch.Shape))
	}
	x := tensor.SwapBatchChannel(ar.tensor(batch.Shape...), batch)
	x = forwardBatchFM(ar, s.Layers, x)
	return tensor.SwapBatchChannel(ar.tensor(x.Shape...), x)
}

// forwardBatchFM runs the layers over a feature-major batch. A ReLU or
// LeakyReLU directly after a convolution, and a MaxPool after that, are
// fused into the convolution — same values, fewer sweeps over the
// activations.
func forwardBatchFM(ar *Arena, layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	for i := 0; i < len(layers); i++ {
		conv, ok := layers[i].(*Conv2D)
		if !ok {
			x = layerForwardBatchFM(ar, layers[i], x)
			continue
		}
		act, slope := tensor.ActNone, float32(0)
		if i+1 < len(layers) {
			switch a := layers[i+1].(type) {
			case *ReLU:
				act = tensor.ActReLU
				i++
			case *LeakyReLU:
				act, slope = tensor.ActLeakyReLU, a.Slope
				i++
			}
		}
		pool := 1
		if i+1 < len(layers) {
			if mp, ok := layers[i+1].(*MaxPool); ok {
				pool = mp.K
				i++
			}
		}
		x = convForwardBatchFM(ar, conv, x, act, slope, pool)
	}
	return x
}

func layerForwardBatchFM(ar *Arena, l Layer, x *tensor.Tensor) *tensor.Tensor {
	switch l := l.(type) {
	case *ReLU:
		for i, v := range x.Data {
			if v <= 0 {
				x.Data[i] = 0
			}
		}
		return x
	case *LeakyReLU:
		for i, v := range x.Data {
			if v <= 0 {
				x.Data[i] = v * l.Slope
			}
		}
		return x
	case *MaxPool:
		c, n, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
		return tensor.MaxPool2DBatchInto(ar.tensor(c, n, h/l.K, w/l.K), x, l.K)
	case *GlobalAvgPool:
		return tensor.GlobalAvgPoolBatchInto(ar.tensor(x.Shape[0], x.Shape[1]), x)
	case *Linear:
		return linearForwardBatchFM(ar, l, x)
	case *Sequential:
		return forwardBatchFM(ar, l.Layers, x)
	default:
		panic(fmt.Sprintf("nn: ForwardBatch has no batched path for layer type %T", l))
	}
}

// convForwardBatchFM runs a convolution, the activation act and a
// pool×pool max pool (pool 1: none) over a feature-major batch with
// tensor.ConvBatchInto, all working memory from the arena.
func convForwardBatchFM(ar *Arena, l *Conv2D, x *tensor.Tensor, act tensor.Act, slope float32, pool int) *tensor.Tensor {
	if l.P.Stride != 1 {
		panic(fmt.Sprintf("nn: ForwardBatch has no batched path for stride-%d convolutions", l.P.Stride))
	}
	return tensor.ConvBatchInto(ar.grab, x, l.W.Value, l.B.Value.Data, l.P, act, slope, pool)
}

// linearForwardBatchFM applies a fully connected layer to a feature-major
// batch: one GEMM of the out×in weights against the in×N activation
// matrix. Inputs with spatial extent are flattened per frame in the same
// c-major order the per-frame path uses.
func linearForwardBatchFM(ar *Arena, l *Linear, x *tensor.Tensor) *tensor.Tensor {
	out, in := l.W.Value.Shape[0], l.W.Value.Shape[1]
	var xm *tensor.Tensor
	n := x.Shape[1]
	if x.Rank() == 2 {
		xm = x
	} else {
		c := x.Shape[0]
		plane := x.Len() / (c * n)
		xm = ar.tensor(c*plane, n)
		for ci := 0; ci < c; ci++ {
			for f := 0; f < n; f++ {
				src := x.Data[(ci*n+f)*plane : (ci*n+f+1)*plane]
				for s, v := range src {
					xm.Data[(ci*plane+s)*n+f] = v
				}
			}
		}
	}
	if xm.Shape[0] != in {
		panic(fmt.Sprintf("nn: ForwardBatch linear input %d vs weights %v", xm.Shape[0], l.W.Value.Shape))
	}
	return tensor.MatMulBiasAct(ar.tensor(out, n), l.W.Value, xm, l.B.Value.Data, tensor.ActNone, 0, 1)
}

// ForwardFlops estimates the multiply-add flops one frame of a c×h×w input
// costs through the stack — the GEMM terms only, which dominate. Nothing
// schedules on it: filters.ForwardFlopsOf only reports it.
func (s *Sequential) ForwardFlops(c, h, w int) int64 {
	fl, _, _, _ := stackFlops(s.Layers, c, h, w)
	return fl
}

func stackFlops(layers []Layer, c, h, w int) (int64, int, int, int) {
	var fl int64
	for _, l := range layers {
		switch l := l.(type) {
		case *Conv2D:
			outC := l.W.Value.Shape[0]
			ckk := l.W.Value.Len() / outC
			oh, ow := l.P.OutSize(h, w)
			fl += 2 * int64(outC) * int64(ckk) * int64(oh) * int64(ow)
			c, h, w = outC, oh, ow
		case *MaxPool:
			h, w = h/l.K, w/l.K
		case *GlobalAvgPool:
			h, w = 1, 1
		case *Linear:
			out, in := l.W.Value.Shape[0], l.W.Value.Shape[1]
			fl += 2 * int64(out) * int64(in)
			c, h, w = out, 1, 1
		case *Sequential:
			var sub int64
			sub, c, h, w = stackFlops(l.Layers, c, h, w)
			fl += sub
		}
	}
	return fl, c, h, w
}

// ForwardFlops estimates the per-frame multiply-add flops of the backbone
// plus the count head and the Eq. 1 class-activation accumulation.
func (n *CountLocNet) ForwardFlops(c, h, w int) int64 {
	fl, _, _, _ := stackFlops(n.Backbone.Layers, c, h, w)
	head := 2 * int64(n.classes) * int64(n.d)
	cam := 2 * int64(n.classes) * int64(n.d) * int64(n.g) * int64(n.g)
	return fl + head + cam
}

// ForwardFlops estimates the per-frame multiply-add flops of the
// count-only stack.
func (n *CountOnlyNet) ForwardFlops(c, h, w int) int64 { return n.Net.ForwardFlops(c, h, w) }

// ForwardBatch runs a batch of frames (N×C×H×W) through backbone and head,
// returning per-class counts (N×classes, post-ReLU) and class activation
// maps (N×classes×g×g). Both are arena-backed (valid until the arena's
// next Reset) and bit-identical per frame to Forward.
func (n *CountLocNet) ForwardBatch(ar *Arena, batch *tensor.Tensor) (counts, maps *tensor.Tensor) {
	if batch.Rank() != 4 {
		panic(fmt.Sprintf("nn: ForwardBatch needs an NCHW batch, got %v", batch.Shape))
	}
	nb := batch.Shape[0]
	x := tensor.SwapBatchChannel(ar.tensor(batch.Shape...), batch)
	fm := forwardBatchFM(ar, n.Backbone.Layers, x)
	if fm.Rank() != 4 || fm.Shape[0] != n.d || fm.Shape[1] != nb || fm.Shape[2] != n.g || fm.Shape[3] != n.g {
		panic("nn: backbone output shape does not match CountLocNet head")
	}
	pooled := tensor.GlobalAvgPoolBatchInto(ar.tensor(n.d, nb), fm) // d×N
	raw := linearForwardBatchFM(ar, n.FC, pooled)                   // classes×N
	for i, v := range raw.Data {
		if v <= 0 {
			raw.Data[i] = 0
		}
	}
	counts = tensor.SwapBatchChannel(ar.tensor(nb, n.classes), raw)

	// Class activation maps (Eq. 1), accumulated over k in the same order
	// as the per-frame path.
	plane := n.g * n.g
	maps = ar.tensor(nb, n.classes, n.g, n.g)
	for i := range maps.Data {
		maps.Data[i] = 0
	}
	for c := 0; c < n.classes; c++ {
		wrow := n.FC.W.Value.Data[c*n.d : (c+1)*n.d]
		for k := 0; k < n.d; k++ {
			w := wrow[k]
			if w == 0 {
				continue
			}
			for f := 0; f < nb; f++ {
				fplane := fm.Data[(k*nb+f)*plane : (k*nb+f+1)*plane]
				mplane := maps.Data[(f*n.classes+c)*plane : (f*n.classes+c+1)*plane]
				for i := range mplane {
					mplane[i] += w * fplane[i]
				}
			}
		}
	}
	return counts, maps
}

// ForwardBatch predicts the total object count for each frame of an NCHW
// batch, returning a length-N arena-backed tensor (valid until the
// arena's next Reset). Values are clamped at zero like Forward.
func (n *CountOnlyNet) ForwardBatch(ar *Arena, batch *tensor.Tensor) *tensor.Tensor {
	out := n.Net.ForwardBatch(ar, batch) // N×1
	nb := out.Shape[0]
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	out.Shape = []int{nb}
	return out
}
