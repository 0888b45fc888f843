package tensor

import "fmt"

// Batched inference layout
//
// The batched forward pass keeps activations in feature-major order:
// a batch of N CHW frames is stored as C×N×H×W, so channel c of frame n is
// the contiguous plane at (c·N+n)·H·W. This is the one layout in which
// every layer of the branch networks is a single pass with no transposes
// between layers: ConvBatchInto's GEMM output (outC rows of N frame
// planes) is already the next layer's feature-major input, pooling and
// GAP reduce contiguous planes, and the FC head is one more GEMM over the
// C×N pooled matrix. Batch-major NCHW (the public API layout, batch
// dimension leading) is converted at the boundary with SwapBatchChannel.

// SwapBatchChannel transposes the two leading axes of in (at least rank 2)
// into dst: N×C×rest becomes C×N×rest and vice versa. The trailing axes
// are treated as one contiguous plane. dst must have the same length as
// in; a nil dst allocates. It returns dst.
func SwapBatchChannel(dst, in *Tensor) *Tensor {
	if in.Rank() < 2 {
		panic(fmt.Sprintf("tensor: SwapBatchChannel needs rank >= 2, got %v", in.Shape))
	}
	d0, d1 := in.Shape[0], in.Shape[1]
	plane := in.Len() / (d0 * d1)
	if dst == nil {
		dst = New(append([]int{d1, d0}, in.Shape[2:]...)...)
	} else {
		if dst.Len() != in.Len() {
			panic(fmt.Sprintf("tensor: SwapBatchChannel dst length %d, want %d", dst.Len(), in.Len()))
		}
		var buf [4]int
		dst.setShape(append(append(buf[:0], d1, d0), in.Shape[2:]...)...)
	}
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			copy(dst.Data[(j*d0+i)*plane:(j*d0+i+1)*plane], in.Data[(i*d1+j)*plane:(i*d1+j+1)*plane])
		}
	}
	return dst
}

// Im2ColBatchInto unrolls a feature-major batch (C×N×H×W) into dst of
// shape (C·KH·KW)×(N·OH·OW): column n·OH·OW+s is frame n's patch s, so a
// single GEMM with the (outC)×(C·KH·KW) weight matrix convolves the whole
// batch and its output is the next layer's feature-major input. Taps are
// written unconditionally (zeros for padding), so dst may be a dirty
// scratch buffer. A nil dst allocates. It returns dst. The served forward
// convolves with ConvBatchInto instead; this lowering is its reference.
func Im2ColBatchInto(dst, in *Tensor, p ConvParams) *Tensor {
	p.validate()
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2ColBatchInto needs C×N×H×W input, got %v", in.Shape))
	}
	c, n, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d non-positive for %dx%d input %+v", oh, ow, h, w, p))
	}
	rows, cols := c*p.KH*p.KW, n*oh*ow
	if dst == nil {
		dst = New(rows, cols)
	} else {
		if dst.Len() != rows*cols {
			panic(fmt.Sprintf("tensor: im2col dst length %d, want %d", dst.Len(), rows*cols))
		}
		dst.Shape = []int{rows, cols}
	}
	row := 0
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				// Precompute the ox range whose input column is in bounds:
				// 0 <= ox*stride + kx - padding < w. Outside it the tap is
				// padding; inside, stride 1 is a straight copy.
				off := kx - p.Padding
				ox0 := 0
				if off < 0 {
					ox0 = (-off + p.Stride - 1) / p.Stride
				}
				ox1 := (w - 1 - off) / p.Stride
				if ox1 >= ow {
					ox1 = ow - 1
				}
				for f := 0; f < n; f++ {
					chn := in.Data[(ci*n+f)*h*w : (ci*n+f+1)*h*w]
					orow := dst.Data[row*cols+f*oh*ow : row*cols+(f+1)*oh*ow]
					for oy := 0; oy < oh; oy++ {
						iy := oy*p.Stride + ky - p.Padding
						seg := orow[oy*ow : (oy+1)*ow]
						if iy < 0 || iy >= h || ox1 < ox0 {
							for x := range seg {
								seg[x] = 0
							}
							continue
						}
						base := iy * w
						for x := 0; x < ox0; x++ {
							seg[x] = 0
						}
						if p.Stride == 1 {
							copy(seg[ox0:ox1+1], chn[base+ox0+off:base+ox1+off+1])
						} else {
							for ox := ox0; ox <= ox1; ox++ {
								seg[ox] = chn[base+ox*p.Stride+off]
							}
						}
						for x := ox1 + 1; x < ow; x++ {
							seg[x] = 0
						}
					}
				}
				row++
			}
		}
	}
	return dst
}

// convWideFloats bounds the wide output ConvBatchInto holds at once: 256
// KiB, a fraction of a core's L2, so the GEMM's output is still cached
// when it is pooled.
const convWideFloats = 1 << 16

// ConvBatchInto convolves a feature-major batch in (C×N×H×W) with weights
// (outC×C×KH×KW) at stride 1, computing act(conv + bias) like
// MatMulBiasAct, and when pool > 1 max-pools that over non-overlapping
// pool×pool windows like MaxPool2DBatchInto. It writes the feature-major
// outC×N×(OH/pool)×(OW/pool) result into dst, which must have that shape,
// and returns dst. grab supplies the working buffers: grab(n) must return
// n floats with any contents that alias neither in, dst nor an earlier
// grab. Results are bit-identical to Im2ColBatchInto followed by
// MatMulBiasAct (and MaxPool2DBatchInto).
//
// No im2col matrix is built. The input is copied once into a bordered
// layout (see borderPlanes) in which every frame is a ph×pw plane whose
// rows are followed by zeros, and GEMM row (c, ky, kx) is the contiguous
// run of that buffer starting at c·cs + ky·pw + kx: one shifted view per
// tap. The GEMM output is therefore wide: its column f·ph·pw + y·pw + x
// holds frame f's output (y, x) for y < OH and x < OW, and the columns
// between are discarded. It is computed a few frames at a time; pooling
// reads it at row stride pw, and without pooling the valid columns are
// copied out. Without padding the input is the bordered layout already
// and is read in place, and a 1×1 convolution without pooling writes its
// result directly.
func ConvBatchInto(dst *Tensor, grab func(n int) []float32, in, weights *Tensor, bias []float32, p ConvParams, act Act, slope float32, pool int) *Tensor {
	p.validate()
	if in.Rank() != 4 || weights.Rank() != 4 || weights.Shape[1] != in.Shape[0] ||
		weights.Shape[2] != p.KH || weights.Shape[3] != p.KW {
		panic(fmt.Sprintf("tensor: ConvBatchInto input %v, weights %v, params %+v", in.Shape, weights.Shape, p))
	}
	if p.Stride != 1 || pool < 1 {
		panic(fmt.Sprintf("tensor: ConvBatchInto supports stride 1 and pool >= 1, got %+v pool %d", p, pool))
	}
	c, n, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	outC := weights.Shape[0]
	if bias != nil && len(bias) != outC {
		panic(fmt.Sprintf("tensor: ConvBatchInto bias length %d, want %d", len(bias), outC))
	}
	oh, ow := p.OutSize(h, w)
	if oh/pool <= 0 || ow/pool <= 0 {
		panic(fmt.Sprintf("tensor: ConvBatchInto output %dx%d pooled by %d is empty", oh, ow, pool))
	}
	poh, pow := oh/pool, ow/pool
	if dst.Rank() != 4 || dst.Shape[0] != outC || dst.Shape[1] != n || dst.Shape[2] != poh || dst.Shape[3] != pow {
		panic(fmt.Sprintf("tensor: ConvBatchInto dst %v, want [%d %d %d %d]", dst.Shape, outC, n, poh, pow))
	}
	// Valid outputs read p zeros beyond each edge of a frame, so
	// neighbouring rows and frames can share their borders: each row and
	// each frame is followed by at least p zeros, and the buffer opens with
	// p zero rows and p zeros. The gaps also grow to hold OH×OW outputs in
	// a ph×pw plane when the padding exceeds half the kernel.
	pad := p.Padding
	gy, gx := max(pad, 2*pad-p.KH+1), max(pad, 2*pad-p.KW+1)
	ph, pw := h+gy, w+gx
	plane := ph * pw
	lead := pad*pw + pad
	cs := lead + n*plane // channel stride
	src := in.Data
	if pad > 0 {
		src = grab(c * cs)
		borderPlanes(src, in.Data, c, n, h, w, gy, gx, lead)
	}
	k, rows := c*p.KH*p.KW, bRows{p.KH, p.KW, cs, pw}
	if pool == 1 && oh == ph && ow == pw { // the wide layout is the output
		gemm(dst.Data, n*plane, weights.Data, outC, k, src, rows, n*plane, bias, act, slope)
		return dst
	}
	// The wide output is made and reduced a few frames at a time, so that
	// it is still in cache when the pool or the copy reads it.
	g := max(1, min(n, convWideFloats/(outC*plane)))
	wide := grab(outC * g * plane)
	for f0 := 0; f0 < n; f0 += g {
		nf := min(g, n-f0)
		cols := (nf-1)*plane + (oh-1)*pw + ow
		gemm(wide, nf*plane, weights.Data, outC, k, src[f0*plane:], rows, cols, bias, act, slope)
		for o := 0; o < outC; o++ {
			from, to := wide[o*nf*plane:], dst.Data[(o*n+f0)*poh*pow:]
			if pool > 1 {
				maxPoolPlanes(to, from, nf, poh, pow, pool, pw, plane)
				continue
			}
			for pl := 0; pl < nf; pl++ {
				for y := 0; y < oh; y++ {
					copy(to[(pl*oh+y)*ow:][:ow], from[pl*plane+y*pw:])
				}
			}
		}
	}
	return dst
}

// borderPlanes writes the feature-major planes of src (c×n×h×w) into dst
// in ConvBatchInto's bordered layout: per channel, lead zeros, then each
// frame's h rows, every row followed by gx zeros, then gy zero rows.
func borderPlanes(dst, src []float32, c, n, h, w, gy, gx, lead int) {
	pw := w + gx
	i := 0
	for pl := 0; pl < c*n; pl++ {
		if pl%n == 0 {
			clear(dst[i : i+lead])
			i += lead
		}
		in := src[pl*h*w:][:h*w]
		out := dst[i:][:h*pw]
		for y := 0; y < h; y++ {
			o := out[y*pw:][:pw]
			copy(o, in[y*w:][:w])
			for x := w; x < pw; x++ {
				o[x] = 0
			}
		}
		i += h * pw
		clear(dst[i : i+gy*pw])
		i += gy * pw
	}
}

// MaxPool2DBatchInto applies non-overlapping k×k max pooling to a
// feature-major batch (C×N×H×W), writing C×N×(H/k)×(W/k) into dst. No
// argmax indices are produced — this is the inference path. A nil dst
// allocates. It returns dst.
func MaxPool2DBatchInto(dst, in *Tensor, k int) *Tensor {
	if k <= 0 {
		panic("tensor: MaxPool2DBatchInto k must be positive")
	}
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2DBatchInto needs C×N×H×W input, got %v", in.Shape))
	}
	c, n, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := h/k, w/k
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("tensor: MaxPool2DBatchInto k=%d too large for %v", k, in.Shape))
	}
	if dst == nil {
		dst = New(c, n, oh, ow)
	} else {
		if dst.Len() != c*n*oh*ow {
			panic(fmt.Sprintf("tensor: MaxPool2DBatchInto dst length %d, want %d", dst.Len(), c*n*oh*ow))
		}
		dst.setShape(c, n, oh, ow)
	}
	maxPoolPlanes(dst.Data, in.Data, c*n, oh, ow, k, w, h*w)
	return dst
}

// maxPoolPlanes pools planes source planes, plane i starting at
// src[i*planeStride] with rows rowStride apart, over non-overlapping k×k
// windows into the dense oh×ow planes of dst.
func maxPoolPlanes(dst, src []float32, planes, oh, ow, k, rowStride, planeStride int) {
	for pl := 0; pl < planes; pl++ {
		chn := src[pl*planeStride:]
		out := dst[pl*oh*ow : (pl+1)*oh*ow]
		if k == 2 {
			// The backbones pool exclusively with k=2, through the
			// dispatched plane kernel.
			maxPool2(out, chn, oh, ow, rowStride)
			continue
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(-1e30)
				for ky := 0; ky < k; ky++ {
					rowBase := (oy*k + ky) * rowStride
					for kx := 0; kx < k; kx++ {
						if v := chn[rowBase+ox*k+kx]; v > best {
							best = v
						}
					}
				}
				out[oy*ow+ox] = best
			}
		}
	}
}

// GlobalAvgPoolBatchInto reduces a feature-major batch (C×N×H×W) to the
// C×N matrix of per-plane means, summing each plane in the same order as
// GlobalAvgPool so per-frame results match the single-frame path exactly.
// A nil dst allocates. It returns dst.
func GlobalAvgPoolBatchInto(dst, in *Tensor) *Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: GlobalAvgPoolBatchInto needs C×N×H×W input, got %v", in.Shape))
	}
	c, n, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	if dst == nil {
		dst = New(c, n)
	} else {
		if dst.Len() != c*n {
			panic(fmt.Sprintf("tensor: GlobalAvgPoolBatchInto dst length %d, want %d", dst.Len(), c*n))
		}
		dst.setShape(c, n)
	}
	area := float32(h * w)
	for pl := 0; pl < c*n; pl++ {
		var s float32
		for _, v := range in.Data[pl*h*w : (pl+1)*h*w] {
			s += v
		}
		// Divide (not multiply by a reciprocal) so per-frame values are
		// bit-identical to GlobalAvgPool's.
		dst.Data[pl] = s / area
	}
	return dst
}
