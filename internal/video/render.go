package video

import (
	"math/rand/v2"
	"sync"

	"vmq/internal/tensor"
)

// Render rasterises the frame's ground truth into a 3×h×w RGB tensor with
// values in [0,1]. Objects are drawn back-to-front as filled rectangles in
// their attribute colour with a per-class shape cue (people are drawn
// taller with a head blob, vehicles carry a darker window band) so that a
// CNN can discriminate classes, plus mild sensor noise. The rasteriser is
// deterministic in (frame index, noiseSeed).
func Render(f *Frame, h, w int, noiseSeed uint64) *tensor.Tensor {
	return RenderInto(tensor.New(3, h, w), f, noiseSeed)
}

// noiseChunks recycles the scratch buffers the sensor-noise pass fills
// from each frame's PCG stream before handing them to the dispatched
// add+clamp row kernel, keeping RenderInto allocation-free at steady
// state.
var noiseChunks = sync.Pool{New: func() any {
	buf := make([]float32, 1024)
	return &buf
}}

// RenderInto rasterises like Render but into the caller's 3×h×w tensor,
// the allocation-free path the batched filter backends use. Every pixel is
// overwritten (the background fill covers the full frame), so img may be a
// dirty reused buffer. It returns img.
//
// The row fills and the sensor-noise epilogue route through the tensor
// package's dispatched row kernels (Fill, AddClamp01). Those are
// bit-identical across every non-tolerant kernel level, and the noise pass
// consumes the per-frame PCG stream in pixel order and applies
// add/clamp-low/clamp-high in the scalar loop's IEEE order, so rendered
// bytes depend only on (frame index, noiseSeed) — never on the machine or
// the selected kernel.
func RenderInto(img *tensor.Tensor, f *Frame, noiseSeed uint64) *tensor.Tensor {
	if img.Rank() != 3 || img.Shape[0] != 3 {
		panic("video: RenderInto needs a 3xHxW tensor")
	}
	h, w := img.Shape[1], img.Shape[2]
	// Background: muted grey with a slight vertical gradient, like asphalt.
	for y := 0; y < h; y++ {
		shade := 0.35 + 0.1*float32(y)/float32(h)
		row := y * w
		tensor.Fill(img.Data[row:row+w], shade)
		tensor.Fill(img.Data[h*w+row:h*w+row+w], shade)
		tensor.Fill(img.Data[2*h*w+row:2*h*w+row+w], shade)
	}
	sx := float64(w) / f.Bounds.W()
	sy := float64(h) / f.Bounds.H()
	for _, o := range f.Objects {
		drawObject(img, o, sx, sy, h, w)
	}
	// Sensor noise: one Gaussian per pixel, drawn in pixel order from the
	// frame-keyed stream into a chunk buffer, then added and clamped by
	// the row kernel.
	rng := rand.New(rand.NewPCG(noiseSeed, uint64(f.Index)+1))
	chunkp := noiseChunks.Get().(*[]float32)
	noise := *chunkp
	data := img.Data
	for off := 0; off < len(data); off += len(noise) {
		chunk := data[off:]
		if len(chunk) > len(noise) {
			chunk = chunk[:len(noise)]
		}
		for i := range chunk {
			noise[i] = float32(rng.NormFloat64() * 0.02)
		}
		tensor.AddClamp01(chunk, noise[:len(chunk)])
	}
	noiseChunks.Put(chunkp)
	return img
}

// RenderBatchInto rasterises frames[i] into the i'th contiguous 3×H×W slab
// of batch (shape N×3×H×W with N ≥ len(frames)) on the caller's
// goroutine, with the same bytes as sequential RenderInto calls. workers
// is ignored: the trained filter backends split a batch across cores
// above this call, one part per core. It returns batch.
func RenderBatchInto(batch *tensor.Tensor, frames []*Frame, noiseSeed uint64, workers int) *tensor.Tensor {
	if batch.Rank() != 4 || batch.Shape[1] != 3 {
		panic("video: RenderBatchInto needs an Nx3xHxW tensor")
	}
	if batch.Shape[0] < len(frames) {
		panic("video: RenderBatchInto batch is smaller than the frame set")
	}
	h, w := batch.Shape[2], batch.Shape[3]
	slab := 3 * h * w
	view := tensor.Tensor{Shape: []int{3, h, w}}
	for i, f := range frames {
		view.Data = batch.Data[i*slab : (i+1)*slab]
		RenderInto(&view, f, noiseSeed)
	}
	return batch
}

func drawObject(img *tensor.Tensor, o Object, sx, sy float64, h, w int) {
	r, g, b := o.Color.RGB()
	box := o.Box.Scale(sx, sy)
	x0, y0 := int(box.X0), int(box.Y0)
	x1, y1 := int(box.X1), int(box.Y1)
	fillRect(img, x0, y0, x1, y1, h, w, r, g, b)
	switch o.Class {
	case Person:
		// Head blob: a lighter square on the top fifth.
		hh := (y1 - y0) / 5
		fillRect(img, x0+(x1-x0)/4, y0-hh, x0+3*(x1-x0)/4, y0, h, w, 0.95, 0.85, 0.7)
	case Car, Truck, Bus:
		// Window band on the upper third.
		wy1 := y0 + (y1-y0)/3
		fillRect(img, x0+2, y0+2, x1-2, wy1, h, w, 0.15, 0.2, 0.3)
	case Bicycle:
		// Two dark wheel squares.
		ww := (x1 - x0) / 3
		fillRect(img, x0, y1-ww, x0+ww, y1, h, w, 0.05, 0.05, 0.05)
		fillRect(img, x1-ww, y1-ww, x1, y1, h, w, 0.05, 0.05, 0.05)
	case StopSign:
		// White border band.
		fillRect(img, x0+1, y0+1, x1-1, y0+3, h, w, 0.95, 0.95, 0.95)
	}
}

func fillRect(img *tensor.Tensor, x0, y0, x1, y1, h, w int, r, g, b float32) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > w {
		x1 = w
	}
	if y1 > h {
		y1 = h
	}
	if x1 <= x0 {
		return
	}
	for y := y0; y < y1; y++ {
		row := y * w
		tensor.Fill(img.Data[row+x0:row+x1], r)
		tensor.Fill(img.Data[h*w+row+x0:h*w+row+x1], g)
		tensor.Fill(img.Data[2*h*w+row+x0:2*h*w+row+x1], b)
	}
}
