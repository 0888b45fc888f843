// Package filters implements the paper's primary contribution: the
// approximate IC (image-classification inspired) and OD (object-detection
// inspired) filters that estimate, per frame, the total object count (CF),
// the per-class object count (CCF) and the per-class object locations on a
// g×g grid (CLF), plus the count-optimized OD-COF classifier.
//
// Two interchangeable backends produce the estimates:
//
//   - Trained runs a real convolutional branch network (package nn) with
//     the paper's architecture — backbone, GAP, fully connected head and
//     class activation maps (Eq. 1) — on rasterised frames. It proves the
//     paper's training pipeline (Eq. 2 / Eq. 3 losses, Mask R-CNN-derived
//     labels) learns counting and localisation in pure Go at laptop scale.
//
//   - Calibrated is a statistical error model whose exact/±1/±2 count
//     accuracies and per-class localisation f1 are calibrated to the
//     accuracy profiles of Figures 7–15. It makes the full-scale
//     experiment suite reproducible in seconds while preserving the error
//     structure (heteroscedastic count noise, per-class miss rates,
//     cell-displacement distributions, false positives) that the query
//     results of Table III and the variance reductions of Table IV
//     depend on.
//
// A single Evaluate call yields every output at once — exactly like the
// real network, whose one forward pass produces both the count vector and
// all activation maps — and charges the technique's per-frame virtual cost
// (IC 1.5 ms, OD 1.9 ms) to a simclock.Clock once.
package filters

import (
	"fmt"

	"vmq/internal/grid"
	"vmq/internal/simclock"
	"vmq/internal/video"
)

// Technique distinguishes the two filter families of Section II.
type Technique int

// Filter families.
const (
	// IC filters branch off an image-classification backbone (Section
	// II-A, VGG19 layer 5 in the paper).
	IC Technique = iota
	// OD filters branch off an object-detection backbone (Section II-B,
	// YOLOv2/Darknet layer 8 in the paper).
	OD
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case IC:
		return "IC"
	case OD:
		return "OD"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Cost returns the per-frame virtual cost of the technique's branch.
func (t Technique) Cost() simclock.Cost {
	if t == IC {
		return simclock.CostICFilter
	}
	return simclock.CostODFilter
}

// Output is the result of one filter forward pass over a frame.
type Output struct {
	// Total is the estimated total object count (the CF output).
	Total float64
	// Counts holds the per-class count estimates indexed by video.Class
	// (the CCF outputs).
	Counts [video.NumClasses]float64
	// Maps holds the thresholded per-class location maps indexed by
	// video.Class (the CLF outputs). Classes outside the backend's class
	// universe have nil maps.
	Maps [video.NumClasses]*grid.Binary
}

// Map returns the location map for class c, or an empty map of the given
// grid size when the class was not modelled.
func (o *Output) Map(c video.Class, g int) *grid.Binary {
	if m := o.Maps[c]; m != nil {
		return m
	}
	return grid.NewBinary(g)
}

// Backend produces filter outputs for frames.
type Backend interface {
	// Technique identifies the filter family.
	Technique() Technique
	// Grid returns the activation-map resolution g.
	Grid() int
	// Evaluate runs the branch network (or its calibrated surrogate) on
	// one frame, charging the per-frame cost to the backend's clock.
	Evaluate(f *video.Frame) *Output
}

// BatchBackend is implemented by backends with a native multi-frame
// evaluation path that amortises per-call overhead (clock locking,
// dispatch, batched tensor layouts and GEMMs) across a whole batch.
type BatchBackend interface {
	Backend
	// EvaluateBatch evaluates frames in order, appending one Output per
	// frame to dst and returning the extended slice (dst may be nil). It
	// must produce the same outputs as len(frames) Evaluate calls and
	// charge the same total cost.
	//
	// Aliasing rule: the returned slice shares dst's backing array when
	// capacity allows, so callers on a hot path pass dst[:0] of a slice
	// they own and reuse it between calls. The *Output values themselves
	// may be shared with other callers (memoised backends return cached
	// pointers) and must be treated as immutable.
	EvaluateBatch(frames []*video.Frame, dst []*Output) []*Output
}

// EvaluateBatch evaluates frames through b's native batch path when it
// implements BatchBackend, and otherwise falls back to one Evaluate call
// per frame. Allocation-sensitive callers use EvaluateBatchInto.
func EvaluateBatch(b Backend, frames []*video.Frame) []*Output {
	return EvaluateBatchInto(b, frames, nil)
}

// EvaluateBatchInto evaluates frames like EvaluateBatch, appending the
// outputs to dst and returning the extended slice. It is the wrapper the
// execution engines use, so any backend gains batching by implementing
// BatchBackend — no engine changes needed. The BatchBackend aliasing rule
// applies: the result may share dst's backing array, and the *Output
// values must not be mutated.
func EvaluateBatchInto(b Backend, frames []*video.Frame, dst []*Output) []*Output {
	if bb, ok := b.(BatchBackend); ok {
		return bb.EvaluateBatch(frames, dst)
	}
	for _, f := range frames {
		dst = append(dst, b.Evaluate(f))
	}
	return dst
}

// Parallel is implemented by backends that report their per-frame cost
// and accept a worker hint. The trained backends ignore the hint: each
// batch call splits its frames into min(GOMAXPROCS, n) parts, and every
// part is rasterised and forwarded on its own goroutine.
type Parallel interface {
	Backend
	// SetEvalWorkers is a worker hint for later EvaluateBatch calls.
	// Worker count never affects output bytes. Not safe to call
	// concurrently with an in-flight evaluation.
	SetEvalWorkers(n int)
	// ForwardFlops estimates the multiply-add flops of evaluating one
	// frame.
	ForwardFlops() int64
}

// SetEvalWorkers passes the worker hint to b when it accepts one.
func SetEvalWorkers(b Backend, n int) {
	if p, ok := b.(Parallel); ok {
		p.SetEvalWorkers(n)
	}
}

// ForwardFlopsOf returns b's per-frame flops estimate, or 0 when b does
// not declare one.
func ForwardFlopsOf(b Backend) int64 {
	if p, ok := b.(Parallel); ok {
		return p.ForwardFlops()
	}
	return 0
}

// ConcurrentBackend is implemented by backends whose Evaluate may be
// called from multiple goroutines at once with per-frame deterministic
// results (output depends only on the frame, not on call order).
type ConcurrentBackend interface {
	Backend
	// ConcurrentSafe reports whether concurrent Evaluate calls are safe.
	ConcurrentSafe() bool
}

// ConcurrentSafe reports whether b's Evaluate may be fanned out across a
// worker pool. Backends that do not declare themselves via
// ConcurrentBackend are conservatively treated as single-threaded (the
// trained CNN backends reuse forward-pass activation buffers).
func ConcurrentSafe(b Backend) bool {
	cb, ok := b.(ConcurrentBackend)
	return ok && cb.ConcurrentSafe()
}

// CountVariant selects the tolerance of a count filter: 0 is the exact
// filter, 1 and 2 the paper's CF-1/CCF-1 and CF-2/CCF-2 variants.
type CountVariant int

// LocationVariant selects the Manhattan tolerance of a CLF filter: 0 is
// exact-cell, 1 and 2 the paper's CLF-1 and CLF-2 variants.
type LocationVariant int
