// Package detect provides the object detectors the query engine confirms
// frames with. The paper uses Mask R-CNN both as the ground-truth annotator
// and as the final per-frame evaluator (200 ms/frame) and full YOLOv2 as a
// faster but count-poor comparison point (15 ms/frame). Neither network is
// runnable offline in Go, so:
//
//   - Oracle plays the Mask R-CNN role: it returns the simulator's ground
//     truth verbatim (exactly how the paper treats Mask R-CNN output) and
//     charges 200 ms of virtual time per frame to a simclock.Clock.
//   - SimYOLO plays the full-YOLOv2 role: faithful localisation with small
//     box jitter, but systematic undercounting from NMS-style merging of
//     overlapping boxes plus occasional misses — matching the paper's
//     observation that the full YOLO pass "provides good localization
//     accuracy … but results in poor counting accuracy".
package detect

import (
	"math/rand/v2"

	"vmq/internal/geom"
	"vmq/internal/simclock"
	"vmq/internal/video"
)

// Detection is one detected object instance.
type Detection struct {
	Class   video.Class
	Color   video.Color
	Box     geom.Rect
	Score   float64
	TrackID int
}

// Detector evaluates a frame and returns the objects it finds.
type Detector interface {
	// Detect analyses one frame, charging its per-frame cost to the
	// detector's clock.
	Detect(f *video.Frame) []Detection
	// Cost returns the per-frame virtual cost.
	Cost() simclock.Cost
}

// OrderInsensitive is implemented by detectors whose output depends only
// on the frame, never on call order or call count — the property that
// makes their results shareable across queries the way filter outputs are.
// The Oracle qualifies (it copies ground truth); SimYOLO does not (its
// jitter RNG advances per call).
type OrderInsensitive interface {
	Detector
	// OrderInsensitiveDetections reports whether Detect(f) is a pure
	// function of f.
	OrderInsensitiveDetections() bool
}

// IsOrderInsensitive reports whether d declares per-frame deterministic,
// order-independent output. Detectors that do not implement
// OrderInsensitive are conservatively treated as order-sensitive.
func IsOrderInsensitive(d Detector) bool {
	oi, ok := d.(OrderInsensitive)
	return ok && oi.OrderInsensitiveDetections()
}

// Oracle is the Mask R-CNN stand-in: perfect detections at 200 ms/frame of
// virtual time. A nil Clock disables accounting.
type Oracle struct {
	Clock *simclock.Clock
}

// NewOracle returns an Oracle charging clock.
func NewOracle(clock *simclock.Clock) *Oracle { return &Oracle{Clock: clock} }

// Detect implements Detector.
func (o *Oracle) Detect(f *video.Frame) []Detection {
	o.Clock.Charge(simclock.CostMaskRCNN, 1)
	out := make([]Detection, len(f.Objects))
	for i, obj := range f.Objects {
		out[i] = Detection{
			Class:   obj.Class,
			Color:   obj.Color,
			Box:     obj.Box,
			Score:   1,
			TrackID: obj.TrackID,
		}
	}
	return out
}

// Cost implements Detector.
func (o *Oracle) Cost() simclock.Cost { return simclock.CostMaskRCNN }

// OrderInsensitiveDetections implements OrderInsensitive: the oracle
// copies ground truth, so its detections are a pure function of the frame
// and may be shared across queries via a Memo.
func (o *Oracle) OrderInsensitiveDetections() bool { return true }

// SimYOLO simulates a full YOLOv2 pass: boxes are jittered by a few pixels
// (localisation remains strong), heavily-overlapping same-class detections
// are merged (undercounting in dense frames) and a small fraction of
// objects is missed outright.
type SimYOLO struct {
	Clock *simclock.Clock
	// MergeIoU is the overlap above which two same-class boxes collapse
	// into one detection (default 0.45).
	MergeIoU float64
	// MissProb is the per-object probability of an outright miss
	// (default 0.05).
	MissProb float64
	// JitterPx is the box-corner jitter standard deviation in pixels
	// (default 2).
	JitterPx float64

	rng *rand.Rand
}

// NewSimYOLO returns a SimYOLO with the defaults above, seeded
// deterministically.
func NewSimYOLO(clock *simclock.Clock, seed uint64) *SimYOLO {
	return &SimYOLO{
		Clock:    clock,
		MergeIoU: 0.45,
		MissProb: 0.05,
		JitterPx: 2,
		rng:      rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb)),
	}
}

// Detect implements Detector.
func (y *SimYOLO) Detect(f *video.Frame) []Detection {
	y.Clock.Charge(simclock.CostYOLOFull, 1)
	var dets []Detection
	for _, obj := range f.Objects {
		if y.rng.Float64() < y.MissProb {
			continue
		}
		box := obj.Box
		box.X0 += y.rng.NormFloat64() * y.JitterPx
		box.Y0 += y.rng.NormFloat64() * y.JitterPx
		box.X1 += y.rng.NormFloat64() * y.JitterPx
		box.Y1 += y.rng.NormFloat64() * y.JitterPx
		box = box.Canon()
		dets = append(dets, Detection{
			Class:   obj.Class,
			Color:   obj.Color,
			Box:     box,
			Score:   0.5 + 0.5*y.rng.Float64(),
			TrackID: obj.TrackID,
		})
	}
	return mergeOverlaps(dets, y.MergeIoU)
}

// Cost implements Detector.
func (y *SimYOLO) Cost() simclock.Cost { return simclock.CostYOLOFull }

// mergeOverlaps is the NMS-style merging that makes SimYOLO undercount
// dense scenes: any same-class pair with IoU above threshold keeps only
// the higher-scoring box.
func mergeOverlaps(dets []Detection, iou float64) []Detection {
	kept := make([]Detection, 0, len(dets))
	suppressed := make([]bool, len(dets))
	for i := range dets {
		if suppressed[i] {
			continue
		}
		for j := i + 1; j < len(dets); j++ {
			if suppressed[j] || dets[i].Class != dets[j].Class {
				continue
			}
			if geom.IoU(dets[i].Box, dets[j].Box) >= iou {
				if dets[j].Score > dets[i].Score {
					dets[i], dets[j] = dets[j], dets[i]
				}
				suppressed[j] = true
			}
		}
		kept = append(kept, dets[i])
	}
	return kept
}

// Noisy wraps a detector with an error model for failure-injection
// studies: per-detection miss probability, box jitter, and colour
// confusion. The paper treats Mask R-CNN as exact; Noisy quantifies how
// the query results degrade when the confirmation detector is not.
type Noisy struct {
	Inner Detector
	// MissProb drops each detection independently.
	MissProb float64
	// JitterPx adds Gaussian noise to each box corner.
	JitterPx float64
	// ColorConfusion replaces the detected colour with a random one.
	ColorConfusion float64

	rng *rand.Rand
}

// NewNoisy wraps inner with the given error rates, seeded
// deterministically.
func NewNoisy(inner Detector, missProb, jitterPx, colorConfusion float64, seed uint64) *Noisy {
	return &Noisy{
		Inner:          inner,
		MissProb:       missProb,
		JitterPx:       jitterPx,
		ColorConfusion: colorConfusion,
		rng:            rand.New(rand.NewPCG(seed, 0x853c49e6748fea9b)),
	}
}

// Detect implements Detector.
func (n *Noisy) Detect(f *video.Frame) []Detection {
	dets := n.Inner.Detect(f)
	out := dets[:0]
	for _, d := range dets {
		if n.rng.Float64() < n.MissProb {
			continue
		}
		if n.JitterPx > 0 {
			d.Box.X0 += n.rng.NormFloat64() * n.JitterPx
			d.Box.Y0 += n.rng.NormFloat64() * n.JitterPx
			d.Box.X1 += n.rng.NormFloat64() * n.JitterPx
			d.Box.Y1 += n.rng.NormFloat64() * n.JitterPx
			d.Box = d.Box.Canon()
		}
		if n.ColorConfusion > 0 && n.rng.Float64() < n.ColorConfusion {
			d.Color = video.Color(1 + n.rng.IntN(video.NumColors-1))
		}
		out = append(out, d)
	}
	return out
}

// Cost implements Detector.
func (n *Noisy) Cost() simclock.Cost { return n.Inner.Cost() }

// Boxes extracts the bounding boxes of detections of class c (every class
// if c is negative).
func Boxes(dets []Detection, c video.Class) []geom.Rect {
	var out []geom.Rect
	for _, d := range dets {
		if c < 0 || d.Class == c {
			out = append(out, d.Box)
		}
	}
	return out
}

// CountClass returns the number of detections of class c.
func CountClass(dets []Detection, c video.Class) int {
	n := 0
	for _, d := range dets {
		if d.Class == c {
			n++
		}
	}
	return n
}

// CountClassColor returns the number of detections of class c with colour
// col (AnyColor matches everything).
func CountClassColor(dets []Detection, c video.Class, col video.Color) int {
	n := 0
	for _, d := range dets {
		if d.Class == c && (col == video.AnyColor || d.Color == col) {
			n++
		}
	}
	return n
}
