package query

import (
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// Engine executes monitoring queries with the paper's filter-then-detect
// strategy: every frame is evaluated by the (cheap) filter backend, and
// only frames the filter cannot rule out are confirmed by the (expensive)
// detector. A nil Backend disables filtering, yielding the brute-force
// baseline that annotates every frame.
//
// RunStream hands the filter backend chunks of up to 32 frames. On a
// source that reports the frames it already holds, a trained network's
// chunk takes only those, or the next frame alone when it holds none, so
// the same engine batches a backlog and streams a paced feed frame by
// frame; other queries on such a source stream chunks of one frame.
// Results are identical for every chunking.
type Engine struct {
	Backend  filters.Backend
	Detector detect.Detector
	Tol      Tolerances
	// Workers caps RunStream's filter worker pool. 0 (the default) sizes
	// the pool to GOMAXPROCS; callers that already parallelise above the
	// engine (one engine per camera, say) set it lower so the fleet's
	// total worker count still matches the machine.
	Workers int
	// Observe, when non-nil, receives one FrameObservation per executed
	// frame, in frame order, from the confirmation stage. It is how
	// long-running callers (the continuous-query server) stream matches
	// out of an execution that has not finished yet. The callback runs on
	// the confirmation goroutine: if it blocks, the pipeline back-pressures
	// exactly as a slow detector would. It must not mutate the frame.
	Observe func(FrameObservation)
}

// FrameObservation reports one frame's outcome as it leaves the engine's
// confirmation stage.
type FrameObservation struct {
	// Index is the frame's position within the executed sequence (the same
	// index Result.Matched records).
	Index int
	Frame *video.Frame
	// Passed reports the filter verdict (always true when filtering is
	// disabled).
	Passed bool
	// Matched reports whether the detector confirmed the predicate.
	Matched bool
}

// Result summarises one monitoring-query execution.
type Result struct {
	// Matched holds indices (into the executed frame slice) of frames the
	// detector confirmed.
	Matched []int
	// FramesTotal is the number of frames examined.
	FramesTotal int
	// FilterPassed is the number of frames the filter let through.
	FilterPassed int
	// DetectorCalls counts full detector invocations.
	DetectorCalls int
	// VirtualTime is the simulated pipeline latency: filter cost on every
	// frame plus detector cost on passed frames (Table III's columns).
	VirtualTime time.Duration
	// Failure is set when the execution ended because a backend or
	// detector panicked instead of running the stream to completion.
	// The counters above cover the frames processed before the fault;
	// nothing after it is evaluated.
	Failure *Failure `json:"failure,omitempty"`
}

// Failure captures a panic recovered inside the execution pipeline —
// the typed form a crashing backend degrades to instead of taking the
// process down. Stage names the pipeline stage that faulted ("filter",
// "detect", or "runner" for faults outside the engine), Panic is the
// panic value's string form, and Stack the goroutine stack at the
// recovery point.
type Failure struct {
	Stage string `json:"stage"`
	Panic string `json:"panic"`
	Stack string `json:"stack,omitempty"`
}

// Selectivity returns the fraction of frames that reached the detector.
func (r *Result) Selectivity() float64 {
	if r.FramesTotal == 0 {
		return 0
	}
	return float64(r.FilterPassed) / float64(r.FramesTotal)
}

// Run executes a bound monitoring query over frames. It is a thin
// adapter over the pipelined streaming path (RunStream); the results are
// identical to the single-threaded reference loop (RunSequential) by
// construction, which TestRunStreamMatchesSequential enforces.
func (e *Engine) Run(plan *Plan, frames []*video.Frame) *Result {
	return e.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
}

// RunSequential executes a bound monitoring query over frames with the
// single-threaded reference loop: filter every frame, confirm survivors
// with the detector, in strict frame order on one goroutine. RunStream is
// the production path; this loop is kept as the semantic specification
// the pipelined executor is tested against, and as the baseline
// BenchmarkRunStream measures speedup over.
func (e *Engine) RunSequential(plan *Plan, frames []*video.Frame) *Result {
	res := &Result{FramesTotal: len(frames)}
	var filterCost, detectCost time.Duration
	if e.Backend != nil {
		filterCost = e.Backend.Technique().Cost().PerCall
	}
	detectCost = e.Detector.Cost().PerCall
	for i, f := range frames {
		pass := true
		if e.Backend != nil && plan.Where != nil {
			out := e.Backend.Evaluate(f)
			res.VirtualTime += filterCost
			pass = plan.Where.EvalFilter(out, f.Bounds, e.Tol)
		}
		matched := false
		if pass {
			res.FilterPassed++
			dets := e.Detector.Detect(f)
			res.DetectorCalls++
			res.VirtualTime += detectCost
			if plan.Where == nil || plan.Where.EvalExact(dets, f.Bounds) {
				res.Matched = append(res.Matched, i)
				matched = true
			}
		}
		if e.Observe != nil {
			e.Observe(FrameObservation{Index: i, Frame: f, Passed: pass, Matched: matched})
		}
	}
	return res
}

// GroundTruth evaluates the plan's predicate directly on simulator ground
// truth (no detector, no cost), returning one boolean per frame.
func GroundTruth(plan *Plan, frames []*video.Frame) []bool {
	out := make([]bool, len(frames))
	for i, f := range frames {
		out[i] = GroundTruthFrame(plan, f)
	}
	return out
}

// GroundTruthFrame evaluates the plan's predicate on one frame's simulator
// ground truth. The server uses it to maintain online recall/precision
// proxies for registered queries without charging any virtual cost.
func GroundTruthFrame(plan *Plan, f *video.Frame) bool {
	if plan.Where == nil {
		return true
	}
	return plan.Where.EvalExact(truthDetections(f), f.Bounds)
}

// truthDetections converts a frame's ground truth into detections without
// charging any clock.
func truthDetections(f *video.Frame) []detect.Detection {
	dets := make([]detect.Detection, len(f.Objects))
	for i, o := range f.Objects {
		dets[i] = detect.Detection{
			Class: o.Class, Color: o.Color, Box: o.Box, Score: 1, TrackID: o.TrackID,
		}
	}
	return dets
}

// Score compares a Result against ground truth, returning the paper's
// accuracy measure for Table III: the fraction of true frames that the
// cascaded execution reported ("the fraction of frames that are correctly
// identified by our filters over the number of frames in which the query
// predicates are true"). With an exact confirmation detector the reported
// set is a subset of the true set, so this is recall.
func Score(res *Result, truth []bool) float64 {
	trueFrames := 0
	for _, t := range truth {
		if t {
			trueFrames++
		}
	}
	if trueFrames == 0 {
		return 1
	}
	found := 0
	for _, i := range res.Matched {
		if truth[i] {
			found++
		}
	}
	return float64(found) / float64(trueFrames)
}
