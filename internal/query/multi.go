package query

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// CameraFeed is one camera's frames plus the per-camera operator stack.
// Filter backends and detectors hold per-stream state (deterministic
// per-frame RNG, clocks), so each feed brings its own.
type CameraFeed struct {
	CameraID string
	Frames   []*video.Frame
	Backend  filters.Backend
	Detector detect.Detector
}

// CameraResult pairs a camera with its query result.
type CameraResult struct {
	CameraID string
	Result   *Result
	// Workers is the filter worker cap RunMulti gave this feed's engine:
	// GOMAXPROCS divided across the fleet, floored at 1. With many feeds
	// on few cores the cap silently degrades to one worker per feed, so
	// the scheduling decision is surfaced here for callers and tests to
	// assert on. The engine may use fewer workers (a single-threaded
	// backend always runs with one).
	Workers int
}

// RunMulti executes the same bound query over several camera feeds
// concurrently, one goroutine per camera — the multi-camera deployment
// the paper contrasts with Optasia ("a system that accepts input from
// multiple cameras"). Results are returned sorted by camera id.
func RunMulti(plan *Plan, feeds []CameraFeed, tol Tolerances) []CameraResult {
	out := make([]CameraResult, len(feeds))
	// Camera-level fan-out already covers the cores, so each engine's
	// filter pool gets an equal share of GOMAXPROCS rather than a full
	// pool of its own (which would oversubscribe by the fleet size).
	perFeed := 1
	if len(feeds) > 0 {
		if perFeed = runtime.GOMAXPROCS(0) / len(feeds); perFeed < 1 {
			perFeed = 1
		}
	}
	var wg sync.WaitGroup
	for i, feed := range feeds {
		wg.Add(1)
		go func(i int, feed CameraFeed) {
			defer wg.Done()
			eng := &Engine{Backend: feed.Backend, Detector: feed.Detector, Tol: tol, Workers: perFeed}
			src := &stream.SliceSource{Frames: feed.Frames}
			out[i] = CameraResult{
				CameraID: feed.CameraID,
				Result:   eng.RunStream(plan, src, len(feed.Frames)),
				Workers:  perFeed,
			}
		}(i, feed)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].CameraID < out[b].CameraID })
	return out
}

// FrameRef identifies one matched frame across a camera fleet: the frame
// index alone is ambiguous once results from several cameras are
// combined, so merged matches carry their camera id.
type FrameRef struct {
	CameraID string
	// Index is the frame's position within its camera's executed sequence
	// (the same index the per-camera Result.Matched reports).
	Index int
}

// MergedResult is the fleet-wide roll-up of per-camera results.
type MergedResult struct {
	// Matched lists every confirmed frame with per-camera attribution, in
	// camera order (as sorted by RunMulti) and frame order within each
	// camera.
	Matched       []FrameRef
	FramesTotal   int
	FilterPassed  int
	DetectorCalls int
	VirtualTime   time.Duration
}

// Selectivity returns the fleet-wide fraction of frames that reached the
// detector.
func (m *MergedResult) Selectivity() float64 {
	if m.FramesTotal == 0 {
		return 0
	}
	return float64(m.FilterPassed) / float64(m.FramesTotal)
}

// MergeResults combines per-camera results into fleet totals. Matched
// frames keep their camera attribution — frame indices from different
// cameras are not comparable, so a flat index slice would be meaningless.
func MergeResults(results []CameraResult) MergedResult {
	var total MergedResult
	for _, r := range results {
		total.FramesTotal += r.Result.FramesTotal
		total.FilterPassed += r.Result.FilterPassed
		total.DetectorCalls += r.Result.DetectorCalls
		total.VirtualTime += r.Result.VirtualTime
		for _, idx := range r.Result.Matched {
			total.Matched = append(total.Matched, FrameRef{CameraID: r.CameraID, Index: idx})
		}
	}
	return total
}
