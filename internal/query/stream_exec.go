package query

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"vmq/internal/fault"
	"vmq/internal/filters"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// streamChunk is the unit of work flowing through the pipeline: a run of
// consecutive frames starting at stream index start. Chunking amortises
// channel operations and lets backends batch via filters.EvaluateBatch.
type streamChunk struct {
	start  int // stream index of frames[0]
	frames []*video.Frame
	pass   []bool // filter verdicts, set by the filter stage
}

// defaultChunkSize caps a chunk: large enough that per-chunk costs vanish
// next to filter evaluation, small enough that a backlog still flows
// through the stages chunk by chunk.
const defaultChunkSize = 32

// RunStream executes a bound monitoring query over up to n frames pulled
// from src, overlapping the pipeline stages the sequential loop
// interleaves:
//
//	source -> filter -> detector
//
// Each stage runs on one goroutine and hands chunks on in stream order.
// The source stage pulls frames and groups them into chunks of up to
// defaultChunkSize. On a source that reports how many frames it already
// holds (a fan-out subscription) a chunk never waits for frames that have
// not arrived. If the filter is a trained network (filters.Coalescable,
// directly or under a filters.Shared memo), whose GEMMs amortise over the
// batch, a chunk takes the frames already held, or the next frame alone
// when none is held: a paced feed confirms each match the moment its
// frame does, while a backlog fills whole chunks. Any other query on such
// a source streams chunks of one frame: it gains nothing from width, and
// a wide chunk would release its matches, and admit the feed's next
// frames, in chunk-wide bursts. The filter stage evaluates each chunk
// with one batch call, which a trained backend spreads over the cores
// itself; the detector stage confirms surviving frames on the caller's
// goroutine. All channels are bounded, so a slow detector back-pressures
// the source instead of buffering the whole stream.
//
// The result is identical — field for field, including Matched order and
// VirtualTime — to RunSequential over the same frames: the filter output
// of the deterministic backends depends only on the frame, the detector
// (whose RNG, if any, is call-order sensitive) always runs in frame
// order on a single goroutine, and virtual-time accounting is the same
// arithmetic over the same per-frame decisions. A short source ends the
// query gracefully: FramesTotal reports the frames actually seen.
func (e *Engine) RunStream(plan *Plan, src stream.Source, n int) *Result {
	res := &Result{}
	if n <= 0 {
		return res
	}
	filtering := e.Backend != nil && plan.Where != nil

	// failure latches the first panic recovered in any stage. Once set,
	// the source stops pulling, the filter stage passes chunks through
	// unevaluated, and the confirmation stage drains without confirming —
	// the pipeline unwinds cleanly and the caller gets a Result carrying
	// the Failure instead of a crashed process. One poisoned backend must
	// cost one query, never the server hosting it.
	var failure atomic.Pointer[Failure]
	fail := func(stage string, p any) {
		failure.CompareAndSwap(nil, &Failure{
			Stage: stage,
			Panic: fmt.Sprint(p),
			Stack: string(debug.Stack()),
		})
	}

	// Stage 1: pull frames from the source and chunk them.
	jobs := make(chan *streamChunk, 1)
	held, ragged := src.(interface{ Depth() int })
	heldCap := 1
	if ragged && filtering && evaluatesNetwork(e.Backend) {
		heldCap = defaultChunkSize
	}
	go func() {
		defer close(jobs)
		for start := 0; start < n; {
			if failure.Load() != nil {
				return // a stage faulted: stop feeding the pipeline
			}
			want := min(defaultChunkSize, n-start)
			if ragged {
				want = min(want, heldCap, max(1, held.Depth()))
			}
			frames := stream.Take(src, want)
			if len(frames) > 0 {
				jobs <- &streamChunk{start: start, frames: frames}
			}
			if len(frames) < want {
				return // source exhausted
			}
			start += want
		}
	}()

	// Stage 2: filter each chunk through the backend's batch path — one
	// clock transaction and, for the trained backends, one GEMM per layer
	// per chunk — into a scratch slice reused across chunks (the
	// EvaluateBatchInto aliasing rule), so the steady-state filter stage
	// allocates only the verdict slices that travel with the chunk.
	filtered := make(chan *streamChunk, 1)
	go func() {
		defer close(filtered)
		var outs []*filters.Output
		for c := range jobs {
			c.pass = make([]bool, len(c.frames))
			if !filtering {
				for i := range c.pass {
					c.pass[i] = true
				}
				filtered <- c
				continue
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						// A panicking backend poisons this query, not the
						// process: latch the failure and void the verdicts.
						fail("filter", p)
						outs = nil
						for i := range c.pass {
							c.pass[i] = false
						}
					}
				}()
				if failure.Load() != nil {
					return // already failed: forward unevaluated
				}
				if err := fault.Hit("query.filter"); err != nil {
					panic(err)
				}
				outs = filters.EvaluateBatchInto(e.Backend, c.frames, outs[:0])
				for i, f := range c.frames {
					c.pass[i] = plan.Where.EvalFilter(outs[i], f.Bounds, e.Tol)
				}
			}()
			filtered <- c
		}
	}()

	// Stage 3: confirm survivors with the detector, in frame order, on
	// this goroutine — the only stage that may carry order-sensitive
	// state (e.g. SimYOLO's RNG).
	var filterCost time.Duration
	if filtering {
		filterCost = e.Backend.Technique().Cost().PerCall
	}
	detectCost := e.Detector.Cost().PerCall
	for c := range filtered {
		if failure.Load() != nil {
			continue // drain so the pipeline unwinds; nothing more confirms
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					fail("detect", p)
				}
			}()
			for i, f := range c.frames {
				matched := false
				if c.pass[i] {
					if err := fault.Hit("query.detect"); err != nil {
						panic(err)
					}
					dets := e.Detector.Detect(f)
					matched = plan.Where == nil || plan.Where.EvalExact(dets, f.Bounds)
				}
				// Count the frame only once its confirmation returned: after
				// a detector panic the counters cover exactly the frames
				// confirmed before it.
				res.FramesTotal++
				if filtering {
					res.VirtualTime += filterCost
				}
				if c.pass[i] {
					res.FilterPassed++
					res.DetectorCalls++
					res.VirtualTime += detectCost
				}
				if matched {
					res.Matched = append(res.Matched, c.start+i)
				}
				if e.Observe != nil {
					e.Observe(FrameObservation{Index: c.start + i, Frame: f, Passed: c.pass[i], Matched: matched})
				}
			}
		}()
	}
	res.Failure = failure.Load()
	return res
}

// evaluatesNetwork reports whether b, or the backend under a shared memo,
// is a trained network.
func evaluatesNetwork(b filters.Backend) bool {
	if s, ok := b.(*filters.Shared); ok {
		b = s.Inner()
	}
	return filters.CoalesceKeyOf(b) != ""
}
