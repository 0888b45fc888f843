package query

import (
	"errors"
	"fmt"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// EachWindow estimates the query's windows one at a time as src yields
// them, honouring the WINDOW clause: HOPPING windows tile the stream or
// skip the frames between them, SLIDING windows overlap (a SLIDING
// advance of at least the size hops). Each window is estimated on its own
// with RunAggregate — the paper's one value per window — and handed to
// emit with its start, the position of its first frame among those this
// call pulls. The window's frames live in a buffer reused for the next
// window, so emit must not keep them.
//
// A window's step completes before emit's answer is heeded: the frames
// up to the next HOPPING window are consumed even when emit returns
// false, so a later call on the same source stays on the ADVANCE grid.
// EachWindow returns nil once emit returns false (running dry inside
// that last gap included), and an error wrapping stream.ErrExhausted
// when src ends first.
func EachWindow(plan *Plan, src stream.Source, backend filters.Backend, det detect.Detector, cfg AggregateConfig, emit func(start int, res *AggregateResult) bool) error {
	w := plan.Query.Window
	if err := checkWindow(w); err != nil {
		return err
	}
	buf := make([]*video.Frame, 0, w.Size)
	for start := 0; ; start += w.Advance {
		for len(buf) < w.Size {
			f, ok := src.Next()
			if !ok {
				return fmt.Errorf("%w: the window at %d needs %d frames, got %d", stream.ErrExhausted, start, w.Size, len(buf))
			}
			buf = append(buf, f)
		}
		res, err := RunAggregate(plan, buf, backend, det, cfg)
		if err != nil {
			return err
		}
		more := emit(start, res)
		if w.Advance < w.Size {
			buf = buf[:copy(buf, buf[w.Advance:])]
		} else {
			buf = buf[:0]
			for skip := w.Size; skip < w.Advance; skip++ {
				if _, ok := src.Next(); !ok {
					if !more {
						return nil
					}
					return fmt.Errorf("%w: in the gap before the window at %d", stream.ErrExhausted, start+w.Advance)
				}
			}
		}
		if !more {
			return nil
		}
	}
}

// RunWindows collects the estimates of n consecutive windows drawn from
// src (see EachWindow). The gap after the n-th HOPPING window is consumed
// too, and running dry inside it is not an error: every requested window
// is complete. If src runs out before n windows complete, the finished
// windows' estimates are returned together with an error wrapping
// stream.ErrExhausted.
func RunWindows(plan *Plan, src stream.Source, backend filters.Backend, det detect.Detector, n int, cfg AggregateConfig) ([]*AggregateResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("query: RunWindows needs n > 0, got %d", n)
	}
	out := make([]*AggregateResult, 0, n)
	err := EachWindow(plan, src, backend, det, cfg, func(_ int, res *AggregateResult) bool {
		out = append(out, res)
		return len(out) < n
	})
	if err != nil && !errors.Is(err, stream.ErrExhausted) {
		return nil, err
	}
	return out, err
}
