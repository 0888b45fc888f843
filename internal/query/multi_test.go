package query

import (
	"fmt"
	"testing"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/simclock"
	"vmq/internal/video"
)

func TestRunMultiMatchesSequential(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	tol := Tolerances{Count: 1}

	const cameras = 4
	feeds := make([]CameraFeed, cameras)
	sequential := make([]*Result, cameras)
	for i := 0; i < cameras; i++ {
		seed := uint64(100 + i)
		frames := video.NewStream(p, seed).Take(400)
		feeds[i] = CameraFeed{
			CameraID: fmt.Sprintf("cam%d", i),
			Frames:   frames,
			Backend:  filters.NewODFilter(p, seed, nil),
			Detector: detect.NewOracle(nil),
		}
		// Sequential reference with identical stacks.
		eng := &Engine{
			Backend:  filters.NewODFilter(p, seed, nil),
			Detector: detect.NewOracle(nil),
			Tol:      tol,
		}
		sequential[i] = eng.Run(plan, frames)
	}

	results := RunMulti(plan, feeds, tol)
	if len(results) != cameras {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.CameraID != fmt.Sprintf("cam%d", i) {
			t.Fatalf("results not sorted: %v", r.CameraID)
		}
		seq := sequential[i]
		if len(r.Result.Matched) != len(seq.Matched) ||
			r.Result.FilterPassed != seq.FilterPassed {
			t.Fatalf("cam%d: concurrent run diverged from sequential: %d/%d vs %d/%d",
				i, len(r.Result.Matched), r.Result.FilterPassed,
				len(seq.Matched), seq.FilterPassed)
		}
	}

	merged := MergeResults(results)
	if merged.FramesTotal != cameras*400 {
		t.Fatalf("merged frames = %d", merged.FramesTotal)
	}
	wantMatched := 0
	for _, s := range sequential {
		wantMatched += len(s.Matched)
	}
	if len(merged.Matched) != wantMatched {
		t.Fatalf("merged matches = %d, want %d", len(merged.Matched), wantMatched)
	}
	// Merged matches carry per-camera attribution: the same (camera,
	// index) pairs the per-camera results report, in camera order.
	pos := 0
	for i, s := range sequential {
		for _, idx := range s.Matched {
			want := FrameRef{CameraID: fmt.Sprintf("cam%d", i), Index: idx}
			if merged.Matched[pos] != want {
				t.Fatalf("merged.Matched[%d] = %+v, want %+v", pos, merged.Matched[pos], want)
			}
			pos++
		}
	}
	if merged.Selectivity() <= 0 || merged.Selectivity() > 1 {
		t.Fatalf("merged selectivity = %v", merged.Selectivity())
	}
}

// The virtual clock is safe under concurrent charging from all cameras.
func TestRunMultiSharedClock(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), p)
	clk := simclock.New()
	const cameras = 3
	feeds := make([]CameraFeed, cameras)
	for i := 0; i < cameras; i++ {
		seed := uint64(200 + i)
		feeds[i] = CameraFeed{
			CameraID: fmt.Sprintf("cam%d", i),
			Frames:   video.NewStream(p, seed).Take(200),
			Backend:  filters.NewODFilter(p, seed, clk),
			Detector: detect.NewOracle(clk),
		}
	}
	results := RunMulti(plan, feeds, Tolerances{})
	if got := clk.Calls("od-filter"); got != cameras*200 {
		t.Fatalf("shared clock filter calls = %d, want %d", got, cameras*200)
	}
	var detCalls int64
	for _, r := range results {
		detCalls += int64(r.Result.DetectorCalls)
	}
	if clk.Calls("mask-rcnn") != detCalls {
		t.Fatalf("shared clock detector calls = %d, want %d", clk.Calls("mask-rcnn"), detCalls)
	}
}
