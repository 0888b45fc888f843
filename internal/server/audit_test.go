package server

import (
	"testing"

	"vmq/internal/query"
	"vmq/internal/video"
)

// A monitor's recall audit reads each frame's ground truth through one
// reused buffer: once the buffer has grown to the feed's most crowded
// frame, booking a frame allocates nothing.
func TestMonitorAuditAllocatesNothingPerFrame(t *testing.T) {
	p := video.Detrac()
	plan := query.MustBind(parse(t, `SELECT FRAMES FROM detrac WHERE COUNT(bus) >= 1 AND car LEFT OF bus`), p)
	frames := video.NewStream(p, 1).Take(200)
	truth := query.NewTruth(plan)
	var s regStats
	obs := func(i int) query.FrameObservation {
		return query.FrameObservation{Index: i, Frame: frames[i%len(frames)], Passed: i%2 == 0, Matched: i%4 == 0}
	}
	for i := range frames {
		s.audit(obs(i), truth)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(frames), func() {
		s.audit(obs(i), truth)
		i++
	})
	if allocs != 0 {
		t.Errorf("audit made %v allocations per frame, want 0", allocs)
	}
	if want := len(frames) + len(frames) + 1; s.frames != want || s.acc.N != want {
		t.Errorf("audit booked %d frames (%d ground-truth checks), want %d", s.frames, s.acc.N, want)
	}
}
