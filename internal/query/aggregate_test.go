package query

import (
	"testing"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/simclock"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// The window scan reads every frame once: an unmemoised filter is charged
// exactly one call per window frame, and the detector one per sample.
func TestRunAggregateChargesEachFrameOnce(t *testing.T) {
	p := video.Detrac()
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM detrac
		WHERE COUNT(car) >= 12 AND car LEFT OF bus
		WINDOW HOPPING (SIZE 300, ADVANCE BY 300)`), p)
	clock := simclock.New()
	backend := filters.NewODFilter(p, 1, clock)
	src := stream.FromStream(video.NewStream(p, 3))
	const windows, samples = 2, 50
	res, err := RunWindows(plan, src, backend, detect.NewOracle(clock), windows,
		AggregateConfig{SampleSize: samples, Sampler: stream.NewUniformSampler(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != windows {
		t.Fatalf("got %d windows, want %d", len(res), windows)
	}
	if got := clock.Calls(filters.OD.Cost().Name); got != windows*300 {
		t.Errorf("filter charged %d calls over %d windows of 300 frames, want %d", got, windows, windows*300)
	}
	if got := clock.Calls(simclock.CostMaskRCNN.Name); got != windows*samples {
		t.Errorf("detector charged %d calls, want %d", got, windows*samples)
	}
}

// GroundTruth copies objects into one reused buffer: its allocations are
// the result and that buffer, however many frames it reads.
func TestGroundTruthAllocations(t *testing.T) {
	p := video.Detrac()
	plan := MustBind(parse(t, `SELECT FRAMES FROM detrac WHERE COUNT(bus) >= 1 AND car LEFT OF bus`), p)
	frames := video.NewStream(p, 1).Take(500)
	if allocs := testing.AllocsPerRun(5, func() { GroundTruth(plan, frames) }); allocs != 2 {
		t.Errorf("GroundTruth over %d frames made %v allocations, want 2 (its []bool and one detection buffer)", len(frames), allocs)
	}
}

// windowFixture is one of the served calibrated aggregates' window close:
// a 500-frame Detrac window estimated from 200 samples, with the
// calibrated OD filter behind a warm filters.Shared memo and the oracle
// behind a warm detect.Memo, as a feed's registrations share them.
func windowFixture(tb testing.TB, src string) (*Plan, []*video.Frame, filters.Backend, detect.Detector) {
	tb.Helper()
	q, err := vql.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	p := video.Detrac()
	plan := MustBind(q, p)
	frames := video.NewStream(p, 1).Take(500)
	clock := simclock.New()
	backend := filters.NewShared(filters.NewODFilter(p, 1, clock), len(frames))
	det := detect.NewMemo(detect.NewOracle(clock), len(frames))
	filters.EvaluateBatch(backend, frames)
	for _, f := range frames {
		det.Detect(f)
	}
	return plan, frames, backend, det
}

// BenchmarkWindowClose prices RunAggregate at a window's close behind warm
// memos: what one aggregate query costs its feed per window beyond the
// shared filter and detector work.
func BenchmarkWindowClose(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"count", `SELECT COUNT(FRAMES) FROM detrac WHERE COUNT(car) >= 12 WINDOW HOPPING (SIZE 500, ADVANCE BY 500)`},
		{"avg", `SELECT AVG(COUNT(car)) FROM detrac WINDOW HOPPING (SIZE 500, ADVANCE BY 500)`},
	} {
		b.Run(c.name, func(b *testing.B) {
			plan, frames, backend, det := windowFixture(b, c.src)
			cfg := AggregateConfig{SampleSize: 200, Sampler: stream.NewUniformSampler(1)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunAggregate(plan, frames, backend, det, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
