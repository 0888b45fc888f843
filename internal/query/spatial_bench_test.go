package query

import (
	"testing"

	"vmq/internal/filters"
	"vmq/internal/simclock"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// spatialFixture binds src against Detrac and precomputes the calibrated
// OD filter's outputs for n frames of a seed-1 stream, so a benchmark or
// allocation count sees only the predicate's evaluation.
func spatialFixture(tb testing.TB, src string, n int) (*Plan, []*filters.Output, []*video.Frame) {
	tb.Helper()
	q, err := vql.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	p := video.Detrac()
	plan := MustBind(q, p)
	frames := video.NewStream(p, 1).Take(n)
	outs := filters.EvaluateBatch(filters.NewODFilter(p, 1, simclock.New()), frames)
	return plan, outs, frames
}

// BenchmarkSpatialEvalFilter prices the filter-side evaluation of one of
// the served calibrated monitors (a count conjunct and a directional
// relation) per frame, at the default CCF-1/CLF-1 tolerances.
func BenchmarkSpatialEvalFilter(b *testing.B) {
	plan, outs, frames := spatialFixture(b, `SELECT FRAMES FROM detrac WHERE COUNT(bus) >= 1 AND car LEFT OF bus`, 500)
	pass := 0
	for k, out := range outs {
		if plan.Where.EvalFilter(out, frames[k].Bounds, DefaultTolerances) {
			pass++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(outs)
		plan.Where.EvalFilter(outs[k], frames[k].Bounds, DefaultTolerances)
	}
	b.ReportMetric(float64(pass)/float64(len(outs)), "pass_rate")
}

// The spatial predicates evaluate on the packed maps in place: neither a
// directional relation nor a region count allocates, at any location
// tolerance.
func TestSpatialEvalFilterAllocFree(t *testing.T) {
	for _, src := range []string{
		`SELECT FRAMES FROM detrac WHERE COUNT(bus) >= 1 AND car LEFT OF bus`,
		`SELECT FRAMES FROM detrac WHERE COUNT(car IN QUADRANT(LOWER LEFT)) >= 2`,
	} {
		plan, outs, frames := spatialFixture(t, src, 100)
		for loc := 0; loc <= 2; loc++ {
			tol := Tolerances{Count: 1, Location: loc}
			allocs := testing.AllocsPerRun(5, func() {
				for k, out := range outs {
					plan.Where.EvalFilter(out, frames[k].Bounds, tol)
				}
			})
			if allocs != 0 {
				t.Errorf("%s at %v: %v allocations per %d frames, want 0", src, tol, allocs, len(outs))
			}
		}
	}
}
