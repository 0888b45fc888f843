package query

import (
	"errors"
	"reflect"
	"testing"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// frameRecorder notes the index of every frame the estimator filters.
// With MuFromFullWindow every frame of a window is filtered, so the
// distinct indices seen since the last window are that window's frames.
type frameRecorder struct {
	filters.Backend
	seen []int
}

func (r *frameRecorder) Evaluate(f *video.Frame) *filters.Output {
	r.seen = append(r.seen, f.Index)
	return r.Backend.Evaluate(f)
}

// window drains the indices recorded since the last call, in first-seen
// order without repeats.
func (r *frameRecorder) window() []int {
	var out []int
	dup := map[int]bool{}
	for _, i := range r.seen {
		if !dup[i] {
			dup[i] = true
			out = append(out, i)
		}
	}
	r.seen = r.seen[:0]
	return out
}

// windowPlan binds a COUNT(FRAMES) query with the given WINDOW clause
// over Jackson; a nil spec drops the clause.
func windowPlan(t *testing.T, spec *vql.WindowSpec) *Plan {
	t.Helper()
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) >= 1`), video.Jackson())
	plan.Query.Window = spec
	return plan
}

func hopping(size, advance int) *vql.WindowSpec {
	return &vql.WindowSpec{Kind: vql.Hopping, Size: size, Advance: advance}
}

func sliding(size, advance int) *vql.WindowSpec {
	return &vql.WindowSpec{Kind: vql.Sliding, Size: size, Advance: advance}
}

func windowConfig() AggregateConfig {
	return AggregateConfig{SampleSize: 4, Sampler: stream.NewUniformSampler(1), MuFromFullWindow: true}
}

// collectWindows runs EachWindow for up to n windows and returns each
// window's start and the frame indices its estimate read.
func collectWindows(t *testing.T, spec *vql.WindowSpec, src stream.Source, n int) (starts []int, frames [][]int, err error) {
	t.Helper()
	rec := &frameRecorder{Backend: filters.NewODFilter(video.Jackson(), 1, nil)}
	err = EachWindow(windowPlan(t, spec), src, rec, detect.NewOracle(nil), windowConfig(), func(start int, res *AggregateResult) bool {
		if res.WindowSize != spec.Size {
			t.Fatalf("window at %d has %d frames, want %d", start, res.WindowSize, spec.Size)
		}
		starts = append(starts, start)
		frames = append(frames, rec.window())
		return len(starts) < n
	})
	return starts, frames, err
}

func span(first, size int) []int {
	out := make([]int, size)
	for i := range out {
		out[i] = first + i
	}
	return out
}

func TestEachWindowHoppingTile(t *testing.T) {
	src := stream.FromStream(video.NewStream(video.Jackson(), 1))
	starts, frames, err := collectWindows(t, hopping(100, 100), src, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 5 {
		t.Fatalf("got %d windows", len(starts))
	}
	for i := range starts {
		if starts[i] != i*100 || !reflect.DeepEqual(frames[i], span(i*100, 100)) {
			t.Fatalf("window %d starts at %d over frames %v", i, starts[i], frames[i])
		}
	}
	// Run to the end of a bounded source: every full window is emitted,
	// then the typed exhaustion error.
	clip := video.NewStream(video.Jackson(), 1).Take(450)
	starts, _, err = collectWindows(t, hopping(100, 100), &stream.SliceSource{Frames: clip}, 1<<30)
	if !errors.Is(err, stream.ErrExhausted) || !reflect.DeepEqual(starts, []int{0, 100, 200, 300}) {
		t.Fatalf("bounded source: starts %v, err %v", starts, err)
	}
}

func TestEachWindowHoppingGap(t *testing.T) {
	src := stream.FromStream(video.NewStream(video.Jackson(), 2))
	starts, frames, err := collectWindows(t, hopping(10, 25), src, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, first := range []int{0, 25, 50} {
		if starts[i] != first || !reflect.DeepEqual(frames[i], span(first, 10)) {
			t.Fatalf("gap handling wrong: window %d starts at %d over frames %v", i, starts[i], frames[i])
		}
	}
}

func TestEachWindowInvalidSpecs(t *testing.T) {
	src := stream.FromStream(video.NewStream(video.Jackson(), 3))
	backend, det := filters.NewODFilter(video.Jackson(), 1, nil), detect.NewOracle(nil)
	for name, spec := range map[string]*vql.WindowSpec{
		"no window":           nil,
		"hopping size 0":      hopping(0, 1),
		"hopping advance 0":   hopping(10, 0),
		"overlapping hopping": hopping(10, 5),
		"sliding size 0":      sliding(0, 1),
	} {
		err := EachWindow(windowPlan(t, spec), src, backend, det, windowConfig(), func(int, *AggregateResult) bool {
			t.Fatalf("%s: window emitted", name)
			return false
		})
		if err == nil || errors.Is(err, stream.ErrExhausted) {
			t.Errorf("%s: error = %v", name, err)
		}
	}
	if _, err := RunWindows(windowPlan(t, hopping(10, 10)), src, backend, det, 0, windowConfig()); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestEachWindowSlidingOverlap(t *testing.T) {
	src := stream.FromStream(video.NewStream(video.Jackson(), 4))
	starts, frames, err := collectWindows(t, sliding(10, 3), src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 4 {
		t.Fatalf("got %d windows", len(starts))
	}
	// Each window holds the 7 frames it shares with the one before it.
	for i := range starts {
		if starts[i] != i*3 || !reflect.DeepEqual(frames[i], span(i*3, 10)) {
			t.Fatalf("window %d starts at %d over frames %v", i, starts[i], frames[i])
		}
	}
}

func TestEachWindowSlidingWithoutOverlapHops(t *testing.T) {
	src := stream.FromStream(video.NewStream(video.Jackson(), 5))
	starts, frames, err := collectWindows(t, sliding(5, 5), src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if starts[2] != 10 || !reflect.DeepEqual(frames[2], span(10, 5)) {
		t.Fatalf("tiling sliding window wrong: start %d over frames %v", starts[2], frames[2])
	}
	starts, frames, err = collectWindows(t, sliding(5, 8), src, 2)
	if err != nil || starts[1] != 8 || frames[1][0] != 15+8 {
		t.Fatalf("gapped sliding window wrong: start %d, first frame %d, err %v", starts[1], frames[1][0], err)
	}
}

func TestRunWindowsHoppingExhaustion(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 11).Take(25)
	backend, det := filters.NewODFilter(video.Jackson(), 1, nil), detect.NewOracle(nil)
	run := func(spec *vql.WindowSpec, src stream.Source, n int) ([]*AggregateResult, error) {
		return RunWindows(windowPlan(t, spec), src, backend, det, n, windowConfig())
	}
	wins, err := run(hopping(10, 10), &stream.SliceSource{Frames: frames}, 4)
	if !errors.Is(err, stream.ErrExhausted) {
		t.Fatalf("short source error = %v, want ErrExhausted", err)
	}
	if len(wins) != 2 {
		t.Fatalf("complete windows = %d, want 2", len(wins))
	}
	// A source holding exactly n full windows succeeds: running dry in the
	// trailing gap is not an error once every window is complete.
	if wins, err := run(hopping(5, 15), &stream.SliceSource{Frames: frames[:20]}, 2); err != nil || len(wins) != 2 {
		t.Fatalf("exact-fit gapped windows: %v (%d wins)", err, len(wins))
	}
	// On a longer source the trailing gap is consumed, so repeated calls
	// stay on the ADVANCE grid.
	long := stream.FromStream(video.NewStream(video.Jackson(), 13))
	if _, err := run(hopping(5, 15), long, 2); err != nil {
		t.Fatal(err)
	}
	if next, ok := long.Next(); !ok || next.Index != 30 {
		t.Fatalf("second call off the hop grid: next frame %d", next.Index)
	}
	// Exhaustion inside a gap before a requested window still reports the
	// typed error.
	if _, err := run(hopping(5, 15), &stream.SliceSource{Frames: frames[:12]}, 2); !errors.Is(err, stream.ErrExhausted) {
		t.Fatalf("gap exhaustion error = %v", err)
	}
}

func TestRunWindowsSlidingExhaustion(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 12).Take(14)
	starts, _, err := collectWindows(t, sliding(10, 2), &stream.SliceSource{Frames: frames}, 5)
	if !errors.Is(err, stream.ErrExhausted) || !reflect.DeepEqual(starts, []int{0, 2, 4}) {
		t.Fatalf("short source: starts %v, err %v", starts, err)
	}
	wins, err := RunWindows(windowPlan(t, sliding(10, 2)), &stream.SliceSource{Frames: frames},
		filters.NewODFilter(video.Jackson(), 1, nil), detect.NewOracle(nil), 5, windowConfig())
	if !errors.Is(err, stream.ErrExhausted) || len(wins) != 3 {
		t.Fatalf("complete windows = %d (err %v), want 3 (starts 0,2,4)", len(wins), err)
	}
}
