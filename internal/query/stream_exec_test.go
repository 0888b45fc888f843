package query

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/simclock"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// requireSameResult compares every Result field, including Matched order.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Matched, want.Matched) {
		t.Fatalf("%s: Matched = %v, want %v", label, got.Matched, want.Matched)
	}
	if got.FramesTotal != want.FramesTotal {
		t.Fatalf("%s: FramesTotal = %d, want %d", label, got.FramesTotal, want.FramesTotal)
	}
	if got.FilterPassed != want.FilterPassed {
		t.Fatalf("%s: FilterPassed = %d, want %d", label, got.FilterPassed, want.FilterPassed)
	}
	if got.DetectorCalls != want.DetectorCalls {
		t.Fatalf("%s: DetectorCalls = %d, want %d", label, got.DetectorCalls, want.DetectorCalls)
	}
	if got.VirtualTime != want.VirtualTime {
		t.Fatalf("%s: VirtualTime = %v, want %v", label, got.VirtualTime, want.VirtualTime)
	}
}

// The pipelined executor must be indistinguishable from the sequential
// reference loop for a fixed seed: same matches in the same order, same
// counter and virtual-time accounting — across sparse and dense streams,
// count-only and spatial predicates, both filter families, and the
// brute-force (nil backend) configuration.
func TestRunStreamMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		profile  video.Profile
		querySrc string
		ic       bool
		brute    bool
		tol      Tolerances
	}{
		{name: "jackson-count", profile: video.Jackson(),
			querySrc: `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND COUNT(person) = 1`},
		{name: "jackson-spatial", profile: video.Jackson(), tol: Tolerances{Count: 1, Location: 2},
			querySrc: `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`},
		{name: "detrac-dense", profile: video.Detrac(), tol: Tolerances{Count: 1},
			querySrc: `SELECT FRAMES FROM detrac WHERE COUNT(bus) >= 1 AND bus IN QUADRANT(UPPER LEFT)`},
		{name: "coral-ic", profile: video.Coral(), ic: true, tol: Tolerances{Count: 2, Location: 1},
			querySrc: `SELECT FRAMES FROM coral WHERE COUNT(person) >= 8`},
		{name: "jackson-brute", profile: video.Jackson(), brute: true,
			querySrc: `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`},
	}
	const n = 700
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := MustBind(parse(t, tc.querySrc), tc.profile)
			frames := video.NewStream(tc.profile, 77).Take(n)
			mkEngine := func() *Engine {
				e := &Engine{Detector: detect.NewOracle(nil), Tol: tc.tol}
				if tc.brute {
					return e
				}
				if tc.ic {
					e.Backend = filters.NewICFilter(tc.profile, 77, nil)
				} else {
					e.Backend = filters.NewODFilter(tc.profile, 77, nil)
				}
				return e
			}
			want := mkEngine().RunSequential(plan, frames)
			got := mkEngine().RunStream(plan, &stream.SliceSource{Frames: frames}, n)
			requireSameResult(t, "RunStream", got, want)
			adapter := mkEngine().Run(plan, frames)
			requireSameResult(t, "Run adapter", adapter, want)
			// And again, to prove the pipeline is deterministic run-to-run.
			again := mkEngine().RunStream(plan, &stream.SliceSource{Frames: frames}, n)
			requireSameResult(t, "RunStream repeat", again, want)
			// Frame-at-a-time chunking changes nothing (an idle
			// served feed, whose subscription never holds a second frame).
			requireSameResult(t, "chunks of one",
				mkEngine().RunStream(plan, &raggedSource{frames: frames, depths: []int{0}}, n), want)
		})
	}
}

// A trained (real-CNN) backend goes down the native batched path in
// RunStream — whole chunks per ForwardBatch — and must still be
// field-identical to the sequential per-frame reference: the batched
// kernels are bit-identical per frame regardless of how frames are
// chunked. Untrained weights keep the test fast; the kernels are the same.
func TestRunStreamBatchedTrainedMatchesSequential(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), p)
	frames := video.NewStream(p, 31).Take(150)
	cfg := filters.TrainedConfig{Img: 32, Channels: 8, Seed: 31}
	mk := func() *Engine {
		return &Engine{
			Backend:  filters.NewUntrained(filters.OD, p, cfg, nil),
			Detector: detect.NewOracle(nil),
			Tol:      Tolerances{Count: 1},
		}
	}
	want := mk().RunSequential(plan, frames)
	requireSameResult(t, "trained whole chunks",
		mk().RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames)), want)
	for _, depth := range []int{0, 6, 63} {
		got := mk().RunStream(plan, &raggedSource{frames: frames, depths: []int{depth}}, len(frames))
		requireSameResult(t, "trained ragged", got, want)
	}
	if want.FramesTotal != 150 {
		t.Fatalf("FramesTotal = %d", want.FramesTotal)
	}
}

// raggedSource serves frames from a slice and reports a scripted Depth,
// the way a fan-out subscription reports the frames it already holds:
// each call returns the next entry of depths, cycling. From cancelAt
// frames on (when positive) Next reports the end of the stream, as a
// subscription cancelled mid-chunk does.
type raggedSource struct {
	frames   []*video.Frame
	depths   []int
	cancelAt int
	pos      int
	calls    int
}

func (r *raggedSource) Next() (*video.Frame, bool) {
	if r.pos == len(r.frames) || (r.cancelAt > 0 && r.pos == r.cancelAt) {
		return nil, false
	}
	r.pos++
	return r.frames[r.pos-1], true
}

func (r *raggedSource) Depth() int {
	d := r.depths[r.calls%len(r.depths)]
	r.calls++
	return d
}

// widthBackend records the width of every batch evaluation it serves.
// With a non-empty key it declares itself a trained network
// (filters.Coalescable), which takes ragged chunks.
type widthBackend struct {
	filters.Backend
	key    string
	mu     sync.Mutex
	widths []int
}

func (w *widthBackend) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	w.mu.Lock()
	w.widths = append(w.widths, len(frames))
	w.mu.Unlock()
	return filters.EvaluateBatchInto(w.Backend, frames, dst)
}

func (w *widthBackend) ConcurrentSafe() bool { return true }

// networkBackend is a widthBackend that declares a coalescing key.
type networkBackend struct{ *widthBackend }

func (n networkBackend) CoalesceKey() string { return n.key }

// A source that reports its held frames gets ragged chunks when the
// filter is a trained network: each chunk is the frames already held,
// capped at 32 and at the query's frame budget, or the next frame alone
// when none is held. The scripted depths cover chunks of 1, 3, 32 and 7,
// depth 0, a depth past the cap, a frame budget that ends mid-chunk, and
// a cancellation mid-chunk; behind a shared memo the network keeps its
// ragged chunks, and a surrogate filter on the same source streams one
// frame per chunk. Every run stays field-identical to the sequential loop
// over the frames it saw, with every frame observed once in order, at one
// processor and at four.
func TestRunStreamRaggedChunks(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	frames := video.NewStream(p, 57).Take(100)
	script := []int{1, 3, 32, 7, 0, 40}
	ones := func(n int) []int {
		w := make([]int, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	cases := []struct {
		name     string
		key      string // coalescing key: a trained network when set
		memo     bool   // evaluate behind a filters.Shared memo
		n        int
		cancelAt int
		seen     int
		widths   []int
	}{
		{name: "script", key: "net", n: 100, seen: 100,
			widths: []int{1, 3, 32, 7, 1, 32, 1, 3, 20}},
		{name: "budget-mid-chunk", key: "net", n: 50, seen: 50,
			widths: []int{1, 3, 32, 7, 1, 6}},
		{name: "cancel-mid-chunk", key: "net", n: 100, cancelAt: 40, seen: 40,
			widths: []int{1, 3, 32, 4}},
		{name: "memo", key: "net", memo: true, n: 100, seen: 100,
			widths: []int{1, 3, 32, 7, 1, 32, 1, 3, 20}},
		{name: "surrogate", n: 100, seen: 100, widths: ones(100)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			label := fmt.Sprintf("%s/GOMAXPROCS=%d", tc.name, procs)
			want := (&Engine{Backend: filters.NewODFilter(p, 57, nil), Detector: detect.NewOracle(nil), Tol: Tolerances{Count: 1}}).
				RunSequential(plan, frames[:tc.seen])
			rec := &widthBackend{Backend: filters.NewODFilter(p, 57, nil), key: tc.key}
			var backend filters.Backend = rec
			if tc.key != "" {
				backend = networkBackend{rec}
			}
			if tc.memo {
				// The memo hands the recorder only the frames it has not
				// cached, which on one pass over the stream is every frame.
				backend = filters.NewShared(backend, 256)
			}
			next := 0
			eng := &Engine{Backend: backend, Detector: detect.NewOracle(nil), Tol: Tolerances{Count: 1},
				Observe: func(o FrameObservation) {
					if o.Index != next || o.Frame != frames[next] {
						t.Errorf("%s: observation %d carries index %d", label, next, o.Index)
					}
					next++
				}}
			got := eng.RunStream(plan, &raggedSource{frames: frames, depths: script, cancelAt: tc.cancelAt}, tc.n)
			requireSameResult(t, label, got, want)
			if next != tc.seen {
				t.Fatalf("%s: observed %d frames, want %d", label, next, tc.seen)
			}
			sort.Ints(rec.widths)
			sort.Ints(tc.widths)
			if !reflect.DeepEqual(rec.widths, tc.widths) {
				t.Fatalf("%s: chunk widths %v, want %v", label, rec.widths, tc.widths)
			}
		}
	}
}

// panicBatchBackend panics on its at-th batch call (from 1; 0 never) and
// records the stream index of that chunk's first frame. Only RunStream's
// filter goroutine calls it.
type panicBatchBackend struct {
	filters.Backend
	at, calls, faultAt int
}

func (b *panicBatchBackend) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	if b.calls++; b.calls == b.at {
		b.faultAt = frames[0].Index
		panic("injected filter panic")
	}
	return filters.EvaluateBatchInto(b.Backend, frames, dst)
}

// panicDetector panics when asked to confirm the frame whose index is at.
type panicDetector struct {
	detect.Detector
	at int
}

func (d panicDetector) Detect(f *video.Frame) []detect.Detection {
	if f.Index == d.at {
		panic("injected detector panic")
	}
	return d.Detector.Detect(f)
}

// A panic in either stage ends RunStream with the stage latched in
// Failure, the counters covering exactly the frames confirmed (observed)
// before the fault, and every pipeline goroutine gone: for a backend that
// panics on its third chunk and a detector that panics on one frame, over
// whole chunks and one-frame chunks, at one processor and at four.
func TestRunStreamUnwindsOnPanic(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	frames := video.NewStream(p, 61).Take(200)
	tol := Tolerances{Count: 1}
	mk := func() *Engine {
		return &Engine{Backend: filters.NewODFilter(p, 61, nil), Detector: detect.NewOracle(nil), Tol: tol}
	}
	// The detector faults on the first frame past the second 32-frame
	// chunk that the filter lets through.
	detectAt := -1
	ref := mk()
	ref.Observe = func(o FrameObservation) {
		if detectAt < 0 && o.Index >= 70 && o.Passed {
			detectAt = o.Index
		}
	}
	ref.RunSequential(plan, frames)
	if detectAt < 0 {
		t.Fatal("degenerate case: no frame past 70 passes the filter")
	}
	cases := []struct {
		stage              string
		filterAt, detectAt int
	}{
		{stage: "filter", filterAt: 3, detectAt: -1},
		{stage: "detect", detectAt: detectAt},
	}
	sources := map[string]func() stream.Source{
		"slice":  func() stream.Source { return &stream.SliceSource{Frames: frames} },
		"ragged": func() stream.Source { return &raggedSource{frames: frames, depths: []int{1, 3, 0}} },
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			for name, src := range sources {
				label := fmt.Sprintf("%s/%s/GOMAXPROCS=%d", tc.stage, name, procs)
				base := runtime.NumGoroutine()
				backend := &panicBatchBackend{Backend: filters.NewODFilter(p, 61, nil), at: tc.filterAt}
				confirmed := 0
				eng := &Engine{
					Backend:  backend,
					Detector: panicDetector{Detector: detect.NewOracle(nil), at: tc.detectAt},
					Tol:      tol,
					Observe: func(o FrameObservation) {
						if o.Index != confirmed {
							t.Errorf("%s: observation %d carries index %d", label, confirmed, o.Index)
						}
						confirmed++
					},
				}
				res := eng.RunStream(plan, src(), len(frames))
				if res.Failure == nil || res.Failure.Stage != tc.stage {
					t.Fatalf("%s: failure %+v, want stage %q", label, res.Failure, tc.stage)
				}
				// A filter fault may overtake chunks that are filtered but
				// not yet confirmed; a detector fault stops at its frame.
				if tc.stage == "filter" && confirmed > backend.faultAt ||
					tc.stage == "detect" && confirmed != detectAt {
					t.Fatalf("%s: confirmed %d frames (filter fault at %d, detector fault at %d)",
						label, confirmed, backend.faultAt, detectAt)
				}
				requireSameResult(t, label, res, mk().RunSequential(plan, frames[:confirmed]))
				settleGoroutines(t, label, base)
			}
		}
	}
}

// settleGoroutines waits until no more than base goroutines run: an
// unwound pipeline leaves none of its own behind.
func settleGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines still run, %d before:\n%s",
				label, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// A detector whose randomness is call-order sensitive (SimYOLO) still
// produces sequential-identical results: the confirmation stage always
// runs in frame order on one goroutine.
func TestRunStreamOrderSensitiveDetector(t *testing.T) {
	p := video.Detrac()
	plan := MustBind(parse(t, `SELECT FRAMES FROM detrac WHERE COUNT(car) >= 2`), p)
	frames := video.NewStream(p, 13).Take(600)
	tol := Tolerances{Count: 1}
	seq := (&Engine{Backend: filters.NewODFilter(p, 13, nil), Detector: detect.NewSimYOLO(nil, 99), Tol: tol}).
		RunSequential(plan, frames)
	str := (&Engine{Backend: filters.NewODFilter(p, 13, nil), Detector: detect.NewSimYOLO(nil, 99), Tol: tol}).
		RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	requireSameResult(t, "SimYOLO", str, seq)
	if seq.DetectorCalls == 0 {
		t.Fatal("degenerate case: detector never ran")
	}
}

// A source shorter than the requested frame budget ends the query
// gracefully: no panic, and FramesTotal reports the frames actually seen.
func TestRunStreamShortSource(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), p)
	frames := video.NewStream(p, 5).Take(100)
	eng := &Engine{Backend: filters.NewODFilter(p, 5, nil), Detector: detect.NewOracle(nil)}
	res := eng.RunStream(plan, &stream.SliceSource{Frames: frames}, 100000)
	want := (&Engine{Backend: filters.NewODFilter(p, 5, nil), Detector: detect.NewOracle(nil)}).
		RunSequential(plan, frames)
	requireSameResult(t, "short source", res, want)
	if res.FramesTotal != 100 {
		t.Fatalf("FramesTotal = %d, want 100", res.FramesTotal)
	}
	// n <= 0 is an empty query, not a hang.
	empty := eng.RunStream(plan, &stream.SliceSource{}, 0)
	if empty.FramesTotal != 0 || len(empty.Matched) != 0 {
		t.Fatalf("n=0 result = %+v", empty)
	}
}

// The streaming path charges the shared virtual clock exactly like the
// sequential path: one filter charge per frame, one detector charge per
// confirmation, regardless of chunking and batching.
func TestRunStreamClockAccounting(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	const n = 500
	clk := simclock.New()
	eng := &Engine{Backend: filters.NewODFilter(p, 3, clk), Detector: detect.NewOracle(clk), Tol: Tolerances{Count: 1}}
	res := eng.RunStream(plan, stream.FromStream(video.NewStream(p, 3)), n)
	if got := clk.Calls("od-filter"); got != n {
		t.Fatalf("filter charges = %d, want %d", got, n)
	}
	if got := clk.Calls("mask-rcnn"); got != int64(res.DetectorCalls) {
		t.Fatalf("detector charges = %d, want %d", got, res.DetectorCalls)
	}
	if clk.Elapsed() != res.VirtualTime {
		t.Fatalf("clock %v != result virtual time %v", clk.Elapsed(), res.VirtualTime)
	}
}

// A trained-style backend that is not concurrency-safe must be driven by
// a single filter worker, in frame order.
type orderRecordingBackend struct {
	filters.Backend
	order []int
}

func (o *orderRecordingBackend) Evaluate(f *video.Frame) *filters.Output {
	o.order = append(o.order, f.Index) // would race if fanned out
	return o.Backend.Evaluate(f)
}

func TestRunStreamSingleWorkerForUnsafeBackend(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	frames := video.NewStream(p, 8).Take(200)
	rec := &orderRecordingBackend{Backend: filters.NewODFilter(p, 8, nil)}
	if filters.ConcurrentSafe(rec) {
		t.Fatal("wrapper must not inherit concurrency safety")
	}
	eng := &Engine{Backend: rec, Detector: detect.NewOracle(nil), Tol: Tolerances{Count: 1}}
	res := eng.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	if len(rec.order) != len(frames) {
		t.Fatalf("backend saw %d frames, want %d", len(rec.order), len(frames))
	}
	for i, idx := range rec.order {
		if idx != frames[i].Index {
			t.Fatalf("out-of-order evaluation at position %d: frame %d", i, idx)
		}
	}
	want := (&Engine{Backend: filters.NewODFilter(p, 8, nil), Detector: detect.NewOracle(nil), Tol: Tolerances{Count: 1}}).
		RunSequential(plan, frames)
	requireSameResult(t, "unsafe backend", res, want)
}

// The Observe hook fires once per frame, in frame order, on both
// executors, and its Passed/Matched flags reconcile exactly with the
// returned Result — the contract the continuous-query server's event
// stream depends on.
func TestEngineObserveHook(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	frames := video.NewStream(p, 21).Take(300)
	run := func(label string, exec func(e *Engine) *Result) {
		var obs []FrameObservation
		eng := &Engine{
			Backend:  filters.NewODFilter(p, 21, nil),
			Detector: detect.NewOracle(nil),
			Tol:      Tolerances{Count: 1},
			Observe:  func(o FrameObservation) { obs = append(obs, o) },
		}
		res := exec(eng)
		if len(obs) != res.FramesTotal {
			t.Fatalf("%s: %d observations for %d frames", label, len(obs), res.FramesTotal)
		}
		var matched []int
		passed := 0
		for i, o := range obs {
			if o.Index != i {
				t.Fatalf("%s: observation %d carries index %d", label, i, o.Index)
			}
			if o.Frame != frames[i] {
				t.Fatalf("%s: observation %d carries the wrong frame", label, i)
			}
			if o.Matched && !o.Passed {
				t.Fatalf("%s: frame %d matched without passing the filter", label, i)
			}
			if o.Passed {
				passed++
			}
			if o.Matched {
				matched = append(matched, i)
			}
		}
		if passed != res.FilterPassed {
			t.Fatalf("%s: observed %d passes, result says %d", label, passed, res.FilterPassed)
		}
		if !reflect.DeepEqual(matched, res.Matched) {
			t.Fatalf("%s: observed matches %v, result says %v", label, matched, res.Matched)
		}
		if len(matched) == 0 {
			t.Fatalf("%s: degenerate case, nothing matched", label)
		}
	}
	run("sequential", func(e *Engine) *Result { return e.RunSequential(plan, frames) })
	run("stream", func(e *Engine) *Result {
		return e.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	})
}

// RunWindows on an exhausted source returns the completed windows'
// estimates plus a typed error, instead of panicking mid-window.
func TestRunWindowsExhaustedSource(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM jackson
		WHERE COUNT(car) >= 1
		WINDOW HOPPING (SIZE 200, ADVANCE BY 200)`), p)
	frames := video.NewStream(p, 41).Take(500) // 2.5 windows
	src := &stream.SliceSource{Frames: frames}
	results, err := RunWindows(plan, src, filters.NewODFilter(p, 41, nil), detect.NewOracle(nil), 5,
		AggregateConfig{SampleSize: 40, Sampler: stream.NewUniformSampler(2), MuFromFullWindow: true})
	if !errors.Is(err, stream.ErrExhausted) {
		t.Fatalf("error = %v, want ErrExhausted", err)
	}
	if len(results) != 2 {
		t.Fatalf("completed window estimates = %d, want 2", len(results))
	}
	for i, r := range results {
		if r.WindowSize != 200 {
			t.Fatalf("window %d size = %d", i, r.WindowSize)
		}
	}
}
