package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/simclock"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// countingDetector counts true Detect invocations through an inner
// order-insensitive detector.
type countingDetector struct {
	inner detect.Detector
	mu    sync.Mutex
	calls int
}

func (c *countingDetector) Detect(f *video.Frame) []detect.Detection {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.inner.Detect(f)
}
func (c *countingDetector) Cost() simclock.Cost { return c.inner.Cost() }
func (c *countingDetector) OrderInsensitiveDetections() bool {
	return detect.IsOrderInsensitive(c.inner)
}
func (c *countingDetector) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// Queries sharing the feed's oracle pay one Detect per distinct confirmed
// frame — the shared detector stage mirrors the filter memo.
func TestServerSharedDetectorOneDetectPerFrame(t *testing.T) {
	p := video.Jackson()
	const n, nQueries = 300, 5
	counting := &countingDetector{inner: detect.NewOracle(nil)}
	frames := video.NewStream(p, 23).Take(n)
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name:    p.Name,
		Profile: p,
		Source:  &stream.SliceSource{Frames: frames},
		// No WHERE filter would confirm every frame; use the default OD
		// backend and a permissive predicate so plenty of frames confirm.
		NewDetector: func() detect.Detector { return counting },
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	regs := make([]*Registration, nQueries)
	for i := range regs {
		var err error
		regs[i], err = srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	var wg sync.WaitGroup
	for _, r := range regs {
		wg.Add(1)
		go func(r *Registration) {
			defer wg.Done()
			drain(r)
		}(r)
	}
	wg.Wait()

	// COUNT >= 0 passes every frame through every query's confirmation
	// stage: without the memo that is nQueries*n Detects, with it n.
	if got := counting.Calls(); got != n {
		t.Fatalf("detector ran %d times for %d frames x %d queries — shared stage broken", got, n, nQueries)
	}
	m := srv.Metrics()
	sd := m.Feeds[0].SharedDetector
	if sd == nil {
		t.Fatal("no shared detector metrics")
	}
	if sd.Evals != n || sd.Hits != int64((nQueries-1)*n) {
		t.Fatalf("shared detector counters = %+v", *sd)
	}
	if sd.EvalsPerFrame != 1 {
		t.Fatalf("evals/frame = %v, want 1", sd.EvalsPerFrame)
	}
	// Each query still accounts its own confirmations (the virtual cost
	// model is per query; the memo saves real compute only).
	for _, qm := range m.Queries {
		if qm.DetectorCalls != n {
			t.Fatalf("query %s detector calls = %d, want %d", qm.ID, qm.DetectorCalls, n)
		}
	}
}

// An order-sensitive detector factory must NOT be shared: each query gets
// its own instance, exactly as before.
func TestServerOrderSensitiveDetectorNotShared(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	var mu sync.Mutex
	made := 0
	if err := srv.AddFeed(FeedConfig{
		Name:    p.Name,
		Profile: p,
		Source:  stream.FromStream(video.NewStream(p, 29)),
		NewDetector: func() detect.Detector {
			mu.Lock()
			made++
			mu.Unlock()
			return detect.NewSimYOLO(nil, 29)
		},
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 3; i++ {
		r, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), Options{MaxFrames: 10})
		if err != nil {
			t.Fatal(err)
		}
		go drain(r)
	}
	srv.Start()
	srv.Close()
	mu.Lock()
	defer mu.Unlock()
	// One probe at feed construction plus one per registration.
	if made != 4 {
		t.Fatalf("detector factory ran %d times, want 4 (probe + one per query)", made)
	}
	m := srv.Metrics()
	if m.Feeds[0].SharedDetector != nil {
		t.Fatal("order-sensitive detector must not report a shared stage")
	}
}

// Micro-batching must not change any query's results: the same fleet over
// the same recording with batching on (default), off (ScanBatch 1), and
// with a trained backend, yields identical events; and a paced feed's
// batcher closes its batches early instead of waiting for a full one.
func TestServerScanBatchEquivalenceAndPacedFlush(t *testing.T) {
	p := video.Jackson()
	const n = 256
	frames := video.NewStream(p, 33).Take(n)
	run := func(cfg Config, backend filters.Backend) [][]Event {
		srv := New(cfg)
		if err := srv.AddFeed(FeedConfig{
			Name: p.Name, Profile: p,
			Source:  &stream.SliceSource{Frames: frames},
			Backend: backend,
		}); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		regs := make([]*Registration, 3)
		for i := range regs {
			var err error
			regs[i], err = srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), Options{})
			if err != nil {
				t.Fatal(err)
			}
		}
		srv.Start()
		out := make([][]Event, len(regs))
		var wg sync.WaitGroup
		for i, r := range regs {
			wg.Add(1)
			go func(i int, r *Registration) {
				defer wg.Done()
				evs, _, _ := drain(r)
				out[i] = evs
			}(i, r)
		}
		wg.Wait()
		return out
	}
	requireSameEvents := func(label string, got, want [][]Event) {
		t.Helper()
		for q := range want {
			if len(got[q]) != len(want[q]) {
				t.Fatalf("%s: query %d event count %d vs %d", label, q, len(got[q]), len(want[q]))
			}
			for i := range want[q] {
				g, w := got[q][i], want[q][i]
				if g.Kind != w.Kind || g.Seq != w.Seq || g.FrameIndex != w.FrameIndex || g.Objects != w.Objects {
					t.Fatalf("%s: query %d event %d = %+v, want %+v", label, q, i, g, w)
				}
			}
		}
	}

	batched := run(Config{}, filters.NewODFilter(p, 33, nil))
	unbatched := run(Config{ScanBatch: 1}, filters.NewODFilter(p, 33, nil))
	requireSameEvents("calibrated", batched, unbatched)

	tcfg := filters.TrainedConfig{Img: 32, Channels: 8, Seed: 33}
	trainedBatched := run(Config{}, filters.NewUntrained(filters.OD, p, tcfg, nil))
	trainedUnbatched := run(Config{ScanBatch: 1}, filters.NewUntrained(filters.OD, p, tcfg, nil))
	requireSameEvents("trained", trainedBatched, trainedUnbatched)

	// Paced feed: frames arrive ~1ms apart, so batches must close small
	// instead of stalling the pipeline for 16 frames; the events still
	// match an unpaced run.
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:        &stream.SliceSource{Frames: frames[:64]},
		Backend:       filters.NewODFilter(p, 33, nil),
		FrameInterval: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	evs, _, sawEnd := drain(r)
	if !sawEnd {
		t.Fatal("paced run did not finish")
	}
	m := srv.Metrics()
	fm := m.Feeds[0]
	if fm.ScanBatches == 0 {
		t.Fatal("paced feed produced no batches")
	}
	if fm.ScanAvgBatch > 8 {
		t.Fatalf("paced feed batches average %.1f frames — batches are waiting for batch-mates", fm.ScanAvgBatch)
	}
	// Sanity: the paced run still produced the standalone-identical match
	// set for its prefix.
	eng := &query.Engine{Backend: filters.NewODFilter(p, 33, nil), Detector: detect.NewOracle(nil), Tol: query.Tolerances{Count: 1, Location: 1}}
	plan := query.MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	want := eng.RunStream(plan, &stream.SliceSource{Frames: frames[:64]}, 64)
	if len(evs) != len(want.Matched) {
		t.Fatalf("paced run matched %d frames, standalone %d", len(evs), len(want.Matched))
	}
	for i, ev := range evs {
		if ev.Seq != want.Matched[i] {
			t.Fatalf("paced match %d at seq %d, want %d", i, ev.Seq, want.Matched[i])
		}
	}
}

// chanSource yields the frames a test sends it, one at a time, and ends
// when the channel closes.
type chanSource chan *video.Frame

func (c chanSource) Next() (*video.Frame, bool) {
	f, ok := <-c
	return f, ok
}

// gatedBackend is a trained filter backend whose batch evaluations park
// until the test lets them through. entered reports each evaluation's
// width as it starts; one token on release (or closing it) lets one
// evaluation (or all of them) finish; frames counts finished evaluations'
// frames. It stays coalescable, so the broker wraps it like its inner
// backend.
type gatedBackend struct {
	filters.Coalescable
	entered chan int
	release chan struct{}
	frames  atomic.Int64
}

func newGatedBackend(inner filters.Coalescable) *gatedBackend {
	// entered is sized past any test's evaluation count so the backend
	// never blocks on a test that has stopped reading it.
	return &gatedBackend{Coalescable: inner, entered: make(chan int, 64), release: make(chan struct{})}
}

func (g *gatedBackend) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	g.entered <- len(frames)
	<-g.release
	dst = g.Coalescable.EvaluateBatch(frames, dst)
	g.frames.Add(int64(len(frames)))
	return dst
}

func (g *gatedBackend) Evaluate(f *video.Frame) *filters.Output {
	var out [1]*filters.Output
	return g.EvaluateBatch([]*video.Frame{f}, out[:0])[0]
}

// The scan batcher's closing rule, step by step against a gated memo
// backend: a lone frame is dispatched at once while no second frame
// exists; with both warm-up slots busy the next batch keeps growing to
// the cap and no further; it closes the moment a slot frees; and end of
// stream is reported only after every warm-up has landed.
func TestScanBatcherClosesWhenEvaluatorFree(t *testing.T) {
	p := video.Jackson()
	const size = 16
	const total = 2 + 2*size + 1
	clip := video.NewStream(p, 33).Take(total)
	gate := newGatedBackend(filters.NewUntrained(filters.OD, p, filters.TrainedConfig{Img: 16, Channels: 8, Seed: 33}, nil))
	src := make(chanSource)
	b := newScanBatcher(src, filters.NewShared(gate, 4096), func() bool { return true }, size)
	defer b.shutdown()
	next := func(want int) {
		t.Helper()
		if f, ok := b.Next(); !ok || f != clip[want] {
			t.Fatalf("Next = %v, %v; want frame %d", f, ok, want)
		}
	}

	// An idle evaluator: each lone frame is its own batch, dispatched
	// while the source holds nothing else. The first warm-up starts (and
	// parks in the gate); the second waits its turn in the other slot.
	go func() { src <- clip[0] }() // the puller starts on the first Next
	next(0)
	if w := <-gate.entered; w != 1 {
		t.Fatalf("first warm-up evaluated %d frames, want 1", w)
	}
	src <- clip[1]
	next(1)
	if got := b.batches.Load(); got != 2 {
		t.Fatalf("%d batches closed for two lone frames, want 2", got)
	}

	// Both slots busy: the pump blocks collecting the third batch. The
	// source takes size+size+1 more frames only once the batch holds its
	// cap of size, the look-ahead channel size, and the puller one.
	pumped := make(chan *video.Frame)
	go func() {
		defer close(pumped)
		for {
			f, ok := b.Next()
			if !ok {
				return
			}
			pumped <- f
		}
	}()
	for _, f := range clip[2:] {
		src <- f
	}
	if got := b.batches.Load(); got != 2 {
		t.Fatalf("a batch closed with no warm-up slot free (%d batches)", got)
	}

	// One slot frees: the waiting batch closes at once, at the cap.
	gate.release <- struct{}{}
	for i := 2; i < 2+size; i++ {
		if f := <-pumped; f != clip[i] {
			t.Fatalf("pumped frame %d out of order", i)
		}
	}
	if got, frames := b.batches.Load(), b.framesN.Load(); got != 3 || frames != 2+size {
		t.Fatalf("after one slot freed: %d batches over %d frames, want 3 over %d", got, frames, 2+size)
	}

	// End of stream: EOF must not surface before every queued warm-up has
	// been evaluated.
	close(gate.release)
	close(src)
	for i := 2 + size; i < total; i++ {
		if f := <-pumped; f != clip[i] {
			t.Fatalf("pumped frame %d out of order", i)
		}
	}
	if _, open := <-pumped; open {
		t.Fatal("frames past the end of the source")
	}
	if got := gate.frames.Load(); got != total {
		t.Fatalf("EOF surfaced with %d of %d frames warmed", got, total)
	}
	// The first width was read above.
	for _, want := range []int{1, size, size, 1} {
		if w := <-gate.entered; w != want {
			t.Fatalf("warm-up evaluated %d frames, want %d", w, want)
		}
	}
}
