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

// Serving must not change any query's results: three queries sharing one
// feed's scan, whose chunks batch the backlog, each yield exactly the
// events of a standalone run of the same recording — with the calibrated
// and with a trained backend — and so does a paced feed.
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
	plan := query.MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	requireStandalone := func(label string, got [][]Event, backend filters.Backend) {
		t.Helper()
		want := (&query.Engine{Backend: backend, Detector: detect.NewOracle(nil), Tol: query.Tolerances{Count: 1, Location: 1}}).
			RunSequential(plan, frames)
		for q := range got {
			if len(got[q]) != len(want.Matched) {
				t.Fatalf("%s: query %d matched %d frames, standalone %d", label, q, len(got[q]), len(want.Matched))
			}
			for i, ev := range got[q] {
				f := frames[want.Matched[i]]
				if ev.Kind != EventMatch || ev.Seq != want.Matched[i] || ev.FrameIndex != f.Index || ev.Objects != len(f.Objects) {
					t.Fatalf("%s: query %d event %d = %+v, want the match at seq %d", label, q, i, ev, want.Matched[i])
				}
			}
		}
	}

	requireStandalone("calibrated", run(Config{}, filters.NewODFilter(p, 33, nil)), filters.NewODFilter(p, 33, nil))
	tcfg := filters.TrainedConfig{Img: 32, Channels: 8, Seed: 33}
	requireStandalone("trained", run(Config{}, filters.NewUntrained(filters.OD, p, tcfg, nil)),
		filters.NewUntrained(filters.OD, p, tcfg, nil))

	// Paced feed: frames arrive ~1ms apart, so chunks stay narrow (the
	// paced broker test pins their width); the events still match a
	// standalone run.
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
	// Sanity: the paced run still produced the standalone-identical match
	// set for its prefix.
	eng := &query.Engine{Backend: filters.NewODFilter(p, 33, nil), Detector: detect.NewOracle(nil), Tol: query.Tolerances{Count: 1, Location: 1}}
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
