package server

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

func parse(t *testing.T, src string) *vql.Query {
	t.Helper()
	q, err := vql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// drain collects a registration's events until the stream closes,
// returning the match/window events, the final event, and whether an end
// event arrived. It is goroutine-safe: callers assert on the outcome.
func drain(r *Registration) (events []Event, final Event, sawEnd bool) {
	for ev := range r.Results() {
		if ev.Kind == EventEnd {
			final = ev
			sawEnd = true
			continue
		}
		events = append(events, ev)
	}
	return events, final, sawEnd
}

// clipFeed builds a bounded feed over a recorded clip with a
// deterministic backend, and returns the clip for standalone reference
// runs.
func clipFeed(p video.Profile, seed uint64, n int) (FeedConfig, []*video.Frame) {
	frames := video.NewStream(p, seed).Take(n)
	return FeedConfig{
		Name:    p.Name,
		Profile: p,
		Source:  &stream.SliceSource{Frames: frames},
		Backend: filters.NewODFilter(p, seed, nil),
	}, frames
}

// Every query registered on a shared feed must produce results
// field-identical to running it standalone on the pipelined executor over
// the same frames — the acceptance bar for the shared-scan scheduler.
func TestServerResultsMatchStandaloneRunStream(t *testing.T) {
	p := video.Jackson()
	const n = 600
	cfg, frames := clipFeed(p, 42, n)
	srv := New(Config{})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	queries := []string{
		`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`,
		`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`,
		`SELECT FRAMES FROM jackson WHERE COUNT(person) >= 1`,
	}
	regs := make([]*Registration, len(queries))
	for i, src := range queries {
		var err error
		if regs[i], err = srv.Register(parse(t, src), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()

	type outcome struct {
		events []Event
		final  Event
		sawEnd bool
	}
	outcomes := make([]outcome, len(regs))
	var wg sync.WaitGroup
	for i, r := range regs {
		wg.Add(1)
		go func(i int, r *Registration) {
			defer wg.Done()
			outcomes[i].events, outcomes[i].final, outcomes[i].sawEnd = drain(r)
		}(i, r)
	}
	wg.Wait()
	for i := range outcomes {
		if !outcomes[i].sawEnd {
			t.Fatalf("query %d: stream closed without an end event", i)
		}
	}

	for i, src := range queries {
		plan := query.MustBind(parse(t, src), p)
		eng := &query.Engine{
			Backend:  filters.NewODFilter(p, 42, nil),
			Detector: detect.NewOracle(nil),
			Tol:      query.Tolerances{Count: 1, Location: 1},
		}
		want := eng.RunStream(plan, &stream.SliceSource{Frames: frames}, n)
		got := outcomes[i].final.Final
		if got == nil {
			t.Fatalf("query %d: no final result", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d diverged from standalone RunStream:\n got %+v\nwant %+v", i, got, want)
		}
		// Match events reconcile with the final result, in order.
		if len(outcomes[i].events) != len(want.Matched) {
			t.Fatalf("query %d: %d match events for %d matches", i, len(outcomes[i].events), len(want.Matched))
		}
		for j, ev := range outcomes[i].events {
			if ev.Kind != EventMatch || ev.Seq != want.Matched[j] {
				t.Fatalf("query %d event %d = %+v, want match at %d", i, j, ev, want.Matched[j])
			}
			if ev.FrameIndex != frames[ev.Seq].Index {
				t.Fatalf("query %d event %d: frame index %d, want %d", i, j, ev.FrameIndex, frames[ev.Seq].Index)
			}
		}
	}
}

// countingBackend counts true evaluations behind the shared memo.
type countingBackend struct {
	filters.Backend
	mu    sync.Mutex
	calls int
}

func (c *countingBackend) Evaluate(f *video.Frame) *filters.Output {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Backend.Evaluate(f)
}

func (c *countingBackend) ConcurrentSafe() bool { return filters.ConcurrentSafe(c.Backend) }

func (c *countingBackend) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// N queries sharing one feed and one backend must cost ~one filter scan,
// not N: the backend is invoked once per frame (standalone execution
// would invoke it N times per frame).
func TestServerSharedScanEvaluatesBackendOncePerFrame(t *testing.T) {
	p := video.Jackson()
	const n, nQueries = 400, 6
	counting := &countingBackend{Backend: filters.NewODFilter(p, 7, nil)}
	frames := video.NewStream(p, 7).Take(n)
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name:    p.Name,
		Profile: p,
		Source:  &stream.SliceSource{Frames: frames},
		Backend: counting,
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	regs := make([]*Registration, nQueries)
	for i := range regs {
		var err error
		regs[i], err = srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), Options{})
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

	if got := counting.Calls(); got != n {
		t.Fatalf("backend evaluated %d times for %d frames x %d queries — shared scan broken", got, n, nQueries)
	}
	// The memo's own accounting agrees: whichever query reaches a frame
	// first takes its one miss, and every other query's lookup is a hit.
	m := srv.Metrics()
	if len(m.Feeds) != 1 || len(m.Feeds[0].SharedFilters) != 1 {
		t.Fatalf("metrics shape: %+v", m.Feeds)
	}
	sf := m.Feeds[0].SharedFilters[0]
	if sf.Misses != n || sf.Hits != int64(nQueries*n-n) {
		t.Fatalf("shared filter counters = %+v, want %d misses / %d hits", sf, n, nQueries*n-n)
	}
	fm := m.Feeds[0]
	if fm.SharedDetector == nil {
		t.Fatal("oracle feed must report shared detector metrics")
	}
}

// Unregistering one query ends its stream promptly without disturbing the
// others, even on an unbounded live feed.
func TestServerUnregisterOnLiveFeed(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	if err := srv.AddFeed(LiveFeed(p, 11)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	keep, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	quit, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // quitter consumes until its stream closes
		defer wg.Done()
		for range quit.Results() {
		}
	}()
	keptAfter := 0
	go func() {
		defer wg.Done()
		seen := 0
		for range keep.Results() {
			seen++
			if seen == 25 {
				if err := srv.Unregister(quit.ID()); err != nil {
					t.Errorf("unregister: %v", err)
				}
			}
			if seen > 25 {
				keptAfter++
			}
			if seen == 100 {
				if err := srv.Unregister(keep.ID()); err != nil {
					t.Errorf("unregister keep: %v", err)
				}
				return
			}
		}
	}()
	wg.Wait()
	if keptAfter < 70 {
		t.Fatalf("surviving query saw only %d events after the unregister", keptAfter)
	}
	if _, ok := srv.Get(quit.ID()); ok {
		t.Fatal("unregistered query still listed")
	}
}

// A windowed aggregate query served continuously produces the same
// sequence of window estimates, at the same window starts, as the batch
// RunWindows path over the same frames — for tiling, gapped and sliding
// windows, and for a MaxFrames cut that lands inside a window.
func TestServerWindowQueryMatchesRunWindows(t *testing.T) {
	p := video.Jackson()
	const n = 900
	cases := []struct {
		name      string
		window    string
		maxFrames int
		starts    []int
	}{
		{name: "hopping-tile", window: "HOPPING (SIZE 200, ADVANCE BY 200)", starts: []int{0, 200, 400, 600}},
		{name: "hopping-gap", window: "HOPPING (SIZE 100, ADVANCE BY 150)", starts: []int{0, 150, 300, 450, 600, 750}},
		{name: "sliding", window: "SLIDING (SIZE 200, ADVANCE BY 50)",
			starts: []int{0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700}},
		{name: "max-frames-mid-window", window: "HOPPING (SIZE 200, ADVANCE BY 200)", maxFrames: 500, starts: []int{0, 200}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, frames := clipFeed(p, 23, n)
			srv := New(Config{})
			if err := srv.AddFeed(cfg); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			src := `SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) >= 1 WINDOW ` + c.window
			reg, err := srv.Register(parse(t, src), Options{SampleSize: 50, Seed: 5, MaxFrames: c.maxFrames})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			events, _, sawEnd := drain(reg)
			if !sawEnd {
				t.Fatal("window stream closed without an end event")
			}

			clip := frames
			if c.maxFrames > 0 {
				clip = frames[:c.maxFrames]
			}
			plan := query.MustBind(parse(t, src), p)
			want, err := query.RunWindows(plan, &stream.SliceSource{Frames: clip},
				filters.NewODFilter(p, 23, nil), detect.NewOracle(nil), len(c.starts),
				query.AggregateConfig{SampleSize: 50, Sampler: stream.NewUniformSampler(5), MuFromFullWindow: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != len(want) {
				t.Fatalf("served %d windows, batch path produced %d", len(events), len(want))
			}
			for i, ev := range events {
				if ev.Kind != EventWindow || ev.WindowStart != c.starts[i] {
					t.Fatalf("event %d = kind %s start %d, want start %d", i, ev.Kind, ev.WindowStart, c.starts[i])
				}
				if !reflect.DeepEqual(ev.Window, want[i]) {
					t.Fatalf("window %d estimate diverged from RunWindows:\n got %+v\nwant %+v", i, ev.Window, want[i])
				}
			}
			if got := reg.metricsRow().Frames; c.maxFrames > 0 && got != c.maxFrames {
				t.Fatalf("query read %d frames, MaxFrames is %d", got, c.maxFrames)
			}
		})
	}
}

// The metrics snapshot reflects a finished bounded run: frame counts,
// selectivity, the online recall proxy, and the per-feed dispatch totals.
func TestServerMetricsSnapshot(t *testing.T) {
	p := video.Jackson()
	const n = 300
	cfg, _ := clipFeed(p, 31, n)
	srv := New(Config{})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	if _, _, ok := drain(reg); !ok {
		t.Fatal("stream closed without an end event")
	}

	m := srv.Metrics()
	if len(m.Feeds) != 1 || m.Feeds[0].Frames != n {
		t.Fatalf("feed metrics = %+v", m.Feeds)
	}
	if len(m.Queries) != 1 {
		t.Fatalf("query metrics = %+v", m.Queries)
	}
	q := m.Queries[0]
	if q.Frames != n || !q.Done {
		t.Fatalf("query metrics = %+v", q)
	}
	if q.Selectivity <= 0 || q.Selectivity > 1 {
		t.Fatalf("selectivity = %v", q.Selectivity)
	}
	if q.Recall <= 0 || q.Recall > 1 {
		t.Fatalf("recall proxy = %v", q.Recall)
	}
	if q.Matches == 0 || q.DetectorCalls < q.Matches {
		t.Fatalf("matches/detector calls = %d/%d", q.Matches, q.DetectorCalls)
	}
	if q.VirtualTimeMs <= 0 {
		t.Fatalf("virtual time = %v", q.VirtualTimeMs)
	}
}

// Registration-time validation: unknown feeds, aggregates without a
// window and duplicate feeds are rejected with errors, not panics; a
// feed named differently from its profile binds queries against a
// renamed profile copy, so FROM resolves on the feed name.
func TestServerValidation(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	if err := srv.AddFeed(LiveFeed(p, 1)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddFeed(LiveFeed(p, 2)); err == nil {
		t.Fatal("duplicate feed accepted")
	}
	if err := srv.AddFeed(FeedConfig{Name: "other", Profile: p, Source: &stream.SliceSource{}}); err != nil {
		t.Fatalf("custom-named feed over the jackson profile rejected: %v", err)
	}
	if r, err := srv.Register(parse(t, `SELECT FRAMES FROM other WHERE COUNT(car) = 1`), Options{}); err != nil {
		t.Fatalf("FROM <feed-name> did not resolve on a custom-named feed: %v", err)
	} else {
		go drain(r)
	}
	if err := srv.AddFeed(FeedConfig{Name: "noprofile", Source: &stream.SliceSource{}}); err == nil {
		t.Fatal("feed without a profile accepted")
	}
	if _, err := srv.Register(parse(t, `SELECT FRAMES FROM detrac WHERE COUNT(car) = 1`), Options{}); err == nil {
		t.Fatal("unknown feed accepted")
	}
	if _, err := srv.Register(parse(t, `SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) = 1`), Options{}); err == nil {
		t.Fatal("windowless continuous aggregate accepted")
	}
	if _, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(tank) = 1`), Options{}); err == nil {
		t.Fatal("unbindable query accepted")
	}
	if err := srv.Unregister("q999"); err == nil {
		t.Fatal("unknown unregister accepted")
	}
}

// A query with a frame budget ends itself without stopping the feed.
func TestServerQueryFrameBudget(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	if err := srv.AddFeed(LiveFeed(p, 17)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	budget, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{MaxFrames: 50})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	_, final, sawEnd := drain(budget)
	if !sawEnd {
		t.Fatal("budgeted stream closed without an end event")
	}
	if final.Final == nil || final.Final.FramesTotal != 50 {
		t.Fatalf("budgeted query processed %+v, want 50 frames", final.Final)
	}
}

// Unregister returns the typed ErrQueryNotFound for ids with no
// registration behind them, and — the regression this pins — a query
// whose feed already ended unregisters cleanly instead of racing the
// feed's teardown: the registration is still found, its runner has
// already released its resources, and only a second unregister reports
// not-found.
func TestServerUnregisterTypedNotFound(t *testing.T) {
	p := video.Jackson()
	const n = 40
	cfg, _ := clipFeed(p, 37, n)
	srv := New(Config{})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	// Drain to completion: the bounded feed ends and the runner retires
	// on its own.
	if _, _, ok := drain(reg); !ok {
		t.Fatal("no end event")
	}
	<-reg.Done()

	// The feed is done and the runner finished, yet the registration is
	// still addressable: unregistering it succeeds.
	if err := srv.Unregister(reg.ID()); err != nil {
		t.Fatalf("unregister after feed end: %v", err)
	}
	// Now it is gone: the second attempt reports the typed error.
	if err := srv.Unregister(reg.ID()); !errors.Is(err, ErrQueryNotFound) {
		t.Fatalf("double unregister error = %v, want ErrQueryNotFound", err)
	}
	// Never-registered ids report the same typed error.
	if err := srv.Unregister("q999"); !errors.Is(err, ErrQueryNotFound) {
		t.Fatalf("unknown id error = %v, want ErrQueryNotFound", err)
	}
}

// A result-buffer request beyond MaxResultBuffer is rejected before any
// allocation: the field arrives from the unauthenticated HTTP register
// body, so client input must not size the ring.
func TestServerRejectsOversizedResultBuffer(t *testing.T) {
	p := video.Jackson()
	cfg, _ := clipFeed(p, 37, 8)
	srv := New(Config{})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`),
		Options{ResultBuffer: MaxResultBuffer + 1})
	if err == nil {
		t.Fatal("oversized result buffer accepted")
	}
	// Exactly at the cap registration still works.
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`),
		Options{ResultBuffer: MaxResultBuffer})
	if err != nil {
		t.Fatal(err)
	}
	_ = reg
}

// Finished registrations are retained for inspection only up to a cap, so
// a long-running server with query churn keeps a bounded registry.
func TestServerBoundedFinishedRetention(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	if err := srv.AddFeed(LiveFeed(p, 29)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	const churn = retainFinished + 8
	for i := 0; i < churn; i++ {
		reg, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{MaxFrames: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := drain(reg); !ok {
			t.Fatalf("query %d ended without an end event", i)
		}
	}
	m := srv.Metrics()
	if len(m.Queries) > retainFinished {
		t.Fatalf("registry retains %d finished queries, cap is %d", len(m.Queries), retainFinished)
	}
	if len(m.Queries) < retainFinished/2 {
		t.Fatalf("registry kept only %d recent queries", len(m.Queries))
	}
	// The oldest finished registration was evicted from the registry;
	// unregistering it now reports the typed not-found error rather than
	// racing any teardown state.
	if err := srv.Unregister("q1"); !errors.Is(err, ErrQueryNotFound) {
		t.Fatalf("evicted id error = %v, want ErrQueryNotFound", err)
	}
}
