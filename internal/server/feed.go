package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/sched"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// FeedState is a feed's lifecycle phase. Feeds move strictly forward:
// creating -> running -> draining -> closed (a bounded feed whose source
// ends naturally skips draining and goes straight to closed).
type FeedState string

// Feed lifecycle states.
const (
	// FeedCreating is a feed registered but not yet pumping (the server
	// has not started, or the pump goroutine has not launched yet).
	FeedCreating FeedState = "creating"
	// FeedRunning is a feed whose pump is live.
	FeedRunning FeedState = "running"
	// FeedDraining is a feed whose ingestion has been cut: no new frames
	// are admitted and no new queries may register, but frames already
	// in flight (ingest ring, fan-out buffers, query chunks) still flow
	// so every query ends with its end event.
	FeedDraining FeedState = "draining"
	// FeedClosed is a feed whose pump has finished; its subscriptions are
	// closed, and it releases its broker memberships once the last query
	// still evaluating its frames ends.
	FeedClosed FeedState = "closed"
)

// FeedConfig describes one named live feed: where its frames come from
// and the default operator stack queries on it share.
type FeedConfig struct {
	// Name is the feed's registry key; queries address it via their FROM
	// clause. When it differs from the profile's dataset name, the feed
	// binds queries against a copy of the profile renamed to the feed
	// name, so `FROM <feed-name>` resolves naturally (this is how several
	// runtime feeds share one dataset profile).
	Name string
	// Profile is the dataset profile queries are bound against.
	Profile video.Profile
	// Source supplies the frames. A bounded source (a recording) ends the
	// feed and every query on it gracefully; an unbounded one (a live
	// camera) runs until the server closes.
	Source stream.Source
	// Backend is the default filter backend for queries on this feed. It
	// is wrapped in a shared-scan memo, so no matter how many queries
	// register, the network runs once per frame. Nil selects the OD
	// family over the profile (the paper's best performer).
	Backend filters.Backend
	// NewDetector builds the feed's confirmation detector. When it
	// declares detect.OrderInsensitive (the default oracle does), the feed
	// builds it once and every query confirms through one shared
	// detect.Memo, so a frame is detected once however many queries reach
	// it; otherwise (SimYOLO's RNG advances per call) each registered query
	// gets its own. Nil selects the Mask R-CNN-stand-in oracle.
	NewDetector func() detect.Detector
	// FrameInterval paces the feed (e.g. 33 ms for a 30 fps camera).
	// Zero runs as fast as the slowest query consumes.
	FrameInterval time.Duration
	// MaxFrames ends the feed after this many frames. Zero means
	// unbounded (or until the source itself ends).
	MaxFrames int
}

// LiveFeed is the standard synthetic live feed over a profile: an
// unbounded simulator stream with the OD filter family and oracle
// confirmation, deterministic for the seed.
func LiveFeed(p video.Profile, seed uint64) FeedConfig {
	return FeedConfig{
		Name:    p.Name,
		Profile: p,
		Source:  stream.FromStream(video.NewStream(p, seed)),
		Backend: filters.NewODFilter(p, seed, nil),
	}
}

// feed is one running feed: the fan-out pump, the shared-scan filter
// memos queries on this feed draw from (each query's chunks fill them
// through one batch evaluation per uncached run of frames), and (for
// order-insensitive detectors) the shared confirmation memo.
type feed struct {
	name    string
	profile video.Profile
	// dataset is the underlying dataset profile's name, kept before the
	// bind copy is renamed to the feed — what listings report as the
	// feed's profile.
	dataset string
	fanout  *stream.Fanout
	newDet  func() detect.Detector
	deflt   *sharedEntry
	detMemo *detect.Memo
	broker  *sched.Broker // nil when cross-feed coalescing is disabled

	// push is the feed's ingest ring when its frames arrive from
	// publishers (a *stream.PushSource config); nil for decoded feeds.
	push *stream.PushSource
	// gate cuts a decoded feed's source on drain.
	gate *drainGate

	// lastFrame is the wall-clock UnixMilli of the last frame the pump
	// dispatched (0 until the first frame) — the stall watchdog's input.
	lastFrame atomic.Int64

	mu      sync.Mutex
	shared  map[filters.Backend]*sharedEntry
	started time.Time
	running bool
	// state is the lifecycle phase; endReason is stamped on every query's
	// end event once a drain or removal decides how the feed ends (empty
	// for a source that ends on its own).
	state     FeedState
	endReason string
}

// State returns the feed's lifecycle phase.
func (f *feed) State() FeedState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state
}

// endedReason returns the reason runners stamp on end events ("" while
// the feed has not been drained or removed).
func (f *feed) endedReason() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.endReason
}

// stalledNow reports the feed's last-frame timestamp (UnixMilli, 0
// until the first frame) and whether the watchdog flags the feed as
// stalled: running, with subscribers waiting on it, yet no frame pumped
// within the window. A non-positive window disables the check. A feed
// nobody subscribes to is idle by design (the pull-driven pump never
// reads its source), not stalled.
func (f *feed) stalledNow(window time.Duration) (int64, bool) {
	last := f.lastFrame.Load()
	f.mu.Lock()
	running := f.running && f.state == FeedRunning
	started := f.started
	f.mu.Unlock()
	if !running || window <= 0 || f.fanout.Subscribers() == 0 {
		return last, false
	}
	ref := started
	if last > 0 {
		ref = time.UnixMilli(last)
	}
	return last, time.Since(ref) > window
}

// drain cuts the feed's ingestion while letting everything already in
// flight — ingest-ring frames, fan-out buffers, query chunks — flow to
// the registered queries, which then end through the ordinary source-EOF
// path: the fan-out closes every subscription, each runner emits its end
// event carrying reason, and the last one to finish releases the feed's
// broker memberships. Reports whether this call initiated the drain
// (false when the feed was already draining or closed). Safe to call
// before the pump starts: the later start finds the source already cut
// and closes out immediately.
func (f *feed) drain(reason string) bool {
	f.mu.Lock()
	if f.state == FeedDraining || f.state == FeedClosed {
		f.mu.Unlock()
		return false
	}
	f.state = FeedDraining
	f.endReason = reason
	f.mu.Unlock()
	switch {
	case f.push != nil:
		// Close the ring's input: publishers get ErrPushClosed, buffered
		// frames still reach the scan.
		f.push.Close()
	default:
		f.gate.cut()
	}
	// A pump idling on an empty subscriber set never reads the source, so
	// it would never observe the cut; with registrations rejected from
	// here on, no subscriber can appear and stopping it is safe.
	if f.fanout.Subscribers() == 0 {
		f.fanout.Stop()
	}
	return true
}

// sharedEntry is one memoised backend on this feed, reference-counted by
// the registrations using it (and, for the feed's default entry, by the
// pump until the fan-out finishes). When the count reaches zero the
// entry releases its broker membership, so a coalesce group is retired
// only after every query evaluation on the feed's frames has landed, and
// long-running servers with query churn do not accumulate groups, members
// and retained weight tensors. An override entry (Options.Backend) is
// then dropped as well; the default entry stays for the feed's lifetime.
type sharedEntry struct {
	key   filters.Backend // the backend the entry memoises, its key in feed.shared
	sh    *filters.Shared
	refs  int
	leave sched.Member // non-nil when the wrapped backend holds a broker membership
}

// newSharedEntry memoises b on this feed, holding one reference for the
// caller. The caller holds f.mu once the feed is reachable.
func (f *feed) newSharedEntry(b filters.Backend) *sharedEntry {
	// Trained backends that fingerprint an architecture identity route
	// through the cross-feed broker: feeds serving the same model merge
	// their evaluations into one GEMM, and the memo scatter below the
	// Shared wrapper is untouched. The shared map stays keyed by the
	// original backend so queries naming the same instance join the same
	// memo.
	wrapped := f.broker.Wrap(b)
	e := &sharedEntry{key: b, sh: filters.NewShared(wrapped, 0), refs: 1}
	if m, ok := wrapped.(sched.Member); ok {
		e.leave = m
	}
	f.shared[b] = e
	return e
}

// leaveBroker releases every broker membership this feed holds, so a
// coalesce group whose feeds have all gone is retired. Idempotent
// (Member.Leave is once-only).
func (f *feed) leaveBroker() {
	f.mu.Lock()
	var leavers []sched.Member
	for _, e := range f.shared {
		if e.leave != nil {
			leavers = append(leavers, e.leave)
		}
	}
	f.mu.Unlock()
	for _, m := range leavers {
		m.Leave()
	}
}

func newFeed(cfg FeedConfig, fanoutBuffer int, broker *sched.Broker) (*feed, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("server: feed needs a name")
	}
	if cfg.Profile.Name == "" {
		return nil, fmt.Errorf("server: feed %q needs a profile", cfg.Name)
	}
	// VQL FROM clauses resolve against the bound profile's name, so a feed
	// named differently from its dataset profile binds queries against a
	// renamed copy — several runtime feeds can then share one profile.
	dataset := cfg.Profile.Name
	if cfg.Name != cfg.Profile.Name {
		cfg.Profile.Name = cfg.Name
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("server: feed %q needs a source", cfg.Name)
	}
	src := cfg.Source
	if cfg.MaxFrames > 0 {
		src = &limitSource{src: src, left: cfg.MaxFrames}
	}
	if cfg.FrameInterval > 0 {
		src = &pacedSource{src: src, interval: cfg.FrameInterval}
	}
	backend := cfg.Backend
	if backend == nil {
		backend = filters.NewODFilter(cfg.Profile, 1, nil)
	}
	f := &feed{
		name:    cfg.Name,
		dataset: dataset,
		profile: cfg.Profile,
		broker:  broker,
		shared:  make(map[filters.Backend]*sharedEntry),
		state:   FeedCreating,
	}
	if ps, ok := cfg.Source.(*stream.PushSource); ok {
		f.push = ps
	}
	// The entry's first reference is the pump's, dropped when the fan-out
	// finishes.
	f.deflt = f.newSharedEntry(backend)

	// drain cuts the source at the gate; frames already teed downstream
	// still flow. Every pumped frame is stamped for the stall watchdog.
	f.gate = &drainGate{src: src}
	f.fanout = stream.NewFanout(&stampSource{src: f.gate, last: &f.lastFrame}, fanoutBuffer)

	newDet := cfg.NewDetector
	if newDet == nil {
		newDet = func() detect.Detector { return detect.NewOracle(nil) }
	}
	// Share one confirmation memo across queries when the feed's detector
	// declares order-insensitive output (the oracle does): queries sharing
	// the oracle pay one Detect per frame, mirroring the filter memo.
	if memo := detect.NewMemo(newDet(), 0); memo != nil {
		f.detMemo = memo
		f.newDet = func() detect.Detector { return memo }
	} else {
		f.newDet = newDet
	}
	return f, nil
}

// release drops one reference to e. The last one releases its broker
// membership and forgets an override entry.
func (f *feed) release(e *sharedEntry) {
	f.mu.Lock()
	e.refs--
	var leave sched.Member
	if e.refs == 0 {
		leave = e.leave
		if e != f.deflt {
			delete(f.shared, e.key)
		}
	}
	f.mu.Unlock()
	if leave != nil {
		leave.Leave()
	}
}

// close stops the fan-out pump and releases the feed's broker
// memberships. Unlike drain it does not wait for in-flight frames; it is
// the hard-stop path (server Close, teardown after a drain has already
// flushed).
func (f *feed) close() {
	if f.push != nil {
		// Unblock a pump parked in PushSource.Next waiting for publishers
		// that will never come — Fanout.Stop cannot interrupt a blocking
		// source read.
		f.push.Close()
	}
	f.leaveBroker()
	f.fanout.Stop()
}

// sharedFor takes a reference to the feed's memoised wrapper for a
// backend, creating one on first use so every query naming the same
// backend instance joins the same shared scan. A nil backend selects the
// feed default. Each call must be paired with a release of the returned
// entry.
func (f *feed) sharedFor(b filters.Backend) *sharedEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b == nil {
		b = f.deflt.key
	}
	if e, ok := f.shared[b]; ok {
		e.refs++
		return e
	}
	return f.newSharedEntry(b)
}

// start launches the pump goroutine (once). A feed drained before its
// pump ever ran keeps its draining state — the pump then observes the cut
// source (or the stop flag) and moves it to closed.
func (f *feed) start() {
	f.mu.Lock()
	if f.running {
		f.mu.Unlock()
		return
	}
	f.running = true
	f.started = time.Now()
	if f.state == FeedCreating {
		f.state = FeedRunning
	}
	f.mu.Unlock()
	go func() {
		f.fanout.Run()
		f.release(f.deflt)
		f.mu.Lock()
		f.state = FeedClosed
		f.mu.Unlock()
	}()
}

// drainGate sits between a feed's source and its fan-out: cut flips it to
// end-of-stream, so the pump observes EOF on its next read and the
// ordinary teardown path runs.
type drainGate struct {
	src    stream.Source
	closed atomic.Bool
}

func (g *drainGate) Next() (*video.Frame, bool) {
	if g.closed.Load() {
		return nil, false
	}
	return g.src.Next()
}

func (g *drainGate) cut() { g.closed.Store(true) }

// stampSource records the wall-clock instant of every frame the wrapped
// source yields, feeding the feed's stall watchdog.
type stampSource struct {
	src  stream.Source
	last *atomic.Int64
}

func (s *stampSource) Next() (*video.Frame, bool) {
	f, ok := s.src.Next()
	if ok {
		s.last.Store(time.Now().UnixMilli())
	}
	return f, ok
}

// limitSource caps a source at n frames.
type limitSource struct {
	src  stream.Source
	left int
}

func (l *limitSource) Next() (*video.Frame, bool) {
	if l.left <= 0 {
		return nil, false
	}
	l.left--
	return l.src.Next()
}

// pacedSource spaces frames at least interval apart — a real-time camera
// instead of a CPU-bound generator.
type pacedSource struct {
	src      stream.Source
	interval time.Duration
	last     time.Time
}

func (p *pacedSource) Next() (*video.Frame, bool) {
	if !p.last.IsZero() {
		if wait := p.interval - time.Since(p.last); wait > 0 {
			time.Sleep(wait)
		}
	}
	p.last = time.Now()
	return p.src.Next()
}
