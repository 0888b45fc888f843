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
	// in flight (ingest ring, scan batches, fan-out buffers) still flow
	// so every query ends with its end event.
	FeedDraining FeedState = "draining"
	// FeedClosed is a feed whose pump has finished; its subscriptions are
	// closed and it holds no broker memberships.
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
	// NewDetector builds one confirmation detector per registered query.
	// Detectors carry call-order-sensitive state (SimYOLO's RNG), so they
	// cannot be shared the way filter outputs can. Nil selects the
	// Mask R-CNN-stand-in oracle.
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
// memos queries on this feed draw from, the micro-batching scan stage
// that fills the default memo chunk-at-a-time, and (for order-insensitive
// detectors) the shared confirmation memo.
type feed struct {
	name    string
	profile video.Profile
	// dataset is the underlying dataset profile's name, kept before the
	// bind copy is renamed to the feed — what listings report as the
	// feed's profile.
	dataset string
	fanout  *stream.Fanout
	newDet  func() detect.Detector
	deflt   *filters.Shared
	batcher *scanBatcher
	detMemo *detect.Memo
	broker  *sched.Broker // nil when cross-feed coalescing is disabled

	// push is the feed's ingest ring when its frames arrive from
	// publishers (a *stream.PushSource config); nil for decoded feeds.
	push *stream.PushSource
	// gate cuts the source on drain for feeds without a scan batcher (the
	// batcher drains at its own input so in-flight batches still flush).
	gate *drainGate

	// defaultUsers counts live registrations on the default backend; the
	// scan batcher only warms the memo while someone will read it.
	defaultUsers atomic.Int64

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
// flight — ingest-ring frames, scan batches, memo warm-ups, fan-out
// buffers — flow to the registered queries, which then end through the
// ordinary source-EOF path: the batcher dispatches its partial batch, the
// EOF notifier releases the feed's broker memberships, the fan-out
// closes every subscription, and each runner emits its end event carrying
// reason. Reports whether this call initiated the drain (false when the
// feed was already draining or closed). Safe to call before the pump
// starts: the later start finds the source already cut and closes out
// immediately.
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
	case f.batcher != nil:
		f.batcher.drainInput()
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

// sharedEntry is one memoised backend on this feed. Override backends
// (Options.Backend) are reference-counted by the registrations using
// them: when the last one retires, the entry is dropped and its broker
// membership released, so long-running servers with query churn do not
// accumulate groups, members and retained weight tensors. The feed's
// default entry lives for the feed's lifetime (defaultUsers gates its
// scan warm-up instead).
type sharedEntry struct {
	sh    *filters.Shared
	refs  int          // live registrations on an override backend
	leave sched.Member // non-nil when the wrapped backend holds a broker membership
}

func newSharedEntry(sh *filters.Shared, wrapped filters.Backend) *sharedEntry {
	e := &sharedEntry{sh: sh}
	if m, ok := wrapped.(sched.Member); ok {
		e.leave = m
	}
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

func newFeed(cfg FeedConfig, srv Config, broker *sched.Broker) (*feed, error) {
	fanoutBuffer, cacheCap := srv.FanoutBuffer, srv.SharedCacheCap
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
	// Trained backends that fingerprint an architecture identity route
	// through the cross-feed broker: feeds serving the same model merge
	// their micro-batches into one GEMM, and the memo scatter below the
	// Shared wrapper is untouched. The shared map stays keyed by the
	// original backend so queries naming the same instance join the same
	// memo.
	wrapped := broker.Wrap(backend)
	f.deflt = filters.NewShared(wrapped, cacheCap)
	f.shared[backend] = newSharedEntry(f.deflt, wrapped)

	// Micro-batch the shared scan: frames flow source -> batcher ->
	// fan-out, and each closed batch pre-fills the default memo through
	// the backend's batch path (one clock transaction, batched GEMMs for
	// trained backends), so every query's ChunkSize=1 low-latency pipeline
	// hits a warm cache.
	if srv.ScanBatch > 1 {
		f.batcher = newScanBatcher(src, f.deflt,
			func() bool { return f.defaultUsers.Load() > 0 }, srv.ScanBatch)
		src = f.batcher
	} else {
		// No batcher to drain at: give drain a gate that cuts the source
		// directly (frames already teed downstream still flow).
		f.gate = &drainGate{src: src}
		src = f.gate
	}
	// Stamp every pumped frame for the stall watchdog before the EOF
	// notifier (a feed that ended is closed, not stalled).
	src = &stampSource{src: src, last: &f.lastFrame}
	// A bounded feed that drains releases its broker memberships the
	// moment its source ends, so a group nobody feeds any more is retired.
	src = &eofNotifySource{src: src, fire: f.leaveBroker}
	f.fanout = stream.NewFanout(src, fanoutBuffer)

	newDet := cfg.NewDetector
	if newDet == nil {
		newDet = func() detect.Detector { return detect.NewOracle(nil) }
	}
	// Share one confirmation memo across queries when the feed's detector
	// declares order-insensitive output (the oracle does): queries sharing
	// the oracle pay one Detect per frame, mirroring the filter memo.
	if memo := detect.NewMemo(newDet(), cacheCap); memo != nil {
		f.detMemo = memo
		f.newDet = func() detect.Detector { return memo }
	} else {
		f.newDet = newDet
	}
	return f, nil
}

// release undoes a registration's claims: the default-backend warm-up
// gate, and — for a registration that brought its own backend — that
// backend's shared entry, dropped (memo and broker membership released)
// when its last registration retires.
func (f *feed) release(usedDefault bool, override filters.Backend) {
	if usedDefault {
		f.defaultUsers.Add(-1)
	}
	if override == nil {
		return
	}
	f.mu.Lock()
	e, ok := f.shared[override]
	if !ok || e.sh == f.deflt {
		f.mu.Unlock()
		return
	}
	e.refs--
	var leave sched.Member
	if e.refs <= 0 {
		delete(f.shared, override)
		leave = e.leave
	}
	f.mu.Unlock()
	if leave != nil {
		leave.Leave()
	}
}

// close stops the scan batcher and the fan-out pump, releasing the feed's
// broker memberships. Unlike drain it does not wait for in-flight frames;
// it is the hard-stop path (server Close, teardown after a drain has
// already flushed).
func (f *feed) close() {
	if f.push != nil {
		// Unblock a pump parked in PushSource.Next waiting for publishers
		// that will never come — Fanout.Stop cannot interrupt a blocking
		// source read.
		f.push.Close()
	}
	if f.batcher != nil {
		f.batcher.shutdown()
	}
	f.leaveBroker()
	f.fanout.Stop()
}

// sharedFor returns the feed's memoised wrapper for a backend, creating
// one on first use so every query naming the same backend instance joins
// the same shared scan. A nil backend selects the feed default. Override
// entries are reference-counted; each call must be paired with a release
// carrying the same backend.
func (f *feed) sharedFor(b filters.Backend, cacheCap int) *filters.Shared {
	if b == nil {
		return f.deflt
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.shared[b]; ok {
		// The default entry is not refcounted (it lives for the feed's
		// lifetime), so keep the increment symmetric with release's guard
		// even when a query names the feed's own backend explicitly.
		if e.sh != f.deflt {
			e.refs++
		}
		return e.sh
	}
	wrapped := f.broker.Wrap(b)
	e := newSharedEntry(filters.NewShared(wrapped, cacheCap), wrapped)
	e.refs = 1
	f.shared[b] = e
	return e.sh
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
		f.mu.Lock()
		f.state = FeedClosed
		f.mu.Unlock()
	}()
}

// drainGate sits between a feed's source and its fan-out when there is no
// scan batcher to drain at: cut flips it to end-of-stream, so the pump
// observes EOF on its next read and the ordinary teardown path runs.
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

// scanBatcher is the micro-batching stage between a feed's source and its
// fan-out: frames are grouped into batches of up to size frames, and each
// batch pre-fills the default shared filter memo in one batch evaluation.
// A batch closes the moment a memo warm-up can start on it: a frame never
// waits for batch-mates, only for a free warm-up slot, so an idle feed
// dispatches a lone frame at once (preserving the server's
// match-the-moment-it-happens contract) while a backlogged one fills whole
// batches, because frames accumulate exactly while the evaluator is busy.
//
// The batcher is pull-driven: its source puller starts on the fan-out's
// first read, so a bounded recording still does not drain before the
// first query registers. Once running it looks ahead at most size frames.
type scanBatcher struct {
	src    stream.Source
	warm   *filters.Shared
	active func() bool // whether any registration reads the default memo
	size   int

	start sync.Once
	raw   chan *video.Frame
	stop  chan struct{}
	stopO sync.Once
	// drainC ends the puller without cutting frames already pulled: the
	// raw channel closes, fill dispatches the partial batch, and EOF
	// propagates downstream — a graceful drain, where stop is the hard
	// shutdown that also abandons buffered frames.
	drainC chan struct{}
	drainO sync.Once

	cur []*video.Frame
	idx int
	// Memo warm-ups run on one long-lived worker. warmFree holds the two
	// batch slices they travel in and is thereby the semaphore bounding
	// the look-ahead: when EvaluateBatch falls behind the pump, taking a
	// slice blocks the pump at a fixed pipeline depth (see fill for why
	// blocking, not skipping). warmQ carries filled slices to the worker.
	// EOF closes warmQ and waits on warmDone: the frames-exhausted signal
	// is what releases the feed's broker attachment, and a warm-up still
	// submitting after that would evaluate into a retired group whose
	// counters are no longer visible.
	warmFree chan []*video.Frame
	warmQ    chan []*video.Frame
	warmDone chan struct{}

	batches atomic.Int64
	framesN atomic.Int64
}

func newScanBatcher(src stream.Source, warm *filters.Shared, active func() bool, size int) *scanBatcher {
	s := &scanBatcher{
		src: src, warm: warm, active: active, size: size,
		raw:      make(chan *video.Frame, size),
		stop:     make(chan struct{}),
		drainC:   make(chan struct{}),
		warmFree: make(chan []*video.Frame, 2),
		warmQ:    make(chan []*video.Frame, 2), // every slice of warmFree fits: sends never block
		warmDone: make(chan struct{}),
	}
	for i := 0; i < cap(s.warmFree); i++ {
		s.warmFree <- make([]*video.Frame, 0, size)
	}
	return s
}

// Next implements stream.Source for the fan-out pump. It is called from
// the single pump goroutine only.
func (s *scanBatcher) Next() (*video.Frame, bool) {
	s.start.Do(func() {
		go s.pull()
		go s.warmLoop()
	})
	if s.idx >= len(s.cur) {
		if !s.fill() {
			return nil, false
		}
	}
	f := s.cur[s.idx]
	s.idx++
	return f, true
}

// fill collects the next micro-batch: it blocks for the first frame, adds
// whatever the puller has already queued, and closes the batch as soon as
// a warm-up slot is free — at once when nobody reads the default memo.
func (s *scanBatcher) fill() bool {
	f, ok := <-s.raw
	if !ok {
		// Let queued and in-flight warm-ups land before EOF propagates.
		close(s.warmQ)
		<-s.warmDone
		return false
	}
	s.cur = append(s.cur[:0], f)
	// Warm the memo fire-and-forget: the batch claims its frames' memo
	// entries in one inner batch evaluation while the pump is already
	// dispatching them downstream, overlapping decode and fan-out with an
	// evaluation that may be parked behind other feeds' coalesced run.
	// Queries that reach a frame first simply claim it themselves (memo
	// entries are exactly-once) and everyone else blocks on the entry's
	// ready channel, so results and shared-scan economy are unchanged —
	// only the pump stops stalling. Skipping the warm-up instead of
	// blocking for a slot is not safe: a batch left for queries to claim
	// after the feed's EOF releases its broker attachment would evaluate
	// into a retired group and vanish from the metrics. Only shutdown
	// forgoes it.
	free := s.warmFree
	if !s.active() {
		free = nil
	}
	raw := s.raw
	var batch []*video.Frame
	for {
		for len(s.cur) < s.size && len(raw) > 0 {
			s.cur = append(s.cur, <-raw)
		}
		if free == nil {
			break
		}
		// Both slots busy: the batch keeps growing for as long as the
		// evaluator keeps it waiting.
		more := raw
		if len(s.cur) == s.size {
			more = nil
		}
		select {
		case batch = <-free:
			free = nil
		case f, ok := <-more:
			if ok {
				s.cur = append(s.cur, f)
			} else {
				raw = nil // source ended; the next fill reports it
			}
		case <-s.stop:
			free = nil
		}
	}
	s.idx = 0
	s.batches.Add(1)
	s.framesN.Add(int64(len(s.cur)))
	if batch != nil {
		// The worker owns its own copy of the batch (s.cur is reused).
		s.warmQ <- append(batch, s.cur...)
	}
	return true
}

// warmLoop is the feed's warm-up worker: it evaluates each closed batch
// into the shared memo and hands the slice back, freeing its slot.
func (s *scanBatcher) warmLoop() {
	defer close(s.warmDone)
	for {
		select {
		case batch, ok := <-s.warmQ:
			if !ok {
				return
			}
			s.warmBatch(batch)
			clear(batch)
			s.warmFree <- batch[:0]
		case <-s.stop:
			return
		}
	}
}

// warmBatch runs one warm-up. A panicking backend must not take the
// process down from a fire-and-forget warm-up; queries that claim the
// frames themselves hit the same panic behind the executor's own barrier
// and fail individually.
func (s *scanBatcher) warmBatch(batch []*video.Frame) {
	defer func() { _ = recover() }()
	s.warm.EvaluateBatch(batch, nil)
}

// pull streams the source into the raw channel until the source ends, the
// batcher is shut down, or a drain cuts further pulls.
func (s *scanBatcher) pull() {
	defer close(s.raw)
	for {
		select {
		case <-s.drainC:
			return
		default:
		}
		f, ok := s.src.Next()
		if !ok {
			return
		}
		select {
		case s.raw <- f:
		case <-s.stop:
			return
		case <-s.drainC:
			// The frame in hand was never admitted to a batch; the drain
			// cut the source just before it.
			return
		}
	}
}

// shutdown releases the puller; idempotent.
func (s *scanBatcher) shutdown() { s.stopO.Do(func() { close(s.stop) }) }

// drainInput stops pulling new frames while letting everything already in
// the raw channel flow downstream as the final (possibly partial) batch;
// idempotent.
func (s *scanBatcher) drainInput() { s.drainO.Do(func() { close(s.drainC) }) }

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

// eofNotifySource fires a callback once when the wrapped source ends.
type eofNotifySource struct {
	src  stream.Source
	fire func()
	once sync.Once
}

func (s *eofNotifySource) Next() (*video.Frame, bool) {
	f, ok := s.src.Next()
	if !ok {
		s.once.Do(s.fire)
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
