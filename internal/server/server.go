// Package server is the continuous-query layer over the vmq engine: the
// paper's deployment model is standing monitoring queries evaluated
// forever over live camera feeds, and this package turns the one-shot
// executor of internal/query into that serving system.
//
// Clients register parsed VQL queries against named feeds and receive a
// stream of results (matches for monitoring queries, per-window estimates
// for aggregates) on a channel. Per feed, a shared-scan schedule keeps
// the marginal cost of another query near zero on the filter stage: the
// feed is decoded once (stream.Fanout tees the same frames to every
// query's pipeline), each distinct filter backend is evaluated once per
// frame (filters.Shared memoises outputs across the pipelines) and, when
// the feed's detector declares detect.OrderInsensitive, each confirmed
// frame is detected once (detect.Memo). Both memos are one memo.Cache of
// fixed capacity, so N queries sharing a backend cost one network scan
// plus N cheap predicate evaluations — only an order-sensitive detector
// scales with N, and the filters already keep its calls rare. Each
// query still runs the pipelined executor of internal/query end to end,
// which is what makes its results field-identical to a standalone
// RunStream over the same frames.
package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/detect"
	"vmq/internal/query"
	"vmq/internal/rlog"
	"vmq/internal/stream"
	"vmq/internal/vql"
)

// Typed registry errors, for errors.Is at the API boundary (the HTTP
// layer maps them to status codes).
var (
	// ErrQueryNotFound reports an id with no registration behind it —
	// never registered, or already unregistered/evicted after finishing.
	ErrQueryNotFound = errors.New("server: query not found")
	// ErrFeedBusy reports a feed at its registration limit
	// (Config.MaxQueriesPerFeed).
	ErrFeedBusy = errors.New("server: feed at its query limit")
	// ErrFeedNotFound reports a feed name with no feed behind it.
	ErrFeedNotFound = errors.New("server: feed not found")
	// ErrFeedDraining reports a registration against a feed that is
	// draining: its ingestion is cut and its queries are winding down, so
	// no new query may join.
	ErrFeedDraining = errors.New("server: feed is draining")
	// ErrFeedExists reports a CreateFeed/AddFeed against a name already
	// in use.
	ErrFeedExists = errors.New("server: feed already exists")
	// ErrBufferTooLarge reports a client-requested buffer capacity
	// beyond its cap (MaxResultBuffer, MaxIngestBuffer) — the rings are
	// allocated eagerly, so unauthenticated input must not size them.
	ErrBufferTooLarge = errors.New("server: buffer exceeds limit")
	// ErrClosed reports an operation on a closed server.
	ErrClosed = errors.New("server: closed")
)

// End-event reasons. A query that ends because its feed was torn down
// carries the reason on its EventEnd, so consumers can tell an exhausted
// recording from an operator action.
const (
	// EndReasonFeedRemoved marks end events forced by RemoveFeed.
	EndReasonFeedRemoved = "feed_removed"
	// EndReasonFeedDrained marks end events from a graceful DrainFeed (or
	// server Shutdown).
	EndReasonFeedDrained = "feed_drained"
	// EndReasonQueryFailed marks end events from a query whose backend or
	// detector panicked: the panic was isolated to the query, its final
	// event carries the fault, and its siblings keep streaming.
	EndReasonQueryFailed = "query_failed"
)

// MaxResultBuffer caps a registration's requested result-log ring
// capacity. The ring is allocated eagerly at registration, the request
// reaches Register from the unauthenticated HTTP body (result_buffer),
// and finished registrations stay referenced up to retainFinished, so
// client input must not pin large allocations: 2^16 events keeps the
// worst case per ring in the ~10MB range while still holding minutes
// of matches for a resuming consumer (spill files extend it further).
const MaxResultBuffer = 1 << 16

// Config tunes a Server. The zero value is usable.
type Config struct {
	// Tol is the default filter tolerance pair for registered queries
	// (query.DefaultTolerances when nil).
	Tol *query.Tolerances
	// FanoutBuffer is the per-query frame buffer of each feed tee
	// (default 64): how far queries on one feed may drift apart before
	// the slowest throttles the rest. A query's chunks take at most the
	// frames its buffer holds, so a buffer under 32 frames also narrows
	// the batches a backlogged feed evaluates.
	FanoutBuffer int
	// ResultBuffer is the default result-log ring capacity per
	// registration, in events (default 64, rounded up to a power of
	// two): how many delivered-but-unread events a query retains for
	// resuming consumers before its policy decides between blocking and
	// shedding.
	ResultBuffer int
	// DefaultPolicy is the delivery policy for registrations that do not
	// set their own: rlog.Block (default — lossless, the writer waits
	// for the slowest consumer), rlog.DropOldest, or rlog.Sample.
	DefaultPolicy rlog.Policy
	// MaxQueriesPerFeed caps live registrations per feed (0 =
	// unlimited). Register returns ErrFeedBusy beyond it — admission
	// control so one tenant cannot crowd a feed out.
	MaxQueriesPerFeed int
	// SpillDir is the root directory for server-managed result spills
	// (Options.Spill): each spilling registration gets
	// SpillDir/<query-id>, removed when the registration leaves the
	// registry. Default: "vmq-spill" under the OS temp directory.
	SpillDir string
	// Spill is the segment-rotation and retention-budget tuning of every
	// attached spill; the zero value selects the rlog defaults.
	Spill rlog.SpillConfig
	// StateDir, when set, is where Recover keeps the durable control-plane
	// manifest (and, unless SpillDir overrides it, result spills under
	// StateDir/spill). New ignores it — journaling is enabled by building
	// the server with Recover.
	StateDir string
	// StallAfter is the watchdog window: a running feed with subscribers
	// that has not dispatched a frame for longer is flagged stalled in
	// /metrics, feed listings and /healthz. Default 10s; negative
	// disables the watchdog.
	StallAfter time.Duration
	// WSPingInterval paces server-side pings on the WebSocket results
	// bridge: the server pings every interval and closes the connection
	// when no pong (or any other client frame) arrives within two
	// intervals — so a relay or client can tell a dead peer from an idle
	// stream instead of waiting on a silent TCP half-open. Default 30s;
	// negative disables the pinger.
	WSPingInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Tol == nil {
		tol := query.DefaultTolerances
		c.Tol = &tol
	}
	if c.FanoutBuffer <= 0 {
		c.FanoutBuffer = 64
	}
	if c.ResultBuffer <= 0 {
		c.ResultBuffer = 64
	}
	if c.DefaultPolicy == "" {
		c.DefaultPolicy = rlog.Block
	}
	if c.SpillDir == "" {
		if c.StateDir != "" {
			c.SpillDir = filepath.Join(c.StateDir, "spill")
		} else {
			c.SpillDir = filepath.Join(os.TempDir(), "vmq-spill")
		}
	}
	if c.StallAfter == 0 {
		c.StallAfter = 10 * time.Second
	}
	if c.WSPingInterval == 0 {
		c.WSPingInterval = 30 * time.Second
	}
	return c
}

// Server hosts named feeds and the continuous queries registered on them.
type Server struct {
	cfg      Config
	birth    time.Time
	manifest *manifest // durable control-plane journal (nil unless built with Recover)
	mu       sync.Mutex
	feeds    map[string]*feed
	regs     map[string]*Registration
	liveRegs map[string]int // live registrations per feed, for admission control
	finished []string       // finished registration ids, oldest first
	nextID   int
	started  bool
	closed   bool
	wg       sync.WaitGroup
	// recovering is set by Recover for the manifest replay and cleared by
	// Start: the readiness side of /v1/healthz. A recovering server
	// answers 503 {"status":"recovering"} so a fleet router never routes
	// new queries to a shard still rebuilding its registry.
	recovering atomic.Bool
}

// retainFinished caps how many finished registrations the server keeps
// around for inspection (listings, metrics). Beyond it the oldest
// finished ones are dropped, so a long-running server with query churn
// does not grow its registry — and its /metrics payload — without bound.
const retainFinished = 64

// New creates an empty server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		birth:    time.Now(),
		feeds:    make(map[string]*feed),
		regs:     make(map[string]*Registration),
		liveRegs: make(map[string]int),
	}
	return s
}

// AddFeed registers a named feed. Feeds added after Start begin pumping
// immediately; feeds added before Start wait for it. A name freed by
// RemoveFeed may be reused.
func (s *Server) AddFeed(cfg FeedConfig) error {
	f, err := newFeed(cfg, s.cfg.FanoutBuffer)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.feeds[f.name]; dup {
		return fmt.Errorf("%w: %q", ErrFeedExists, f.name)
	}
	s.feeds[f.name] = f
	if s.started {
		f.start()
	}
	return nil
}

// CreateFeed is AddFeed under the lifecycle API's name: feeds are runtime
// objects that can be created, drained and removed while the server runs.
func (s *Server) CreateFeed(cfg FeedConfig) error { return s.AddFeed(cfg) }

// DrainFeed begins a graceful drain of the named feed: ingestion is cut
// (publishers on a push feed get ErrPushClosed), new registrations are
// rejected with ErrFeedDraining, and every frame already in flight —
// ingest ring, fan-out buffers, query chunks — still reaches the
// registered queries, which then end through the ordinary source-EOF path
// and emit end events carrying the "feed_drained" reason. The feed stays
// listed (state draining, then closed) until RemoveFeed deletes it.
// Draining an already-draining or closed feed is a no-op.
func (s *Server) DrainFeed(name string) error {
	f, err := s.feedByName(name)
	if err != nil {
		return err
	}
	if f.drain(EndReasonFeedDrained) && s.manifest != nil {
		// Journal only the initiating call: replaying duplicate drains is
		// harmless but pointless.
		_ = s.manifest.feedDrained(name)
	}
	return nil
}

// RemoveFeed drains the named feed with the "feed_removed" end reason,
// waits for every registration on it to finish — each query's end event
// lands in its result log before the log closes; none are lost — then
// stops the feed's pump and deletes it from the registry, freeing the
// name for reuse.
//
// The wait honours the delivery contract: a Block-policy query whose
// consumer never drains holds its runner (and so RemoveFeed) until the
// consumer reads or the query is unregistered — lossless delivery does
// not get lossy because an operator deletes the feed. Shutdown bounds
// that wait with a deadline.
func (s *Server) RemoveFeed(name string) error {
	f, err := s.feedByName(name)
	if err != nil {
		return err
	}
	f.drain(EndReasonFeedRemoved)
	s.mu.Lock()
	waits := make([]*Registration, 0, 4)
	for _, r := range s.regs {
		if r.feed == f {
			waits = append(waits, r)
		}
	}
	s.mu.Unlock()
	for _, r := range waits {
		<-r.done
	}
	f.close()
	f.start() // a never-started pump must still observe Stop and close its subscriptions
	s.mu.Lock()
	removed := s.feeds[name] == f
	if removed {
		delete(s.feeds, name)
	}
	s.mu.Unlock()
	if removed && s.manifest != nil {
		_ = s.manifest.feedRemoved(name)
	}
	return nil
}

// feedByName resolves a feed for the lifecycle API.
func (s *Server) feedByName(name string) (*feed, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	f, ok := s.feeds[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrFeedNotFound, name)
	}
	return f, nil
}

// Shutdown drains every feed, waits up to timeout for the registered
// queries to finish and their end events to be consumed, then closes the
// server (which flushes and closes result-log spills). Queries still
// running at the deadline are cancelled by Close — the graceful window is
// bounded, a wedged consumer cannot hold the process open.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	feeds := make([]*feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, f)
	}
	regs := make([]*Registration, 0, len(s.regs))
	for _, r := range s.regs {
		regs = append(regs, r)
	}
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.Close()
		return
	}
	for _, f := range feeds {
		f.drain(EndReasonFeedDrained)
	}
	// Pumps that never ran still need to run to observe the cut source and
	// close their subscriptions, or pre-Start registrations would never
	// see their end events.
	s.Start()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
wait:
	for _, r := range regs {
		select {
		case <-r.done:
		case <-timer.C:
			break wait
		}
	}
	s.Close()
}

// Feeds lists the configured feed names, sorted.
func (s *Server) Feeds() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.feeds))
	for n := range s.feeds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Start begins pumping every feed. Frames only flow to feeds with at
// least one registered query, so starting an idle server is free.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.recovering.Store(false)
	for _, f := range s.feeds {
		f.start()
	}
}

// Recovering reports whether the server was built by Recover and has not
// started serving yet — the window in which /v1/healthz answers 503
// {"status":"recovering"}.
func (s *Server) Recovering() bool {
	return s.recovering.Load()
}

// Register binds q against the feed its FROM clause names and starts its
// runner. The returned registration's Results channel must be drained.
// Registering before Start is how a batch of queries is guaranteed to see
// the feed's very first frame; registering later joins mid-stream.
func (s *Server) Register(q *vql.Query, opt Options) (*Registration, error) {
	return s.register(q, opt, nil)
}

// register is Register plus the recovery path: a non-nil pin re-creates
// a journalled registration under its original id with its result log
// already resumed over the existing spill segments, instead of minting
// fresh ones.
func (s *Server) register(q *vql.Query, opt Options, pin *recoveredQuery) (*Registration, error) {
	policy := opt.Policy
	if policy == "" {
		policy = s.cfg.DefaultPolicy
	}
	if _, ok := rlog.ParsePolicy(string(policy)); !ok {
		return nil, fmt.Errorf("server: unknown delivery policy %q", policy)
	}
	// Only registrations expressible over the wire are journalled: a
	// programmatic backend cannot be re-created from a record, so those
	// queries stay session-scoped exactly as on a server without a
	// manifest.
	journaled := s.manifest != nil && (opt.Backend == nil || pin != nil)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	f, ok := s.feeds[q.Source]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: no feed %q (have %v)", ErrFeedNotFound, q.Source, s.feedNamesLocked())
	}
	if f.State() == FeedDraining {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrFeedDraining, f.name)
	}
	if lim := s.cfg.MaxQueriesPerFeed; lim > 0 && s.liveRegs[f.name] >= lim {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: feed %q serves %d queries (limit %d)",
			ErrFeedBusy, f.name, lim, lim)
	}
	var id string
	if pin != nil {
		id = pin.id
		s.mu.Unlock()
	} else {
		s.nextID++
		id = fmt.Sprintf("q%d", s.nextID)
		reserved := s.nextID
		s.mu.Unlock()
		if journaled {
			// Reserve the id durably before its spill directory exists: a
			// crash right after the spill is created must not let a restart
			// hand the id to a new query whose consumers would then replay
			// the dead registration's stale segments.
			if err := s.manifest.reserveID(reserved); err != nil {
				return nil, err
			}
		}
	}

	plan, err := query.Bind(q, f.profile)
	if err != nil {
		return nil, err
	}
	isWindowed := q.Select.Kind != vql.SelectFrames
	if isWindowed && q.Window == nil {
		return nil, fmt.Errorf("server: continuous aggregate query needs a WINDOW clause")
	}
	if !isWindowed && q.Window != nil && q.Window.Advance < q.Window.Size {
		return nil, fmt.Errorf("server: SELECT FRAMES does not take a sliding window")
	}

	tol := *s.cfg.Tol
	if opt.Tol != nil {
		tol = *opt.Tol
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	// A USING clause builds the query its own detector; without one the
	// query confirms with the feed's memoised detector.
	var det detect.Detector
	if q.Detector == "" {
		det = f.newDet()
	} else if det, err = detect.ByName(q.Detector, nil, seed); err != nil {
		return nil, err
	}
	buffer := opt.ResultBuffer
	if buffer > MaxResultBuffer {
		return nil, fmt.Errorf("%w: result buffer %d (limit %d)", ErrBufferTooLarge, buffer, MaxResultBuffer)
	}
	if buffer <= 0 {
		buffer = s.cfg.ResultBuffer
	}
	var (
		log      *rlog.Log[Event]
		spill    *rlog.FileSpill[Event]
		spillDir string
	)
	if pin != nil {
		log, spill, spillDir = pin.log, pin.spill, pin.spillDir
	} else {
		log = rlog.New[Event](buffer, policy)
		if opt.Spill {
			spillCfg := s.cfg.Spill
			if journaled {
				// Journalled spills are the recovery substrate: durable (each
				// append flushed, segments fsynced on seal) and write-ahead,
				// so any event a consumer was promised survives a kill.
				spillCfg.Durable = true
			}
			spillDir = filepath.Join(s.cfg.SpillDir, id)
			if spill, err = rlog.NewFileSpill[Event](spillDir, spillCfg); err != nil {
				return nil, err
			}
			log.SetSpill(spill)
			if journaled {
				log.SetWriteThrough()
			}
		}
	}

	entry := f.sharedFor(opt.Backend)
	backend := entry.sh

	r := &Registration{
		id:        id,
		feed:      f,
		feedName:  f.name,
		qry:       q,
		plan:      plan,
		sub:       f.fanout.Subscribe(),
		log:       log,
		spill:     spill,
		spillDir:  spillDir,
		done:      make(chan struct{}),
		recovered: pin != nil,
	}
	r.stats.detectCost = det.Cost().PerCall
	r.stats.windowed = isWindowed
	if plan.Where != nil && !isWindowed {
		r.stats.filterCost = backend.Technique().Cost().PerCall
	}
	if journaled {
		m := s.manifest
		r.onAck = func(seq int64) { _ = m.queryAcked(id, seq) }
		if pin == nil {
			// Journal before the commit: a record for a registration that
			// then fails to commit is compensated below; the reverse — a
			// committed registration with no record — would silently vanish
			// on restart.
			rec := QueryRecord{
				ID: id, Query: q.String(), Feed: f.name,
				MaxFrames: opt.MaxFrames, SampleSize: opt.SampleSize, Seed: opt.Seed,
				ResultBuffer: opt.ResultBuffer, Policy: string(policy), Spill: opt.Spill,
			}
			if opt.Tol != nil {
				ct, lt := opt.Tol.Count, opt.Tol.Location
				rec.CountTol, rec.LocationTol = &ct, &lt
			}
			if jerr := s.manifest.queryRegistered(rec); jerr != nil {
				r.sub.Cancel()
				r.closeSpill()
				f.release(entry)
				return nil, jerr
			}
		}
	}

	s.mu.Lock()
	err = nil
	switch lim := s.cfg.MaxQueriesPerFeed; {
	case s.closed:
		err = ErrClosed
	case f.State() == FeedDraining:
		// Re-checked under the same lock hold that records the
		// registration: drain flips the state first and collects waiters
		// under this lock after, so a registration either lands before the
		// collection (and is waited for) or is rejected here — it cannot
		// slip between.
		err = fmt.Errorf("%w: %q", ErrFeedDraining, f.name)
	case lim > 0 && s.liveRegs[f.name] >= lim:
		// Re-checked here, where the slot is actually taken: the early
		// check ran under a previous lock acquisition and concurrent
		// registrations may have filled the feed since.
		err = fmt.Errorf("%w: feed %q serves %d queries (limit %d)",
			ErrFeedBusy, f.name, s.liveRegs[f.name], lim)
	}
	if err != nil {
		s.mu.Unlock()
		r.sub.Cancel()
		r.closeSpill()
		f.release(entry)
		if journaled && pin == nil {
			_ = s.manifest.queryUnregistered(id)
		}
		return nil, err
	}
	s.regs[id] = r
	s.liveRegs[f.name]++
	s.mu.Unlock()

	release := func() {
		f.release(entry)
		s.mu.Lock()
		if s.liveRegs[f.name]--; s.liveRegs[f.name] <= 0 {
			delete(s.liveRegs, f.name)
		}
		s.mu.Unlock()
	}

	s.wg.Add(1)
	if isWindowed {
		sampleSize := opt.SampleSize
		if sampleSize <= 0 {
			sampleSize = 200
		}
		cfg := query.AggregateConfig{
			SampleSize:       sampleSize,
			Sampler:          stream.NewUniformSampler(seed),
			MuFromFullWindow: true,
		}
		go func() {
			defer s.wg.Done()
			r.guard(func() { r.runWindows(backend, det, cfg, opt.MaxFrames) })
			release()
			r.finish()
			s.retire(id)
			s.journalFinished(r, journaled)
		}()
	} else {
		// Over a trained network, RunStream's chunks are the frames the
		// subscription already holds, so a paced feed surfaces each match
		// the moment its frame arrives while a backlog fills whole
		// batches; over a surrogate every chunk is one frame. The queries
		// on a feed share its memo: whichever reaches a frame first
		// evaluates it, once, and the others wait on that entry.
		eng := &query.Engine{Backend: backend, Detector: det, Tol: tol}
		go func() {
			defer s.wg.Done()
			r.guard(func() { r.runMonitor(eng, opt.MaxFrames) })
			// Release before signalling Done: whoever waited on the
			// unregister sees the admission slot already free.
			release()
			r.finish()
			s.retire(id)
			s.journalFinished(r, journaled)
		}()
	}
	return r, nil
}

// journalFinished settles a finished runner's manifest record. A spilled
// query keeps its record — its spill ends with the end event, so a
// restart recovers it as a finished row with its history replayable. A
// ring-only query has nothing durable to replay; its record is removed
// so a restart does not re-run a query that already completed.
func (s *Server) journalFinished(r *Registration, journaled bool) {
	if !journaled || r.spill != nil || r.killed.Load() {
		return
	}
	_ = s.manifest.queryUnregistered(r.id)
}

// retire records that a registration's runner finished on its own,
// evicting the oldest finished registrations beyond the retention cap.
// (Unregister removes entries directly; a stale id in the finished list
// is then a harmless no-op delete.)
func (s *Server) retire(id string) {
	s.mu.Lock()
	var evicted []*Registration
	if _, ok := s.regs[id]; ok {
		s.finished = append(s.finished, id)
		for len(s.finished) > retainFinished {
			old := s.finished[0]
			if r, ok := s.regs[old]; ok {
				evicted = append(evicted, r)
			}
			delete(s.regs, old)
			s.finished = s.finished[1:]
		}
	}
	s.mu.Unlock()
	for _, r := range evicted {
		// Eviction removes the query from the registry for good, so the
		// manifest record (and with it the spill directory) goes too —
		// otherwise a restart would resurrect rows the living server
		// already forgot.
		if s.manifest != nil {
			_ = s.manifest.queryUnregistered(r.id)
		}
		r.closeSpill()
	}
}

func (s *Server) feedNamesLocked() []string {
	names := make([]string, 0, len(s.feeds))
	for n := range s.feeds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns a registration by id.
func (s *Server) Get(id string) (*Registration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.regs[id]
	return r, ok
}

// Unregister cancels a query: its runner winds down, emits nothing
// further, and closes the result stream. The registration disappears
// from the metrics snapshot. An unknown id — never registered, already
// unregistered, or retired and evicted after its feed ended — returns
// ErrQueryNotFound (check with errors.Is); a registration whose feed
// already finished is still found and unregisters cleanly, it does not
// race the feed's teardown.
func (s *Server) Unregister(id string) error {
	s.mu.Lock()
	r, ok := s.regs[id]
	if ok {
		delete(s.regs, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrQueryNotFound, id)
	}
	r.cancelSub()
	<-r.done
	r.closeSpill()
	if s.manifest != nil {
		_ = s.manifest.queryUnregistered(id)
	}
	return nil
}

// Close stops every feed and query and waits for the runners. The server
// cannot be restarted.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	feeds := make([]*feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, f)
	}
	regs := make([]*Registration, 0, len(s.regs))
	for _, r := range s.regs {
		regs = append(regs, r)
	}
	s.mu.Unlock()
	for _, r := range regs {
		r.cancelSub()
	}
	for _, f := range feeds {
		f.close()
		f.start() // a never-started pump still needs its Run to observe Stop and close subscriptions
	}
	s.wg.Wait()
	// Flush and close live registrations' spills (retire/Unregister cover
	// their own paths); FileSpill buffers writes, so skipping this would
	// drop buffered entries and leak the descriptor. A journaling server
	// keeps the directories: the manifest still records these queries,
	// and a restart replays their history from exactly these segments.
	for _, r := range regs {
		if s.manifest != nil {
			r.closeSpillKeep()
		} else {
			r.closeSpill()
		}
	}
	if s.manifest != nil {
		_ = s.manifest.close()
	}
}

// Metrics is the server-wide telemetry snapshot the /metrics endpoint
// serves.
type Metrics struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Feeds         []FeedMetrics  `json:"feeds"`
	Queries       []QueryMetrics `json:"queries"`
	// Coalesce is unused and always empty; it stays, like
	// FeedMetrics.ScanBatches, for the benchmark harness that still reads it.
	Coalesce []CoalesceGroup `json:"coalesce,omitempty"`
}

// CoalesceGroup is the element type of the always-empty Metrics.Coalesce:
// the fields the benchmark harness reads, kept until it drops its sched.*
// rows.
type CoalesceGroup struct {
	Key      string
	Members  int
	Batches  int64
	Frames   int64
	Merged   int64
	MaxBatch int
}

// IngestMetrics reports a push-fed feed's ingest ring: how deep the
// publisher-side buffer runs, the admission policy, and how many frames
// were admitted or lost to admission control.
type IngestMetrics struct {
	Policy    string `json:"policy"`
	Depth     int    `json:"depth"`
	Capacity  int    `json:"capacity"`
	Published int64  `json:"published"`
	Dropped   int64  `json:"dropped"`
}

// FeedMetrics is one feed's share of the snapshot.
type FeedMetrics struct {
	Name string `json:"name"`
	// State is the feed's lifecycle phase: creating, running, draining or
	// closed.
	State string `json:"state"`
	// Ingest reports the push-ingestion ring for feeds fed by publishers
	// (absent for decoded feeds).
	Ingest *IngestMetrics `json:"ingest,omitempty"`
	// Frames is the number of frames the pump has dispatched.
	Frames int64 `json:"frames"`
	// FramesPerSec is the dispatch rate since the pump started.
	FramesPerSec float64 `json:"frames_per_sec"`
	// Queries is the number of live subscriptions.
	Queries int `json:"queries"`
	// LastFrameUnixMs is when the pump last dispatched a frame (Unix
	// milliseconds; 0 before the first frame) — the watchdog's input.
	LastFrameUnixMs int64 `json:"last_frame_unix_ms,omitempty"`
	// Stalled reports the watchdog verdict: the feed is running with
	// subscribers but has not dispatched a frame within
	// Config.StallAfter.
	Stalled bool `json:"stalled,omitempty"`
	// ScanBatches and ScanAvgBatch are unused and always zero; they stay
	// so existing readers of the snapshot keep compiling.
	ScanBatches  int64   `json:"scan_batches,omitempty"`
	ScanAvgBatch float64 `json:"scan_avg_batch,omitempty"`
	// SharedFilters reports each memoised backend's shared-scan economy.
	SharedFilters []SharedFilterMetrics `json:"shared_filters"`
	// SharedDetector reports the feed's memoised confirmation detector
	// (present when the detector is order-insensitive and shareable).
	SharedDetector *SharedDetectorMetrics `json:"shared_detector,omitempty"`
}

// SharedDetectorMetrics reports the shared confirmation stage: Evals is
// the number of true detector evaluations, Hits the confirmations other
// queries got from the memo, and EvalsPerFrame the detector evaluations
// per dispatched frame (at most 1 no matter how many queries share the
// oracle).
type SharedDetectorMetrics struct {
	Evals         int64   `json:"evaluations"`
	Hits          int64   `json:"hits"`
	EvalsPerFrame float64 `json:"evals_per_frame"`
}

// SharedFilterMetrics reports one shared backend's cache counters: Misses
// is the number of true network evaluations, Hits the evaluations other
// queries got for free.
type SharedFilterMetrics struct {
	Technique string  `json:"technique"`
	Misses    int64   `json:"evaluations"`
	Hits      int64   `json:"hits"`
	HitRate   float64 `json:"hit_rate"`
}

// QueryMetrics is one registration's share of the snapshot.
type QueryMetrics struct {
	ID    string `json:"id"`
	Feed  string `json:"feed"`
	Query string `json:"query"`
	Done  bool   `json:"done"`
	// Frames/FilterPassed/DetectorCalls/Matches mirror query.Result for
	// the frames processed so far.
	Frames        int     `json:"frames"`
	FilterPassed  int     `json:"filter_passed"`
	DetectorCalls int     `json:"detector_calls"`
	Matches       int     `json:"matches"`
	Windows       int     `json:"windows"`
	Selectivity   float64 `json:"selectivity"`
	// Recall and Precision are online proxies against simulator ground
	// truth (internal/metrics.BoolAccuracy over per-frame outcomes).
	Recall    float64 `json:"recall"`
	Precision float64 `json:"precision"`
	// QueueDepth is the query's backlog in its feed tee.
	QueueDepth int `json:"queue_depth"`
	// VirtualTimeMs is the simulated pipeline cost so far.
	VirtualTimeMs float64 `json:"virtual_time_ms"`
	// Result-log delivery telemetry: the policy in force, the next
	// sequence the log will assign (= events stored so far), the oldest
	// sequence still resumable from the ring, events lost to the policy,
	// attached consumers, and how far the slowest consumer (or the
	// parked resume point) trails the writer.
	Policy        string `json:"policy"`
	EventSeq      int64  `json:"event_seq"`
	FirstRetained int64  `json:"first_retained"`
	Dropped       int64  `json:"dropped"`
	Readers       int    `json:"readers"`
	ConsumerLag   int64  `json:"consumer_lag"`
	// Acked is the highest event sequence the consuming side has
	// acknowledged as durably processed, -1 when nothing has ever been
	// acked (the floor then follows read positions, the pre-ack
	// contract).
	Acked int64 `json:"acked"`
	// Spill telemetry, present when the registration spills: on-disk
	// footprint and segment count of its result history.
	SpillBytes    int64 `json:"spill_bytes,omitempty"`
	SpillSegments int   `json:"spill_segments,omitempty"`
	// Recovered marks a registration re-created from the durable
	// manifest after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Failure carries the recovered panic when the query ended because
	// its backend or detector panicked (end reason "query_failed").
	Failure *query.Failure `json:"failure,omitempty"`
}

// Metrics snapshots the server.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	feeds := make([]*feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, f)
	}
	regs := make([]*Registration, 0, len(s.regs))
	for _, r := range s.regs {
		regs = append(regs, r)
	}
	s.mu.Unlock()

	m := Metrics{
		UptimeSeconds: time.Since(s.birth).Seconds(),
	}
	for _, f := range feeds {
		fm := FeedMetrics{
			Name:    f.name,
			State:   string(f.State()),
			Frames:  f.fanout.Frames(),
			Queries: f.fanout.Subscribers(),
		}
		fm.LastFrameUnixMs, fm.Stalled = f.stalledNow(s.cfg.StallAfter)
		if f.push != nil {
			fm.Ingest = &IngestMetrics{
				Policy:    string(f.push.Policy()),
				Depth:     f.push.Depth(),
				Capacity:  f.push.Capacity(),
				Published: f.push.Published(),
				Dropped:   f.push.Dropped(),
			}
		}
		if f.detMemo != nil {
			hits, misses := f.detMemo.Stats()
			dm := &SharedDetectorMetrics{Evals: misses, Hits: hits}
			if fm.Frames > 0 {
				dm.EvalsPerFrame = float64(misses) / float64(fm.Frames)
			}
			fm.SharedDetector = dm
		}
		f.mu.Lock()
		if f.running {
			if secs := time.Since(f.started).Seconds(); secs > 0 {
				fm.FramesPerSec = float64(fm.Frames) / secs
			}
		}
		for _, e := range f.shared {
			hits, misses := e.sh.Stats()
			sf := SharedFilterMetrics{
				Technique: e.sh.Technique().String(),
				Misses:    misses,
				Hits:      hits,
			}
			if hits+misses > 0 {
				sf.HitRate = float64(hits) / float64(hits+misses)
			}
			fm.SharedFilters = append(fm.SharedFilters, sf)
		}
		f.mu.Unlock()
		sort.Slice(fm.SharedFilters, func(a, b int) bool {
			return fm.SharedFilters[a].Technique < fm.SharedFilters[b].Technique
		})
		m.Feeds = append(m.Feeds, fm)
	}
	sort.Slice(m.Feeds, func(a, b int) bool { return m.Feeds[a].Name < m.Feeds[b].Name })

	for _, r := range regs {
		m.Queries = append(m.Queries, r.metricsRow())
	}
	sort.Slice(m.Queries, func(a, b int) bool { return lessID(m.Queries[a].ID, m.Queries[b].ID) })
	return m
}

// metricsRow snapshots one registration's telemetry — the QueryMetrics
// entry of the /metrics payload, reused by the query listing and
// single-query status endpoints.
func (r *Registration) metricsRow() QueryMetrics {
	r.stats.mu.Lock()
	qm := QueryMetrics{
		ID:            r.id,
		Feed:          r.feedName,
		Query:         r.qry.String(),
		Done:          r.stats.finished,
		Frames:        r.stats.frames,
		FilterPassed:  r.stats.passed,
		DetectorCalls: r.stats.passed,
		Matches:       r.stats.matches,
		Windows:       r.stats.windows,
		Recall:        r.stats.acc.Recall(),
		Precision:     r.stats.acc.Precision(),
		Policy:        string(r.log.Policy()),
		EventSeq:      r.log.NextSeq(),
		FirstRetained: r.log.FirstRetained(),
		Dropped:       r.log.Dropped(),
		Readers:       r.log.Readers(),
		ConsumerLag:   r.log.Lag(),
		Acked:         r.log.AckedSeq(),
		Recovered:     r.recovered,
		Failure:       r.stats.failure,
	}
	if r.sub != nil {
		qm.QueueDepth = r.sub.Depth()
	}
	if r.stats.frames > 0 {
		qm.Selectivity = float64(r.stats.passed) / float64(r.stats.frames)
	}
	// Window runners pay per sampled frame (virtualExtra), monitor
	// runners per frame filtered plus per confirmation.
	virtual := r.stats.virtualExtra
	if !r.stats.windowed {
		virtual += r.stats.filterCost*time.Duration(r.stats.frames) +
			r.stats.detectCost*time.Duration(r.stats.passed)
	}
	qm.VirtualTimeMs = float64(virtual) / float64(time.Millisecond)
	r.stats.mu.Unlock()
	if r.spill != nil {
		qm.SpillBytes = r.spill.SizeBytes()
		qm.SpillSegments = r.spill.Segments()
	}
	return qm
}
