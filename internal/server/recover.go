package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"vmq/internal/rlog"
	"vmq/internal/vql"
)

// Recover builds a server from the durable manifest under
// Config.StateDir: journalled feeds are re-created from their specs
// (drained feeds restart drained), journalled queries re-register under
// their original ids with their result logs resumed from their spill
// segments, and the acknowledged positions replayed — a consumer that
// acked through N before the crash reconnects with ?from=N+1 and
// continues gap-free, byte-identical to an uninterrupted run.
//
// A query whose spill ends with its end event is recovered as a
// finished registration: no runner starts, but its history stays
// replayable through results/history exactly as a retired query's
// would. A query whose feed no longer admits it (removed, or drained
// before the crash) is recovered the same way when it has history, and
// dropped from the manifest when it has none.
//
// Recover is also how journaling is enabled in the first place: a
// server built with New never journals, one built with Recover journals
// every wire-expressible feed and query from then on. An empty or
// absent StateDir is an error; a StateDir with no manifest yet recovers
// an empty server and starts the journal.
func Recover(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("server: Recover needs Config.StateDir")
	}
	s := New(cfg)
	// Readiness: until Start, /v1/healthz answers 503 recovering — the
	// manifest replay below re-registers queries and resumes spills, and
	// a router must not route new work at a half-rebuilt registry.
	s.recovering.Store(true)
	m, err := openManifest(s.cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.manifest = m
	if m.state.nextID > s.nextID {
		s.nextID = m.state.nextID
	}
	s.mu.Unlock()

	// Feeds first (queries register against them), in name order for
	// deterministic recovery.
	feedNames := make([]string, 0, len(m.state.feeds))
	for n := range m.state.feeds {
		feedNames = append(feedNames, n)
	}
	sort.Strings(feedNames)
	for _, name := range feedNames {
		fm := m.state.feeds[name]
		fc, err := fm.spec.feedConfig()
		if err != nil {
			continue // a journal from a newer/older build: skip what cannot build
		}
		if err := s.AddFeed(fc); err != nil {
			continue
		}
		if fm.drained {
			if f, ferr := s.feedByName(name); ferr == nil {
				f.drain(EndReasonFeedDrained)
			}
		}
	}

	// Queries in id order: earlier registrations re-register first, so
	// admission limits land the way they originally did.
	ids := make([]string, 0, len(m.state.queries))
	for id := range m.state.queries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return lessID(ids[a], ids[b]) })
	for _, id := range ids {
		acked, ok := m.state.acks[id]
		if !ok {
			acked = -1
		}
		s.recoverQuery(*m.state.queries[id], acked)
	}

	// Orphan spill segments: a crash between the durable id reservation
	// and the query_register record leaves a spill directory no record
	// claims. The id was reserved, so it will never be reused — the
	// directory is dead weight and is swept. Only the server-owned spill
	// root under StateDir is swept; a caller-pointed SpillDir may hold
	// directories the server does not own.
	if s.cfg.SpillDir == filepath.Join(s.cfg.StateDir, "spill") {
		sweepOrphanSpills(s.cfg.SpillDir, m.state.queries)
	}
	return s, nil
}

// CreateFeedSpec creates a feed from its serialisable spec and, when
// the server journals (Recover), records it durably so a restart
// re-creates it. The HTTP create endpoint routes through here; AddFeed
// remains the programmatic path and is never journalled (a custom
// Source or Backend cannot be re-created from a record).
func (s *Server) CreateFeedSpec(spec FeedSpec) error {
	cfg, err := spec.feedConfig()
	if err != nil {
		return err
	}
	if err := s.AddFeed(cfg); err != nil {
		return err
	}
	s.mu.Lock()
	m := s.manifest
	s.mu.Unlock()
	if m != nil {
		if jerr := m.feedCreated(spec); jerr != nil {
			// The feed must not exist undurably: a restart would lose it
			// while its publishers keep addressing it. Roll back.
			_ = s.RemoveFeed(spec.Name)
			return fmt.Errorf("server: journal feed %q: %w", spec.Name, jerr)
		}
	}
	return nil
}

// recoveredQuery pins a recovery-time registration: the original id and
// the result log already resumed over the existing spill segments.
// register() uses these instead of minting fresh ones.
type recoveredQuery struct {
	id       string
	log      *rlog.Log[Event]
	spill    *rlog.FileSpill[Event]
	spillDir string
}

// recoverQuery rebuilds one journalled registration. Its spill (when it
// has one) decides the shape: a spill whose last entry is the query's
// end event recovers as a finished registration (history only, no
// runner); anything else re-registers live with the log resumed one
// past the last durable event, so new events continue the sequence
// gap-free.
func (s *Server) recoverQuery(rec QueryRecord, acked int64) {
	q, err := vql.Parse(rec.Query)
	if err != nil {
		_ = s.manifest.queryUnregistered(rec.ID)
		return
	}
	var (
		spill    *rlog.FileSpill[Event]
		spillDir string
		next     int64
		finished bool
	)
	if rec.Spill {
		dir := filepath.Join(s.cfg.SpillDir, rec.ID)
		scfg := s.cfg.Spill
		scfg.Durable = true
		sp, serr := rlog.NewFileSpill[Event](dir, scfg)
		if serr == nil {
			spill = sp
			spillDir = dir
			if last, ok := sp.LastRetained(); ok {
				next = last + 1
				if ev, ok := sp.Read(last); ok && ev.Kind == EventEnd {
					finished = true
				}
			}
		}
	}
	if next == 0 && acked >= 0 {
		// No durable history (ring-only query): at least keep sequence
		// numbering monotone past what the consumer already processed.
		next = acked + 1
	}
	if finished {
		s.recoverFinished(rec, q, spill, spillDir, next, acked)
		return
	}
	pin := &recoveredQuery{
		id:       rec.ID,
		log:      s.resumedLog(rec, spill, next, acked),
		spill:    spill,
		spillDir: spillDir,
	}
	if _, err := s.register(q, rec.options(s.cfg), pin); err != nil {
		// The feed is gone or draining. With history, keep it visible as
		// a finished row; with none, purge the record.
		if spill != nil {
			s.recoverFinished(rec, q, spill, spillDir, next, acked)
		} else {
			_ = s.manifest.queryUnregistered(rec.ID)
		}
	}
}

// resumedLog builds the registration's result log positioned to
// continue the recovered stream.
func (s *Server) resumedLog(rec QueryRecord, spill *rlog.FileSpill[Event], next, acked int64) *rlog.Log[Event] {
	buffer := rec.ResultBuffer
	if buffer <= 0 || buffer > MaxResultBuffer {
		buffer = s.cfg.ResultBuffer
	}
	policy, ok := rlog.ParsePolicy(rec.Policy)
	if !ok {
		policy = s.cfg.DefaultPolicy
	}
	log := rlog.New[Event](buffer, policy)
	if spill != nil {
		log.SetSpill(spill)
		log.SetWriteThrough()
	}
	log.Resume(next, acked)
	return log
}

// options rebuilds the Options a journalled registration was created
// with.
func (rec QueryRecord) options(cfg Config) Options {
	opt := Options{
		MaxFrames:    rec.MaxFrames,
		SampleSize:   rec.SampleSize,
		Seed:         rec.Seed,
		ResultBuffer: rec.ResultBuffer,
		Spill:        rec.Spill,
	}
	if p, ok := rlog.ParsePolicy(rec.Policy); ok {
		opt.Policy = p
	}
	if rec.CountTol != nil || rec.LocationTol != nil {
		tol := *cfg.Tol
		if rec.CountTol != nil {
			tol.Count = *rec.CountTol
		}
		if rec.LocationTol != nil {
			tol.Location = *rec.LocationTol
		}
		opt.Tol = &tol
	}
	return opt
}

// recoverFinished installs a registration whose runner already ended
// (or whose feed no longer admits it): the log replays its retained
// history and is closed, Done is already signalled, and the row shows
// up finished in listings — exactly how a retired query looks, minus a
// live feed behind it.
func (s *Server) recoverFinished(rec QueryRecord, q *vql.Query, spill *rlog.FileSpill[Event], spillDir string, next, acked int64) {
	r := &Registration{
		id:        rec.ID,
		feedName:  rec.Feed,
		qry:       q,
		log:       s.resumedLog(rec, spill, next, acked),
		spill:     spill,
		spillDir:  spillDir,
		done:      make(chan struct{}),
		recovered: true,
	}
	r.log.Close()
	r.stats.finished = true
	close(r.done)
	s.mu.Lock()
	s.regs[rec.ID] = r
	s.finished = append(s.finished, rec.ID)
	s.mu.Unlock()
}

// spillDirPattern matches server-minted spill directory names.
var spillDirPattern = regexp.MustCompile(`^q\d+$`)

// sweepOrphanSpills removes spill directories under the server-owned
// spill root that no journalled query claims.
func sweepOrphanSpills(dir string, queries map[string]*QueryRecord) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !spillDirPattern.MatchString(name) {
			continue
		}
		if _, ok := queries[name]; !ok {
			_ = os.RemoveAll(filepath.Join(dir, name))
		}
	}
}

// Crash simulates a process kill for chaos drills and tests: runners
// are cut without end events (a killed process emits nothing), spills
// and the manifest are closed without the graceful flush-and-compact,
// and spill directories are left on disk — exactly the state a SIGKILL
// leaves, minus the lost file descriptors. The server is unusable
// afterwards; Recover over the same StateDir is the restart. Exported
// so fleet-level chaos tests can kill a shard in-process.
func (s *Server) Crash() {
	s.mu.Lock()
	s.closed = true
	feeds := make([]*feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, f)
	}
	regs := make([]*Registration, 0, len(s.regs))
	for _, r := range s.regs {
		regs = append(regs, r)
	}
	m := s.manifest
	s.mu.Unlock()
	for _, r := range regs {
		// killed before the cancel: an unwinding runner's final emit must
		// not journal an orderly end the real process never wrote.
		r.killed.Store(true)
		r.cancelSub()
	}
	for _, f := range feeds {
		f.close()
		f.start()
	}
	s.wg.Wait()
	for _, r := range regs {
		if r.spill != nil {
			_ = r.spill.Close() // close the descriptor; keep the files
		}
	}
	if m != nil {
		m.closeAbrupt()
	}
}
