package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmq/internal/fault"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// FeedSpec is the serialisable description of a feed — the subset of
// FeedConfig that can round-trip through JSON, which is what the HTTP
// create endpoint accepts and what the durable manifest journals. A
// programmatic FeedConfig (custom Source, Backend, or detector factory)
// cannot be journalled; feeds created through CreateFeedSpec can, and
// are re-created identically by Recover.
type FeedSpec struct {
	// Name is the feed's registry key (FROM clauses resolve on it).
	Name string `json:"name"`
	// Profile names the dataset profile ("coral", "jackson", "detrac").
	Profile string `json:"profile"`
	// Source selects ingestion: "push" (default) accepts frames from
	// publishers; "sim" runs the built-in simulator stream.
	Source string `json:"source,omitempty"`
	// Seed seeds a sim feed's stream and its default filter backend
	// (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// FPS paces the feed at the given frame rate (0 = unpaced).
	FPS float64 `json:"fps,omitempty"`
	// MaxFrames ends the feed after this many frames (0 = unbounded).
	MaxFrames int `json:"max_frames,omitempty"`
	// IngestBuffer is a push feed's ring capacity in frames (default
	// 256, max MaxIngestBuffer).
	IngestBuffer int `json:"ingest_buffer,omitempty"`
	// IngestPolicy is a push feed's admission policy: "block" (default),
	// "drop-oldest" or "reject".
	IngestPolicy string `json:"ingest_policy,omitempty"`
}

// specError is a FeedSpec validation failure carrying the HTTP mapping,
// so the create endpoint answers the same status/code pairs it always
// has while the validation itself lives with the spec.
type specError struct {
	status int
	code   string
	err    error
}

func (e *specError) Error() string { return e.err.Error() }
func (e *specError) Unwrap() error { return e.err }

// feedConfig materialises the spec into a runnable FeedConfig. It is
// deterministic: replaying the same spec after a restart rebuilds the
// same feed (the simulator stream and default backend are seeded from
// the spec, not from wall-clock state).
func (sp FeedSpec) feedConfig() (FeedConfig, error) {
	bad := func(status int, code, format string, args ...any) (FeedConfig, error) {
		return FeedConfig{}, &specError{status: status, code: code, err: fmt.Errorf(format, args...)}
	}
	if sp.Name == "" {
		return bad(http.StatusBadRequest, "bad_request", "feed needs a name")
	}
	prof, ok := video.ProfileByName(sp.Profile)
	if !ok {
		return bad(http.StatusBadRequest, "bad_request", "unknown profile %q", sp.Profile)
	}
	cfg := FeedConfig{Name: sp.Name, Profile: prof, MaxFrames: sp.MaxFrames}
	if sp.FPS > 0 {
		cfg.FrameInterval = time.Duration(float64(time.Second) / sp.FPS)
	}
	switch sp.Source {
	case "", "push":
		policy, err := stream.ParsePushPolicy(sp.IngestPolicy)
		if err != nil {
			return bad(http.StatusBadRequest, "unknown_policy", "%v", err)
		}
		buffer := sp.IngestBuffer
		if buffer > MaxIngestBuffer {
			return bad(http.StatusUnprocessableEntity, "buffer_too_large",
				"%v: ingest buffer %d (limit %d)", ErrBufferTooLarge, buffer, MaxIngestBuffer)
		}
		if buffer <= 0 {
			buffer = defaultIngestBuffer
		}
		cfg.Source = stream.NewPushSource(buffer, policy)
	case "sim":
		seed := sp.Seed
		if seed == 0 {
			seed = 1
		}
		cfg.Source = stream.FromStream(video.NewStream(prof, seed))
	default:
		return bad(http.StatusBadRequest, "bad_request", "unknown source %q (want push or sim)", sp.Source)
	}
	return cfg, nil
}

// QueryRecord is the journalled form of one registration: the VQL text
// plus the options a restart needs to re-create the query under its
// original id. Only registrations expressible over the wire are
// journalled (no programmatic Backend override).
type QueryRecord struct {
	ID    string `json:"id"`
	Query string `json:"query"`
	// Feed is the feed name the query ran on — informational (the FROM
	// clause is authoritative), kept so a detached recovery row can
	// still report its feed.
	Feed         string `json:"feed,omitempty"`
	MaxFrames    int    `json:"max_frames,omitempty"`
	SampleSize   int    `json:"samples,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	ResultBuffer int    `json:"result_buffer,omitempty"`
	Policy       string `json:"policy,omitempty"`
	Spill        bool   `json:"spill,omitempty"`
	CountTol     *int   `json:"count_tolerance,omitempty"`
	LocationTol  *int   `json:"location_tolerance,omitempty"`
}

// Manifest record types. The manifest is an append-only NDJSON journal:
// one typed record per line, applied in order on replay. Every record
// is written and fsynced before the in-memory state change it describes
// is applied, so the journal never claims less than what happened.
const (
	recFeedCreate      = "feed_create"
	recFeedDrain       = "feed_drain"
	recFeedRemove      = "feed_remove"
	recQueryRegister   = "query_register"
	recQueryUnregister = "query_unregister"
	recQueryAck        = "query_ack"
	recNextID          = "next_id"
)

// manifestRecord is one journal line. Exactly the fields the record
// type needs are set; the rest stay at their zero values and are
// omitted from the encoding.
type manifestRecord struct {
	Type string `json:"type"`
	// feed_create.
	Feed *FeedSpec `json:"feed,omitempty"`
	// feed_drain / feed_remove.
	Name string `json:"name,omitempty"`
	// query_register.
	Query *QueryRecord `json:"query,omitempty"`
	// query_unregister / query_ack.
	ID string `json:"id,omitempty"`
	// query_ack: the highest acknowledged sequence. No omitempty — 0 is
	// a legitimate acked position (the first event).
	Seq int64 `json:"seq"`
	// next_id: the highest reserved numeric query id.
	Next int `json:"next,omitempty"`
}

// feedManifest is one feed's replayed state: its spec plus whether a
// drain was journalled (a drained feed restarts drained — its
// ingestion was already cut, and un-draining on restart would silently
// resurrect a feed the operator shut down).
type feedManifest struct {
	spec    FeedSpec
	drained bool
}

// manifestState is the journal's replayed view of the control plane:
// which feeds and queries exist, the acknowledged position per query,
// and the highest query id ever reserved (so a restart never reuses an
// id whose spill segments may still be on disk).
type manifestState struct {
	feeds   map[string]*feedManifest
	queries map[string]*QueryRecord
	acks    map[string]int64
	nextID  int
}

func newManifestState() manifestState {
	return manifestState{
		feeds:   make(map[string]*feedManifest),
		queries: make(map[string]*QueryRecord),
		acks:    make(map[string]int64),
	}
}

// apply folds one record into the state. Replay is idempotent: records
// overwrite or max-merge, so a journal carrying duplicates (an append
// that was synced but whose writer crashed before observing success,
// then retried) replays to the same state.
func (st *manifestState) apply(rec manifestRecord) {
	switch rec.Type {
	case recFeedCreate:
		if rec.Feed != nil && rec.Feed.Name != "" {
			st.feeds[rec.Feed.Name] = &feedManifest{spec: *rec.Feed}
		}
	case recFeedDrain:
		if fm, ok := st.feeds[rec.Name]; ok {
			fm.drained = true
		}
	case recFeedRemove:
		delete(st.feeds, rec.Name)
	case recQueryRegister:
		if rec.Query != nil && rec.Query.ID != "" {
			q := *rec.Query
			st.queries[q.ID] = &q
			st.bumpNextID(q.ID)
		}
	case recQueryUnregister:
		delete(st.queries, rec.ID)
		delete(st.acks, rec.ID)
	case recQueryAck:
		if _, ok := st.queries[rec.ID]; ok {
			if cur, ok := st.acks[rec.ID]; !ok || rec.Seq > cur {
				st.acks[rec.ID] = rec.Seq
			}
		}
	case recNextID:
		if rec.Next > st.nextID {
			st.nextID = rec.Next
		}
	}
}

// bumpNextID raises the id high-water mark from a journalled "qN" id.
func (st *manifestState) bumpNextID(id string) {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "q")); err == nil && n > st.nextID {
		st.nextID = n
	}
}

// records renders the state as its minimal journal — what compaction
// writes: feeds (with drains) sorted by name, the id high-water mark,
// then queries and their acks sorted by id.
func (st *manifestState) records() []manifestRecord {
	var out []manifestRecord
	feedNames := make([]string, 0, len(st.feeds))
	for n := range st.feeds {
		feedNames = append(feedNames, n)
	}
	sort.Strings(feedNames)
	for _, n := range feedNames {
		fm := st.feeds[n]
		spec := fm.spec
		out = append(out, manifestRecord{Type: recFeedCreate, Feed: &spec})
		if fm.drained {
			out = append(out, manifestRecord{Type: recFeedDrain, Name: n})
		}
	}
	if st.nextID > 0 {
		out = append(out, manifestRecord{Type: recNextID, Next: st.nextID})
	}
	ids := make([]string, 0, len(st.queries))
	for id := range st.queries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return lessID(ids[a], ids[b]) })
	for _, id := range ids {
		q := *st.queries[id]
		out = append(out, manifestRecord{Type: recQueryRegister, Query: &q})
		if seq, ok := st.acks[id]; ok {
			out = append(out, manifestRecord{Type: recQueryAck, ID: id, Seq: seq})
		}
	}
	return out
}

// manifestFile is the journal's file name under Config.StateDir.
const manifestFile = "manifest.ndjson"

// manifestCompactBytes triggers an in-place compaction once the journal
// grows past it — ack records dominate a long-running journal, and each
// query keeps only its highest ack after compaction.
const manifestCompactBytes = 1 << 20

// manifest is the durable control-plane journal: an append-only NDJSON
// file under Config.StateDir recording feed and query lifecycle, with
// the same crash-consistency discipline as the result spill — every
// record is written and fsynced before the change it describes takes
// effect in memory, a torn final line is dropped on replay, and the
// journal is compacted (atomic tmp+rename) on open and on growth.
type manifest struct {
	mu    sync.Mutex
	dir   string
	path  string
	f     *os.File
	size  int64
	state manifestState
}

// openManifest opens (creating if needed) the journal in dir, replays
// it into state, compacts it, and leaves the file open for appends. A
// final line truncated by a crash mid-write is dropped; complete
// records after an unparsable line are still applied (each line stands
// alone), so one damaged record costs one record, not the tail.
func openManifest(dir string) (*manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: manifest: %w", err)
	}
	m := &manifest{dir: dir, path: filepath.Join(dir, manifestFile), state: newManifestState()}
	if err := m.replay(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.compactLocked(); err != nil {
		return nil, err
	}
	return m, nil
}

// replay folds the existing journal, if any, into m.state.
func (m *manifest) replay() error {
	f, err := os.Open(m.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: manifest: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			// EOF with a partial line is the crash-truncated tail: the
			// record was never acknowledged to its caller, dropping it is
			// the correct recovery.
			return nil
		}
		var rec manifestRecord
		if json.Unmarshal(line, &rec) == nil {
			m.state.apply(rec)
		}
	}
}

// compactLocked rewrites the journal as the state's minimal record set:
// written to a temp file, fsynced, renamed over the journal, directory
// fsynced — the same atomic-replace discipline a crashed compaction
// must survive (the old journal stays intact until the rename lands).
func (m *manifest) compactLocked() error {
	if m.f != nil {
		_ = m.f.Close()
		m.f = nil
	}
	tmp := m.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: manifest: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range m.state.records() {
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
			return fmt.Errorf("server: manifest: %w", err)
		}
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("server: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("server: manifest: %w", err)
	}
	if err := os.Rename(tmp, m.path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("server: manifest: %w", err)
	}
	syncManifestDir(m.dir)
	out, err := os.OpenFile(m.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: manifest: %w", err)
	}
	st, err := out.Stat()
	if err != nil {
		_ = out.Close()
		return fmt.Errorf("server: manifest: %w", err)
	}
	m.f = out
	m.size = st.Size()
	return nil
}

// append journals one record durably (write + fsync) and, on success,
// applies it to the in-memory state — journal-then-apply, so a crash
// between the two replays to at least what the caller was promised. A
// failed append leaves the state unchanged; the caller decides whether
// to abort or compensate.
func (m *manifest) append(rec manifestRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: manifest: %w", err)
	}
	line = append(line, '\n')
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return fmt.Errorf("server: manifest: closed")
	}
	if err := fault.Hit("manifest.append"); err != nil {
		if errors.Is(err, fault.ErrShort) {
			// Simulate a torn write: half the line lands, then the
			// "crash". The newline never lands, so replay drops it.
			_, _ = m.f.Write(line[:len(line)/2])
			_ = m.f.Sync()
		}
		return fmt.Errorf("server: manifest: %w", err)
	}
	n, err := m.f.Write(line)
	m.size += int64(n)
	if err == nil {
		err = m.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("server: manifest: %w", err)
	}
	m.state.apply(rec)
	if m.size > manifestCompactBytes {
		if cerr := m.compactLocked(); cerr != nil {
			// The journal is still valid, just uncompacted; surface
			// nothing — the next growth retries.
			_ = cerr
		}
	}
	return nil
}

// feedCreated journals a feed definition.
func (m *manifest) feedCreated(spec FeedSpec) error {
	return m.append(manifestRecord{Type: recFeedCreate, Feed: &spec})
}

// feedDrained journals that a feed's drain was initiated.
func (m *manifest) feedDrained(name string) error {
	return m.append(manifestRecord{Type: recFeedDrain, Name: name})
}

// feedRemoved journals a feed removal.
func (m *manifest) feedRemoved(name string) error {
	return m.append(manifestRecord{Type: recFeedRemove, Name: name})
}

// queryRegistered journals a registration.
func (m *manifest) queryRegistered(rec QueryRecord) error {
	return m.append(manifestRecord{Type: recQueryRegister, Query: &rec})
}

// queryUnregistered journals that a query left the control plane (an
// explicit unregister, or a finished query with no history to keep).
func (m *manifest) queryUnregistered(id string) error {
	return m.append(manifestRecord{Type: recQueryUnregister, ID: id})
}

// queryAcked journals the consumer's acknowledged position, deduplicated
// against the replayed state so an unchanged ack costs no journal write
// (consumers commonly re-ack on reconnect).
func (m *manifest) queryAcked(id string, seq int64) error {
	m.mu.Lock()
	if cur, ok := m.state.acks[id]; ok && seq <= cur {
		m.mu.Unlock()
		return nil
	}
	if _, ok := m.state.queries[id]; !ok {
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	return m.append(manifestRecord{Type: recQueryAck, ID: id, Seq: seq})
}

// reserveID journals the id high-water mark BEFORE the id's spill
// directory is created: if the process dies between the reservation and
// the query_register record, the restart still never hands the id to a
// new query whose consumers could then read the dead query's stale
// spill segments.
func (m *manifest) reserveID(n int) error {
	m.mu.Lock()
	if n <= m.state.nextID {
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	return m.append(manifestRecord{Type: recNextID, Next: n})
}

// close compacts and closes the journal. Safe to call once; appends
// after close fail.
func (m *manifest) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	err := m.compactLocked()
	if m.f != nil {
		_ = m.f.Close()
		m.f = nil
	}
	return err
}

// closeAbrupt closes the journal without compacting — the crash
// simulation path used by tests: whatever the file holds is exactly
// what a killed process would have left.
func (m *manifest) closeAbrupt() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f != nil {
		_ = m.f.Close()
		m.f = nil
	}
}

// syncManifestDir fsyncs a directory so a rename or create within it is
// durable. Best-effort, mirroring the spill's discipline: filesystems
// that refuse directory fsync don't fail the operation.
func syncManifestDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
