package server

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/filters"
	"vmq/internal/metrics"
	"vmq/internal/query"
	"vmq/internal/rlog"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// Options tunes one query registration.
type Options struct {
	// Tol overrides the server's default filter tolerances.
	Tol *query.Tolerances
	// Backend overrides the feed's default filter backend (e.g. to put
	// one query on the IC family). Registrations naming the same backend
	// instance share one memoised scan of it.
	Backend filters.Backend
	// MaxFrames ends the query after this many frames (0 = until the
	// feed ends or the query is unregistered).
	MaxFrames int
	// SampleSize is the detector sample budget per window for aggregate
	// queries. Zero or less selects the default, 200, which query.Compile
	// applies for a Session too.
	SampleSize int
	// Seed seeds both the window sampler and a detector the USING clause
	// names (0 selects 1). A Session seeds the two apart: a USING
	// detector with its own seed, the sampler with that seed + 101.
	Seed uint64
	// ResultBuffer overrides the server's default result-log ring
	// capacity for this query (rounded up to a power of two, at most
	// MaxResultBuffer — the ring is allocated eagerly, so Register
	// rejects requests beyond the cap rather than size an allocation
	// by client input).
	ResultBuffer int
	// Policy overrides the server's default delivery policy for this
	// query: rlog.Block (lossless, the writer waits for the slowest
	// consumer), rlog.DropOldest (bounded lag, slow consumers see gaps)
	// or rlog.Sample (decimate under backlog pressure).
	Policy rlog.Policy
	// Spill attaches a server-managed file-backed spill: events evicted
	// from the ring are appended to rotating segment files under
	// Config.SpillDir/<query-id> and served back to consumers resuming
	// from far behind, extending the resumable window beyond the ring.
	// The directory is removed when the registration leaves the registry.
	Spill bool
}

// EventKind distinguishes the entries of a registration's result stream.
type EventKind string

// Event kinds.
const (
	// EventMatch reports one detector-confirmed frame of a monitoring
	// query.
	EventMatch EventKind = "match"
	// EventWindow reports one completed window of a continuous aggregate
	// query.
	EventWindow EventKind = "window"
	// EventEnd is the final entry before the stream closes, carrying the
	// run's totals.
	EventEnd EventKind = "end"
	// EventGap reports that the events in [DroppedFrom, DroppedTo) were
	// evicted from the result log before this consumer reached them — a
	// slow consumer under drop-oldest/sampling, or a resume from below
	// the retained window. Gap events are synthesised per consumer at
	// read time; they occupy no log sequence.
	EventGap EventKind = "gap"
)

// Event is one entry in a registered query's result stream.
type Event struct {
	Kind    EventKind `json:"kind"`
	QueryID string    `json:"query_id"`
	Feed    string    `json:"feed"`

	// EventSeq is the event's position in the query's result log — the
	// monotonically increasing delivery sequence a consumer passes back
	// as ?from= to resume after a disconnect. (Distinct from Seq, which
	// is a frame position.)
	EventSeq int64 `json:"event_seq"`

	// Match events: Seq is the frame's index within the query's executed
	// sequence (what Result.Matched records), FrameIndex the frame's
	// global position in its camera stream, Objects its ground-truth
	// object count. No omitempty — zero is a legitimate value for all
	// three (a match on the very first frame), and NDJSON consumers must
	// be able to tell it from an absent field.
	Seq        int `json:"seq"`
	FrameIndex int `json:"frame_index"`
	Objects    int `json:"objects"`

	// Window events.
	WindowStart int                    `json:"window_start"`
	Window      *query.AggregateResult `json:"window,omitempty"`

	// End events. Reason says why the stream ended when an operator
	// action ended it ("feed_drained", "feed_removed") or a fault did
	// ("query_failed"); empty when the source ran out or the query hit
	// its own frame budget. Error carries the panic value's string form
	// on a query_failed end.
	Final  *query.Result `json:"final,omitempty"`
	Reason string        `json:"reason,omitempty"`
	Error  string        `json:"error,omitempty"`

	// Gap events: the half-open dropped range. DroppedFrom has no
	// omitempty — 0 is its most common legitimate value (a resume from
	// the beginning after the ring wrapped) and wire consumers must see
	// it; DroppedTo is never 0 for a real gap.
	DroppedFrom int64 `json:"dropped_from"`
	DroppedTo   int64 `json:"dropped_to,omitempty"`
}

// Registration is one continuous query registered against a feed.
type Registration struct {
	id string
	// feed is nil for a registration recovered in its finished form (the
	// feed may no longer exist); feedName always carries the name.
	feed     *feed
	feedName string
	qry      *vql.Query
	// sub is nil for a finished-form recovery (no runner, no fan-out
	// slot); every use outside the runner goroutine must tolerate that.
	sub *stream.Subscription

	// log is the registration's result log: the runner appends, any
	// number of consumers read through cursors (Results, ResultsFrom).
	log      *rlog.Log[Event]
	spill    *rlog.FileSpill[Event] // non-nil when a spill is attached
	spillDir string                 // server-managed spill dir, removed on closeSpill
	done     chan struct{}

	// killed marks a simulated process kill (tests): the runner's
	// unwinding emits are dropped so the log holds exactly what a real
	// kill would have persisted.
	killed atomic.Bool
	// endOnce guards the final end event: the runner's orderly end and
	// the panic barrier's forced end must not both land.
	endOnce sync.Once
	// onAck, when set, journals acknowledged positions durably (the
	// manifest's query_ack records).
	onAck func(int64)
	// recovered marks a registration re-created from the manifest.
	recovered bool

	resultsOnce sync.Once
	resultsCh   chan Event

	stats regStats
}

// regStats is the registration's live telemetry, updated from the
// runner's confirmation stage and snapshotted by Metrics.
type regStats struct {
	mu           sync.Mutex
	frames       int
	passed       int
	matches      int
	windows      int
	acc          metrics.BoolAccuracy
	filterCost   time.Duration // per-frame filter charge (0 when not filtering)
	detectCost   time.Duration // per-confirmation detector charge
	virtualExtra time.Duration // window runners: per-sample cost actually paid
	finished     bool
	failure      *query.Failure // the recovered panic when the query failed
}

// ID returns the registration id the HTTP API addresses.
func (r *Registration) ID() string { return r.id }

// Feed returns the feed name the query runs on.
func (r *Registration) Feed() string { return r.feedName }

// Query returns the registered query.
func (r *Registration) Query() *vql.Query { return r.qry }

// Results is the registration's event stream as a channel: matches (or
// window estimates) as they confirm, then one EventEnd, then the channel
// closes. It is a convenience consumer over the registration's result
// log, reading from sequence 0; under the default Block policy an
// abandoned channel back-pressures the query exactly as the pre-log
// contract did, while DropOldest/Sample queries shed into gap events
// instead. For resumable consumption use ResultsFrom.
func (r *Registration) Results() <-chan Event {
	r.resultsOnce.Do(func() {
		r.resultsCh = make(chan Event, 16)
		reader := r.log.ReaderFrom(0)
		go func() {
			defer close(r.resultsCh)
			defer reader.Detach()
			for {
				// The runner closes the log when it finishes or is
				// unregistered, so this read always unblocks and the
				// drain after close is finite. Sends are unconditional:
				// the channel contract has always been that the stream
				// must be drained, and under Block that is exactly the
				// back-pressure the policy promises.
				it, ok := reader.Next(nil)
				if !ok {
					return
				}
				r.resultsCh <- r.itemEvent(it)
			}
		}()
	})
	return r.resultsCh
}

// ResultsFrom attaches a new cursor to the registration's result log at
// the given sequence (negative = live tail, skipping history). Each
// consumer reads independently; Detach the reader when the consumer goes
// away so a Block-policy writer stops retaining on its behalf.
func (r *Registration) ResultsFrom(seq int64) *rlog.Reader[Event] {
	return r.log.ReaderFrom(seq)
}

// Ack records out of band that the consuming side durably processed
// every event through seq — the path for acknowledgements that arrive
// between streaming reads (POST /v1/queries/{id}/ack) or while no
// consumer is attached. The result log's retention floor follows the
// acknowledged position from then on. Returns the highest acked
// sequence.
func (r *Registration) Ack(seq int64) int64 {
	acked := r.log.Ack(seq)
	r.noteAck(acked)
	return acked
}

// noteAck journals an acknowledged position when the registration is
// journalled. Streaming paths that ack through their own reader call
// this with the reader's result so durable cursors follow every ack
// route.
func (r *Registration) noteAck(acked int64) {
	if r.onAck != nil && acked >= 0 {
		r.onAck(acked)
	}
}

// neverBlock is a pre-closed abort channel: a log read given it returns
// immediately instead of waiting for the writer — how history paging
// reads whatever is already there.
var neverBlock = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// HistoryPage reads up to limit events starting at sequence from,
// without attaching a streaming consumer or waiting for new events: gaps
// and spilled history are served exactly as a streaming read would see
// them, and the page's transient cursor does not move the retention
// floor. The second return is the sequence to pass as the next page's
// from (equal to from when nothing was readable).
func (r *Registration) HistoryPage(from int64, limit int) ([]Event, int64) {
	if from < 0 {
		from = 0
	}
	p := r.log.PagerFrom(from)
	defer p.Detach()
	out := make([]Event, 0, limit)
	for len(out) < limit {
		it, ok := p.Next(neverBlock)
		if !ok {
			break
		}
		out = append(out, r.itemEvent(it))
	}
	return out, p.Cursor()
}

// itemEvent converts one log item to its wire event: either the stored
// event or a synthesised gap notice.
func (r *Registration) itemEvent(it rlog.Item[Event]) Event {
	if it.Gap == nil {
		return it.Value
	}
	return Event{
		Kind:        EventGap,
		QueryID:     r.id,
		Feed:        r.feedName,
		EventSeq:    it.Gap.From,
		DroppedFrom: it.Gap.From,
		DroppedTo:   it.Gap.To,
	}
}

// Log exposes the registration's result log for telemetry (sequence
// high-water mark, retained window, drops, consumer lag).
func (r *Registration) Log() *rlog.Log[Event] { return r.log }

// Done closes when the runner has finished (feed ended, frame budget
// reached, or unregistered).
func (r *Registration) Done() <-chan struct{} { return r.done }

// emit appends an event to the result log unless the registration was
// cancelled (then the consumers are gone and the event is dropped so the
// runner can wind down). droppable marks events the query's policy may
// shed; the end-of-stream event passes false so it always lands. A
// Block-policy append waiting for a slow consumer aborts the moment the
// registration is cancelled.
func (r *Registration) emit(ev Event, droppable bool) {
	ev.QueryID = r.id
	ev.Feed = r.feedName
	if r.killed.Load() {
		return // simulated process kill: nothing lands after the cut
	}
	select {
	case <-r.sub.Cancelled():
		return
	default:
	}
	// Single writer: the sequence the next append takes is stable here,
	// so the stored event carries its own resume cursor.
	ev.EventSeq = r.log.NextSeq()
	r.log.Append(ev, droppable, r.sub.Cancelled())
}

// emitFinal appends the stream's single end event. endOnce keeps the
// orderly end and the panic barrier's forced end from both landing.
// force bypasses the cancellation drop: the barrier runs after the
// runner's deferred sub.Cancel, yet its query_failed notice must reach
// consumers, so it overwrites the oldest unread event if it must. A
// normal end keeps the long-standing drop-on-unregister semantics and,
// under Block, waits for a consumer like every other event until the
// registration is cancelled.
func (r *Registration) emitFinal(ev Event, force bool) {
	r.endOnce.Do(func() {
		if r.killed.Load() {
			return
		}
		if !force {
			select {
			case <-r.sub.Cancelled():
				return
			default:
			}
		}
		ev.QueryID = r.id
		ev.Feed = r.feedName
		ev.EventSeq = r.log.NextSeq()
		var abort <-chan struct{}
		if !force {
			abort = r.sub.Cancelled()
		}
		r.log.Append(ev, false, abort)
	})
}

// guard runs one runner goroutine body under a panic barrier: a
// panicking backend or detector ends that query with a typed
// query_failed event — panic value and stack preserved in the status
// row — instead of tearing the process down with every other query on
// it.
func (r *Registration) guard(run func()) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		fail := &query.Failure{
			Stage: "runner",
			Panic: fmt.Sprint(p),
			Stack: string(debug.Stack()),
		}
		r.stats.mu.Lock()
		r.stats.failure = fail
		r.stats.finished = true
		r.stats.mu.Unlock()
		r.emitFinal(Event{
			Kind:   EventEnd,
			Reason: EndReasonQueryFailed,
			Error:  fail.Panic,
		}, true)
	}()
	run()
}

// cancelSub cancels the registration's subscription when it has one
// (finished-form recoveries never do).
func (r *Registration) cancelSub() {
	if r.sub != nil {
		r.sub.Cancel()
	}
}

// finish closes the result log (consumers drain and end) and signals
// Done. It runs after the runner's resource releases (backend refcounts,
// admission slots), so by the time Unregister or a Done waiter proceeds
// the server's books are already balanced. The spill file stays open so late consumers can still replay a finished
// query's history; it is closed when the registration leaves the
// registry (closeSpill).
func (r *Registration) finish() {
	r.log.Close()
	close(r.done)
}

// closeSpill releases the registration's spill, if any, and deletes its
// server-managed directory. Called when the registration is removed from
// the server's registry.
func (r *Registration) closeSpill() {
	if r.spill == nil {
		return
	}
	_ = r.spill.Close()
	_ = os.RemoveAll(r.spillDir)
}

// closeSpillKeep closes the spill's descriptors but leaves its files in
// place — the shutdown path of a journaling server, whose restart
// replays history from those segments.
func (r *Registration) closeSpillKeep() {
	if r.spill != nil {
		_ = r.spill.Close()
	}
}

// run executes the compiled query until the feed ends, maxFrames frames
// are read or the query is unregistered, then emits the end event.
//
// A monitor streams matches out of the pipelined executor's confirmation
// stage as they happen. Over a trained network, RunStream's chunks are
// the frames the subscription already holds, so a paced feed surfaces
// each match the moment its frame arrives while a backlog fills whole
// batches; over a surrogate every chunk is one frame. The queries on a
// feed share its memo: whichever reaches a frame first evaluates it,
// once, and the others wait on that entry.
//
// An aggregate emits one estimate per window as the subscription
// completes it (query.EachWindow steps the WINDOW clause).
func (r *Registration) run(c *query.Compiled, maxFrames int) {
	defer r.sub.Cancel()
	if maxFrames <= 0 {
		maxFrames = math.MaxInt
	}
	var res *query.Result
	if c.Windowed() {
		// Compile checked the WINDOW clause and set the sampling, so the
		// one error left is the source running dry (stream.ErrExhausted):
		// the feed ended, the frame budget ran out or the query was
		// unregistered.
		_ = c.EachWindow(&countedSource{r: r, left: maxFrames}, func(start int, w *query.AggregateResult) bool {
			r.stats.mu.Lock()
			r.stats.windows++
			r.stats.virtualExtra += w.VirtualTimePerSample * time.Duration(w.Samples)
			r.stats.mu.Unlock()
			r.emit(Event{Kind: EventWindow, WindowStart: start, Window: w}, true)
			return true
		})
	} else {
		// Monitor fails only on an aggregate.
		truth := query.NewTruth(c.Plan)
		res, _ = c.Monitor(r.sub, maxFrames, func(o query.FrameObservation) {
			r.stats.audit(o, truth)
			if o.Matched {
				r.emit(Event{
					Kind:       EventMatch,
					Seq:        o.Index,
					FrameIndex: o.Frame.Index,
					Objects:    len(o.Frame.Objects),
				}, true)
			}
		})
	}
	ev := Event{Kind: EventEnd, Final: res, Reason: r.feed.endedReason()}
	r.stats.mu.Lock()
	r.stats.finished = true
	if res != nil && res.Failure != nil {
		// The executor latched a backend/detector panic and drained: the
		// stream ends failed, not exhausted.
		r.stats.failure = res.Failure
		ev.Reason = EndReasonQueryFailed
		ev.Error = res.Failure.Panic
	}
	r.stats.mu.Unlock()
	// The end event is not droppable: however hard a lossy policy shed
	// load, the stream's totals always land (overwriting the oldest
	// retained event if it must; under Block they wait for space).
	r.emitFinal(ev, false)
}

// audit books one confirmed frame of a monitor, checking its match
// against simulator ground truth for the recall/precision proxies.
func (s *regStats) audit(o query.FrameObservation, truth *query.Truth) {
	want := truth.Match(o.Frame)
	s.mu.Lock()
	s.frames++
	if o.Passed {
		s.passed++
	}
	if o.Matched {
		s.matches++
	}
	s.acc.Observe(o.Matched, want)
	s.mu.Unlock()
}

// countedSource is a windowed registration's view of its subscription:
// it counts every frame read into the query's stats and ends after left
// frames.
type countedSource struct {
	r    *Registration
	left int
}

func (c *countedSource) Next() (*video.Frame, bool) {
	if c.left <= 0 {
		return nil, false
	}
	f, ok := c.r.sub.Next()
	if ok {
		c.left--
		c.r.stats.mu.Lock()
		c.r.stats.frames++
		c.r.stats.mu.Unlock()
	}
	return f, ok
}
