// Package rlog is the server's result-delivery subsystem: a bounded,
// monotonically-sequenced per-query result log. The continuous-query
// server appends every event a query produces into one Log; any number
// of consumers read it through per-consumer cursors, resume from a
// sequence number after a disconnect, and — when the ring has wrapped
// past their position — receive an explicit gap notice instead of a
// silently spliced stream.
//
// The log replaces the per-registration event channel the server used
// before: a channel couples production to exactly one consumer's pace
// and loses everything an absent consumer never read. The log decouples
// them with three per-query delivery policies:
//
//   - Block: lossless. The writer blocks rather than overwrite an event
//     no consumer has taken responsibility for — the channel contract,
//     but resumable: a consumer that disconnects and returns with
//     ?from=<seq> sees a gap-free stream.
//   - DropOldest: bounded lag. The writer never blocks; when the ring is
//     full of unconsumed events the oldest is overwritten (and counted
//     dropped). Slow consumers observe a gap and keep up from there.
//   - Sample: graceful degradation. As unconsumed backlog crosses half
//     the ring the writer decimates droppable events (keeping every 2nd,
//     then every 4th, then none) so a consumer under pressure still sees
//     a representative sample at bounded staleness.
//
// Storage is a power-of-two ring buffer indexed by sequence & mask, so
// retained sequence numbers are always the contiguous interval
// [firstRetained, nextSeq). An optional Spill receives entries as they
// are evicted from the ring; a reader positioned below firstRetained is
// served from the spill when one is attached, and reports a gap
// otherwise. With a spill attached, eviction prefers spilling over the
// policy action under every policy: a Block writer only blocks (and a
// DropOldest writer only drops) once the spill refuses the entry, so
// the resumable window is ring plus spill rather than ring alone.
//
// Consumers that need exactly-once delivery acknowledge: Ack(seq) on a
// cursor (or on the log, for out-of-band acknowledgements) records the
// last sequence the consumer durably processed, and the retention floor
// then follows the acknowledged position instead of the read position.
// An event sent into a dead connection no longer counts as consumed —
// the consumer that never acked it finds it again on resume.
//
// The Log is single-writer (sequence assignment needs no coordination)
// and multi-reader; all methods are safe for concurrent use.
package rlog

import (
	"errors"
	"math/bits"
	"sync"
	"time"
)

// Policy selects what the writer does when appending would overwrite an
// event no consumer has read yet.
type Policy string

// Delivery policies.
const (
	// Block makes the writer wait for the slowest consumer — lossless
	// delivery, at the cost of back-pressuring the producer.
	Block Policy = "block"
	// DropOldest overwrites the oldest unread event — bounded memory and
	// a never-blocked producer, at the cost of gaps for slow consumers.
	DropOldest Policy = "drop-oldest"
	// Sample decimates incoming droppable events once unread backlog
	// crosses half the ring (1-in-2, then 1-in-4 past three quarters,
	// then none when full) — consumers under pressure see a thinned but
	// current stream instead of an ever-staler complete one.
	Sample Policy = "sample-under-pressure"
)

// ParsePolicy resolves a policy name; the empty string selects Block
// (the lossless pre-log contract).
func ParsePolicy(s string) (Policy, bool) {
	switch Policy(s) {
	case "", Block:
		return Block, true
	case DropOldest:
		return DropOldest, true
	case Sample:
		return Sample, true
	}
	return "", false
}

// Gap reports a range of sequence numbers a reader could not be served:
// [From, To) was dropped or evicted before the reader got there.
type Gap struct {
	From int64
	To   int64
}

// Item is one delivery to a reader: either a logged value with its
// sequence number, or a gap notice (Gap non-nil, Value the zero value).
type Item[T any] struct {
	Seq   int64
	Value T
	Gap   *Gap
}

// Spill receives entries as they are evicted from the ring, extending
// the resumable window beyond the ring's capacity. Implementations must
// be safe for one appender and concurrent readers.
type Spill[T any] interface {
	// Append persists one evicted entry. Entries arrive in ascending
	// sequence order, at most once each — though not necessarily
	// contiguously: an entry the spill refused (ErrSpillFull) may be
	// followed by later ones, leaving a hole. A refusal may be retried
	// with the same sequence before any later one arrives.
	Append(seq int64, v T) error
	// Read returns the entry for seq, or false when it is not held
	// (never spilled, expired, or a read error).
	Read(seq int64) (T, bool)
	// NextRetained returns the lowest retained sequence >= seq (false
	// when none), so a reader below the spill window — or at a hole
	// inside it — gaps exactly to the next resumable position instead
	// of skipping the rest of the spill.
	NextRetained(seq int64) (int64, bool)
}

// Log is one query's bounded, sequenced result log.
type Log[T any] struct {
	mu       sync.Mutex
	ring     []T
	mask     int64
	policy   Policy
	spill    Spill[T]
	next     int64 // sequence of the next append
	first    int64 // oldest sequence still in the ring
	parked   int64 // retention floor while no reader is attached
	ackFloor int64 // one past the highest acked sequence; -1 = never acked
	readers  map[*Reader[T]]struct{}
	dropped  int64
	decim    int64 // sample-policy decimation counter
	closed   bool
	wt       bool   // write-through: spill at append time, not eviction
	wtOnDisk []bool // per-ring-slot: entry already spilled (write-through)

	// dataCh is closed and replaced to wake readers blocked on the tail;
	// spaceCh likewise to wake a writer blocked on the retention floor.
	// Channel-based broadcast keeps both waits selectable against
	// caller-supplied abort channels. The waiter counts gate the
	// close-and-replace: with nobody parked (the steady state for
	// DropOldest/Sample, and for readers keeping up) appends and cursor
	// advances skip the per-event channel allocation entirely. A count
	// is an upper bound — an aborted waiter leaves it stale until the
	// next broadcast resets it, costing at most one spurious wake.
	dataCh       chan struct{}
	spaceCh      chan struct{}
	dataWaiters  int
	spaceWaiters int
}

// New creates a log with the given policy retaining at least capacity
// entries (rounded up to a power of two; minimum 8, maximum 2^30 — the
// clamp keeps the rounding from overflowing when a caller forwards an
// unvalidated capacity). A nil-able spill may be attached with SetSpill
// before the first append.
func New[T any](capacity int, policy Policy) *Log[T] {
	if capacity < 8 {
		capacity = 8
	}
	if capacity > 1<<30 {
		capacity = 1 << 30
	}
	capacity = 1 << bits.Len(uint(capacity-1)) // next power of two
	if policy == "" {
		policy = Block
	}
	return &Log[T]{
		ring:     make([]T, capacity),
		mask:     int64(capacity - 1),
		policy:   policy,
		ackFloor: -1,
		readers:  make(map[*Reader[T]]struct{}),
		dataCh:   make(chan struct{}),
		spaceCh:  make(chan struct{}),
	}
}

// SetSpill attaches a spill for evicted entries. It must be called
// before the first append. A spill that garbage-collects (it implements
// SetFloor(func() int64)) is handed the log's GC floor so it never
// removes a segment a consumer could still be served from.
func (l *Log[T]) SetSpill(s Spill[T]) {
	l.mu.Lock()
	l.spill = s
	l.mu.Unlock()
	if f, ok := s.(interface{ SetFloor(func() int64) }); ok {
		f.SetFloor(l.gcFloor)
	}
}

// SetWriteThrough switches the log to write-ahead spilling: every
// append persists its entry to the attached spill *before* publishing
// it in the ring, instead of spilling lazily at ring eviction. With a
// Durable spill this is the crash-safe mode — an event a consumer was
// promised exists on disk by the time any reader can observe it, so a
// process kill loses nothing and a recovered log (Resume) continues the
// stream gap-free. Must be called before the first append, after
// SetSpill.
func (l *Log[T]) SetWriteThrough() {
	l.mu.Lock()
	l.wt = true
	if l.wtOnDisk == nil {
		l.wtOnDisk = make([]bool, len(l.ring))
	}
	l.mu.Unlock()
}

// Resume positions an empty log to continue a recovered stream: the
// next append takes sequence next, and acked seeds the acknowledgement
// floor (-1 = never acked — everything the spill retains stays
// retained). Sequences below next are served from the attached spill
// exactly as if the ring had evicted them. Must be called on a fresh
// log before any append or reader attaches, after SetSpill.
func (l *Log[T]) Resume(next, acked int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next < 0 {
		next = 0
	}
	l.next = next
	l.first = next
	l.ackFloor = -1
	if acked >= 0 {
		a := acked + 1
		if a > next {
			a = next
		}
		l.ackFloor = a
	}
}

// Policy returns the log's delivery policy.
func (l *Log[T]) Policy() Policy {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.policy
}

// Capacity returns the ring size (a power of two).
func (l *Log[T]) Capacity() int { return len(l.ring) }

// floorLocked is the lowest sequence retention must honour: the least
// attached contribution (a reader's acknowledged position when it acks,
// its cursor otherwise), or — with no reader attached — the position
// the last reader detached at (initially 0, so a log nobody has read
// yet retains from the beginning, exactly like the buffered channel it
// replaces). Once anything has acked, the floor never rises past the
// acknowledged position: read-but-unacked events stay retained so a
// consumer that crashed before processing them finds them on resume.
func (l *Log[T]) floorLocked() int64 {
	if len(l.readers) == 0 {
		// With nobody attached the acknowledged position, once one
		// exists, is authoritative in both directions: it stays below a
		// parked read position (read-but-unacked events survive a crash)
		// and rises past it on an out-of-band ack from a disconnected
		// consumer.
		if l.ackFloor >= 0 {
			return l.ackFloor
		}
		return l.parked
	}
	floor := int64(-1)
	for r := range l.readers {
		if c := r.contributionLocked(); floor < 0 || c < floor {
			floor = c
		}
	}
	if l.ackFloor >= 0 && l.ackFloor < floor {
		floor = l.ackFloor
	}
	return floor
}

// gcFloor is the lowest sequence a garbage-collecting spill must keep.
// Under Block it equals the retention floor — the lossless promise
// extends to disk, and a writer blocks once the spill's budget fills
// rather than lose anything below it. Under DropOldest/Sample only
// attached readers and acknowledgements pin segments: a parked
// (detached) cursor does not, so the spill rotates its window forward
// within its budget — bounded lag is the policy's contract, and the
// evicted range surfaces as an honest gap on resume.
func (l *Log[T]) gcFloor() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policy == Block {
		return l.floorLocked()
	}
	floor := l.next
	for r := range l.readers {
		if c := r.contributionLocked(); c < floor {
			floor = c
		}
	}
	if l.ackFloor >= 0 && l.ackFloor < floor {
		floor = l.ackFloor
	}
	return floor
}

// Ack records that every sequence through seq has been durably
// processed by the consuming side, without reference to a particular
// cursor — the out-of-band acknowledgement path (an HTTP client acking
// between streaming reads). The retention floor follows the
// acknowledged position from now on; acking is monotone and clamped to
// the sequences actually assigned. Returns the highest acked sequence.
func (l *Log[T]) Ack(seq int64) int64 {
	l.mu.Lock()
	n := seq + 1
	if n < 0 {
		n = 0 // acked nothing yet, but declared the intent: retain all
	}
	if n > l.next {
		n = l.next
	}
	if n > l.ackFloor {
		l.ackFloor = n
	}
	acked := l.ackFloor - 1
	wake := l.wakeSpaceLocked()
	l.mu.Unlock()
	if wake != nil {
		close(wake) // the floor may have advanced
	}
	return acked
}

// AckedSeq returns the highest acknowledged sequence, -1 when nothing
// has ever been acked.
func (l *Log[T]) AckedSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ackFloor < 0 {
		return -1
	}
	return l.ackFloor - 1
}

// wakeSpaceLocked arms a broadcast to writers blocked on the retention
// floor. The caller closes the returned channel (nil when nobody waits)
// after releasing l.mu.
func (l *Log[T]) wakeSpaceLocked() chan struct{} {
	if l.spaceWaiters == 0 {
		return nil
	}
	ch := l.spaceCh
	l.spaceCh = make(chan struct{})
	l.spaceWaiters = 0
	return ch
}

// Append writes v as the next sequenced entry. droppable marks events
// the Sample policy may decimate and DropOldest semantics apply to;
// terminal events (a stream's end marker) pass false so they always
// land, overwriting the oldest entry if the ring is full of unread
// events — except under Block with a non-nil abort, where a terminal
// event waits for space like any other, keeping Block lossless. abort,
// when non-nil, releases a Block-policy writer waiting for a consumer
// (the append is then counted dropped).
//
// Append reports whether the value was stored. It returns false after
// Close, on abort, and for events the policy shed.
func (l *Log[T]) Append(v T, droppable bool, abort <-chan struct{}) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	if droppable && l.policy == Sample {
		// Decide decimation before any eviction: a shed event must not
		// cost an unread ring entry. Past half the ring of unread
		// backlog keep 1 in 2, past three quarters 1 in 4, at a full
		// ring shed every droppable event.
		backlog := l.next - l.floorLocked()
		capacity := int64(len(l.ring))
		keepEvery := int64(1)
		switch {
		case backlog >= capacity:
			l.dropped++
			l.mu.Unlock()
			return false
		case backlog >= capacity*3/4:
			keepEvery = 4
		case backlog >= capacity/2:
			keepEvery = 2
		}
		if keepEvery > 1 {
			l.decim++
			if l.decim%keepEvery != 0 {
				l.dropped++
				l.mu.Unlock()
				return false
			}
		}
	}
	// Write-through: persist the entry before it becomes observable in
	// the ring. Block keeps its lossless promise across failures — a
	// full spill waits for the retention floor (an ack or a reader
	// advancing frees segments), a transient I/O error is retried — so
	// by the time the event publishes it is already on disk and a crash
	// at any later instant cannot lose it.
	wtStored := false
	if l.wt && l.spill != nil {
		seq, spill := l.next, l.spill
		retries := 0
		for {
			l.mu.Unlock()
			err := spill.Append(seq, v)
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return false
			}
			if err == nil {
				wtStored = true
				break
			}
			if l.policy != Block {
				break // lossy policies take the ring-only entry as-is
			}
			if errors.Is(err, ErrSpillFull) {
				if !droppable {
					break // terminal events must land now; ring carries them
				}
				l.spaceWaiters++
				ch := l.spaceCh
				l.mu.Unlock()
				if abort == nil {
					<-ch
				} else {
					select {
					case <-ch:
					case <-abort:
						l.mu.Lock()
						l.dropped++
						l.mu.Unlock()
						return false
					}
				}
				l.mu.Lock()
				if l.closed {
					l.mu.Unlock()
					return false
				}
				continue
			}
			if retries >= 50 {
				break // persistently failing device: degrade to ring-only
			}
			retries++
			l.mu.Unlock()
			if abort == nil {
				time.Sleep(2 * time.Millisecond)
			} else {
				select {
				case <-abort:
					l.mu.Lock()
					l.dropped++
					l.mu.Unlock()
					return false
				case <-time.After(2 * time.Millisecond):
				}
			}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return false
			}
		}
	}
	for l.next-l.first >= int64(len(l.ring)) {
		// Full ring. Spill the evictee first — with a spill attached the
		// resumable window is ring plus spill, so the policy only acts
		// (block, drop) on entries the spill refused. The write happens
		// outside the lock: file I/O must not stall every reader and the
		// telemetry getters. Safe because the log is single-writer:
		// nothing else advances first while we are unlocked, and writing
		// the spill entry before first moves means a reader can never
		// see cursor < first without the spill already holding the
		// entry. In write-through mode the evictee was (dis)spilled at
		// its own append; re-appending it here would be out of order.
		spilled := false
		if l.spill != nil && l.wt {
			spilled = l.wtOnDisk[l.first&l.mask]
		} else if l.spill != nil {
			seq, v := l.first, l.ring[l.first&l.mask]
			spill := l.spill
			l.mu.Unlock()
			spilled = spill.Append(seq, v) == nil
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return false
			}
		}
		// Eviction of a consumed (or spilled) entry is always allowed;
		// losing an unread one is what the policy decides.
		if !spilled && l.first >= l.floorLocked() {
			if l.policy == Block && (droppable || abort != nil) {
				l.spaceWaiters++
				ch := l.spaceCh
				l.mu.Unlock()
				if abort == nil {
					<-ch
				} else {
					select {
					case <-ch:
					case <-abort:
						l.mu.Lock()
						l.dropped++
						l.mu.Unlock()
						return false
					}
				}
				l.mu.Lock()
				if l.closed {
					l.mu.Unlock()
					return false
				}
				continue
			}
			// DropOldest, Sample at full pressure (non-droppable), or a
			// terminal event nothing can abort: overwrite the oldest
			// unread so the event always lands.
			l.dropped++
		}
		var zero T
		l.ring[l.first&l.mask] = zero
		l.first++
	}
	l.ring[l.next&l.mask] = v
	if l.wt {
		l.wtOnDisk[l.next&l.mask] = wtStored
	}
	l.next++
	var wake chan struct{}
	if l.dataWaiters > 0 {
		wake = l.dataCh
		l.dataCh = make(chan struct{})
		l.dataWaiters = 0
	}
	l.mu.Unlock()
	if wake != nil {
		close(wake) // wake readers parked on the tail
	}
	return true
}

// Close marks the log complete: appends fail from now on, and readers
// drain what remains and then see the end of the stream. Idempotent.
func (l *Log[T]) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	data, space := l.dataCh, l.spaceCh
	l.dataCh = make(chan struct{})
	l.spaceCh = make(chan struct{})
	l.mu.Unlock()
	close(data)
	close(space)
}

// NextSeq returns the sequence number the next append will take — the
// count of events ever stored.
func (l *Log[T]) NextSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// FirstRetained returns the oldest sequence still in the ring.
func (l *Log[T]) FirstRetained() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// Dropped returns how many events were lost to the policy: shed by
// sampling, overwritten unread under DropOldest, or abandoned by an
// aborted blocking append.
func (l *Log[T]) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Readers returns the number of attached readers.
func (l *Log[T]) Readers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.readers)
}

// Lag returns how far the slowest attached reader (or the parked
// retention floor, when none is attached) trails the writer, in events.
func (l *Log[T]) Lag() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - l.floorLocked()
}

// Reader is one consumer's cursor over the log. Readers are created by
// ReaderFrom, advance with Next, and must be detached with Detach when
// the consumer goes away so a Block-policy writer stops waiting on them.
// A reader that acknowledges (Ack) contributes its acknowledged position
// to the retention floor instead of its read position.
type Reader[T any] struct {
	log    *Log[T]
	cursor int64
	acked  int64 // one past the highest seq this reader acked; -1 = never
	pager  bool  // transient page reader: Detach does not park the floor
}

// ReaderFrom attaches a reader positioned at seq. Negative seq means
// "live tail": the reader starts at the next event to be appended,
// skipping history. A seq above the current tail is clamped to it.
func (l *Log[T]) ReaderFrom(seq int64) *Reader[T] {
	return l.attach(seq, false)
}

// PagerFrom attaches a transient reader positioned at seq for paging
// through history: while attached it pins retention like any reader (so
// a page is never pulled out from under it), but detaching does not
// park the retention floor at its position — paging a finished query
// from sequence 0 must not commit a Block-policy writer to retaining
// everything for a consumer that was only browsing.
func (l *Log[T]) PagerFrom(seq int64) *Reader[T] {
	return l.attach(seq, true)
}

func (l *Log[T]) attach(seq int64, pager bool) *Reader[T] {
	l.mu.Lock()
	if seq < 0 || seq > l.next {
		seq = l.next
	}
	r := &Reader[T]{log: l, cursor: seq, acked: -1, pager: pager}
	l.readers[r] = struct{}{}
	// Attaching can raise the retention floor: a reader joining at the
	// live tail while the parked floor sits at a full ring's base moves
	// floorLocked past every retained entry. A Block-policy writer may be
	// waiting on the old floor, so wake it to re-evaluate — otherwise
	// writer and the new reader deadlock on each other.
	wake := l.wakeSpaceLocked()
	l.mu.Unlock()
	if wake != nil {
		close(wake)
	}
	return r
}

// Cursor returns the sequence number of the next item the reader will
// deliver.
func (r *Reader[T]) Cursor() int64 {
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	return r.cursor
}

// contributionLocked is the position this reader pins retention at: the
// acknowledged position once it acks, the read position before.
func (r *Reader[T]) contributionLocked() int64 {
	if r.acked >= 0 {
		return r.acked
	}
	return r.cursor
}

// Ack records that the consumer behind this reader durably processed
// every sequence through seq. From the first Ack on, the reader pins
// retention at its acknowledged position rather than its read position:
// events it read but never acked stay retained (under Block) for an
// exact resume after a crash. Acks are monotone and clamped to the
// reader's cursor — a consumer cannot ack what this reader has not
// delivered. Returns the reader's highest acked sequence.
func (r *Reader[T]) Ack(seq int64) int64 {
	l := r.log
	l.mu.Lock()
	n := seq + 1
	if n < 0 {
		n = 0
	}
	if n > r.cursor {
		n = r.cursor
	}
	if n > r.acked {
		r.acked = n
	}
	// The log-level floor follows the furthest ack seen on any path, so
	// an in-band ack here and an out-of-band Log.Ack converge.
	if r.acked > l.ackFloor {
		l.ackFloor = r.acked
	}
	acked := r.acked - 1
	wake := l.wakeSpaceLocked()
	l.mu.Unlock()
	if wake != nil {
		close(wake) // the floor may have advanced
	}
	return acked
}

// Next delivers the reader's next item, blocking until one is available,
// the log is closed and drained (ok false), or abort fires (ok false).
// An item is either a value with its sequence number or a gap notice
// covering evicted sequences the spill could not serve; after a gap the
// reader continues at the gap's To.
func (r *Reader[T]) Next(abort <-chan struct{}) (Item[T], bool) {
	l := r.log
	retried := false
	l.mu.Lock()
	for {
		if r.cursor < l.next {
			if r.cursor < l.first {
				// Behind the ring: serve from the spill when attached,
				// otherwise report the evicted range as a gap.
				if l.spill != nil {
					seq := r.cursor
					spill := l.spill
					l.mu.Unlock()
					// Spill reads happen outside the lock (they may hit a
					// file); the entry is immutable once spilled.
					if v, ok := spill.Read(seq); ok {
						l.mu.Lock()
						r.advanceLocked(seq + 1)
						l.mu.Unlock()
						return Item[T]{Seq: seq, Value: v}, true
					}
					// Also queried outside the lock: a garbage-collecting
					// spill takes its own lock and may call back into the
					// log for the GC floor.
					nxt, ok := spill.NextRetained(seq)
					l.mu.Lock()
					if r.cursor >= l.first { // raced: entry back in range
						continue
					}
					if ok && nxt <= r.cursor {
						// The spill indexes cursor but the read missed:
						// usually the entry landed between the two calls —
						// retry once. A persistently unreadable entry is
						// skipped as a one-event gap rather than looped on.
						if !retried {
							retried = true
							continue
						}
						nxt = r.cursor + 1
					}
					to := l.first
					if ok && nxt < to {
						// Gap only to the next position the spill can still
						// serve — holes and expired prefixes, not the whole
						// spill window.
						to = nxt
					}
					gap := &Gap{From: r.cursor, To: to}
					r.advanceLocked(to)
					l.mu.Unlock()
					return Item[T]{Seq: gap.From, Gap: gap}, true
				}
				gap := &Gap{From: r.cursor, To: l.first}
				r.advanceLocked(l.first)
				l.mu.Unlock()
				return Item[T]{Seq: gap.From, Gap: gap}, true
			}
			seq := r.cursor
			v := l.ring[seq&l.mask]
			r.advanceLocked(seq + 1)
			l.mu.Unlock()
			return Item[T]{Seq: seq, Value: v}, true
		}
		if l.closed {
			l.mu.Unlock()
			return Item[T]{}, false
		}
		l.dataWaiters++
		ch := l.dataCh
		l.mu.Unlock()
		if abort == nil {
			<-ch
		} else {
			select {
			case <-ch:
			case <-abort:
				return Item[T]{}, false
			}
		}
		l.mu.Lock()
	}
}

// advanceLocked moves the cursor and wakes a writer blocked on the
// retention floor, if any (caller holds l.mu).
func (r *Reader[T]) advanceLocked(to int64) {
	r.cursor = to
	l := r.log
	if l.spaceWaiters == 0 {
		return
	}
	ch := l.spaceCh
	l.spaceCh = make(chan struct{})
	l.spaceWaiters = 0
	close(ch)
}

// Detach removes the reader from the retention floor. The position it
// contributed — its acknowledged position if it acked, its read
// position otherwise — is parked: if no other durable reader is
// attached, a Block-policy writer retains from there so the consumer
// can resume gap-free (and, when it acked, exactly from one past its
// last ack). Pagers never park. Idempotent.
func (r *Reader[T]) Detach() {
	l := r.log
	l.mu.Lock()
	if _, ok := l.readers[r]; !ok {
		l.mu.Unlock()
		return
	}
	delete(l.readers, r)
	if !r.pager {
		durable := false
		for o := range l.readers {
			if !o.pager {
				durable = true
				break
			}
		}
		if !durable {
			l.parked = r.contributionLocked()
		}
	}
	wake := l.wakeSpaceLocked()
	l.mu.Unlock()
	if wake != nil {
		close(wake) // the floor may have advanced
	}
}
