package stream

import (
	"errors"
	"fmt"
	"sync"

	"vmq/internal/video"
)

// PushPolicy selects what a PushSource does with a publisher's frame when
// the ingest ring is full. It mirrors the delivery-side rlog policies: the
// same three answers to overload, applied at the opposite edge of the
// server (publisher admission instead of consumer delivery).
type PushPolicy string

// Publisher admission policies.
const (
	// PushBlock parks the publisher until the scan loop frees a slot (or
	// the publisher's abort channel fires). Lossless; the publisher's own
	// transport (HTTP request body, WebSocket TCP window) carries the
	// backpressure upstream.
	PushBlock PushPolicy = "block"
	// PushDropOldest evicts the oldest buffered frame to admit the new
	// one. The feed always sees the freshest frames — the right default
	// for live cameras where a stale frame is worthless.
	PushDropOldest PushPolicy = "drop-oldest"
	// PushReject refuses the new frame with ErrPushRejected, leaving the
	// ring untouched. Retry is the publisher's decision.
	PushReject PushPolicy = "reject"
)

// ParsePushPolicy validates a policy name, defaulting empty to PushBlock.
func ParsePushPolicy(s string) (PushPolicy, error) {
	switch PushPolicy(s) {
	case "":
		return PushBlock, nil
	case PushBlock, PushDropOldest, PushReject:
		return PushPolicy(s), nil
	}
	return "", fmt.Errorf("unknown push policy %q (want block, drop-oldest or reject)", s)
}

// Typed PushSource errors.
var (
	// ErrPushClosed reports a publish against a closed (drained) source.
	ErrPushClosed = errors.New("push source closed")
	// ErrPushRejected reports a publish refused by the PushReject policy.
	ErrPushRejected = errors.New("push source full")
	// ErrPushAborted reports a blocked publish cancelled by its abort
	// channel before a slot freed.
	ErrPushAborted = errors.New("publish aborted")
)

// PushSource is a Source whose frames arrive from publishers instead of a
// decoder: a bounded FIFO ingest ring with admission control on the
// publish side. Any number of goroutines may Publish concurrently; the
// consuming side is the usual single-reader Source contract (the feed's
// scan loop calls Next).
//
// Close ends ingestion: publishers get ErrPushClosed, while Next continues
// to drain frames already admitted and then reports end-of-stream — which
// is exactly the graceful-drain contract feeds need (buffered frames are
// scanned, nothing admitted after the drain decision).
type PushSource struct {
	mu     sync.Mutex
	buf    []*video.Frame // FIFO ring
	head   int            // index of the oldest buffered frame
	count  int
	closed bool

	policy    PushPolicy
	published int64 // frames admitted into the ring
	dropped   int64 // frames evicted (drop-oldest) or refused (reject)

	// data is closed-and-replaced when a frame arrives or the source
	// closes; space likewise when a slot frees. Waiters grab the current
	// channel under mu and select on it, so every state change wakes all
	// parked publishers and the reader without missed signals.
	data  chan struct{}
	space chan struct{}
}

// NewPushSource builds a push source with the given ring capacity
// (minimum 1) and admission policy.
func NewPushSource(capacity int, policy PushPolicy) *PushSource {
	if capacity < 1 {
		capacity = 1
	}
	return &PushSource{
		buf:    make([]*video.Frame, capacity),
		policy: policy,
		data:   make(chan struct{}),
		space:  make(chan struct{}),
	}
}

// Publish offers a frame to the ring. Under PushBlock it waits for a free
// slot until abort fires (abort may be nil to wait indefinitely); under
// PushDropOldest it always succeeds, evicting the oldest buffered frame
// when full; under PushReject a full ring returns ErrPushRejected.
func (p *PushSource) Publish(f *video.Frame, abort <-chan struct{}) error {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return ErrPushClosed
		}
		if p.count < len(p.buf) {
			p.buf[(p.head+p.count)%len(p.buf)] = f
			p.count++
			p.published++
			p.signalLocked(&p.data)
			p.mu.Unlock()
			return nil
		}
		switch p.policy {
		case PushDropOldest:
			p.buf[p.head] = nil
			p.head = (p.head + 1) % len(p.buf)
			p.count--
			p.dropped++
			continue // the freed slot admits f on the next pass
		case PushReject:
			p.dropped++
			p.mu.Unlock()
			return ErrPushRejected
		}
		space := p.space
		p.mu.Unlock()
		select {
		case <-space:
		case <-abort:
			return ErrPushAborted
		}
		p.mu.Lock()
	}
}

// Next implements Source: it blocks until a frame is available or the
// source is closed and fully drained.
func (p *PushSource) Next() (*video.Frame, bool) {
	p.mu.Lock()
	for {
		if p.count > 0 {
			f := p.buf[p.head]
			p.buf[p.head] = nil
			p.head = (p.head + 1) % len(p.buf)
			p.count--
			p.signalLocked(&p.space)
			p.mu.Unlock()
			return f, true
		}
		if p.closed {
			p.mu.Unlock()
			return nil, false
		}
		data := p.data
		p.mu.Unlock()
		<-data
		p.mu.Lock()
	}
}

// Close ends ingestion. Blocked publishers and the reader wake; frames
// already admitted still flow to the reader before Next reports
// end-of-stream. Close is idempotent.
func (p *PushSource) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.signalLocked(&p.data)
		p.signalLocked(&p.space)
	}
	p.mu.Unlock()
}

// Closed reports whether ingestion has ended.
func (p *PushSource) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Depth returns the number of frames currently buffered.
func (p *PushSource) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// Capacity returns the ring size.
func (p *PushSource) Capacity() int { return len(p.buf) }

// Policy returns the admission policy.
func (p *PushSource) Policy() PushPolicy { return p.policy }

// Published returns the total number of frames admitted into the ring.
func (p *PushSource) Published() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.published
}

// Dropped returns the total number of frames lost to admission control
// (evicted under drop-oldest, refused under reject).
func (p *PushSource) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// signalLocked wakes everyone waiting on *ch and installs a fresh channel
// for future waiters. Callers hold p.mu.
func (p *PushSource) signalLocked(ch *chan struct{}) {
	close(*ch)
	*ch = make(chan struct{})
}
