// Package memo is the frame-keyed latching cache behind the server's
// shared scan: filters.Shared memoises filter outputs with it and
// detect.Memo confirmation detections, so the queries on one feed pay
// one evaluation per frame however many of them reach it.
package memo

import (
	"sync"
	"sync/atomic"

	"vmq/internal/video"
)

// DefaultCapacity is the number of frames a cache built with a
// non-positive capacity holds — comfortably above the skew the server's
// bounded channels permit between queries on one feed.
const DefaultCapacity = 4096

// Cache memoises one value per frame. Entries are keyed by frame pointer
// (the fan-out tee delivers the same *Frame to every subscriber) and
// evicted first-in-first-out once the cache holds its capacity. Eviction
// never breaks correctness — a caller trailing further behind than the
// capacity simply fills again — so the capacity only needs to cover the
// skew between callers.
//
// The first caller to claim a frame owns filling it; every other caller
// blocks until that fill completes and shares its value. A fill that
// panics poisons the entries it owned: their waiters re-panic with the
// same value instead of blocking on a latch nobody will release, and the
// entries leave the cache, so the next claim fills again rather than
// replaying the fault.
type Cache[V any] struct {
	capacity int

	mu      sync.Mutex
	entries map[*video.Frame]*entry[V]
	order   []slot[V] // FIFO eviction ring; full once it holds capacity slots
	head    int       // the oldest slot once order is full

	hits   atomic.Int64
	misses atomic.Int64
}

// entry latches one frame's value: the owner sets val, or poison to the
// fill's panic value, and then closes ready.
type entry[V any] struct {
	ready  chan struct{}
	val    V
	poison any
}

// slot is one position of the eviction queue. It names the entry as well
// as the frame because a poisoned entry leaves the map but not the queue:
// when its slot comes up for eviction, the frame's live retry must stay.
type slot[V any] struct {
	f *video.Frame
	e *entry[V]
}

// New returns an empty cache of the given capacity in frames;
// non-positive selects DefaultCapacity.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache[V]{
		capacity: capacity,
		entries:  make(map[*video.Frame]*entry[V], capacity),
	}
}

// Stats reports hits (values served without a fill) and misses (frames
// filled) so far.
func (c *Cache[V]) Stats() (hits, misses int64) { return c.hits.Load(), c.misses.Load() }

// Entries reports how many frames are currently memoised. It never
// exceeds the capacity: a long-running feed's cache reaches steady state
// and entries past the eviction watermark are released rather than
// accumulated.
func (c *Cache[V]) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns f's value. The first caller for f runs fill(f); concurrent
// callers for the same frame block until that fill completes and share
// its value.
func (c *Cache[V]) Get(f *video.Frame, fill func(*video.Frame) V) V {
	e, owned := c.claim(f)
	if !owned {
		c.hits.Add(1)
		return e.wait()
	}
	c.misses.Add(1)
	defer func() {
		if p := recover(); p != nil {
			c.poison(f, e, p)
			panic(p)
		}
	}()
	e.val = fill(f)
	close(e.ready)
	return e.val
}

// GetBatch appends every frame's value to dst, in frame order. The frames
// this call claims first are filled by one call fill(owned), which
// returns their values in order; the rest are shared from their owners'
// fills. Concurrent batches over overlapping frames each fill only what
// they claimed, so every frame is still filled once per cached lifetime.
func (c *Cache[V]) GetBatch(frames []*video.Frame, dst []V, fill func([]*video.Frame) []V) []V {
	if len(frames) == 0 {
		return dst
	}
	claims := make([]batchClaim[V], len(frames))
	owned := 0
	for i, f := range frames {
		claims[i].e, claims[i].owned = c.claim(f)
		if claims[i].owned {
			owned++
		}
	}
	c.misses.Add(int64(owned))
	c.hits.Add(int64(len(frames) - owned))
	if owned > 0 {
		// Fill owned entries before waiting on anyone else's: another
		// batch can only be waiting on entries we own, never the reverse
		// cyclically, so this cannot deadlock.
		c.fillBatch(frames, claims, owned, fill)
	}
	for _, cl := range claims {
		dst = append(dst, cl.e.wait())
	}
	return dst
}

// batchClaim is one frame's entry in a batch and whether the batch owns it.
type batchClaim[V any] struct {
	e     *entry[V]
	owned bool
}

// fillBatch fills the owned claims of a batch with one fill call.
func (c *Cache[V]) fillBatch(frames []*video.Frame, claims []batchClaim[V], owned int, fill func([]*video.Frame) []V) {
	defer func() {
		if p := recover(); p != nil {
			for i, cl := range claims {
				if cl.owned {
					c.poison(frames[i], cl.e, p)
				}
			}
			panic(p)
		}
	}()
	mine := frames
	if owned < len(frames) {
		mine = make([]*video.Frame, 0, owned)
		for i, cl := range claims {
			if cl.owned {
				mine = append(mine, frames[i])
			}
		}
	}
	vals := fill(mine)
	j := 0
	for i := range claims {
		if claims[i].owned {
			claims[i].e.val = vals[j]
			j++
		}
	}
	// Close latches only after every value is stored, so a short result
	// panics before any latch closes and the poison closes each once.
	for _, cl := range claims {
		if cl.owned {
			close(cl.e.ready)
		}
	}
}

// claim returns the entry for f and whether the caller owns filling it
// (true exactly once per cached lifetime of the frame).
func (c *Cache[V]) claim(f *video.Frame) (*entry[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[f]; ok {
		return e, false
	}
	e := &entry[V]{ready: make(chan struct{})}
	if len(c.order) < c.capacity {
		c.order = append(c.order, slot[V]{f, e})
	} else {
		old := c.order[c.head]
		if c.entries[old.f] == old.e {
			delete(c.entries, old.f)
		}
		c.order[c.head] = slot[V]{f, e}
		c.head = (c.head + 1) % c.capacity
	}
	c.entries[f] = e
	return e, true
}

// poison fails e, whose fill panicked with p: its waiters re-panic with
// p, and the entry leaves the cache so the next claim of f fills again.
func (c *Cache[V]) poison(f *video.Frame, e *entry[V], p any) {
	e.poison = p
	close(e.ready)
	c.mu.Lock()
	if c.entries[f] == e {
		delete(c.entries, f)
	}
	c.mu.Unlock()
}

// wait blocks until e is filled and returns its value, re-panicking with
// the owner's panic value if the fill failed.
func (e *entry[V]) wait() V {
	<-e.ready
	if e.poison != nil {
		panic(e.poison)
	}
	return e.val
}
