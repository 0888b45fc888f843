package filters

import (
	"sync"
	"sync/atomic"

	"vmq/internal/video"
)

// Shared wraps a Backend with a bounded per-frame output cache, turning N
// query pipelines that scan the same feed into one shared scan: whichever
// pipeline reaches a frame first runs the network (and pays its virtual
// cost); every other pipeline gets the cached Output for free. This is
// sound for exactly the backends the pipelined executor can fan out — the
// output must depend only on the frame, not on call order — and the
// calibrated backends document that property. A backend that is not
// concurrency-safe is still usable: Shared serialises its calls and the
// memoisation makes the combination safe to share across goroutines.
//
// Shared is batch-aware: EvaluateBatch claims every uncached frame of the
// batch in one pass and fills the memo with a single inner batch
// evaluation, so a served query's chunk pays batched GEMM rates for the
// frames it is first to reach while the other queries' lookups of the
// same frames stay cheap hits.
//
// Entries are keyed by frame pointer (the fan-out tee delivers the same
// *Frame to every subscriber) and evicted first-in-first-out once the
// cache exceeds its capacity. Eviction never breaks correctness — a
// pipeline trailing further behind than the capacity simply re-evaluates —
// so the capacity only needs to cover the skew the bounded fan-out
// channels allow.
type Shared struct {
	inner    Backend
	capacity int
	serial   bool // inner is not concurrency-safe: serialise its calls

	mu      sync.Mutex
	entries map[*video.Frame]*sharedEntry
	order   []*video.Frame // FIFO eviction queue
	evalMu  sync.Mutex

	hits   atomic.Int64
	misses atomic.Int64
}

// sharedEntry latches one frame's output. The caller that created the
// entry owns filling it: it evaluates the inner backend, sets out and
// closes ready; every other caller blocks on ready and shares the output.
// Batch claims latch many entries with one inner evaluation. If the
// owner's inner evaluation panics, it sets poison (the panic value)
// before closing ready and removes the entry from the cache: waiters
// re-panic with the same value instead of blocking forever on a channel
// nobody will close, and each query's pipeline barrier converts that
// into its own typed failure — one poisoned backend call fails every
// query that needed the frame, never the process.
type sharedEntry struct {
	ready  chan struct{}
	out    *Output
	poison any
}

// NewShared wraps inner with a cache of the given capacity (frames).
// Capacity defaults to 4096 when non-positive — comfortably above the
// skew the server's bounded channels permit between queries on one feed.
func NewShared(inner Backend, capacity int) *Shared {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Shared{
		inner:    inner,
		capacity: capacity,
		serial:   !ConcurrentSafe(inner),
		entries:  make(map[*video.Frame]*sharedEntry, capacity),
	}
}

// Inner returns the wrapped backend.
func (s *Shared) Inner() Backend { return s.inner }

// Technique implements Backend.
func (s *Shared) Technique() Technique { return s.inner.Technique() }

// Grid implements Backend.
func (s *Shared) Grid() int { return s.inner.Grid() }

// ConcurrentSafe implements ConcurrentBackend: the cache is mutex-guarded
// and inner calls are serialised when the inner backend needs it, so
// Shared may always be fanned out.
func (s *Shared) ConcurrentSafe() bool { return true }

// Stats reports cache hits (outputs served without an inner evaluation)
// and misses (inner evaluations) so far.
func (s *Shared) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// Entries reports how many frames are currently memoised. It never
// exceeds the construction capacity: a long-running feed's memo reaches
// steady state and entries for frames past the eviction watermark are
// released rather than accumulated.
func (s *Shared) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// claim returns the entry for f and whether the caller owns filling it
// (true exactly once per cached lifetime of the frame).
func (s *Shared) claim(f *video.Frame) (*sharedEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[f]; ok {
		return e, false
	}
	e := &sharedEntry{ready: make(chan struct{})}
	s.entries[f] = e
	s.order = append(s.order, f)
	if len(s.order) > s.capacity {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, oldest)
	}
	return e, true
}

// Evaluate implements Backend. The first caller for a frame evaluates the
// inner backend (charging its clock once); concurrent callers for the
// same frame block until that evaluation completes and then share its
// output.
func (s *Shared) Evaluate(f *video.Frame) *Output {
	e, owned := s.claim(f)
	if !owned {
		s.hits.Add(1)
		<-e.ready
		if e.poison != nil {
			panic(e.poison)
		}
		return e.out
	}
	s.misses.Add(1)
	out, pval := s.evalOne(f)
	if pval != nil {
		s.poisonEntries([]*video.Frame{f}, []*sharedEntry{e}, pval)
		panic(pval)
	}
	e.out = out
	close(e.ready)
	return e.out
}

// evalOne runs the inner backend on one frame, converting a panic into
// a returned value so evalMu is always released and the caller can
// poison the entry before re-panicking.
func (s *Shared) evalOne(f *video.Frame) (out *Output, pval any) {
	defer func() {
		if p := recover(); p != nil {
			pval = p
		}
	}()
	if s.serial {
		s.evalMu.Lock()
		defer s.evalMu.Unlock()
	}
	return s.inner.Evaluate(f), nil
}

// evalBatch is evalOne's batch counterpart.
func (s *Shared) evalBatch(frames []*video.Frame) (outs []*Output, pval any) {
	defer func() {
		if p := recover(); p != nil {
			outs, pval = nil, p
		}
	}()
	if s.serial {
		s.evalMu.Lock()
		defer s.evalMu.Unlock()
	}
	return EvaluateBatchInto(s.inner, frames, nil), nil
}

// poisonEntries marks entries whose fill panicked: waiters re-panic
// with the same value, and the entries leave the cache so a later claim
// retries the backend instead of serving a latched failure forever.
func (s *Shared) poisonEntries(frames []*video.Frame, entries []*sharedEntry, pval any) {
	for _, e := range entries {
		e.poison = pval
		close(e.ready)
	}
	s.mu.Lock()
	for i, f := range frames {
		if cur, ok := s.entries[f]; ok && cur == entries[i] {
			delete(s.entries, f)
		}
	}
	s.mu.Unlock()
}

// EvaluateBatch implements BatchBackend: uncached frames are claimed in
// one pass and evaluated through the inner backend's batch path in a
// single call (one clock transaction, batched GEMMs for the trained
// backends); cached frames are served from the memo. Appends to dst per
// the interface's aliasing rule. Concurrent batches racing over
// overlapping frames each evaluate only the frames they claimed first,
// then wait for the rest — every frame is still evaluated exactly once
// per cached lifetime.
func (s *Shared) EvaluateBatch(frames []*video.Frame, dst []*Output) []*Output {
	if len(frames) == 0 {
		return dst
	}
	entries := make([]*sharedEntry, len(frames))
	var ownedFrames []*video.Frame
	var ownedEntries []*sharedEntry
	for i, f := range frames {
		e, owned := s.claim(f)
		entries[i] = e
		if owned {
			ownedFrames = append(ownedFrames, f)
			ownedEntries = append(ownedEntries, e)
		}
	}
	s.misses.Add(int64(len(ownedFrames)))
	s.hits.Add(int64(len(frames) - len(ownedFrames)))
	if len(ownedFrames) > 0 {
		// Fill owned entries before waiting on anyone else's: claim order
		// guarantees another batch can only be waiting on entries we own,
		// never the reverse cyclically, so this cannot deadlock.
		outs, pval := s.evalBatch(ownedFrames)
		if pval != nil {
			s.poisonEntries(ownedFrames, ownedEntries, pval)
			panic(pval)
		}
		for i, e := range ownedEntries {
			e.out = outs[i]
			close(e.ready)
		}
	}
	for _, e := range entries {
		<-e.ready
		if e.poison != nil {
			panic(e.poison)
		}
		dst = append(dst, e.out)
	}
	return dst
}
