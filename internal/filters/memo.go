package filters

import (
	"sync"

	"vmq/internal/memo"
	"vmq/internal/video"
)

// Shared wraps a Backend with a bounded per-frame output cache (a
// memo.Cache), turning N query pipelines that scan the same feed into
// one shared scan: whichever pipeline reaches a frame first runs the
// network (and pays its virtual cost); every other pipeline gets the
// cached Output for free. This is sound when the output depends only on
// the frame, not on which caller asks first, as every backend here
// documents. A backend that is not concurrency-safe (ConcurrentSafe) is
// still usable: Shared serialises its calls and the memoisation makes
// the combination safe to share across goroutines.
//
// Shared is batch-aware: EvaluateBatch fills every frame it is first to
// reach with a single inner batch evaluation, so a served query's chunk
// pays batched GEMM rates for those frames while the other queries'
// lookups of the same frames stay cheap hits.
type Shared struct {
	inner  Backend
	serial bool // inner is not concurrency-safe: serialise its calls
	evalMu sync.Mutex
	cache  *memo.Cache[*Output]
}

// NewShared wraps inner with a cache of the given capacity (frames);
// non-positive selects memo.DefaultCapacity.
func NewShared(inner Backend, capacity int) *Shared {
	return &Shared{
		inner:  inner,
		serial: !ConcurrentSafe(inner),
		cache:  memo.New[*Output](capacity),
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
// several queries may call one Shared at once.
func (s *Shared) ConcurrentSafe() bool { return true }

// Stats reports cache hits (outputs served without an inner evaluation)
// and misses (inner evaluations) so far.
func (s *Shared) Stats() (hits, misses int64) { return s.cache.Stats() }

// Entries reports how many frames are currently memoised; it never
// exceeds the construction capacity.
func (s *Shared) Entries() int { return s.cache.Entries() }

// Evaluate implements Backend. The first caller for a frame evaluates the
// inner backend (charging its clock once); concurrent callers for the
// same frame block until that evaluation completes and then share its
// output.
func (s *Shared) Evaluate(f *video.Frame) *Output {
	return s.cache.Get(f, s.evalOne)
}

// EvaluateBatch implements BatchBackend: the frames this call reaches
// first are evaluated through the inner backend's batch path in a single
// call (one clock transaction, batched GEMMs for the trained backends);
// the rest are served from the memo. Appends to dst per the interface's
// aliasing rule.
func (s *Shared) EvaluateBatch(frames []*video.Frame, dst []*Output) []*Output {
	return s.cache.GetBatch(frames, dst, s.evalBatch)
}

func (s *Shared) evalOne(f *video.Frame) *Output {
	if s.serial {
		s.evalMu.Lock()
		defer s.evalMu.Unlock()
	}
	return s.inner.Evaluate(f)
}

func (s *Shared) evalBatch(frames []*video.Frame) []*Output {
	if s.serial {
		s.evalMu.Lock()
		defer s.evalMu.Unlock()
	}
	return EvaluateBatchInto(s.inner, frames, nil)
}
