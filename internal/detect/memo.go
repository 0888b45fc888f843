package detect

import (
	"vmq/internal/memo"
	"vmq/internal/simclock"
	"vmq/internal/video"
)

// Memo wraps a detector whose output depends only on the frame with a
// bounded per-frame detection cache (a memo.Cache), as filters.Shared
// does for the filter stage: queries sharing one oracle on a feed pay one
// Detect per frame — the first query to confirm a frame runs the detector
// (and its clock charge); every later query gets the cached detections.
//
// The cached []Detection slice is returned to every caller and must be
// treated as immutable. Wrapping a detector whose output depends on its
// call history would change its outputs (each frame would see one RNG
// draw instead of one per query); NewMemo therefore refuses detectors
// that do not declare OrderInsensitive.
type Memo struct {
	inner Detector
	cache *memo.Cache[[]Detection]
}

// NewMemo wraps inner with a detection cache of the given capacity
// (frames; non-positive selects memo.DefaultCapacity). It returns nil if
// inner does not declare OrderInsensitive — callers fall back to
// per-query detectors.
func NewMemo(inner Detector, capacity int) *Memo {
	if !IsOrderInsensitive(inner) {
		return nil
	}
	return &Memo{inner: inner, cache: memo.New[[]Detection](capacity)}
}

// Inner returns the wrapped detector.
func (m *Memo) Inner() Detector { return m.inner }

// Stats reports cache hits (detections served without an inner Detect)
// and misses (true detector evaluations) so far.
func (m *Memo) Stats() (hits, misses int64) { return m.cache.Stats() }

// Entries reports how many frames are currently memoised; it never
// exceeds the construction capacity.
func (m *Memo) Entries() int { return m.cache.Entries() }

// Detect implements Detector. The first caller for a frame runs the inner
// detector (charging its clock once); concurrent callers for the same
// frame block until it finishes and share the detections. Callers must
// not mutate the returned slice.
func (m *Memo) Detect(f *video.Frame) []Detection {
	return m.cache.Get(f, m.inner.Detect)
}

// Cost implements Detector: the virtual cost model is unchanged — each
// query's pipeline still accounts the full per-frame charge; the memo
// saves real compute, not simulated time.
func (m *Memo) Cost() simclock.Cost { return m.inner.Cost() }

// OrderInsensitiveDetections implements OrderInsensitive: a memo over a
// pure detector is itself pure.
func (m *Memo) OrderInsensitiveDetections() bool { return true }
