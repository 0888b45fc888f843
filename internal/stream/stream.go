// Package stream provides the streaming plumbing of Section III: pull-based
// frame sources (a slice, the simulator, a push-fed ingestion buffer), the
// tee that shares one feed among its queries, and the frame samplers that
// back the Monte Carlo aggregate estimators — uniform random sampling
// without replacement, systematic and stratified sampling. The WINDOW
// clause is stepped by query.EachWindow.
package stream

import (
	"errors"
	"math/rand/v2"

	"vmq/internal/video"
)

// ErrExhausted reports that a pull-based source ran out of frames before
// the caller got everything it asked for. The window builder in package
// query wraps it with positional detail; callers test with errors.Is.
var ErrExhausted = errors.New("stream: source exhausted")

// Source yields frames one at a time. Next returns the next frame and
// true, or (nil, false) once the source is exhausted; after the first
// false return every subsequent call must also return false. Unbounded
// generators (such as the frame simulator) never return false — wrap them
// with FromStream.
type Source interface {
	Next() (*video.Frame, bool)
}

// streamSource adapts the unbounded frame simulator to Source.
type streamSource struct{ s *video.Stream }

func (ss streamSource) Next() (*video.Frame, bool) { return ss.s.Next(), true }

// FromStream adapts a *video.Stream (an unbounded generator) to Source.
func FromStream(s *video.Stream) Source { return streamSource{s} }

// Take pulls up to n frames from src, stopping early on exhaustion.
func Take(src Source, n int) []*video.Frame {
	out := make([]*video.Frame, 0, n)
	for i := 0; i < n; i++ {
		f, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, f)
	}
	return out
}

// Sampler selects a subset of frame indices from a window of length n.
type Sampler interface {
	// Sample returns k distinct indices in [0, n).
	Sample(n, k int) []int
}

// UniformSampler draws k indices uniformly without replacement.
type UniformSampler struct {
	rng *rand.Rand
}

// NewUniformSampler returns a deterministic uniform sampler.
func NewUniformSampler(seed uint64) *UniformSampler {
	return &UniformSampler{rng: rand.New(rand.NewPCG(seed, 0xa5a5a5a5a5a5a5a5))}
}

// Sample implements Sampler via a partial Fisher–Yates shuffle.
func (u *UniformSampler) Sample(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + u.rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// SystematicSampler picks every n/k-th frame starting from a random
// offset — the usual choice for temporally correlated video where spread
// beats pure randomness.
type SystematicSampler struct {
	rng *rand.Rand
}

// NewSystematicSampler returns a deterministic systematic sampler.
func NewSystematicSampler(seed uint64) *SystematicSampler {
	return &SystematicSampler{rng: rand.New(rand.NewPCG(seed, 0x5bd1e9955bd1e995))}
}

// Sample implements Sampler.
func (s *SystematicSampler) Sample(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	step := float64(n) / float64(k)
	off := s.rng.Float64() * step
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		idx := int(off + float64(i)*step)
		if idx >= n {
			idx = n - 1
		}
		out = append(out, idx)
	}
	return out
}

// StratifiedSampler divides the window into k contiguous temporal strata
// and draws one uniform index from each. For temporally correlated video
// (where neighbouring frames are nearly identical) stratification removes
// the between-strata component of the sampling variance, the classic
// variance-reduction result from the approximate-query-processing
// literature the paper builds on.
type StratifiedSampler struct {
	rng *rand.Rand
}

// NewStratifiedSampler returns a deterministic stratified sampler.
func NewStratifiedSampler(seed uint64) *StratifiedSampler {
	return &StratifiedSampler{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

// Sample implements Sampler: one uniform draw per stratum.
func (s *StratifiedSampler) Sample(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		if hi <= lo {
			hi = lo + 1
		}
		out = append(out, lo+s.rng.IntN(hi-lo))
	}
	return out
}

// SliceSource adapts a pre-materialised frame slice to Source. Next
// returns (nil, false) once the slice is exhausted.
type SliceSource struct {
	Frames []*video.Frame
	pos    int
}

// Next implements Source.
func (s *SliceSource) Next() (*video.Frame, bool) {
	if s.pos >= len(s.Frames) {
		return nil, false
	}
	f := s.Frames[s.pos]
	s.pos++
	return f, true
}
