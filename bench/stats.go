package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// chunkedPercentile splits xs (in arrival order) into chunks equal parts,
// takes the p-quantile of each and returns the median of those: one
// scheduler hiccup or GC pause then moves one chunk's tail, not the
// reported value. With fewer than 2*chunks samples it is the plain
// quantile.
func chunkedPercentile(xs []float64, p float64, chunks int) float64 {
	if len(xs) < 2*chunks || chunks < 2 {
		return percentile(sortedCopy(xs), p)
	}
	per := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(xs)/chunks, (c+1)*len(xs)/chunks
		per = append(per, percentile(sortedCopy(xs[lo:hi]), p))
	}
	return median(per)
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the exclusive-method quartiles of
// Python's statistics.quantiles(xs, n=4) — the steadiness measure the
// benchmark contract uses. It needs at least two values.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		// j and delta exactly as CPython computes them: delta is taken
		// after j is clamped, so tiny samples extrapolate as Python does.
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// span is one timed interval of the trace. Parent is the index of the span
// that caused it (-1 for a root).
type span struct {
	Name       string
	Start, End int64 // ns since the run's epoch
	Parent     int
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice, and children are clipped to the parent's interval).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		var covered int64
		cursor := s.Start
		for _, c := range cs {
			lo, hi := spans[c].Start, spans[c].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = dur - covered
	}
	return self
}
