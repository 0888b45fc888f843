package stream

import (
	"math"
	"testing"

	"vmq/internal/video"
)

func TestUniformSamplerDistinctAndInRange(t *testing.T) {
	s := NewUniformSampler(1)
	for trial := 0; trial < 50; trial++ {
		idx := s.Sample(100, 20)
		if len(idx) != 20 {
			t.Fatalf("got %d indices", len(idx))
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= 100 {
				t.Fatalf("index out of range: %d", i)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d", i)
			}
			seen[i] = true
		}
	}
	if got := s.Sample(5, 10); len(got) != 5 {
		t.Fatalf("k>n should clamp: %d", len(got))
	}
	if got := s.Sample(5, 0); got != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestUniformSamplerUniformity(t *testing.T) {
	// Each index should be selected with probability k/n.
	s := NewUniformSampler(7)
	const n, k, reps = 20, 5, 8000
	counts := make([]int, n)
	for r := 0; r < reps; r++ {
		for _, i := range s.Sample(n, k) {
			counts[i]++
		}
	}
	want := float64(reps) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("index %d selected %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestSystematicSamplerSpread(t *testing.T) {
	s := NewSystematicSampler(3)
	idx := s.Sample(100, 10)
	if len(idx) != 10 {
		t.Fatalf("got %d indices", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		gap := idx[i] - idx[i-1]
		if gap < 8 || gap > 12 {
			t.Fatalf("systematic gap %d not ~10", gap)
		}
	}
	if got := s.Sample(3, 5); len(got) != 3 {
		t.Fatal("clamp failed")
	}
	if got := s.Sample(10, 0); got != nil {
		t.Fatal("k=0 not nil")
	}
}

func TestStratifiedSamplerOnePerStratum(t *testing.T) {
	s := NewStratifiedSampler(1)
	for trial := 0; trial < 50; trial++ {
		idx := s.Sample(100, 10)
		if len(idx) != 10 {
			t.Fatalf("got %d indices", len(idx))
		}
		for i, v := range idx {
			if v < i*10 || v >= (i+1)*10 {
				t.Fatalf("index %d = %d outside stratum [%d,%d)", i, v, i*10, (i+1)*10)
			}
		}
	}
	if got := s.Sample(5, 8); len(got) != 5 {
		t.Fatal("k>n clamp failed")
	}
	if got := s.Sample(10, 0); got != nil {
		t.Fatal("k=0 not nil")
	}
	// Uneven strata still produce k distinct-stratum draws.
	idx := s.Sample(7, 3)
	if len(idx) != 3 || idx[0] >= idx[1]+3 {
		t.Fatalf("uneven strata sample = %v", idx)
	}
}

// For a smooth (autocorrelated) signal the stratified mean estimator has
// lower variance than the uniform one — the reason to prefer it on video.
func TestStratifiedBeatsUniformOnSmoothSignal(t *testing.T) {
	const n, k, reps = 1000, 20, 400
	signal := make([]float64, n)
	for i := range signal {
		signal[i] = float64(i) / n * 10 // strong trend = worst case for uniform
	}
	variance := func(s Sampler) float64 {
		var sum, sq float64
		for r := 0; r < reps; r++ {
			var m float64
			for _, idx := range s.Sample(n, k) {
				m += signal[idx]
			}
			m /= k
			sum += m
			sq += m * m
		}
		mean := sum / reps
		return sq/reps - mean*mean
	}
	vu := variance(NewUniformSampler(5))
	vs := variance(NewStratifiedSampler(5))
	if vs >= vu/2 {
		t.Fatalf("stratified variance %v not well below uniform %v", vs, vu)
	}
}

func TestSliceSource(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 9).Take(5)
	src := &SliceSource{Frames: frames}
	f, ok := src.Next()
	if !ok || f != frames[0] {
		t.Fatal("Next wrong")
	}
	if got := Take(src, 4); len(got) != 4 || got[3] != frames[4] {
		t.Fatalf("Take over slice source = %d frames", len(got))
	}
	// Exhausted: every further Next reports EOF, never panics.
	for i := 0; i < 3; i++ {
		if f, ok := src.Next(); ok || f != nil {
			t.Fatalf("exhausted Next returned (%v, %v)", f, ok)
		}
	}
}

func TestTakeStopsAtExhaustion(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 10).Take(3)
	got := Take(&SliceSource{Frames: frames}, 10)
	if len(got) != 3 || got[0] != frames[0] || got[2] != frames[2] {
		t.Fatalf("Take over short source = %d frames", len(got))
	}
	if got := Take(FromStream(video.NewStream(video.Jackson(), 10)), 7); len(got) != 7 {
		t.Fatalf("Take over unbounded source = %d frames", len(got))
	}
}
