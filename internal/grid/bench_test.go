package grid

import (
	"math/rand/v2"
	"testing"

	"vmq/internal/geom"
)

func randBinary(seed uint64, g int, density float64) *Binary {
	rng := rand.New(rand.NewPCG(seed, 1))
	b := NewBinary(g)
	for k := 0; k < g*g; k++ {
		b.Set(rng.Float64() < density, k/g, k%g)
	}
	return b
}

// BenchmarkMatch measures CLF scoring at the paper's grid size with a
// Detrac-like cell density and CLF-1 tolerance.
func BenchmarkMatch(b *testing.B) {
	pred := randBinary(1, 56, 0.006)
	truth := randBinary(2, 56, 0.006)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Match(pred, truth, 1)
	}
}

func BenchmarkDilate(b *testing.B) {
	m := randBinary(3, 56, 0.01)
	dst := NewBinary(56)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Dilate(dst, 2)
	}
}

func BenchmarkFromBoxes(b *testing.B) {
	bounds := geom.Rect{X0: 0, Y0: 0, X1: 448, Y1: 448}
	rng := rand.New(rand.NewPCG(4, 4))
	boxes := make([]geom.Rect, 16)
	for i := range boxes {
		c := geom.Point{X: rng.Float64() * 448, Y: rng.Float64() * 448}
		boxes[i] = geom.RectFromCenter(c, 60, 40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromBoxes(boxes, bounds, 56, 0)
	}
}
