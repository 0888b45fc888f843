package grid

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"vmq/internal/geom"
)

func bounds448() geom.Rect { return geom.Rect{X0: 0, Y0: 0, X1: 448, Y1: 448} }

func TestMapThreshold(t *testing.T) {
	m := NewMap(4)
	m.Set(0.5, 1, 2)
	m.Set(0.1, 3, 3)
	b := m.Threshold(0.2)
	if !b.At(1, 2) || b.At(3, 3) || b.At(0, 0) {
		t.Fatalf("Threshold wrong: %v", b.rows)
	}
	if b.CountOn() != 1 {
		t.Fatalf("CountOn = %d", b.CountOn())
	}
}

func TestCellGeometry(t *testing.T) {
	bounds := bounds448()
	r := CellRect(bounds, 56, 0, 0)
	if r.W() != 8 || r.H() != 8 {
		t.Fatalf("cell size = %vx%v, want 8x8", r.W(), r.H())
	}
	// CellOf and CellCenter are inverse.
	for _, cell := range [][2]int{{0, 0}, {10, 20}, {55, 55}} {
		c := CellCenter(bounds, 56, cell[0], cell[1])
		i, j := CellOf(bounds, 56, c)
		if i != cell[0] || j != cell[1] {
			t.Errorf("roundtrip (%d,%d) -> (%d,%d)", cell[0], cell[1], i, j)
		}
	}
	// Clamping.
	i, j := CellOf(bounds, 56, geom.Point{X: -5, Y: 9999})
	if i != 55 || j != 0 {
		t.Errorf("CellOf clamp = (%d,%d)", i, j)
	}
}

func TestFromBoxes(t *testing.T) {
	bounds := bounds448()
	// A box covering exactly cells (0..1, 0..1) at g=56 (cells are 8px).
	boxes := []geom.Rect{{X0: 0, Y0: 0, X1: 16, Y1: 16}}
	b := FromBoxes(boxes, bounds, 56, 0)
	if b.CountOn() != 4 {
		t.Fatalf("CountOn = %d, want 4", b.CountOn())
	}
	if !b.At(0, 0) || !b.At(1, 1) {
		t.Fatal("expected cells not set")
	}
	// minCover = 0.9 excludes cells the box barely touches.
	boxes = []geom.Rect{{X0: 0, Y0: 0, X1: 9, Y1: 8}} // covers cell(0,0) fully, cell(0,1) 1/8
	b = FromBoxes(boxes, bounds, 56, 0.5)
	if !b.At(0, 0) || b.At(0, 1) {
		t.Fatalf("minCover filtering wrong: %v %v", b.At(0, 0), b.At(0, 1))
	}
	// Out-of-bounds boxes are clipped, empty boxes skipped.
	b = FromBoxes([]geom.Rect{{X0: -100, Y0: -100, X1: -50, Y1: -50}}, bounds, 56, 0)
	if b.CountOn() != 0 {
		t.Fatal("fully outside box marked cells")
	}
}

func TestFromCenters(t *testing.T) {
	bounds := bounds448()
	boxes := []geom.Rect{
		{X0: 0, Y0: 0, X1: 16, Y1: 16},       // centre (8,8) -> cell (1,1)
		{X0: 440, Y0: 440, X1: 456, Y1: 456}, // centre outside
	}
	b := FromCenters(boxes, bounds, 56)
	if b.CountOn() != 1 || !b.At(1, 1) {
		t.Fatalf("FromCenters = %v on, At(1,1)=%v", b.CountOn(), b.At(1, 1))
	}
}

func TestDilate(t *testing.T) {
	b := NewBinary(7)
	b.Set(true, 3, 3)
	d1 := b.Dilate(NewBinary(7), 1)
	if d1.CountOn() != 5 {
		t.Fatalf("Dilate(1) = %d cells, want 5 (diamond)", d1.CountOn())
	}
	d2 := b.Dilate(NewBinary(7), 2)
	if d2.CountOn() != 13 {
		t.Fatalf("Dilate(2) = %d cells, want 13", d2.CountOn())
	}
	// Dilating by 0 is identity.
	if d0 := b.Dilate(NewBinary(7), 0); !reflect.DeepEqual(d0, b) {
		t.Fatal("Dilate(0) not identity")
	}
	// Dilating in place reads every source row before writing.
	if b.Dilate(b, 2); !reflect.DeepEqual(b, d2) {
		t.Fatal("in-place Dilate differs")
	}
	// Border clipping.
	e := NewBinary(3)
	e.Set(true, 0, 0)
	if n := e.Dilate(NewBinary(3), 1).CountOn(); n != 3 {
		t.Fatalf("border Dilate = %d, want 3", n)
	}
}

func TestMatchExact(t *testing.T) {
	pred := NewBinary(8)
	truth := NewBinary(8)
	pred.Set(true, 2, 2)
	pred.Set(true, 5, 5)
	truth.Set(true, 2, 2)
	truth.Set(true, 7, 7)
	tp, fp, fn := Match(pred, truth, 0)
	if tp != 1 || fp != 1 || fn != 1 {
		t.Fatalf("Match = %d/%d/%d, want 1/1/1", tp, fp, fn)
	}
}

func TestMatchWithTolerance(t *testing.T) {
	pred := NewBinary(8)
	truth := NewBinary(8)
	pred.Set(true, 3, 3)
	truth.Set(true, 3, 4) // Manhattan distance 1
	if tp, _, _ := Match(pred, truth, 0); tp != 0 {
		t.Fatal("r=0 matched displaced cell")
	}
	tp, fp, fn := Match(pred, truth, 1)
	if tp != 1 || fp != 0 || fn != 0 {
		t.Fatalf("r=1 Match = %d/%d/%d, want 1/0/0", tp, fp, fn)
	}
	truth2 := NewBinary(8)
	truth2.Set(true, 3, 6) // distance 3
	tp, fp, fn = Match(pred, truth2, 2)
	if tp != 0 || fp != 1 || fn != 1 {
		t.Fatalf("r=2 Match = %d/%d/%d, want 0/1/1", tp, fp, fn)
	}
}

// Property: increasing tolerance never decreases tp nor increases fp/fn.
func TestMatchMonotoneInRadius(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 100; trial++ {
		g := 6 + rng.IntN(8)
		pred, truth := NewBinary(g), NewBinary(g)
		for k := 0; k < g*g; k++ {
			pred.Set(rng.Float64() < 0.1, k/g, k%g)
			truth.Set(rng.Float64() < 0.1, k/g, k%g)
		}
		prevTP, prevFP, prevFN := Match(pred, truth, 0)
		for r := 1; r <= 3; r++ {
			tp, fp, fn := Match(pred, truth, r)
			if tp < prevTP || fp > prevFP || fn > prevFN {
				t.Fatalf("radius %d not monotone: (%d,%d,%d) -> (%d,%d,%d)",
					r, prevTP, prevFP, prevFN, tp, fp, fn)
			}
			prevTP, prevFP, prevFN = tp, fp, fn
		}
	}
}

// Property: tp+fp == number of predicted cells; fn <= truth cells.
func TestMatchConservation(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 100; trial++ {
		g := 5 + rng.IntN(10)
		pred, truth := NewBinary(g), NewBinary(g)
		for k := 0; k < g*g; k++ {
			pred.Set(rng.Float64() < 0.15, k/g, k%g)
			truth.Set(rng.Float64() < 0.15, k/g, k%g)
		}
		r := rng.IntN(3)
		tp, fp, fn := Match(pred, truth, r)
		if tp+fp != pred.CountOn() {
			t.Fatalf("tp+fp=%d != pred on=%d", tp+fp, pred.CountOn())
		}
		if fn > truth.CountOn() {
			t.Fatalf("fn=%d > truth on=%d", fn, truth.CountOn())
		}
	}
}

func TestPanicOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMap(0)
}

// A Binary stores one 64-bit word per row, so NewBinary refuses any size
// outside 1..MaxG rather than build a map it cannot hold.
func TestNewBinaryRefusesSizeOverMaxG(t *testing.T) {
	for _, g := range []int{0, -1, MaxG + 1, 448} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBinary(%d) did not panic", g)
				}
			}()
			NewBinary(g)
		}()
	}
	if b := NewBinary(MaxG); b.G != MaxG || !b.Empty() {
		t.Fatal("NewBinary(MaxG) is not an empty 64×64 map")
	}
}

func TestMatchSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Match(NewBinary(3), NewBinary(4), 0)
}
