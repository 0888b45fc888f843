package spatial

import (
	"math/rand/v2"
	"testing"

	"vmq/internal/geom"
	"vmq/internal/grid"
)

func TestHoldsDirections(t *testing.T) {
	a := geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}   // centre (5,5)
	b := geom.Rect{X0: 20, Y0: 20, X1: 30, Y1: 30} // centre (25,25)
	if !Holds(LeftOf, a, b) || Holds(RightOf, a, b) {
		t.Error("horizontal relation wrong")
	}
	if !Holds(Above, a, b) || Holds(Below, a, b) {
		t.Error("vertical relation wrong")
	}
	if !Holds(RightOf, b, a) || !Holds(Below, b, a) {
		t.Error("swapped operands wrong")
	}
	// Same centre: no strict relation holds.
	if Holds(LeftOf, a, a) || Holds(RightOf, a, a) || Holds(Above, a, a) || Holds(Below, a, a) {
		t.Error("reflexive relation held")
	}
}

// Property: Holds(r,a,b) == Holds(r.Inverse(),b,a) and antisymmetry.
func TestRelationDuality(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	rels := []Relation{LeftOf, RightOf, Above, Below}
	for i := 0; i < 500; i++ {
		a := geom.RectFromCenter(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, 5, 5)
		b := geom.RectFromCenter(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, 5, 5)
		for _, r := range rels {
			if Holds(r, a, b) != Holds(r.Inverse(), b, a) {
				t.Fatalf("duality violated for %v", r)
			}
			if Holds(r, a, b) && Holds(r, b, a) {
				t.Fatalf("antisymmetry violated for %v", r)
			}
		}
	}
}

func TestParseRelation(t *testing.T) {
	cases := map[string]Relation{
		"LEFT": LeftOf, "RIGHT": RightOf, "ABOVE": Above, "BELOW": Below,
		"left-of": LeftOf, "right-of": RightOf,
	}
	for s, want := range cases {
		got, ok := ParseRelation(s)
		if !ok || got != want {
			t.Errorf("ParseRelation(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseRelation("diagonal"); ok {
		t.Error("accepted unknown relation")
	}
	for _, r := range []Relation{LeftOf, RightOf, Above, Below, Relation(9)} {
		if r.String() == "" {
			t.Error("empty String")
		}
	}
}

func TestAnyPairHolds(t *testing.T) {
	as := []geom.Rect{{X0: 0, Y0: 0, X1: 10, Y1: 10}}
	bs := []geom.Rect{{X0: 50, Y0: 0, X1: 60, Y1: 10}, {X0: -50, Y0: 0, X1: -40, Y1: 10}}
	if !AnyPairHolds(LeftOf, as, bs) {
		t.Error("LeftOf pair exists but not found")
	}
	if !AnyPairHolds(RightOf, as, bs) {
		t.Error("RightOf pair exists but not found")
	}
	if AnyPairHolds(LeftOf, nil, bs) {
		t.Error("empty as matched")
	}
}

func TestRegions(t *testing.T) {
	region := geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	inside := geom.RectFromCenter(geom.Point{X: 50, Y: 50}, 10, 10)
	outside := geom.RectFromCenter(geom.Point{X: 150, Y: 50}, 10, 10)
	straddle := geom.RectFromCenter(geom.Point{X: 99, Y: 50}, 30, 10)
	if !InRegion(inside, region) || InRegion(outside, region) {
		t.Error("InRegion wrong")
	}
	if !InRegion(straddle, region) {
		t.Error("centre-containment semantics: straddling box with centre inside must match")
	}
	if CountInRegion([]geom.Rect{inside, outside, straddle}, region) != 2 {
		t.Error("CountInRegion wrong")
	}
}

func gridWith(g int, cells ...[2]int) *grid.Binary {
	b := grid.NewBinary(g)
	for _, c := range cells {
		b.Set(true, c[0], c[1])
	}
	return b
}

func TestHoldsOnGrid(t *testing.T) {
	a := gridWith(8, [2]int{4, 1}) // col 1
	b := gridWith(8, [2]int{4, 6}) // col 6
	if !HoldsOnGrid(LeftOf, a, b, 0) {
		t.Error("grid LeftOf failed")
	}
	if HoldsOnGrid(RightOf, a, b, 0) {
		t.Error("grid RightOf false positive")
	}
	up := gridWith(8, [2]int{1, 4})
	down := gridWith(8, [2]int{6, 4})
	if !HoldsOnGrid(Above, up, down, 0) || HoldsOnGrid(Below, up, down, 0) {
		t.Error("grid vertical relations wrong")
	}
	// Empty maps never satisfy.
	if HoldsOnGrid(LeftOf, gridWith(8), b, 0) {
		t.Error("empty grid satisfied relation")
	}
}

// The grid evaluation is existential: with multiple cells the relation
// holds if any pair qualifies.
func TestHoldsOnGridExistential(t *testing.T) {
	a := gridWith(8, [2]int{0, 7}, [2]int{0, 0})
	b := gridWith(8, [2]int{0, 3})
	if !HoldsOnGrid(LeftOf, a, b, 0) {
		t.Error("existential LeftOf failed (cell at col 0)")
	}
	if !HoldsOnGrid(RightOf, a, b, 0) {
		t.Error("existential RightOf failed (cell at col 7)")
	}
}

// Grid and box evaluations agree for well-separated singleton objects.
func TestGridBoxAgreement(t *testing.T) {
	bounds := geom.Rect{X0: 0, Y0: 0, X1: 448, Y1: 448}
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 200; i++ {
		a := geom.RectFromCenter(geom.Point{X: 30 + rng.Float64()*150, Y: 30 + rng.Float64()*388}, 20, 20)
		b := geom.RectFromCenter(geom.Point{X: 260 + rng.Float64()*150, Y: 30 + rng.Float64()*388}, 20, 20)
		ga := grid.FromCenters([]geom.Rect{a}, bounds, 56)
		gb := grid.FromCenters([]geom.Rect{b}, bounds, 56)
		if !HoldsOnGrid(LeftOf, ga, gb, 0) {
			t.Fatal("grid disagrees with boxes for separated objects (LeftOf)")
		}
		if Holds(Above, a, b) != HoldsOnGrid(Above, ga, gb, 0) {
			// Vertical positions are random; allow disagreement only when
			// centres fall in the same grid row.
			ai, _ := grid.CellOf(bounds, 56, a.Center())
			bi, _ := grid.CellOf(bounds, 56, b.Center())
			if ai != bi {
				t.Fatalf("grid/box Above disagree with distinct rows: %v vs %v", ai, bi)
			}
		}
	}
}

func TestCountInRegionGrid(t *testing.T) {
	bounds := geom.Rect{X0: 0, Y0: 0, X1: 448, Y1: 448}
	lowerLeft := geom.QuadrantRect(bounds, geom.LowerLeft)
	b := grid.NewBinary(56)
	b.Set(true, 40, 10) // lower-left area
	b.Set(true, 10, 10) // upper-left
	if n := CountInRegionGrid(b, bounds, lowerLeft, 0); n != 1 {
		t.Fatalf("CountInRegionGrid = %d, want 1", n)
	}
}

func TestTopological(t *testing.T) {
	a := geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	cases := []struct {
		b    geom.Rect
		want Topology
	}{
		{geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Equal},
		{geom.Rect{X0: 20, Y0: 20, X1: 30, Y1: 30}, Disjoint},
		{geom.Rect{X0: 10, Y0: 0, X1: 20, Y1: 10}, Meet},
		{geom.Rect{X0: 5, Y0: 5, X1: 15, Y1: 15}, Overlap},
		{geom.Rect{X0: 2, Y0: 2, X1: 8, Y1: 8}, Contains},
		{geom.Rect{X0: 0, Y0: 2, X1: 8, Y1: 8}, Covers},
		{geom.Rect{X0: -5, Y0: -5, X1: 15, Y1: 15}, Inside},
		{geom.Rect{X0: 0, Y0: -5, X1: 15, Y1: 15}, CoveredBy},
	}
	for _, c := range cases {
		if got := Topological(a, c.b); got != c.want {
			t.Errorf("Topological(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
	for tp := Topology(0); tp <= CoveredBy; tp++ {
		if tp.String() == "" {
			t.Error("empty Topology name")
		}
	}
	if Topology(42).String() != "Topology(42)" {
		t.Error("unknown Topology String")
	}
}

// Property: Topological converse pairs — Contains/Inside, Covers/CoveredBy
// swap under operand exchange; Disjoint/Meet/Overlap/Equal are symmetric.
func TestTopologicalConverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	conv := map[Topology]Topology{
		Disjoint: Disjoint, Meet: Meet, Overlap: Overlap, Equal: Equal,
		Contains: Inside, Inside: Contains, Covers: CoveredBy, CoveredBy: Covers,
	}
	for i := 0; i < 500; i++ {
		a := geom.Rect{
			X0: float64(rng.IntN(10)), Y0: float64(rng.IntN(10)),
			X1: float64(10 + rng.IntN(10)), Y1: float64(10 + rng.IntN(10)),
		}
		b := geom.Rect{
			X0: float64(rng.IntN(10)), Y0: float64(rng.IntN(10)),
			X1: float64(10 + rng.IntN(10)), Y1: float64(10 + rng.IntN(10)),
		}
		ab := Topological(a, b)
		ba := Topological(b, a)
		if ba != conv[ab] {
			t.Fatalf("converse violated: %v vs %v for %v,%v", ab, ba, a, b)
		}
	}
}

func TestGridSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HoldsOnGrid(LeftOf, grid.NewBinary(3), grid.NewBinary(4), 0)
}
