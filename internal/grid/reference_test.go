package grid_test

import (
	"math/rand/v2"
	"testing"

	"vmq/internal/geom"
	"vmq/internal/grid"
	"vmq/internal/spatial"
)

// refMap is the one-bool-per-cell occupancy map the packed Binary
// replaced. The functions over it below are the cell-by-cell algorithms
// the packed word operations must reproduce exactly.
type refMap struct {
	g     int
	cells []bool
}

func (m refMap) at(i, j int) bool { return m.cells[i*m.g+j] }

func toRef(b *grid.Binary) refMap {
	m := refMap{g: b.G, cells: make([]bool, b.G*b.G)}
	for i := 0; i < b.G; i++ {
		for j := 0; j < b.G; j++ {
			m.cells[i*b.G+j] = b.At(i, j)
		}
	}
	return m
}

func refDilate(m refMap, r int) refMap {
	if r <= 0 {
		return m
	}
	out := refMap{g: m.g, cells: make([]bool, m.g*m.g)}
	for i := 0; i < m.g; i++ {
		for j := 0; j < m.g; j++ {
			if !m.at(i, j) {
				continue
			}
			for di := -r; di <= r; di++ {
				rem := r - max(di, -di)
				for dj := -rem; dj <= rem; dj++ {
					ni, nj := i+di, j+dj
					if ni >= 0 && ni < m.g && nj >= 0 && nj < m.g {
						out.cells[ni*m.g+nj] = true
					}
				}
			}
		}
	}
	return out
}

func refMatch(pred, truth, predD, truthD refMap) (tp, fp, fn int) {
	for i := range pred.cells {
		if pred.cells[i] {
			if truthD.cells[i] {
				tp++
			} else {
				fp++
			}
		}
		if truth.cells[i] && !predD.cells[i] {
			fn++
		}
	}
	return tp, fp, fn
}

// refHolds tests every pair of occupied columns (LeftOf, RightOf) or
// rows (Above, Below) of the dilated maps aD and bD.
func refHolds(rel spatial.Relation, aD, bD refMap) bool {
	lines := func(m refMap, byRow bool) []bool {
		on := make([]bool, m.g)
		for k, v := range m.cells {
			if v && byRow {
				on[k/m.g] = true
			} else if v {
				on[k%m.g] = true
			}
		}
		return on
	}
	byRow := rel == spatial.Above || rel == spatial.Below
	la, lb := lines(aD, byRow), lines(bD, byRow)
	for x, ona := range la {
		for y, onb := range lb {
			if ona && onb && (x < y && (rel == spatial.LeftOf || rel == spatial.Above) ||
				x > y && (rel == spatial.RightOf || rel == spatial.Below)) {
				return true
			}
		}
	}
	return false
}

// refCountInRegion counts the cells of the dilated map mD whose centres
// lie in region.
func refCountInRegion(mD refMap, bounds, region geom.Rect) int {
	n := 0
	for i := 0; i < mD.g; i++ {
		for j := 0; j < mD.g; j++ {
			if mD.at(i, j) && region.Contains(grid.CellCenter(bounds, mD.g, i, j)) {
				n++
			}
		}
	}
	return n
}

// checkAgainstReference holds every packed operation on a and b (both of
// size g) against the reference at radius r.
func checkAgainstReference(t *testing.T, a, b *grid.Binary, r int, bounds geom.Rect, regions []geom.Rect) {
	t.Helper()
	ra, rb := toRef(a), toRef(b)
	want, wantB := refDilate(ra, r), refDilate(rb, r)
	got := a.Dilate(grid.NewBinary(a.G), r)
	if g := toRef(got); !equalCells(g, want) {
		t.Fatalf("g=%d r=%d: Dilate differs from the reference", a.G, r)
	}
	on := 0
	for i := 0; i < a.G; i++ {
		for j := 0; j < a.G; j++ {
			if (a.DilatedRow(i, r)>>uint(j)&1 != 0) != want.at(i, j) {
				t.Fatalf("g=%d r=%d: DilatedRow(%d) bit %d differs", a.G, r, i, j)
			}
			if ra.at(i, j) {
				on++
			}
		}
	}
	if a.CountOn() != on || a.Empty() != (on == 0) {
		t.Fatalf("g=%d: CountOn %d, Empty %v; reference has %d cells", a.G, a.CountOn(), a.Empty(), on)
	}
	tp, fp, fn := grid.Match(a, b, r)
	if wtp, wfp, wfn := refMatch(ra, rb, want, wantB); tp != wtp || fp != wfp || fn != wfn {
		t.Fatalf("g=%d r=%d: Match %d/%d/%d, reference %d/%d/%d", a.G, r, tp, fp, fn, wtp, wfp, wfn)
	}
	for rel := spatial.LeftOf; rel <= spatial.Below; rel++ {
		if got, want := spatial.HoldsOnGrid(rel, a, b, r), refHolds(rel, want, wantB); got != want {
			t.Fatalf("g=%d r=%d: HoldsOnGrid(%v) = %v, reference %v", a.G, r, rel, got, want)
		}
	}
	for _, region := range regions {
		if got, want := spatial.CountInRegionGrid(a, bounds, region, r), refCountInRegion(want, bounds, region); got != want {
			t.Fatalf("g=%d r=%d: CountInRegionGrid(%v) = %d, reference %d", a.G, r, region, got, want)
		}
	}
}

func equalCells(a, b refMap) bool {
	for i := range a.cells {
		if a.cells[i] != b.cells[i] {
			return false
		}
	}
	return a.g == b.g
}

func fill(g int, on func(i, j int) bool) *grid.Binary {
	b := grid.NewBinary(g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			b.Set(on(i, j), i, j)
		}
	}
	return b
}

var testBounds = geom.Rect{X0: 0, Y0: 0, X1: 448, Y1: 448}

func testRegions() []geom.Rect {
	rs := []geom.Rect{
		testBounds,
		{X0: 100, Y0: 50, X1: 300, Y1: 120},    // a strip inside the frame
		{X0: -40, Y0: 400, X1: 20, Y1: 600},    // reaching past a corner
		{X0: 200, Y0: 200, X1: 200, Y1: 300},   // zero width
		{X0: 224, Y0: 224, X1: 224.5, Y1: 230}, // narrower than a cell
	}
	for q := geom.UpperLeft; q <= geom.LowerRight; q++ {
		rs = append(rs, geom.QuadrantRect(testBounds, q))
	}
	return rs
}

// The packed maps answer every spatial operation exactly as the
// cell-by-cell reference does: Dilate, Match, the four relations and the
// region count, at radius 0–3, on empty, full and random maps, at every
// grid size the repository uses and at the 64-column limit.
func TestPackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 43))
	regions := testRegions()
	for _, g := range []int{8, 12, 14, 28, 56, 64} {
		maps := []*grid.Binary{
			grid.NewBinary(g),
			fill(g, func(i, j int) bool { return true }),
			fill(g, func(i, j int) bool { return i == g-1 && j == 0 }),
			fill(g, func(i, j int) bool { return j == g-1 }),
		}
		for _, p := range []float64{0.003, 0.02, 0.1, 0.5} {
			for k := 0; k < 3; k++ {
				maps = append(maps, fill(g, func(i, j int) bool { return rng.Float64() < p }))
			}
		}
		for ia, a := range maps {
			for _, b := range []*grid.Binary{maps[(ia+1)%len(maps)], maps[(ia+5)%len(maps)], grid.EmptyBinary(g)} {
				for r := 0; r <= 3; r++ {
					checkAgainstReference(t, a, b, r, testBounds, regions)
				}
			}
		}
	}
}

// FromBoxes builds its rows with word masks; the reference marks cells
// one by one.
func TestFromBoxesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, g := range []int{8, 12, 56, 64} {
		for trial := 0; trial < 50; trial++ {
			var boxes []geom.Rect
			for k := rng.IntN(6); k > 0; k-- {
				c := geom.Point{X: rng.Float64()*600 - 80, Y: rng.Float64()*600 - 80}
				boxes = append(boxes, geom.RectFromCenter(c, rng.Float64()*200, rng.Float64()*120))
			}
			got := grid.FromBoxes(boxes, testBounds, g, 0)
			want := grid.NewBinary(g)
			for _, box := range boxes {
				box = box.Clip(testBounds)
				if box.Empty() {
					continue
				}
				for i := 0; i < g; i++ {
					for j := 0; j < g; j++ {
						if grid.CellRect(testBounds, g, i, j).Intersect(box).Area() > 0 {
							want.Set(true, i, j)
						}
					}
				}
			}
			if !equalCells(toRef(got), toRef(want)) {
				t.Fatalf("g=%d boxes %v: FromBoxes differs from the per-cell overlap test", g, boxes)
			}
		}
	}
}

// FuzzBinaryMatchesReference holds the packed operations against the
// reference on arbitrary maps: a and b give the cells of the two maps
// bit by bit in row-major order (missing bytes are empty cells).
func FuzzBinaryMatchesReference(f *testing.F) {
	full := make([]byte, 512)
	for i := range full {
		full[i] = 0xff
	}
	f.Add(uint8(55), uint8(1), []byte{0x01, 0x80, 0x10}, []byte{0, 0, 0, 0x04}, 0.0, 224.0, 224.0, 448.0)
	f.Add(uint8(63), uint8(3), full, []byte{}, 100.0, 50.0, 300.0, 120.0)
	f.Add(uint8(7), uint8(2), []byte{0xaa, 0x55}, full, -10.0, -10.0, 500.0, 500.0)
	f.Add(uint8(13), uint8(0), []byte{0x00, 0x00, 0x02}, []byte{0x40}, 224.0, 0.0, 224.0, 448.0)
	f.Fuzz(func(t *testing.T, gb, rb uint8, a, b []byte, x0, y0, x1, y1 float64) {
		g := 1 + int(gb)%grid.MaxG
		fromBytes := func(data []byte) *grid.Binary {
			return fill(g, func(i, j int) bool {
				k := i*g + j
				return k/8 < len(data) && data[k/8]>>(k%8)&1 != 0
			})
		}
		regions := []geom.Rect{{X0: x0, Y0: y0, X1: x1, Y1: y1}, testBounds}
		checkAgainstReference(t, fromBytes(a), fromBytes(b), int(rb)%4, testBounds, regions)
	})
}
