// Package grid implements the g×g activation-map machinery at the heart of
// the paper's CLF filters: real-valued class activation maps, thresholding
// into binary occupancy maps, the downscaling of detector bounding boxes
// onto the grid that produces training labels ("the location map is
// produced by down-scaling the locations of the Mask R-CNN bounding boxes
// in the image to size 56×56"), and the Manhattan-distance-tolerant
// matching used to score CLF-1 and CLF-2 variants.
//
// A binary map stores one uint64 word per row (bit j is column j), so
// g is at most MaxG and every map operation is a handful of word
// operations per row.
package grid

import (
	"fmt"
	"math/bits"

	"vmq/internal/geom"
)

// MaxG is the largest grid size a Binary holds: one 64-bit word per row.
const MaxG = 64

// Map is a real-valued g×g activation map (row-major).
type Map struct {
	G     int
	Cells []float32
}

// NewMap allocates a zero g×g map.
func NewMap(g int) *Map {
	if g <= 0 {
		panic(fmt.Sprintf("grid: non-positive size %d", g))
	}
	return &Map{G: g, Cells: make([]float32, g*g)}
}

// At returns the activation at row i, column j.
func (m *Map) At(i, j int) float32 { return m.Cells[i*m.G+j] }

// Set stores v at row i, column j.
func (m *Map) Set(v float32, i, j int) { m.Cells[i*m.G+j] = v }

// Threshold converts m into a binary occupancy map: cell (i,j) is occupied
// iff m(i,j) >= t. The paper uses t = 0.2 for OD filters.
func (m *Map) Threshold(t float32) *Binary {
	b := NewBinary(m.G)
	for i := range b.rows {
		var w uint64
		for j, v := range m.Cells[i*m.G : (i+1)*m.G] {
			if v >= t {
				w |= 1 << j
			}
		}
		b.rows[i] = w
	}
	return b
}

// Binary is a boolean g×g occupancy map, g ≤ MaxG, stored as one word
// per row: cell (i, j) is bit j of row i.
type Binary struct {
	G    int
	rows []uint64
}

// NewBinary allocates an empty g×g binary map. It panics unless
// 0 < g ≤ MaxG.
func NewBinary(g int) *Binary {
	checkSize(g)
	return &Binary{G: g, rows: make([]uint64, g)}
}

func checkSize(g int) {
	if g <= 0 || g > MaxG {
		panic(fmt.Sprintf("grid: size %d outside 1..%d", g, MaxG))
	}
}

var (
	zeroRows [MaxG]uint64
	empties  = func() (e [MaxG + 1]Binary) {
		for g := 1; g <= MaxG; g++ {
			e[g] = Binary{G: g, rows: zeroRows[:g:g]}
		}
		return e
	}()
)

// EmptyBinary returns a shared empty g×g map without allocating. It is
// read-only: callers must not Set cells in it.
func EmptyBinary(g int) *Binary {
	checkSize(g)
	return &empties[g]
}

// At reports occupancy at row i, column j.
func (b *Binary) At(i, j int) bool { return b.rows[i]>>uint(j)&1 != 0 }

// Set stores occupancy at row i, column j.
func (b *Binary) Set(v bool, i, j int) {
	if uint(j) >= uint(b.G) {
		panic(fmt.Sprintf("grid: column %d outside a %d-wide map", j, b.G))
	}
	if v {
		b.rows[i] |= 1 << uint(j)
	} else {
		b.rows[i] &^= 1 << uint(j)
	}
}

// CountOn returns the number of occupied cells.
func (b *Binary) CountOn() int {
	n := 0
	for _, w := range b.rows {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no cell is occupied.
func (b *Binary) Empty() bool {
	for _, w := range b.rows {
		if w != 0 {
			return false
		}
	}
	return true
}

// Extent returns the smallest and largest occupied row and column; ok is
// false for an empty map.
func (b *Binary) Extent() (minRow, maxRow, minCol, maxCol int, ok bool) {
	var cols uint64
	minRow = -1
	for i, w := range b.rows {
		if w == 0 {
			continue
		}
		if minRow < 0 {
			minRow = i
		}
		maxRow = i
		cols |= w
	}
	if minRow < 0 {
		return 0, 0, 0, 0, false
	}
	return minRow, maxRow, bits.TrailingZeros64(cols), bits.Len64(cols) - 1, true
}

// DilatedRow returns row i of b grown by Manhattan radius r (r ≤ 0 is no
// growth): a cell is set iff some occupied cell of b lies within L1
// distance r of it. It reads rows i−r..i+r and builds no map.
func (b *Binary) DilatedRow(i, r int) uint64 {
	if r <= 0 {
		return b.rows[i]
	}
	var w uint64
	for k := max(i-r, 0); k <= min(i+r, b.G-1); k++ {
		w |= spread(b.rows[k], r-abs(i-k))
	}
	return w & (^uint64(0) >> uint(MaxG-b.G))
}

// spread grows every set bit of w by up to k columns either way; the
// caller masks off columns past the grid.
func spread(w uint64, k int) uint64 {
	out := w
	for s := 1; s <= k && s < MaxG; s++ {
		out |= w<<uint(s) | w>>uint(s)
	}
	return out
}

// Dilate writes b grown by Manhattan radius r into dst and returns dst: a
// cell is occupied in the result iff some occupied cell of b lies within
// L1 distance r. dst must have b's size and may be b itself; it is
// typically a scratch map the caller keeps.
func (b *Binary) Dilate(dst *Binary, r int) *Binary {
	if dst.G != b.G {
		panic("grid: Dilate size mismatch")
	}
	var tmp [MaxG]uint64
	for i := range b.rows {
		tmp[i] = b.DilatedRow(i, r)
	}
	copy(dst.rows, tmp[:b.G])
	return dst
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// CellRect returns the frame-coordinate rectangle covered by grid cell
// (row i, col j) for a frame with the given bounds.
func CellRect(bounds geom.Rect, g, i, j int) geom.Rect {
	cw := bounds.W() / float64(g)
	ch := bounds.H() / float64(g)
	return geom.Rect{
		X0: bounds.X0 + float64(j)*cw,
		Y0: bounds.Y0 + float64(i)*ch,
		X1: bounds.X0 + float64(j+1)*cw,
		Y1: bounds.Y0 + float64(i+1)*ch,
	}
}

// CellCenter returns the frame-coordinate centre of grid cell (i, j). Its
// X depends on j alone and its Y on i alone.
func CellCenter(bounds geom.Rect, g, i, j int) geom.Point {
	return CellRect(bounds, g, i, j).Center()
}

// CellOf returns the grid cell (row, col) containing point p, clamped to
// the grid.
func CellOf(bounds geom.Rect, g int, p geom.Point) (i, j int) {
	j = int((p.X - bounds.X0) / bounds.W() * float64(g))
	i = int((p.Y - bounds.Y0) / bounds.H() * float64(g))
	if i < 0 {
		i = 0
	}
	if i >= g {
		i = g - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= g {
		j = g - 1
	}
	return i, j
}

// FromBoxes downscales bounding boxes onto a g×g binary map: every cell
// whose area intersects a box by at least minCover of the cell is marked
// occupied. With minCover = 0 any positive overlap marks the cell, which
// is the labelling the paper uses for ground-truth location maps.
func FromBoxes(boxes []geom.Rect, bounds geom.Rect, g int, minCover float64) *Binary {
	b := NewBinary(g)
	cellArea := (bounds.W() / float64(g)) * (bounds.H() / float64(g))
	for _, box := range boxes {
		box = box.Clip(bounds)
		if box.Empty() {
			continue
		}
		i0, j0 := CellOf(bounds, g, geom.Point{X: box.X0, Y: box.Y0})
		i1, j1 := CellOf(bounds, g, geom.Point{X: box.X1 - 1e-9, Y: box.Y1 - 1e-9})
		for i := i0; i <= i1; i++ {
			if minCover <= 0 {
				if j1 >= j0 {
					b.rows[i] |= (^uint64(0) >> uint(MaxG-1-(j1-j0))) << uint(j0)
				}
				continue
			}
			for j := j0; j <= j1; j++ {
				cover := CellRect(bounds, g, i, j).Intersect(box).Area() / cellArea
				if cover >= minCover {
					b.Set(true, i, j)
				}
			}
		}
	}
	return b
}

// FromCenters marks only the cell containing each box centre. CLF
// predictions conceptually localise object centres; centre maps give a
// sparser representation used when evaluating spatial constraints.
func FromCenters(boxes []geom.Rect, bounds geom.Rect, g int) *Binary {
	b := NewBinary(g)
	for _, box := range boxes {
		c := box.Center()
		if !bounds.Contains(c) {
			continue
		}
		i, j := CellOf(bounds, g, c)
		b.Set(true, i, j)
	}
	return b
}

// Match scores a predicted occupancy map against ground truth with
// Manhattan tolerance radius r, returning true positives (predicted cells
// with a truth cell within distance r), false positives (predicted cells
// with none) and false negatives (truth cells with no predicted cell
// within distance r). Radius 0 is exact-cell matching; radii 1 and 2
// correspond to the paper's CLF-1 and CLF-2 scoring.
func Match(pred, truth *Binary, r int) (tp, fp, fn int) {
	if pred.G != truth.G {
		panic("grid: Match size mismatch")
	}
	for i, p := range pred.rows {
		near := truth.DilatedRow(i, r)
		tp += bits.OnesCount64(p & near)
		fp += bits.OnesCount64(p &^ near)
		fn += bits.OnesCount64(truth.rows[i] &^ pred.DilatedRow(i, r))
	}
	return tp, fp, fn
}
