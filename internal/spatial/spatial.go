// Package spatial implements the spatial predicate algebra the paper's
// queries use: directional relations between objects (left, right, above,
// below — the ORDER(a,b)=RIGHT constraints of the example queries), region
// containment (objects inside screen areas such as quadrants or a bike
// lane) and the MBR topological relations of Papadias et al., which the
// paper cites as the applicable categorisation from spatial databases.
//
// Every relation is evaluated both over exact bounding boxes (the final
// Mask R-CNN confirmation path) and over thresholded activation-map grids
// (the CLF filter path).
package spatial

import (
	"fmt"
	"math/bits"

	"vmq/internal/geom"
	"vmq/internal/grid"
)

// Relation is a directional constraint between two objects. The convention
// follows the paper's example: "car left of truck" holds when the car's
// centre lies strictly left of the truck's centre.
type Relation int

// Directional relations.
const (
	LeftOf Relation = iota
	RightOf
	Above
	Below
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case LeftOf:
		return "left-of"
	case RightOf:
		return "right-of"
	case Above:
		return "above"
	case Below:
		return "below"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// ParseRelation maps a relation name (or the paper's ORDER keyword values
// LEFT/RIGHT/ABOVE/BELOW) to its Relation.
func ParseRelation(s string) (Relation, bool) {
	switch s {
	case "left-of", "LEFT", "left":
		return LeftOf, true
	case "right-of", "RIGHT", "right":
		return RightOf, true
	case "above", "ABOVE":
		return Above, true
	case "below", "BELOW":
		return Below, true
	}
	return 0, false
}

// Inverse returns the relation with operands swapped: a R b iff b R⁻¹ a.
func (r Relation) Inverse() Relation {
	switch r {
	case LeftOf:
		return RightOf
	case RightOf:
		return LeftOf
	case Above:
		return Below
	default:
		return Above
	}
}

// Holds reports whether a r b using box centres.
func Holds(r Relation, a, b geom.Rect) bool {
	ca, cb := a.Center(), b.Center()
	switch r {
	case LeftOf:
		return ca.X < cb.X
	case RightOf:
		return ca.X > cb.X
	case Above:
		return ca.Y < cb.Y
	case Below:
		return ca.Y > cb.Y
	default:
		return false
	}
}

// AnyPairHolds reports whether some box in as stands in relation r to some
// box in bs. When as and bs may contain the same physical object the caller
// is responsible for excluding identity pairs.
func AnyPairHolds(r Relation, as, bs []geom.Rect) bool {
	for _, a := range as {
		for _, b := range bs {
			if Holds(r, a, b) {
				return true
			}
		}
	}
	return false
}

// InRegion reports whether the object's centre lies inside the region —
// the containment semantics used for quadrant and bike-lane constraints.
func InRegion(obj, region geom.Rect) bool {
	return region.Contains(obj.Center())
}

// CountInRegion returns how many boxes have centres inside region.
func CountInRegion(boxes []geom.Rect, region geom.Rect) int {
	n := 0
	for _, b := range boxes {
		if InRegion(b, region) {
			n++
		}
	}
	return n
}

// HoldsOnGrid reports whether some occupied cell of a stands in relation r
// to some occupied cell of b, using cell centres, after both maps are
// dilated by Manhattan radius radius (0 is the exact maps; the CLF-1 and
// CLF-2 variants pass 1 and 2) — the CLF-filter evaluation of spatial
// constraints ("spatial constraints between objects can be evaluated in a
// straightforward manner manipulating the thresholded activation maps").
//
// Over existing pairs the relation reduces to the maps' extremes: LeftOf
// holds iff a's smallest occupied column is left of b's largest, and so
// on. Dilation moves each extreme of a non-empty map by exactly radius,
// clamped to [0, g−1] (a cell radius columns beyond the extreme cell, or
// the border cell of its row, is within the radius; no cell further out
// is), and leaves an empty map empty. So the dilated extremes come from
// the row words of the undilated maps, and no dilated map is built.
func HoldsOnGrid(r Relation, a, b *grid.Binary, radius int) bool {
	if a.G != b.G {
		panic("spatial: grid size mismatch")
	}
	aMinR, aMaxR, aMinC, aMaxC, aAny := a.Extent()
	bMinR, bMaxR, bMinC, bMaxC, bAny := b.Extent()
	if !aAny || !bAny {
		return false
	}
	radius = max(radius, 0)
	lo := func(v int) int { return max(v-radius, 0) }
	hi := func(v int) int { return min(v+radius, a.G-1) }
	switch r {
	case LeftOf:
		return lo(aMinC) < hi(bMaxC)
	case RightOf:
		return hi(aMaxC) > lo(bMinC)
	case Above:
		return lo(aMinR) < hi(bMaxR)
	case Below:
		return hi(aMaxR) > lo(bMinR)
	default:
		return false
	}
}

// CountInRegionGrid returns the number of cells of b, dilated by
// Manhattan radius radius (0 is b itself), whose centres lie inside
// region, for a grid over the given frame bounds.
//
// A cell centre's X depends only on its column and its Y only on its row
// (grid.CellCenter), and Rect.Contains is an X test and a Y test. So the
// region's cells are the columns of one mask crossed with the rows of
// another; each mask tests its cell centres with Contains, holding the
// other coordinate at the region's corner, and the count is one AND and
// popcount per region row.
func CountInRegionGrid(b *grid.Binary, bounds, region geom.Rect, radius int) int {
	var cols uint64
	for j := 0; j < b.G; j++ {
		c := grid.CellCenter(bounds, b.G, 0, j)
		if region.Contains(geom.Point{X: c.X, Y: region.Y0}) {
			cols |= 1 << uint(j)
		}
	}
	if cols == 0 {
		return 0
	}
	n := 0
	for i := 0; i < b.G; i++ {
		c := grid.CellCenter(bounds, b.G, i, 0)
		if region.Contains(geom.Point{X: region.X0, Y: c.Y}) {
			n += bits.OnesCount64(b.DilatedRow(i, radius) & cols)
		}
	}
	return n
}

// Topology is an MBR topological relation in the categorisation of
// Papadias, Sellis, Theodoridis and Egenhofer (SIGMOD '95), which the
// paper cites as readily applicable to constraints between objects and
// screen areas.
type Topology int

// Topological relations between two MBRs.
const (
	Disjoint Topology = iota
	Meet              // boundaries touch, interiors disjoint
	Overlap           // interiors intersect, neither contains the other
	Equal
	Contains // a strictly contains b
	Inside   // a strictly inside b
	Covers   // a contains b with shared boundary
	CoveredBy
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Disjoint:
		return "disjoint"
	case Meet:
		return "meet"
	case Overlap:
		return "overlap"
	case Equal:
		return "equal"
	case Contains:
		return "contains"
	case Inside:
		return "inside"
	case Covers:
		return "covers"
	case CoveredBy:
		return "covered-by"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Topological classifies the relation of a to b.
func Topological(a, b geom.Rect) Topology {
	if a == b {
		return Equal
	}
	inter := a.Intersect(b)
	if inter.Empty() {
		// Distinguish meet (touching edges) from disjoint.
		if touching(a, b) {
			return Meet
		}
		return Disjoint
	}
	aInB := b.ContainsRect(a)
	bInA := a.ContainsRect(b)
	switch {
	case bInA && strictlyInside(b, a):
		return Contains
	case bInA:
		return Covers
	case aInB && strictlyInside(a, b):
		return Inside
	case aInB:
		return CoveredBy
	default:
		return Overlap
	}
}

func strictlyInside(inner, outer geom.Rect) bool {
	return inner.X0 > outer.X0 && inner.Y0 > outer.Y0 &&
		inner.X1 < outer.X1 && inner.Y1 < outer.Y1
}

func touching(a, b geom.Rect) bool {
	xTouch := a.X1 == b.X0 || b.X1 == a.X0
	yTouch := a.Y1 == b.Y0 || b.Y1 == a.Y0
	xOverlap := a.X0 <= b.X1 && b.X0 <= a.X1
	yOverlap := a.Y0 <= b.Y1 && b.Y0 <= a.Y1
	return (xTouch && yOverlap) || (yTouch && xOverlap)
}
