package query

import (
	"math"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/geom"
	"vmq/internal/spatial"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// Tolerances selects the filter variants of a cascade: Count 0/1/2 maps to
// the paper's exact, CCF-1 and CCF-2 filters; Location 0/1/2 to CLF,
// CLF-1 and CLF-2.
type Tolerances struct {
	Count    int
	Location int
}

// DefaultTolerances is the cascade a query runs when its caller picks
// none: CCF-1 with CLF-1, a robust general-purpose combination. The
// server's registrations and vmq.Session both start from it, so a served
// query and its standalone reference agree.
var DefaultTolerances = Tolerances{Count: 1, Location: 1}

// String renders the tolerance pair in the paper's naming convention.
func (t Tolerances) String() string {
	name := "CCF"
	if t.Count > 0 {
		name += "-" + string(rune('0'+t.Count))
	}
	loc := "CLF"
	if t.Location > 0 {
		loc += "-" + string(rune('0'+t.Location))
	}
	return name + "/" + loc
}

// BoundExpr is a predicate bound to concrete classes and regions. It
// evaluates exactly over detections (the final confirmation path) and
// approximately over filter output (the cascade path). Filter evaluation
// is deliberately permissive under tolerance: it may pass frames that will
// fail confirmation (false positives cost detector time) but aims not to
// drop true frames (false negatives cost accuracy).
type BoundExpr interface {
	EvalExact(dets []detect.Detection, bounds geom.Rect) bool
	EvalFilter(out *filters.Output, bounds geom.Rect, tol Tolerances) bool
}

func parseRel(name string) (spatial.Relation, bool) {
	return spatial.ParseRelation(name)
}

type boundAnd struct{ l, r BoundExpr }

func (b *boundAnd) EvalExact(dets []detect.Detection, bounds geom.Rect) bool {
	return b.l.EvalExact(dets, bounds) && b.r.EvalExact(dets, bounds)
}

func (b *boundAnd) EvalFilter(out *filters.Output, bounds geom.Rect, tol Tolerances) bool {
	return b.l.EvalFilter(out, bounds, tol) && b.r.EvalFilter(out, bounds, tol)
}

type boundOr struct{ l, r BoundExpr }

func (b *boundOr) EvalExact(dets []detect.Detection, bounds geom.Rect) bool {
	return b.l.EvalExact(dets, bounds) || b.r.EvalExact(dets, bounds)
}

func (b *boundOr) EvalFilter(out *filters.Output, bounds geom.Rect, tol Tolerances) bool {
	return b.l.EvalFilter(out, bounds, tol) || b.r.EvalFilter(out, bounds, tol)
}

type boundNot struct{ e BoundExpr }

func (b *boundNot) EvalExact(dets []detect.Detection, bounds geom.Rect) bool {
	return !b.e.EvalExact(dets, bounds)
}

// EvalFilter for NOT never prunes: the inner filter's "maybe true" cannot
// be soundly negated without risking false negatives, so negated subtrees
// are deferred entirely to the confirmation detector.
func (b *boundNot) EvalFilter(out *filters.Output, bounds geom.Rect, tol Tolerances) bool {
	return true
}

type boundCount struct {
	all   bool
	class video.Class
	color video.Color
	op    vql.CmpOp
	value int
}

func (b *boundCount) EvalExact(dets []detect.Detection, bounds geom.Rect) bool {
	var n int
	if b.all {
		n = len(dets)
	} else {
		n = detect.CountClassColor(dets, b.class, b.color)
	}
	return b.op.Eval(n, b.value)
}

func (b *boundCount) EvalFilter(out *filters.Output, bounds geom.Rect, tol Tolerances) bool {
	var est float64
	if b.all {
		est = out.Total
	} else {
		// Filters do not see colour, so a colour-constrained count is
		// upper-bounded by the class count estimate.
		est = out.Counts[b.class]
	}
	return cmpWithTolerance(b.op, int(math.Round(est)), b.value, tol.Count, !b.all && b.color != video.AnyColor)
}

// cmpWithTolerance relaxes the comparison by the count tolerance so the
// filter does not drop frames over a ±tol estimation error. When the
// predicate constrains colour (which filters cannot see) the estimate only
// upper-bounds the truth, so lower-side comparisons must not prune.
func cmpWithTolerance(op vql.CmpOp, est, value, tol int, colorBounded bool) bool {
	switch op {
	case vql.CmpEQ:
		if colorBounded {
			// The colour-specific truth lies anywhere in [0, est+tol].
			return est+tol >= value
		}
		return abs(est-value) <= tol
	case vql.CmpNEQ:
		if tol > 0 || colorBounded {
			return true
		}
		return est != value
	case vql.CmpLT:
		if colorBounded {
			return true // the colour subset can always be smaller
		}
		return est-tol < value
	case vql.CmpLE:
		if colorBounded {
			return true
		}
		return est-tol <= value
	case vql.CmpGT:
		return est+tol > value
	case vql.CmpGE:
		return est+tol >= value
	default:
		return true
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

type boundSpatial struct {
	aClass video.Class
	aColor video.Color
	bClass video.Class
	bColor video.Color
	rel    spatial.Relation
}

func (b *boundSpatial) EvalExact(dets []detect.Detection, bounds geom.Rect) bool {
	for i, da := range dets {
		if da.Class != b.aClass || (b.aColor != video.AnyColor && da.Color != b.aColor) {
			continue
		}
		for j, db := range dets {
			if i == j {
				continue
			}
			if db.Class != b.bClass || (b.bColor != video.AnyColor && db.Color != b.bColor) {
				continue
			}
			if spatial.Holds(b.rel, da.Box, db.Box) {
				return true
			}
		}
	}
	return false
}

func (b *boundSpatial) EvalFilter(out *filters.Output, bounds geom.Rect, tol Tolerances) bool {
	g := gridSize(out)
	ma := out.Map(b.aClass, g)
	mb := out.Map(b.bClass, g)
	// Cross-check against the count head: when the CCF estimate says a
	// class is present but its CLF map localised nothing, the filter has
	// contradictory evidence and must not prune (Section II applies
	// "multiple filters ... on a single frame"; combining their outputs is
	// what keeps false negatives rare).
	if ma.Empty() && math.Round(out.Counts[b.aClass]) >= 1 {
		return true
	}
	if mb.Empty() && math.Round(out.Counts[b.bClass]) >= 1 {
		return true
	}
	return spatial.HoldsOnGrid(b.rel, ma, mb, tol.Location)
}

type boundRegionPred struct {
	class  video.Class
	color  video.Color
	region *BoundRegion
	op     vql.CmpOp
	value  int
	negate bool
}

func (b *boundRegionPred) EvalExact(dets []detect.Detection, bounds geom.Rect) bool {
	region := b.region.Resolve(bounds)
	n := 0
	for _, d := range dets {
		if d.Class != b.class || (b.color != video.AnyColor && d.Color != b.color) {
			continue
		}
		if spatial.InRegion(d.Box, region) {
			n++
		}
	}
	ok := b.op.Eval(n, b.value)
	if b.negate {
		return !ok
	}
	return ok
}

func (b *boundRegionPred) EvalFilter(out *filters.Output, bounds geom.Rect, tol Tolerances) bool {
	if b.negate {
		// As with NOT, negated region constraints defer to confirmation.
		return true
	}
	g := gridSize(out)
	m := out.Map(b.class, g)
	// As in the spatial case, an empty map contradicted by a positive
	// count estimate means the objects went unlocalised: defer to the
	// confirmation detector.
	if m.Empty() && math.Round(out.Counts[b.class]) >= 1 {
		return true
	}
	n := spatial.CountInRegionGrid(m, bounds, b.region.Resolve(bounds), tol.Location)
	if tol.Location > 0 {
		// Dilation inflates per-object cell counts, so only existence-style
		// lower bounds remain meaningful; everything else defers.
		switch b.op {
		case vql.CmpGT, vql.CmpGE:
			return n > 0 || b.value <= tol.Count
		default:
			return true
		}
	}
	// Cell counts are CLF output, not CCF output: the count tolerance
	// (the paper's CCF-1/CCF-2 variants) does not apply to them.
	return cmpWithTolerance(b.op, n, b.value, 0, b.color != video.AnyColor)
}

func gridSize(out *filters.Output) int {
	for _, m := range out.Maps {
		if m != nil {
			return m.G
		}
	}
	return 56
}

// RegionCount returns the exact number of detections of (class, colour)
// inside the region — the AVG aggregation target.
func (a *BoundAgg) RegionCount(dets []detect.Detection, bounds geom.Rect) int {
	n := 0
	var region geom.Rect
	hasRegion := a.Region != nil
	if hasRegion {
		region = a.Region.Resolve(bounds)
	}
	for _, d := range dets {
		if d.Class != a.Class || (a.Color != video.AnyColor && d.Color != a.Color) {
			continue
		}
		if !hasRegion || spatial.InRegion(d.Box, region) {
			n++
		}
	}
	return n
}

// FilterRegionCount returns the filter-side estimate of the aggregation
// target: the class-count estimate for whole-frame targets, or the number
// of active map cells inside the region otherwise.
func (a *BoundAgg) FilterRegionCount(out *filters.Output, bounds geom.Rect) float64 {
	if a.Region == nil {
		return out.Counts[a.Class]
	}
	g := gridSize(out)
	m := out.Map(a.Class, g)
	return float64(spatial.CountInRegionGrid(m, bounds, a.Region.Resolve(bounds), 0))
}
