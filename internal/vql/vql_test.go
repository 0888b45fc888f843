package vql

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, q string) *Query {
	t.Helper()
	got, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return got
}

func TestParseMonitoringQuery(t *testing.T) {
	q := mustParse(t, `SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`)
	if q.Select.Kind != SelectFrames {
		t.Fatalf("Select = %v", q.Select)
	}
	if q.Source != "jackson" {
		t.Fatalf("Source = %q", q.Source)
	}
	and, ok := q.Where.(*AndExpr)
	if !ok {
		t.Fatalf("Where = %T", q.Where)
	}
	sp, ok := and.R.(*SpatialPred)
	if !ok || sp.Rel != "left-of" || sp.A.Class != "car" || sp.B.Class != "person" {
		t.Fatalf("spatial pred = %+v", and.R)
	}
	inner, ok := and.L.(*AndExpr)
	if !ok {
		t.Fatalf("left = %T", and.L)
	}
	cp := inner.L.(*CountPred)
	if cp.Target.Class != "car" || cp.Op != CmpEQ || cp.Value != 1 {
		t.Fatalf("count pred = %+v", cp)
	}
}

func TestParseAggregateQuery(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(FRAMES) FROM jackson
		WHERE car[blue] LEFT OF stop-sign
		WINDOW HOPPING (SIZE 5000, ADVANCE BY 5000)`)
	if q.Select.Kind != SelectFrameCount {
		t.Fatalf("Select = %v", q.Select)
	}
	if q.Window == nil || q.Window.Size != 5000 || q.Window.Advance != 5000 {
		t.Fatalf("Window = %+v", q.Window)
	}
	sp := q.Where.(*SpatialPred)
	if sp.A.Class != "car" || sp.A.Color != "blue" || sp.B.Class != "stop-sign" {
		t.Fatalf("spatial = %+v", sp)
	}
}

func TestParseAvgQuery(t *testing.T) {
	q := mustParse(t, `SELECT AVG(COUNT(bicycle IN RECT(0, 300, 150, 448))) FROM jackson`)
	if q.Select.Kind != SelectAvg {
		t.Fatalf("Select = %v", q.Select)
	}
	if q.Select.Agg.Target.Class != "bicycle" || q.Select.Agg.Region == nil {
		t.Fatalf("Agg = %+v", q.Select.Agg)
	}
	if q.Where != nil {
		t.Fatal("unexpected Where")
	}
}

func TestParseQuadrantsAndRegions(t *testing.T) {
	q := mustParse(t, `SELECT FRAMES FROM coral
		WHERE COUNT(person IN QUADRANT(LOWER LEFT)) >= 2 AND COUNT(person) = 3`)
	rp := q.Where.(*AndExpr).L.(*RegionPred)
	if !rp.Count || rp.Region.Quadrant != "lower-left" || rp.Op != CmpGE || rp.Value != 2 {
		t.Fatalf("region pred = %+v", rp)
	}
	q2 := mustParse(t, `SELECT FRAMES FROM jackson WHERE car IN QUADRANT(LOWER RIGHT)`)
	rp2 := q2.Where.(*RegionPred)
	if rp2.Count || rp2.Region.Quadrant != "lower-right" || rp2.Op != CmpGE || rp2.Value != 1 {
		t.Fatalf("existence pred = %+v", rp2)
	}
	q3 := mustParse(t, `SELECT FRAMES FROM jackson WHERE bicycle NOT IN RECT(0,0,100,448)`)
	rp3 := q3.Where.(*RegionPred)
	if !rp3.Negate {
		t.Fatalf("negated region pred = %+v", rp3)
	}
}

func TestParseProcessClause(t *testing.T) {
	q := mustParse(t, `SELECT FRAMES FROM (PROCESS jackson PRODUCE cameraID, frameID USING maskrcnn)
		WHERE COUNT(car) = 1`)
	if q.Source != "jackson" || q.Detector != "maskrcnn" {
		t.Fatalf("PROCESS parse: source=%q detector=%q", q.Source, q.Detector)
	}
	if len(q.Produce) != 2 || q.Produce[0] != "cameraID" {
		t.Fatalf("Produce = %v", q.Produce)
	}
	// Round trip through the canonical form.
	q2 := mustParse(t, q.String())
	if q2.String() != q.String() {
		t.Fatalf("PROCESS round trip changed:\n  %s\n  %s", q, q2)
	}
	// USING without PRODUCE is fine; a bare PROCESS is not.
	if _, err := Parse(`SELECT FRAMES FROM (PROCESS jackson USING yolo)`); err != nil {
		t.Fatalf("USING-only rejected: %v", err)
	}
	if _, err := Parse(`SELECT FRAMES FROM (PROCESS jackson)`); err == nil {
		t.Fatal("bare PROCESS accepted")
	}
	if _, err := Parse(`SELECT FRAMES FROM (jackson)`); err == nil {
		t.Fatal("parenthesised source without PROCESS accepted")
	}
}

func TestParseSlidingWindow(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(FRAMES) FROM jackson
		WHERE COUNT(car) = 1
		WINDOW SLIDING (SIZE 1000, ADVANCE BY 100)`)
	if q.Window == nil || q.Window.Kind != Sliding || q.Window.Advance != 100 {
		t.Fatalf("Window = %+v", q.Window)
	}
	// Hopping with overlap is rejected with a hint.
	_, err := Parse(`SELECT COUNT(FRAMES) FROM x WHERE COUNT(car) = 1
		WINDOW HOPPING (SIZE 1000, ADVANCE BY 100)`)
	if err == nil || !strings.Contains(err.Error(), "SLIDING") {
		t.Fatalf("overlapping HOPPING not rejected with hint: %v", err)
	}
	if _, err := Parse(`SELECT FRAMES FROM x WINDOW BOUNCING (SIZE 1, ADVANCE BY 1)`); err == nil {
		t.Fatal("unknown window kind accepted")
	}
}

func TestParseBooleanStructure(t *testing.T) {
	q := mustParse(t, `SELECT FRAMES FROM d WHERE (COUNT(*) >= 2 OR COUNT(car) = 0) AND NOT person ABOVE car`)
	and := q.Where.(*AndExpr)
	if _, ok := and.L.(*OrExpr); !ok {
		t.Fatalf("left = %T", and.L)
	}
	not := and.R.(*NotExpr)
	sp := not.E.(*SpatialPred)
	if sp.Rel != "above" {
		t.Fatalf("rel = %q", sp.Rel)
	}
}

func TestParseAllComparisons(t *testing.T) {
	ops := map[string]CmpOp{"=": CmpEQ, "!=": CmpNEQ, "<": CmpLT, "<=": CmpLE, ">": CmpGT, ">=": CmpGE}
	for text, want := range ops {
		q := mustParse(t, "SELECT FRAMES FROM x WHERE COUNT(*) "+text+" 3")
		cp := q.Where.(*CountPred)
		if cp.Op != want || !cp.All || cp.Value != 3 {
			t.Fatalf("op %q parsed as %+v", text, cp)
		}
	}
}

func TestCmpOpEval(t *testing.T) {
	cases := []struct {
		op   CmpOp
		l, r int
		want bool
	}{
		{CmpEQ, 2, 2, true}, {CmpEQ, 2, 3, false},
		{CmpNEQ, 2, 3, true}, {CmpLT, 1, 2, true}, {CmpLT, 2, 2, false},
		{CmpLE, 2, 2, true}, {CmpGT, 3, 2, true}, {CmpGE, 2, 2, true},
		{CmpGE, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.l, c.r); got != c.want {
			t.Errorf("%d %s %d = %v", c.l, c.op, c.r, got)
		}
	}
}

// roundTripQueries re-print to text that parses to the same query.
var roundTripQueries = []string{
	`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND car LEFT OF person`,
	`SELECT COUNT(FRAMES) FROM detrac WHERE car RIGHT OF bus WINDOW HOPPING (SIZE 1000, ADVANCE BY 2000)`,
	`SELECT AVG(COUNT(person IN QUADRANT(LOWER LEFT))) FROM coral WHERE COUNT(*) >= 1`,
	`SELECT FRAMES FROM x WHERE NOT COUNT(truck) > 0 OR car[red] IN RECT(1,2,3,4)`,
}

func TestRoundTrip(t *testing.T) {
	for _, src := range roundTripQueries {
		q1 := mustParse(t, src)
		q2 := mustParse(t, q1.String())
		if q1.String() != q2.String() {
			t.Errorf("round trip changed:\n  %s\n  %s", q1, q2)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	q := mustParse(t, `select frames from Jackson where count(CAR) = 1`)
	if q.Source != "jackson" {
		t.Fatalf("Source = %q", q.Source)
	}
	cp := q.Where.(*CountPred)
	if cp.Target.Class != "car" {
		t.Fatalf("class = %q", cp.Target.Class)
	}
}

// badQueries each fail to parse.
var badQueries = []string{
	"",
	"SELECT",
	"SELECT FRAMES",
	"SELECT FRAMES FROM",
	"SELECT FRAMES FROM x WHERE",
	"SELECT FRAMES FROM x WHERE COUNT(",
	"SELECT FRAMES FROM x WHERE COUNT(*) 3",
	"SELECT FRAMES FROM x WHERE COUNT(*) = car",
	"SELECT FRAMES FROM x WHERE car",
	"SELECT FRAMES FROM x WHERE car LEFT person",
	"SELECT FRAMES FROM x WHERE select LEFT OF car",
	"SELECT FRAMES FROM x WHERE car IN QUADRANT(MIDDLE)",
	"SELECT FRAMES FROM x WHERE car IN RECT(5,5,1,1)",
	"SELECT FRAMES FROM x WHERE car IN RECT(1,2,3)",
	"SELECT FRAMES FROM x WINDOW HOPPING (SIZE 0, ADVANCE BY 5)",
	"SELECT FRAMES FROM x extra",
	"SELECT BOGUS FROM x",
	"SELECT FRAMES FROM x WHERE COUNT(*) ! 3",
	"SELECT FRAMES FROM x WHERE car[red LEFT OF bus",
	"SELECT AVG(COUNT(car) FROM x",
}

func TestParseErrors(t *testing.T) {
	for _, src := range badQueries {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "#", "!x"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) unexpectedly succeeded", src)
		}
	}
}

func TestLexHyphenIdent(t *testing.T) {
	toks, err := Lex("stop-sign left-of")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "stop-sign" || toks[1].Text != "left-of" {
		t.Fatalf("tokens = %v", toks)
	}
	// A trailing hyphen is not part of the identifier and has no other
	// meaning, so it is a lex error.
	if _, err := Lex("x- "); err == nil {
		t.Fatal("trailing hyphen accepted")
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("SELECT FRAMES FROM x WHERE @")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "vql: syntax error") {
		t.Fatalf("error = %v", err)
	}
}

func TestWalk(t *testing.T) {
	q := mustParse(t, `SELECT FRAMES FROM x WHERE COUNT(car) = 1 AND (person ABOVE car OR NOT COUNT(*) > 5)`)
	var kinds []string
	Walk(q.Where, func(e Expr) {
		switch e.(type) {
		case *AndExpr:
			kinds = append(kinds, "and")
		case *OrExpr:
			kinds = append(kinds, "or")
		case *NotExpr:
			kinds = append(kinds, "not")
		case *CountPred:
			kinds = append(kinds, "count")
		case *SpatialPred:
			kinds = append(kinds, "spatial")
		}
	})
	want := strings.Join([]string{"and", "count", "or", "spatial", "not", "count"}, ",")
	if got := strings.Join(kinds, ","); got != want {
		t.Fatalf("Walk order = %s, want %s", got, want)
	}
}
