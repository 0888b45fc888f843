package query

import (
	"math"
	"testing"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/geom"
	"vmq/internal/simclock"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

func parse(t *testing.T, src string) *vql.Query {
	t.Helper()
	q, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBindErrors(t *testing.T) {
	p := video.Jackson()
	cases := []string{
		`SELECT FRAMES FROM coral WHERE COUNT(car) = 1`,             // wrong source
		`SELECT FRAMES FROM jackson WHERE COUNT(unicorn) = 1`,       // unknown class
		`SELECT FRAMES FROM jackson WHERE COUNT(car[octarine]) = 1`, // unknown colour
		`SELECT FRAMES FROM jackson WHERE unicorn LEFT OF car`,      // unknown class in spatial
		`SELECT AVG(COUNT(unicorn)) FROM jackson`,                   // unknown agg class
	}
	for _, src := range cases {
		if _, err := Bind(parse(t, src), p); err == nil {
			t.Errorf("Bind(%q) unexpectedly succeeded", src)
		}
	}
}

func TestBindOK(t *testing.T) {
	p := video.Jackson()
	plan, err := Bind(parse(t, `SELECT FRAMES FROM jackson
		WHERE COUNT(car[red]) = 1 AND car RIGHT OF stop-sign AND person IN QUADRANT(LOWER LEFT)`), p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Where == nil {
		t.Fatal("Where not bound")
	}
}

func frameWith(objs ...video.Object) *video.Frame {
	return &video.Frame{
		CameraID: "t",
		Bounds:   geom.Rect{X0: 0, Y0: 0, X1: 448, Y1: 448},
		Objects:  objs,
	}
}

func obj(cls video.Class, col video.Color, x, y float64) video.Object {
	return video.Object{Class: cls, Color: col, Box: geom.RectFromCenter(geom.Point{X: x, Y: y}, 40, 30)}
}

func TestEvalExactPredicates(t *testing.T) {
	p := video.Jackson()
	f := frameWith(
		obj(video.Car, video.Red, 100, 300),
		obj(video.Person, video.Green, 300, 300),
	)
	dets := detect.AppendTruth(nil, f)
	cases := []struct {
		src  string
		want bool
	}{
		{`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`, true},
		{`SELECT FRAMES FROM jackson WHERE COUNT(car) = 2`, false},
		{`SELECT FRAMES FROM jackson WHERE COUNT(*) >= 2`, true},
		{`SELECT FRAMES FROM jackson WHERE COUNT(*) > 2`, false},
		{`SELECT FRAMES FROM jackson WHERE COUNT(car[red]) = 1`, true},
		{`SELECT FRAMES FROM jackson WHERE COUNT(car[blue]) = 1`, false},
		{`SELECT FRAMES FROM jackson WHERE car LEFT OF person`, true},
		{`SELECT FRAMES FROM jackson WHERE car RIGHT OF person`, false},
		{`SELECT FRAMES FROM jackson WHERE person RIGHT OF car`, true},
		{`SELECT FRAMES FROM jackson WHERE car[red] LEFT OF person`, true},
		{`SELECT FRAMES FROM jackson WHERE car[blue] LEFT OF person`, false},
		{`SELECT FRAMES FROM jackson WHERE car IN QUADRANT(LOWER LEFT)`, true},
		{`SELECT FRAMES FROM jackson WHERE car IN QUADRANT(UPPER RIGHT)`, false},
		{`SELECT FRAMES FROM jackson WHERE COUNT(car IN QUADRANT(LOWER LEFT)) = 1`, true},
		{`SELECT FRAMES FROM jackson WHERE car NOT IN QUADRANT(UPPER RIGHT)`, true},
		{`SELECT FRAMES FROM jackson WHERE NOT COUNT(bus) > 0`, true},
		{`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND COUNT(person) = 1`, true},
		{`SELECT FRAMES FROM jackson WHERE COUNT(car) = 2 OR COUNT(person) = 1`, true},
		{`SELECT FRAMES FROM jackson WHERE COUNT(car) = 2 OR COUNT(person) = 2`, false},
		{`SELECT FRAMES FROM jackson WHERE car IN RECT(0, 200, 200, 448)`, true},
	}
	for _, c := range cases {
		plan := MustBind(parse(t, c.src), p)
		if got := plan.Where.EvalExact(dets, f.Bounds); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestSpatialExcludesIdentity(t *testing.T) {
	// A single car is never left of itself.
	p := video.Jackson()
	f := frameWith(obj(video.Car, video.Red, 100, 100))
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE car LEFT OF car`), p)
	if plan.Where.EvalExact(detect.AppendTruth(nil, f), f.Bounds) {
		t.Fatal("identity pair satisfied spatial predicate")
	}
	// Two cars do qualify.
	f2 := frameWith(obj(video.Car, video.Red, 100, 100), obj(video.Car, video.Blue, 300, 100))
	if !plan.Where.EvalExact(detect.AppendTruth(nil, f2), f2.Bounds) {
		t.Fatal("two distinct cars did not satisfy car LEFT OF car")
	}
}

func TestFilterEvalTolerance(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 2`), p)
	out := &filters.Output{}
	out.Counts[video.Car] = 3.1 // rounds to 3
	if plan.Where.EvalFilter(out, p.Bounds(), Tolerances{}) {
		t.Fatal("exact tolerance passed off-by-one estimate")
	}
	if !plan.Where.EvalFilter(out, p.Bounds(), Tolerances{Count: 1}) {
		t.Fatal("CCF-1 rejected off-by-one estimate")
	}
	// Colour-constrained counts only prune from above.
	plan2 := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car[red]) = 2`), p)
	out2 := &filters.Output{}
	out2.Counts[video.Car] = 1 // class estimate below target: prune
	if plan2.Where.EvalFilter(out2, p.Bounds(), Tolerances{}) {
		t.Fatal("colour count should prune when class estimate below target")
	}
	out2.Counts[video.Car] = 5 // enough cars that 2 could be red
	if !plan2.Where.EvalFilter(out2, p.Bounds(), Tolerances{}) {
		t.Fatal("colour count pruned despite sufficient class estimate")
	}
}

func TestNotNeverPrunesAtFilter(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE NOT COUNT(car) = 1`), p)
	out := &filters.Output{}
	out.Counts[video.Car] = 1
	if !plan.Where.EvalFilter(out, p.Bounds(), Tolerances{}) {
		t.Fatal("NOT pruned at the filter stage")
	}
}

// The cascade with a permissive-enough tolerance must recover every true
// frame (recall 1.0) while calling the detector on far fewer frames.
func TestCascadeAccuracyAndSpeedup(t *testing.T) {
	p := video.Jackson()
	frames := video.NewStream(p, 21).Take(2000)
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1`), p)
	truth := GroundTruth(plan, frames)
	trueCount := 0
	for _, b := range truth {
		if b {
			trueCount++
		}
	}
	if trueCount == 0 {
		t.Skip("predicate never true in clip (unexpected)")
	}

	clk := simclock.New()
	eng := &Engine{
		Backend:  filters.NewODFilter(p, 1, clk),
		Detector: detect.NewOracle(clk),
		Tol:      Tolerances{}, // exact CCF, the paper's q3 configuration
	}
	res := eng.Run(plan, frames)
	if acc := Score(res, truth); acc < 0.97 {
		t.Fatalf("cascade recall = %v, want >= 0.97 (true frames: %d)", acc, trueCount)
	}
	if res.FilterPassed >= res.FramesTotal/2 {
		t.Fatalf("filter barely selective: %d/%d passed", res.FilterPassed, res.FramesTotal)
	}
	// All matched frames are genuinely true (oracle confirmation).
	for _, i := range res.Matched {
		if !truth[i] {
			t.Fatalf("false positive frame %d in results", i)
		}
	}
}

// Brute-force baseline agrees exactly with ground truth and costs ~200ms
// per frame of virtual time.
func TestBruteForceBaseline(t *testing.T) {
	p := video.Jackson()
	frames := video.NewStream(p, 22).Take(300)
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), p)
	clk := simclock.New()
	eng := &Engine{Detector: detect.NewOracle(clk)} // no backend
	res := eng.Run(plan, frames)
	truth := GroundTruth(plan, frames)
	if Score(res, truth) != 1 {
		t.Fatal("brute force missed true frames")
	}
	if res.DetectorCalls != 300 {
		t.Fatalf("brute force detector calls = %d", res.DetectorCalls)
	}
	if res.VirtualTime != 300*simclock.CostMaskRCNN.PerCall {
		t.Fatalf("virtual time = %v", res.VirtualTime)
	}
	if res.Selectivity() != 1 {
		t.Fatalf("selectivity = %v", res.Selectivity())
	}
}

func TestCascadeVirtualTimeFarBelowBruteForce(t *testing.T) {
	p := video.Detrac()
	frames := video.NewStream(p, 23).Take(1000)
	plan := MustBind(parse(t, `SELECT FRAMES FROM detrac
		WHERE COUNT(car) = 1 AND COUNT(bus) = 1`), p)
	eng := &Engine{
		Backend:  filters.NewODFilter(p, 1, nil),
		Detector: detect.NewOracle(nil),
		Tol:      Tolerances{Count: 1},
	}
	res := eng.Run(plan, frames)
	brute := time.Duration(len(frames)) * simclock.CostMaskRCNN.PerCall
	if res.VirtualTime*3 > brute {
		t.Fatalf("cascade time %v not well below brute force %v", res.VirtualTime, brute)
	}
}

func TestSpatialCascade(t *testing.T) {
	p := video.Jackson()
	frames := video.NewStream(p, 24).Take(1500)
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`), p)
	truth := GroundTruth(plan, frames)
	trueCount := 0
	for _, b := range truth {
		if b {
			trueCount++
		}
	}
	if trueCount == 0 {
		t.Skip("spatial predicate never true in clip")
	}
	eng := &Engine{
		Backend:  filters.NewODFilter(p, 1, nil),
		Detector: detect.NewOracle(nil),
		Tol:      Tolerances{Count: 1, Location: 2},
	}
	res := eng.Run(plan, frames)
	if acc := Score(res, truth); acc < 0.9 {
		t.Fatalf("spatial cascade recall = %v over %d true frames", acc, trueCount)
	}
}

// Failure injection: with an imperfect confirmation detector the cascade
// degrades gracefully — precision and recall fall in proportion to the
// detector's error rate rather than collapsing.
func TestCascadeWithNoisyConfirmation(t *testing.T) {
	p := video.Jackson()
	frames := video.NewStream(p, 31).Take(1500)
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	truth := GroundTruth(plan, frames)
	trueCount := 0
	for _, b := range truth {
		if b {
			trueCount++
		}
	}
	eng := &Engine{
		Backend:  filters.NewODFilter(p, 1, nil),
		Detector: detect.NewNoisy(detect.NewOracle(nil), 0.05, 2, 0, 7),
		Tol:      Tolerances{Count: 1},
	}
	res := eng.Run(plan, frames)
	// A 5% per-object miss rate flips COUNT(car)=1 on roughly 5% of true
	// frames (the single car goes missing); recall should track that.
	acc := Score(res, truth)
	if acc < 0.85 || acc > 1.0 {
		t.Fatalf("noisy-confirmation recall = %v over %d true frames", acc, trueCount)
	}
	// With miss-driven noise the detector can also fabricate matches
	// (2 cars -> 1 visible); precision stays high but need not be perfect.
	fp := 0
	for _, i := range res.Matched {
		if !truth[i] {
			fp++
		}
	}
	if len(res.Matched) > 0 && float64(fp)/float64(len(res.Matched)) > 0.2 {
		t.Fatalf("noisy confirmation produced %d/%d false positives", fp, len(res.Matched))
	}
}

func TestAggregateFrameCountCV(t *testing.T) {
	p := video.Jackson()
	frames := video.NewStream(p, 25).Take(3000)
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM jackson
		WHERE car IN QUADRANT(LOWER RIGHT)
		WINDOW HOPPING (SIZE 3000, ADVANCE BY 3000)`), p)
	backend := filters.NewODFilter(p, 1, nil)
	res, err := RunAggregate(plan, frames, backend, detect.NewOracle(nil), AggregateConfig{
		SampleSize: 300,
		Sampler:    stream.NewUniformSampler(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 300 || res.WindowSize != 3000 {
		t.Fatalf("sizes: %d/%d", res.Samples, res.WindowSize)
	}
	if res.CV.Reduction <= 1 {
		t.Fatalf("CV reduction = %v, want > 1", res.CV.Reduction)
	}
	// Estimate close to the true qualifying-frame count.
	est := res.Estimate(vql.SelectFrameCount)
	trueTotal := res.TruePerFrameMean * float64(res.WindowSize)
	if trueTotal > 0 && math.Abs(est-trueTotal) > trueTotal*0.25+30 {
		t.Fatalf("CV estimate %v far from truth %v", est, trueTotal)
	}
	if res.VirtualTimePerSample <= simclock.CostMaskRCNN.PerCall {
		t.Fatal("virtual time per sample should include the filter")
	}
}

func TestAggregateAvgWithRegion(t *testing.T) {
	p := video.Coral()
	frames := video.NewStream(p, 26).Take(1200)
	plan := MustBind(parse(t, `SELECT AVG(COUNT(person IN QUADRANT(LOWER LEFT))) FROM coral`), p)
	backend := filters.NewODFilter(p, 2, nil)
	res, err := RunAggregate(plan, frames, backend, detect.NewOracle(nil), AggregateConfig{
		SampleSize: 200,
		Sampler:    stream.NewUniformSampler(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CV.Estimate-res.TruePerFrameMean) > 0.5 {
		t.Fatalf("avg estimate %v vs truth %v", res.CV.Estimate, res.TruePerFrameMean)
	}
	if res.CV.Reduction < 1 {
		t.Fatalf("reduction %v < 1", res.CV.Reduction)
	}
}

func TestMultipleControlsUsed(t *testing.T) {
	p := video.Detrac()
	frames := video.NewStream(p, 27).Take(1500)
	// Two predicate leaves -> two controls (the paper's multiple-CV case).
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM detrac
		WHERE COUNT(car) >= 3 AND car LEFT OF bus
		WINDOW HOPPING (SIZE 1500, ADVANCE BY 1500)`), p)
	backend := filters.NewODFilter(p, 3, nil)
	res, err := RunAggregate(plan, frames, backend, detect.NewOracle(nil), AggregateConfig{
		SampleSize: 250,
		Sampler:    stream.NewUniformSampler(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Controls < 2 {
		t.Fatalf("controls = %d, want >= 2", res.Controls)
	}
	if len(res.CV.Beta) != res.Controls {
		t.Fatalf("beta dims = %d, controls = %d", len(res.CV.Beta), res.Controls)
	}
}

func TestRunWindowsHopping(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM jackson
		WHERE car IN QUADRANT(LOWER RIGHT)
		WINDOW HOPPING (SIZE 800, ADVANCE BY 800)`), p)
	src := stream.FromStream(video.NewStream(p, 33))
	results, err := RunWindows(plan, src, filters.NewODFilter(p, 1, nil), detect.NewOracle(nil), 3,
		AggregateConfig{SampleSize: 100, Sampler: stream.NewUniformSampler(3), MuFromFullWindow: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d window results", len(results))
	}
	for i, r := range results {
		if r.WindowSize != 800 {
			t.Fatalf("window %d size %d", i, r.WindowSize)
		}
		if math.Abs(r.CV.Estimate-r.TruePerFrameMean) > 0.15 {
			t.Fatalf("window %d estimate %v vs truth %v", i, r.CV.Estimate, r.TruePerFrameMean)
		}
	}
}

func TestRunWindowsSliding(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM jackson
		WHERE COUNT(car) >= 1
		WINDOW SLIDING (SIZE 600, ADVANCE BY 200)`), p)
	src := stream.FromStream(video.NewStream(p, 34))
	results, err := RunWindows(plan, src, filters.NewODFilter(p, 1, nil), detect.NewOracle(nil), 4,
		AggregateConfig{SampleSize: 80, Sampler: stream.NewUniformSampler(4), MuFromFullWindow: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d window results", len(results))
	}
	// Overlapping windows of a smooth process should have similar truth.
	for i := 1; i < len(results); i++ {
		if math.Abs(results[i].TruePerFrameMean-results[i-1].TruePerFrameMean) > 0.5 {
			t.Fatalf("adjacent sliding windows diverged: %v vs %v",
				results[i].TruePerFrameMean, results[i-1].TruePerFrameMean)
		}
	}
}

func TestRunWindowsNeedsWindowClause(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) = 1`), p)
	src := stream.FromStream(video.NewStream(p, 35))
	if _, err := RunWindows(plan, src, filters.NewODFilter(p, 1, nil), detect.NewOracle(nil), 2,
		AggregateConfig{SampleSize: 10}); err == nil {
		t.Fatal("missing WINDOW clause accepted")
	}
}

func TestAggregateErrors(t *testing.T) {
	p := video.Jackson()
	frames := video.NewStream(p, 28).Take(50)
	backend := filters.NewODFilter(p, 1, nil)
	det := detect.NewOracle(nil)
	framesPlan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	if _, err := RunAggregate(framesPlan, frames, backend, det, AggregateConfig{SampleSize: 5}); err == nil {
		t.Error("FRAMES select accepted by RunAggregate")
	}
	agg := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) = 1`), p)
	if _, err := RunAggregate(agg, frames, backend, det, AggregateConfig{SampleSize: 0}); err == nil {
		t.Error("zero sample size accepted")
	}
	if _, err := RunAggregate(agg, nil, backend, det, AggregateConfig{SampleSize: 5}); err == nil {
		t.Error("empty window accepted")
	}
}

func TestTolerancesString(t *testing.T) {
	if s := (Tolerances{}).String(); s != "CCF/CLF" {
		t.Errorf("zero tolerances = %q", s)
	}
	if s := (Tolerances{Count: 1, Location: 2}).String(); s != "CCF-1/CLF-2" {
		t.Errorf("tolerances = %q", s)
	}
}
