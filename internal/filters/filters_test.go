package filters

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"vmq/internal/grid"
	"vmq/internal/metrics"
	"vmq/internal/simclock"
	"vmq/internal/video"
)

func TestTechniqueStringsAndCosts(t *testing.T) {
	if IC.String() != "IC" || OD.String() != "OD" || Technique(7).String() == "" {
		t.Error("Technique.String wrong")
	}
	if IC.Cost().Name != "ic-filter" || OD.Cost().Name != "od-filter" {
		t.Error("Technique.Cost wrong")
	}
}

func TestCalibratedDeterministicPerFrame(t *testing.T) {
	p := video.Jackson()
	b := NewODFilter(p, 1, nil)
	f := video.NewStream(p, 2).Next()
	o1 := b.Evaluate(f)
	o2 := b.Evaluate(f)
	if o1.Total != o2.Total {
		t.Fatal("Total not deterministic per frame")
	}
	for c := 0; c < video.NumClasses; c++ {
		if o1.Counts[c] != o2.Counts[c] {
			t.Fatal("Counts not deterministic per frame")
		}
		m1, m2 := o1.Maps[c], o2.Maps[c]
		if (m1 == nil) != (m2 == nil) {
			t.Fatal("Maps presence differs")
		}
		if m1 != nil && !reflect.DeepEqual(m1, m2) {
			t.Fatal("Maps not deterministic per frame")
		}
	}
}

func TestCalibratedDiffersAcrossFramesAndTechniques(t *testing.T) {
	p := video.Detrac()
	ic := NewICFilter(p, 1, nil)
	od := NewODFilter(p, 1, nil)
	s := video.NewStream(p, 3)
	sameTech, sameFrame := 0, 0
	const n = 50
	var prev float64
	for i := 0; i < n; i++ {
		f := s.Next()
		a, b := ic.Evaluate(f), od.Evaluate(f)
		if a.Total == b.Total {
			sameTech++
		}
		if i > 0 && a.Total == prev {
			sameFrame++
		}
		prev = a.Total
	}
	if sameTech > n/4 {
		t.Errorf("IC and OD produced identical totals on %d/%d frames", sameTech, n)
	}
	if sameFrame > n/4 {
		t.Errorf("consecutive frames produced identical totals %d/%d times", sameFrame, n)
	}
}

func TestCalibratedChargesClockOncePerEvaluate(t *testing.T) {
	clk := simclock.New()
	p := video.Jackson()
	b := NewICFilter(p, 1, clk)
	f := video.NewStream(p, 2).Next()
	b.Evaluate(f)
	b.Evaluate(f)
	if clk.Calls("ic-filter") != 2 {
		t.Fatalf("clock calls = %d", clk.Calls("ic-filter"))
	}
	if clk.Elapsed() != 2*simclock.CostICFilter.PerCall {
		t.Fatalf("elapsed = %v", clk.Elapsed())
	}
}

func TestCOFCountOnly(t *testing.T) {
	p := video.Detrac()
	b := NewCOFFilter(p, 1, nil)
	f := video.NewStream(p, 4).Next()
	o := b.Evaluate(f)
	for c := 0; c < video.NumClasses; c++ {
		if o.Maps[c] != nil {
			t.Fatal("COF produced location maps")
		}
	}
	if o.Total < 0 {
		t.Fatal("negative total")
	}
	// Output.Map falls back to an empty grid.
	if o.Map(video.Car, 56).CountOn() != 0 {
		t.Fatal("Map fallback not empty")
	}
}

// Count accuracy ordering across the three datasets must match Figure 7:
// sparse Jackson is easy for everyone, dense Detrac separates OD-COF from
// the CF filters, and tolerance always helps.
func TestCountAccuracyMatchesFigure7Shape(t *testing.T) {
	type result struct{ cof, ic, od metrics.CountAccuracy }
	results := map[string]*result{}
	for _, p := range video.Profiles() {
		r := &result{}
		cof := NewCOFFilter(p, 1, nil)
		ic := NewICFilter(p, 1, nil)
		od := NewODFilter(p, 1, nil)
		s := video.NewStream(p, 5)
		for i := 0; i < 1500; i++ {
			f := s.Next()
			truth := f.Count()
			r.cof.Observe(truth, cof.Evaluate(f).Total)
			r.ic.Observe(truth, ic.Evaluate(f).Total)
			r.od.Observe(truth, od.Evaluate(f).Total)
		}
		results[p.Name] = r
	}

	// Tolerance monotone for every technique and dataset.
	for name, r := range results {
		for _, ca := range []*metrics.CountAccuracy{&r.cof, &r.ic, &r.od} {
			if !(ca.Accuracy(0) <= ca.Accuracy(1) && ca.Accuracy(1) <= ca.Accuracy(2)) {
				t.Errorf("%s: tolerance not monotone: %v", name, ca)
			}
		}
	}
	// Jackson (sparse): everyone above 0.85 exact.
	j := results["jackson"]
	for _, acc := range []float64{j.cof.Accuracy(0), j.ic.Accuracy(0), j.od.Accuracy(0)} {
		if acc < 0.85 {
			t.Errorf("jackson exact accuracy too low: %v", acc)
		}
	}
	// Detrac (dense): OD-COF collapses well below IC and OD.
	d := results["detrac"]
	if d.cof.Accuracy(0) > d.ic.Accuracy(0)-0.1 {
		t.Errorf("detrac: OD-COF (%v) should trail IC (%v) by a wide margin",
			d.cof.Accuracy(0), d.ic.Accuracy(0))
	}
	// IC at least matches OD on exact counts (paper: "IC techniques
	// perform slightly better ... for count estimation").
	for name, r := range results {
		if r.ic.Accuracy(0) < r.od.Accuracy(0)-0.05 {
			t.Errorf("%s: IC exact (%v) fell below OD (%v)", name, r.ic.Accuracy(0), r.od.Accuracy(0))
		}
	}
	// Coral: the three techniques are comparable within ±1 ("all three
	// techniques perform the same").
	c := results["coral"]
	spread := math.Abs(c.ic.Accuracy(1) - c.od.Accuracy(1))
	if spread > 0.15 {
		t.Errorf("coral: IC/OD ±1 spread too wide: %v", spread)
	}
}

// Localisation f1 must match the Figure 15 shape: OD well above IC, rare
// classes below common ones, tolerance helps.
func TestLocationF1MatchesFigure15Shape(t *testing.T) {
	p := video.Detrac()
	ic := NewICFilter(p, 1, nil)
	od := NewODFilter(p, 1, nil)
	s := video.NewStream(p, 6)
	var icF1, odF1 [video.NumClasses]metrics.PRF
	var odF1r1 [video.NumClasses]metrics.PRF
	for i := 0; i < 600; i++ {
		f := s.Next()
		truthCars := grid.FromCenters(boxesOf(f, video.Car), f.Bounds, 56)
		truthBuses := grid.FromCenters(boxesOf(f, video.Bus), f.Bounds, 56)
		io, oo := ic.Evaluate(f), od.Evaluate(f)
		for _, cls := range []video.Class{video.Car, video.Bus} {
			truth := truthCars
			if cls == video.Bus {
				truth = truthBuses
			}
			tp, fp, fn := grid.Match(io.Map(cls, 56), truth, 0)
			icF1[cls].Add(tp, fp, fn)
			tp, fp, fn = grid.Match(oo.Map(cls, 56), truth, 0)
			odF1[cls].Add(tp, fp, fn)
			tp, fp, fn = grid.Match(oo.Map(cls, 56), truth, 1)
			odF1r1[cls].Add(tp, fp, fn)
		}
	}
	if odF1[video.Car].F1() < icF1[video.Car].F1()+0.15 {
		t.Errorf("OD f1 (%v) should be far above IC (%v)",
			odF1[video.Car].F1(), icF1[video.Car].F1())
	}
	if odF1[video.Car].F1() < 0.6 {
		t.Errorf("OD car f1 too low: %v", odF1[video.Car].F1())
	}
	// Rare class (bus) trails the common class (car) for OD.
	if odF1[video.Bus].F1() > odF1[video.Car].F1() {
		t.Errorf("rare class f1 (%v) above common class (%v)",
			odF1[video.Bus].F1(), odF1[video.Car].F1())
	}
	// Manhattan tolerance helps.
	if odF1r1[video.Car].F1() < odF1[video.Car].F1() {
		t.Errorf("CLF-1 f1 (%v) below exact (%v)",
			odF1r1[video.Car].F1(), odF1[video.Car].F1())
	}
}

// Counts correlate strongly with truth — the property control variates
// rely on (Section III: "provided the filters are good estimators ... the
// two variables would be highly correlated").
func TestCountsCorrelateWithTruth(t *testing.T) {
	p := video.Coral()
	b := NewODFilter(p, 1, nil)
	s := video.NewStream(p, 7)
	var sx, sy, sxx, syy, sxy float64
	const n = 800
	for i := 0; i < n; i++ {
		f := s.Next()
		x := float64(f.Count())
		y := b.Evaluate(f).Total
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	rho := cov / math.Sqrt(vx*vy)
	if rho < 0.95 {
		t.Fatalf("filter/truth correlation = %v, want > 0.95", rho)
	}
}

func TestStaticClassAlwaysLocalizable(t *testing.T) {
	// The Jackson profile carries a static stop sign; the backend must
	// model the class even though it is not in the spawn mix.
	p := video.Jackson()
	b := NewODFilter(p, 1, nil)
	s := video.NewStream(p, 8)
	found := 0
	const n = 200
	for i := 0; i < n; i++ {
		o := b.Evaluate(s.Next())
		if o.Maps[video.StopSign] != nil && o.Maps[video.StopSign].CountOn() > 0 {
			found++
		}
	}
	if found < n*3/4 {
		t.Fatalf("stop sign localised in only %d/%d frames", found, n)
	}
}

func TestTrainedCOFLearnsTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training skipped in -short mode")
	}
	p := video.Jackson()
	b := TrainCOF(p, TrainedConfig{Frames: 200, Epochs: 4, Img: 32, Seed: 4}, nil)
	if b.Technique() != OD || b.Grid() != 1 {
		t.Fatal("TrainedCOF metadata wrong")
	}
	s := video.NewStream(p, 88)
	var acc metrics.CountAccuracy
	for i := 0; i < 120; i++ {
		f := s.Next()
		out := b.Evaluate(f)
		acc.Observe(f.Count(), out.Total)
		for c := range out.Maps {
			if out.Maps[c] != nil {
				t.Fatal("COF produced location maps")
			}
		}
	}
	if acc.Accuracy(1) < 0.6 {
		t.Fatalf("trained COF ±1 accuracy = %v", acc.Accuracy(1))
	}
}

func TestTrainedSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training skipped in -short mode")
	}
	p := video.Jackson()
	cfg := TrainedConfig{Frames: 60, Epochs: 1, Img: 32, Channels: 8, Seed: 3}
	trained := TrainFilter(IC, p, cfg, nil)

	var buf bytes.Buffer
	if err := trained.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewUntrained(IC, p, cfg, nil)
	frame := video.NewStream(p, 55).Next()
	before := restored.Evaluate(frame)
	if err := restored.LoadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := restored.Evaluate(frame)
	want := trained.Evaluate(frame)
	if after.Total != want.Total {
		t.Fatalf("restored model differs: %v vs %v", after.Total, want.Total)
	}
	if before.Total == after.Total {
		t.Log("untrained and trained outputs coincided (possible but unlikely)")
	}
	for c := 0; c < video.NumClasses; c++ {
		if (after.Maps[c] == nil) != (want.Maps[c] == nil) {
			t.Fatal("restored maps presence differs")
		}
		if after.Maps[c] != nil && !reflect.DeepEqual(after.Maps[c], want.Maps[c]) {
			t.Fatal("restored maps differ")
		}
	}
	// Architecture mismatch is rejected before mutating anything.
	other := NewUntrained(IC, p, TrainedConfig{Frames: 60, Epochs: 1, Img: 32, Channels: 16, Seed: 3}, nil)
	if err := other.LoadWeights(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mismatched architecture accepted")
	}
}

func TestTrainedODFilterLearnsLocalization(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training skipped in -short mode")
	}
	p := video.Jackson()
	b := TrainFilter(OD, p, TrainedConfig{Frames: 250, Epochs: 4, Img: 32, Channels: 16, Seed: 2}, nil)
	if b.Technique() != OD {
		t.Fatal("wrong technique")
	}
	s := video.NewStream(p, 77)
	var loc metrics.PRF
	g := b.Grid()
	for i := 0; i < 100; i++ {
		f := s.Next()
		o := b.Evaluate(f)
		truth := grid.FromCenters(boxesOf(f, video.Car), f.Bounds, g)
		tp, fp, fn := grid.Match(o.Map(video.Car, g), truth, 1)
		loc.Add(tp, fp, fn)
	}
	// The Eq. 3-trained branch must localise cars far better than chance
	// on the 8x8 grid.
	if loc.F1() < 0.5 {
		t.Fatalf("trained OD localisation f1 = %v, want >= 0.5", loc.F1())
	}
}

func TestTrainedFilterLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training skipped in -short mode")
	}
	clk := simclock.New()
	p := video.Jackson()
	b := TrainFilter(IC, p, TrainedConfig{Frames: 250, Epochs: 3, Img: 32, Channels: 16, Seed: 1}, clk)
	if b.Technique() != IC || b.Grid() != 8 {
		t.Fatalf("trained backend metadata wrong: %v %d", b.Technique(), b.Grid())
	}
	s := video.NewStream(p, 99)
	var ca metrics.CountAccuracy
	for i := 0; i < 120; i++ {
		f := s.Next()
		o := b.Evaluate(f)
		ca.Observe(f.CountClass(video.Car), o.Counts[video.Car])
	}
	// The tiny net should beat a count-0 baseline decisively within ±1.
	if ca.Accuracy(1) < 0.6 {
		t.Fatalf("trained IC filter ±1 car-count accuracy = %v, want >= 0.6", ca.Accuracy(1))
	}
	if clk.Calls("ic-filter") != 120 {
		t.Fatalf("clock calls = %d", clk.Calls("ic-filter"))
	}
}

// The location grid is Img/4 cells a side and a grid.Binary holds at most
// 64 columns: Img above 256 is refused by Validate, and the constructors
// panic on it before they train or build a network.
func TestTrainedConfigRefusesGridOverMaxG(t *testing.T) {
	for _, img := range []int{0, 4, 48, 256} {
		if err := (TrainedConfig{Img: img}).Validate(); err != nil {
			t.Errorf("Img %d: %v", img, err)
		}
	}
	for _, img := range []int{-4, 2, 257, 300, 448} {
		if err := (TrainedConfig{Img: img}).Validate(); err == nil {
			t.Errorf("Img %d accepted", img)
		}
	}
	p := video.Jackson()
	for name, build := range map[string]func(){
		"TrainFilter":  func() { TrainFilter(OD, p, TrainedConfig{Img: 300}, nil) },
		"NewUntrained": func() { NewUntrained(OD, p, TrainedConfig{Img: 300}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s built a network at Img 300", name)
				}
			}()
			build()
		}()
	}
}
