package vmq_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vmq"
	"vmq/internal/detect"
)

func TestSessionRunQuery(t *testing.T) {
	sess := vmq.NewSession(vmq.Jackson(), 42)
	// Exact CCF: on the sparse Jackson stream the ±1 default is
	// recall-safe but unselective, exactly the trade-off the paper's
	// per-query filter choices navigate.
	sess.Tol = vmq.Tolerances{}
	q, err := vmq.ParseQuery(`SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunQuery(q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesTotal != 1000 {
		t.Fatalf("FramesTotal = %d", res.FramesTotal)
	}
	if res.DetectorCalls >= res.FramesTotal {
		t.Fatal("cascade did not prune anything")
	}
	if sess.Clock.Elapsed() == 0 {
		t.Fatal("virtual clock not charged")
	}
}

func TestSessionBruteMatchesTruth(t *testing.T) {
	sess := vmq.NewSession(vmq.Jackson(), 7)
	q, err := vmq.ParseQuery(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunQueryBrute(q, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectorCalls != 200 {
		t.Fatalf("brute force detector calls = %d", res.DetectorCalls)
	}
}

func TestSessionAggregate(t *testing.T) {
	sess := vmq.NewSession(vmq.Jackson(), 9)
	q, err := vmq.ParseQuery(`SELECT COUNT(FRAMES) FROM jackson
		WHERE car IN QUADRANT(LOWER RIGHT)
		WINDOW HOPPING (SIZE 1500, ADVANCE BY 1500)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunAggregate(q, 0, 150)
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowSize != 1500 {
		t.Fatalf("window = %d, want 1500 from the query", res.WindowSize)
	}
	if res.CV.Reduction < 1 {
		t.Fatalf("reduction = %v", res.CV.Reduction)
	}
}

func TestSessionAggregateNeedsWindow(t *testing.T) {
	sess := vmq.NewSession(vmq.Jackson(), 9)
	q, _ := vmq.ParseQuery(`SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) = 1`)
	if _, err := sess.RunAggregate(q, 0, 50); err == nil {
		t.Fatal("missing window accepted")
	}
	if _, err := sess.RunAggregate(q, 800, 50); err != nil {
		t.Fatalf("explicit window rejected: %v", err)
	}
	// A monitor is rejected before it takes a frame from the stream.
	monitor, _ := vmq.ParseQuery(`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`)
	for _, size := range []int{-1, 100} {
		if _, err := sess.RunAggregate(monitor, size, 50); !errors.Is(err, vmq.ErrInvalidQuery) {
			t.Fatalf("monitor, window size %d: error %v, want ErrInvalidQuery", size, err)
		}
	}
	if f := sess.Stream.Next(); f.Index != 800 {
		t.Fatalf("next frame after the rejected monitor is %d, want 800", f.Index)
	}
}

// Consecutive RunAggregate calls stay on the ADVANCE grid: with windows of
// 100 frames every 150, two calls estimate the windows at 0 and 150 that
// RunWindows estimates, and leave the stream at the third window's start.
func TestSessionAggregateHonoursAdvance(t *testing.T) {
	q, err := vmq.ParseQuery(`SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) >= 1
		WINDOW HOPPING (SIZE 100, ADVANCE BY 150)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vmq.NewSession(vmq.Jackson(), 1).RunWindows(q, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess := vmq.NewSession(vmq.Jackson(), 1)
	for i, wantMean := range []float64{0.72, 0.70} {
		got, err := sess.RunAggregate(q, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.TruePerFrameMean != wantMean || got.TruePerFrameMean != want[i].TruePerFrameMean {
			t.Fatalf("call %d: true mean %v, want %v (RunWindows: %v)", i, got.TruePerFrameMean, wantMean, want[i].TruePerFrameMean)
		}
		// Every frame of the window is sampled, so only the summation
		// order of the samples may differ from RunWindows'.
		if got.WindowSize != want[i].WindowSize || got.Samples != want[i].Samples ||
			math.Abs(got.CV.Estimate-want[i].CV.Estimate) > 1e-12 {
			t.Fatalf("call %d: %+v, RunWindows window %d: %+v", i, got, i, want[i])
		}
	}
	if f := sess.Stream.Next(); f.Index != 300 {
		t.Fatalf("next frame after two calls is %d, want 300", f.Index)
	}
}

func TestUseICFilters(t *testing.T) {
	sess := vmq.NewSession(vmq.Coral(), 3)
	sess.UseICFilters()
	if sess.Backend.Technique() != vmq.ICTechnique {
		t.Fatal("UseICFilters did not switch backend")
	}
}

func TestScoreAgainstGroundTruth(t *testing.T) {
	sess := vmq.NewSession(vmq.Jackson(), 11)
	q, _ := vmq.ParseQuery(`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`)
	plan, err := sess.Bind(q)
	if err != nil {
		t.Fatal(err)
	}
	frames := sess.Stream.Take(800)
	truth := vmq.GroundTruth(plan, frames)
	// Execute on the same frames through a fresh engine-less path: reuse
	// the session pieces by constructing a new session over the same seed.
	sess2 := vmq.NewSession(vmq.Jackson(), 11)
	res, err := sess2.RunQuery(q, 800)
	if err != nil {
		t.Fatal(err)
	}
	if acc := vmq.Score(res, truth); acc < 0.95 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestDatasets(t *testing.T) {
	ds := vmq.Datasets()
	if len(ds) != 3 {
		t.Fatalf("got %d datasets", len(ds))
	}
	names := []string{ds[0].Name, ds[1].Name, ds[2].Name}
	if strings.Join(names, ",") != "coral,jackson,detrac" {
		t.Fatalf("dataset order = %v", names)
	}
}

func TestBindErrorSurfaceted(t *testing.T) {
	sess := vmq.NewSession(vmq.Jackson(), 1)
	q, _ := vmq.ParseQuery(`SELECT FRAMES FROM coral WHERE COUNT(person) = 1`)
	if _, err := sess.RunQuery(q, 10); err == nil {
		t.Fatal("mismatched source accepted")
	}
}

func TestServerFacade(t *testing.T) {
	srv := vmq.NewServer(vmq.ServerConfig{})
	if err := srv.AddFeed(vmq.LiveFeed(vmq.Jackson(), 42)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q, err := vmq.ParseQuery(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.Register(q, vmq.RegistrationOptions{MaxFrames: 200})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	matches := 0
	var final *vmq.Event
	for ev := range reg.Results() {
		switch ev.Kind {
		case vmq.EventMatch:
			matches++
		case vmq.EventEnd:
			e := ev
			final = &e
		}
	}
	if final == nil || final.Final == nil || final.Final.FramesTotal != 200 {
		t.Fatalf("final = %+v", final)
	}
	if matches != len(final.Final.Matched) || matches == 0 {
		t.Fatalf("streamed %d matches, final reports %d", matches, len(final.Final.Matched))
	}
	m := srv.Metrics()
	if len(m.Feeds) != 1 || len(m.Queries) != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// Every Session method honours the query's USING clause: an unknown
// detector is an error, and a named one confirms in place of the
// session's default.
func TestSessionHonoursUsing(t *testing.T) {
	var sess *vmq.Session
	runs := []struct {
		name, query string
		run         func(q *vmq.Query) (any, error)
	}{
		{"RunQuery", `SELECT FRAMES FROM %s WHERE COUNT(car) >= 1`,
			func(q *vmq.Query) (any, error) { return sess.RunQuery(q, 300) }},
		{"RunQueryBrute", `SELECT FRAMES FROM %s WHERE COUNT(car) >= 1`,
			func(q *vmq.Query) (any, error) { return sess.RunQueryBrute(q, 300) }},
		{"RunAggregate", `SELECT COUNT(FRAMES) FROM %s WHERE COUNT(car) >= 1 WINDOW HOPPING (SIZE 300, ADVANCE BY 300)`,
			func(q *vmq.Query) (any, error) { return sess.RunAggregate(q, 0, 50) }},
		{"RunWindows", `SELECT COUNT(FRAMES) FROM %s WHERE COUNT(car) >= 1 WINDOW HOPPING (SIZE 300, ADVANCE BY 300)`,
			func(q *vmq.Query) (any, error) { return sess.RunWindows(q, 1, 50) }},
	}
	parse := func(src, from string) *vmq.Query {
		q, err := vmq.ParseQuery(fmt.Sprintf(src, from))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, r := range runs {
		sess = vmq.NewSession(vmq.Jackson(), 3)
		if _, err := r.run(parse(r.query, "(PROCESS jackson USING nosuch)")); !errors.Is(err, detect.ErrUnknownDetector) {
			t.Errorf("%s(USING nosuch) error = %v, want ErrUnknownDetector", r.name, err)
		}

		// USING yolo gives exactly what a session whose default detector
		// is the seeded YOLO stand-in gives without the clause.
		sess = vmq.NewSession(vmq.Jackson(), 3)
		got, err := r.run(parse(r.query, "(PROCESS jackson USING yolo)"))
		if err != nil {
			t.Fatalf("%s(USING yolo): %v", r.name, err)
		}
		sess = vmq.NewSession(vmq.Jackson(), 3)
		sess.Detector = detect.NewSimYOLO(sess.Clock, 3)
		want, err := r.run(parse(r.query, "jackson"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s(USING yolo) differs from a session confirming with YOLO:\n got %+v\nwant %+v", r.name, got, want)
		}
		sess = vmq.NewSession(vmq.Jackson(), 3)
		if oracle, _ := r.run(parse(r.query, "jackson")); reflect.DeepEqual(got, oracle) {
			t.Errorf("%s: YOLO and the default detector agree, so the check cannot tell them apart", r.name)
		}
	}
}

// Server.Register and the Session method that runs a query's kind accept
// and reject the same queries, and every rejection is typed. A query of
// the other kind is rejected too: an aggregate by RunQuery, RunQueryOn
// and RunQueryBrute (a Result cannot carry windows), a monitor by
// RunWindows and RunAggregate. (RunAggregate is given no window size, so
// like the others it takes the window from the query alone.)
func TestSessionAndServerAgree(t *testing.T) {
	parse := func(src string) *vmq.Query {
		q, err := vmq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	const hopping = ` WINDOW HOPPING (SIZE 100, ADVANCE BY 100)`
	overlap := parse(`SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) >= 1` + hopping)
	overlap.Window.Advance = 50 // the parser refuses this; code can build it
	cases := []struct {
		name      string
		q         *vmq.Query
		aggregate bool
		want      error // nil: accepted
	}{
		{"frames", parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), false, nil},
		{"frames, non-overlapping window", parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1` + hopping), false, nil},
		{"frames, sliding window", parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1 WINDOW SLIDING (SIZE 100, ADVANCE BY 50)`), false, vmq.ErrInvalidQuery},
		{"count, no window", parse(`SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) >= 1`), true, vmq.ErrInvalidQuery},
		{"count, hopping", parse(`SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) >= 1` + hopping), true, nil},
		{"avg, sliding", parse(`SELECT AVG(COUNT(car)) FROM jackson WINDOW SLIDING (SIZE 100, ADVANCE BY 50)`), true, nil},
		{"hopping, advance < size", overlap, true, vmq.ErrInvalidQuery},
		{"unknown USING detector", parse(`SELECT FRAMES FROM (PROCESS jackson USING nosuch) WHERE COUNT(car) >= 1`), false, detect.ErrUnknownDetector},
		{"unbindable class", parse(`SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(tank) >= 1` + hopping), true, vmq.ErrInvalidQuery},
	}

	srv := vmq.NewServer(vmq.ServerConfig{})
	if err := srv.AddFeed(vmq.LiveFeed(vmq.Jackson(), 1)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	session := func() *vmq.Session { return vmq.NewSession(vmq.Jackson(), 1) }
	monitors := map[string]func(q *vmq.Query) error{
		"RunQuery":      func(q *vmq.Query) error { _, err := session().RunQuery(q, 50); return err },
		"RunQueryOn":    func(q *vmq.Query) error { s := session(); _, err := s.RunQueryOn(q, s.Source(), 50); return err },
		"RunQueryBrute": func(q *vmq.Query) error { _, err := session().RunQueryBrute(q, 50); return err },
	}
	windows := map[string]func(q *vmq.Query) error{
		"RunWindows":   func(q *vmq.Query) error { _, err := session().RunWindows(q, 1, 20); return err },
		"RunAggregate": func(q *vmq.Query) error { _, err := session().RunAggregate(q, 0, 20); return err },
	}
	for _, c := range cases {
		runs, others := monitors, windows
		if c.aggregate {
			runs, others = windows, monitors
		}
		reg, err := srv.Register(c.q, vmq.RegistrationOptions{})
		if err == nil {
			_ = srv.Unregister(reg.ID())
		}
		results := map[string]error{"Server.Register": err}
		for name, run := range runs {
			results[name] = run(c.q)
		}
		for name, err := range results {
			if c.want == nil && err != nil {
				t.Errorf("%s: %s rejected it: %v", c.name, name, err)
			}
			if c.want != nil && (!errors.Is(err, c.want) || !errors.Is(err, vmq.ErrInvalidQuery)) {
				t.Errorf("%s: %s error = %v, want %v and ErrInvalidQuery", c.name, name, err, c.want)
			}
		}
		for name, run := range others {
			if err := run(c.q); !errors.Is(err, vmq.ErrInvalidQuery) {
				t.Errorf("%s: %s error = %v, want ErrInvalidQuery (wrong kind)", c.name, name, err)
			}
		}
	}
}
