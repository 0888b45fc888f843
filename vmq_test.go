package vmq_test

import (
	"errors"
	"fmt"
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
