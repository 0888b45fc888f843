package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// A USING clause naming no known detector fails registration, and over
// HTTP answers 400 unknown_detector.
func TestServerRejectsUnknownDetector(t *testing.T) {
	srv, ts := newHTTPServer(t, 8)
	src := `SELECT FRAMES FROM (PROCESS jackson USING nosuch) WHERE COUNT(car) >= 0`
	if _, err := srv.Register(parse(t, src), Options{}); !errors.Is(err, detect.ErrUnknownDetector) {
		t.Fatalf("Register(USING nosuch) error = %v, want ErrUnknownDetector", err)
	}
	resp, err := http.Post(apiBase(ts)+"/queries", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env apiError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "unknown_detector" {
		t.Fatalf("POST USING nosuch -> %d %+v, want 400 unknown_detector", resp.StatusCode, env)
	}
}

// A served query confirms with the detector its USING clause names,
// seeded from Options.Seed, exactly as a standalone RunStream with that
// detector would.
func TestServerUsingYOLOMatchesStandaloneRunStream(t *testing.T) {
	p := video.Jackson()
	const n, seed = 600, 7
	cfg, frames := clipFeed(p, 42, n)
	srv := New(Config{})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src := `SELECT FRAMES FROM (PROCESS jackson USING yolo) WHERE COUNT(car) = 2`
	reg, err := srv.Register(parse(t, src), Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	_, final, sawEnd := drain(reg)
	if !sawEnd || final.Final == nil {
		t.Fatal("stream closed without a final result")
	}

	standalone := func(det detect.Detector) *query.Result {
		eng := &query.Engine{
			Backend:  filters.NewODFilter(p, 42, nil),
			Detector: det,
			Tol:      query.Tolerances{Count: 1, Location: 1},
		}
		return eng.RunStream(query.MustBind(parse(t, src), p), &stream.SliceSource{Frames: frames}, n)
	}
	want := standalone(detect.NewSimYOLO(nil, seed))
	if !reflect.DeepEqual(final.Final, want) {
		t.Fatalf("USING yolo diverged from standalone RunStream:\n got %+v\nwant %+v", final.Final, want)
	}
	if oracle := standalone(detect.NewOracle(nil)); reflect.DeepEqual(oracle.Matched, want.Matched) {
		t.Fatal("SimYOLO and the oracle agree on every frame: the test cannot tell them apart")
	}
}
