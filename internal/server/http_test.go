package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"vmq/internal/filters"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// apiBase is the root of the versioned HTTP surface the suites exercise.
func apiBase(ts *httptest.Server) string { return ts.URL + "/v1" }

func newHTTPServer(t *testing.T, n int) (*Server, *httptest.Server) {
	t.Helper()
	p := video.Jackson()
	cfg, _ := clipFeed(p, 42, n)
	srv := New(Config{})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// The full HTTP lifecycle: register with plain VQL text, stream NDJSON
// results to completion, observe the query in listings and metrics, and
// unregister.
func TestHTTPQueryLifecycle(t *testing.T) {
	_, ts := newHTTPServer(t, 300)

	// Register with a raw VQL body.
	resp, err := http.Post(apiBase(ts)+"/queries", "text/plain",
		strings.NewReader(`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	var created registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.ID == "" || created.Feed != "jackson" {
		t.Fatalf("created = %+v", created)
	}

	// The query shows up in the listing.
	resp, err = http.Get(apiBase(ts) + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	var listed []QueryMetrics
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed) != 1 || listed[0].ID != created.ID {
		t.Fatalf("listing = %+v", listed)
	}
	if listed[0].Feed != "jackson" || listed[0].Policy != "block" || listed[0].Acked != -1 {
		t.Fatalf("listing row = %+v, want feed/policy/acked telemetry", listed[0])
	}

	// Stream results: NDJSON events ending with an "end" event carrying
	// totals for the whole 300-frame clip.
	resp, err = http.Get(apiBase(ts) + "/queries/" + created.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type = %q", ct)
	}
	matches := 0
	var final *Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Kind {
		case EventMatch:
			matches++
		case EventEnd:
			final = &ev
		}
	}
	resp.Body.Close()
	if final == nil || final.Final == nil {
		t.Fatal("stream ended without an end event")
	}
	if final.Final.FramesTotal != 300 || matches != len(final.Final.Matched) {
		t.Fatalf("streamed %d matches, final = %+v", matches, final.Final)
	}
	if matches == 0 {
		t.Fatal("degenerate clip: nothing matched")
	}

	// Metrics report the feed and the (finished) query.
	resp, err = http.Get(apiBase(ts) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(m.Feeds) != 1 || m.Feeds[0].Frames != 300 {
		t.Fatalf("metrics feeds = %+v", m.Feeds)
	}
	if len(m.Queries) != 1 || !m.Queries[0].Done || m.Queries[0].Matches != matches {
		t.Fatalf("metrics queries = %+v", m.Queries)
	}

	// Unregister; the listing empties and a second delete 404s.
	req, _ := http.NewRequest(http.MethodDelete, apiBase(ts)+"/queries/"+created.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status = %d", resp.StatusCode)
	}
}

// JSON registration bodies carry tolerances and budgets through to the
// engine.
func TestHTTPRegisterJSONOptions(t *testing.T) {
	_, ts := newHTTPServer(t, 200)
	body := `{"query": "SELECT FRAMES FROM jackson WHERE COUNT(car) = 1", "count_tolerance": 0, "location_tolerance": 0, "max_frames": 120}`
	resp, err := http.Post(apiBase(ts)+"/queries", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(apiBase(ts) + "/queries/" + created.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var final *Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventEnd {
			final = &ev
		}
	}
	resp.Body.Close()
	if final == nil || final.Final == nil || final.Final.FramesTotal != 120 {
		t.Fatalf("final = %+v, want a 120-frame run", final)
	}
}

// A streaming consumer killed mid-feed reconnects with ?from= and sees a
// gap-free event sequence: the replayed retained events plus the live
// continuation reconstruct exactly the stream an uninterrupted consumer
// would have seen. The feed is paced so the kill genuinely lands
// mid-stream with live events still to come.
func TestHTTPResumeAfterDisconnect(t *testing.T) {
	p := video.Jackson()
	const n = 120
	frames := video.NewStream(p, 42).Take(n)
	srv := New(Config{ResultBuffer: 256}) // ring outlives the disconnect window
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:        &stream.SliceSource{Frames: frames},
		Backend:       filters.NewODFilter(p, 42, nil),
		FrameInterval: 2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Every frame matches, so event_seq and frame seq advance in lockstep
	// and any loss is visible.
	resp, err := http.Post(apiBase(ts)+"/queries", "text/plain",
		strings.NewReader(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`))
	if err != nil {
		t.Fatal(err)
	}
	var created registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// First consumer: read a prefix, then die mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, apiBase(ts)+"/queries/"+created.ID+"/results", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
		if len(got) == 25 {
			break
		}
	}
	cancel()
	resp.Body.Close()
	if len(got) < 25 {
		t.Fatalf("stream ended after %d events — nothing was mid-feed", len(got))
	}
	if got[24].Kind == EventEnd {
		t.Fatal("clip finished before the disconnect — nothing was mid-feed")
	}

	// Reconnect one past the last processed event and read to the end.
	last := got[len(got)-1].EventSeq
	resp, err = http.Get(apiBase(ts) + "/queries/" + created.ID + "/results?from=" + itoa(last+1))
	if err != nil {
		t.Fatal(err)
	}
	sc = bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	resp.Body.Close()

	// The combined stream is gap-free: n match events with contiguous
	// event and frame sequences, then the end event with full totals.
	if len(got) != n+1 {
		t.Fatalf("replay+live delivered %d events, want %d", len(got), n+1)
	}
	for i := 0; i < n; i++ {
		ev := got[i]
		if ev.Kind != EventMatch || ev.EventSeq != int64(i) || ev.Seq != i {
			t.Fatalf("event %d = kind %s event_seq %d frame %d — sequence not gap-free",
				i, ev.Kind, ev.EventSeq, ev.Seq)
		}
	}
	end := got[n]
	if end.Kind != EventEnd || end.Final == nil || end.Final.FramesTotal != n {
		t.Fatalf("end event = %+v", end)
	}
}

// Resuming below a wrapped ring's retained window yields one gap event
// reporting exactly the dropped range, then the contiguous tail.
func TestHTTPResumeWrappedRingReportsGap(t *testing.T) {
	p := video.Jackson()
	const n = 100
	frames := video.NewStream(p, 8).Take(n)
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:  &stream.SliceSource{Frames: frames},
		Backend: filters.NewODFilter(p, 8, nil),
	}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	body := `{"query": "SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0", "policy": "drop-oldest", "result_buffer": 16}`
	resp, err := http.Post(apiBase(ts)+"/queries", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.Policy != "drop-oldest" {
		t.Fatalf("created policy = %q", created.Policy)
	}

	// Let the whole clip run with no consumer: the 16-ring wraps many
	// times over the 101 events.
	reg, ok := srv.Get(created.ID)
	if !ok {
		t.Fatal("registration vanished")
	}
	<-reg.Done()

	resp, err = http.Get(apiBase(ts) + "/queries/" + created.ID + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	resp.Body.Close()
	if len(evs) == 0 || evs[0].Kind != EventGap {
		t.Fatalf("first event = %+v, want a gap report", evs)
	}
	first := reg.Log().FirstRetained()
	if evs[0].DroppedFrom != 0 || evs[0].DroppedTo != first {
		t.Fatalf("gap = [%d,%d), want [0,%d)", evs[0].DroppedFrom, evs[0].DroppedTo, first)
	}
	next := first
	for _, ev := range evs[1:] {
		if ev.EventSeq != next {
			t.Fatalf("event seq %d, want %d — tail not contiguous", ev.EventSeq, next)
		}
		next++
	}
	if evs[len(evs)-1].Kind != EventEnd {
		t.Fatal("wrapped replay lost the end event")
	}
}

// Two consumers stream one query concurrently, each on its own cursor.
// The ring covers the whole clip so both replay the identical complete
// stream no matter when they attach.
func TestHTTPConcurrentConsumers(t *testing.T) {
	p := video.Jackson()
	cfg, _ := clipFeed(p, 42, 150)
	srv := New(Config{ResultBuffer: 256})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	resp, err := http.Post(apiBase(ts)+"/queries", "text/plain",
		strings.NewReader(`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`))
	if err != nil {
		t.Fatal(err)
	}
	var created registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	read := func() []Event {
		resp, err := http.Get(apiBase(ts) + "/queries/" + created.ID + "/results")
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		var evs []Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Error(err)
				return nil
			}
			evs = append(evs, ev)
		}
		return evs
	}
	done := make(chan []Event, 2)
	go func() { done <- read() }()
	go func() { done <- read() }()
	a, b := <-done, <-done
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("consumers saw %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].EventSeq != b[i].EventSeq || a[i].Seq != b[i].Seq {
			t.Fatalf("consumers diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func itoa(v int64) string {
	return strconv.FormatInt(v, 10)
}

// Malformed registrations and unknown ids produce structured errors.
func TestHTTPErrors(t *testing.T) {
	_, ts := newHTTPServer(t, 50)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/queries", "", http.StatusBadRequest},
		{"POST", "/queries", "SELECT nonsense", http.StatusBadRequest},
		{"POST", "/queries", "SELECT FRAMES FROM nosuchfeed WHERE COUNT(car) = 1", http.StatusUnprocessableEntity},
		{"GET", "/queries/q999/results", "", http.StatusNotFound},
		{"DELETE", "/queries/q999", "", http.StatusNotFound},
		{"PUT", "/queries", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, apiBase(ts)+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s -> %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}
