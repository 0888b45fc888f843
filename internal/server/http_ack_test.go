package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmq/internal/rlog"
	"vmq/internal/video"
)

// pollQueryStatus polls GET /v1/queries/{id} until ok accepts the row.
func pollQueryStatus(t *testing.T, ts *httptest.Server, id string, ok func(QueryMetrics) bool) QueryMetrics {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/queries/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var qm QueryMetrics
		err = json.NewDecoder(resp.Body).Decode(&qm)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ok(qm) {
			return qm
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never converged: %+v", qm)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// registerEveryFrame registers a match-every-frame query with a 16-event
// ring so retention mechanics surface quickly, returning its id.
func registerEveryFrame(t *testing.T, ts *httptest.Server, extra string) string {
	t.Helper()
	body := `{"query": "SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0", "result_buffer": 16` + extra + `}`
	resp, err := http.Post(apiBase(ts)+"/queries", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	var created registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	return created.ID
}

// streamPrefix reads the query's stream until the event with sequence
// upto (inclusive), then disconnects without acking anything.
func streamPrefix(t *testing.T, ts *httptest.Server, id string, upto int64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, apiBase(ts)+"/queries/"+id+"/results", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.EventSeq >= upto {
			return
		}
	}
	t.Fatalf("stream ended before sequence %d", upto)
}

// postAck acks through seq on the out-of-band endpoint and verifies the
// acknowledged high-water mark echoed back.
func postAck(t *testing.T, ts *httptest.Server, id string, seq int64) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/queries/"+id+"/ack", "application/json",
		strings.NewReader(fmt.Sprintf(`{"seq":%d}`, seq)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Acked int64 `json:"acked"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Acked != seq {
		t.Fatalf("ack(%d) answered %+v, %v", seq, body, err)
	}
}

// Exactness with acks: a block-policy query with no stream attached
// blocks once the ring fills; out-of-band acks through 30 move the
// retention floor to 31 and let the writer advance exactly one ring
// past it before blocking again. Reattaching at from=31 — over the
// WebSocket bridge, acking each event in band — then receives every
// event through the end with no gap, because retention followed the
// acknowledged position the whole way.
func TestHTTPAckExactResume(t *testing.T) {
	_, ts := newHTTPServer(t, 60)
	id := registerEveryFrame(t, ts, "")

	// Nobody has read yet: the writer fills the ring and blocks.
	pollQueryStatus(t, ts, id, func(qm QueryMetrics) bool {
		return qm.EventSeq == 16 && qm.FirstRetained == 0
	})
	// Ack through 14: floor 15, the writer runs one ring past it.
	postAck(t, ts, id, 14)
	pollQueryStatus(t, ts, id, func(qm QueryMetrics) bool {
		return qm.EventSeq == 31 && qm.FirstRetained == 15
	})
	// Ack through 30: the writer blocks holding exactly 31..46.
	postAck(t, ts, id, 30)
	pollQueryStatus(t, ts, id, func(qm QueryMetrics) bool {
		return qm.EventSeq == 47 && qm.FirstRetained == 31
	})

	conn, br := wsDial(t, ts.URL, "/queries/"+id+"/results?from=31")
	next := int64(31)
	sawEnd := false
	for {
		op, payload := wsReadServerFrame(t, br)
		if op == wsOpClose {
			break
		}
		if op != wsOpText {
			t.Fatalf("unexpected frame op %#x", op)
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventGap {
			t.Fatalf("acked consumer saw a gap: %+v", ev)
		}
		if ev.EventSeq != next {
			t.Fatalf("event seq %d, want %d — resume not exact", ev.EventSeq, next)
		}
		next++
		if ev.Kind == EventEnd {
			sawEnd = true
			continue
		}
		// In-band ack: the exactly-once consumer confirms each event,
		// releasing the blocked writer one eviction at a time. Stop at 44
		// — the last eviction the writer needs to run the 61-event stream
		// to completion — because later acks race the server's
		// end-of-stream teardown once the writer is unblocked for good.
		if ev.EventSeq > 44 {
			continue
		}
		if _, err := conn.Write(wsClientFrame(wsOpText, true,
			[]byte(fmt.Sprintf(`{"ack":%d}`, ev.EventSeq)))); err != nil {
			t.Fatalf("ack of %d: %v", ev.EventSeq, err)
		}
	}
	// 60 matching frames: matches 31..59, then the end event at 60.
	if !sawEnd || next != 61 {
		t.Fatalf("resume delivered through seq %d (end=%v), want 61 with end", next-1, sawEnd)
	}
}

// The same scenario without acks reports the honest gap: retention
// followed the read position past 40, so from=31 starts with one gap
// event covering exactly the evicted range, then the contiguous tail.
func TestHTTPResumeWithoutAcksReportsGap(t *testing.T) {
	_, ts := newHTTPServer(t, 60)
	id := registerEveryFrame(t, ts, "")
	streamPrefix(t, ts, id, 40)

	// Unacked: the parked floor is the read position (>= 41), and the
	// writer advances past the would-be resume point.
	pollQueryStatus(t, ts, id, func(qm QueryMetrics) bool {
		return qm.FirstRetained > 31
	})

	resp, err := http.Get(apiBase(ts) + "/queries/" + id + "/results?from=31")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 || evs[0].Kind != EventGap {
		t.Fatalf("first event = %+v, want the honest gap", evs)
	}
	if evs[0].DroppedFrom != 31 || evs[0].DroppedTo <= 31 {
		t.Fatalf("gap = [%d,%d), want it to start at the resume point",
			evs[0].DroppedFrom, evs[0].DroppedTo)
	}
	next := evs[0].DroppedTo
	for _, ev := range evs[1:] {
		if ev.Kind == EventGap {
			t.Fatalf("second gap %+v — loss must be reported once", ev)
		}
		if ev.EventSeq != next {
			t.Fatalf("event seq %d, want %d — tail not contiguous", ev.EventSeq, next)
		}
		next++
	}
	if evs[len(evs)-1].Kind != EventEnd {
		t.Fatal("resumed stream lost the end event")
	}
}

// History paging returns byte-identical events to a streamed read over
// the same range: a spilling block-policy query runs to completion with
// no consumer, then the whole log is read once as a stream and once as
// pages, and every page event must match its streamed line byte for
// byte.
func TestHTTPHistoryPagingMatchesStream(t *testing.T) {
	srv, ts := newHTTPServer(t, 100)
	id := registerEveryFrame(t, ts, `, "spill": true`)
	reg, ok := srv.Get(id)
	if !ok {
		t.Fatal("registration vanished")
	}
	<-reg.Done()

	// The spill holds everything the ring evicted; telemetry shows it.
	st := pollQueryStatus(t, ts, id, func(qm QueryMetrics) bool { return qm.EventSeq == 101 })
	if st.SpillBytes <= 0 || st.SpillSegments < 1 {
		t.Fatalf("spill telemetry = %d bytes in %d segments, want a populated spill",
			st.SpillBytes, st.SpillSegments)
	}

	resp, err := http.Get(apiBase(ts) + "/queries/" + id + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		streamed = append(streamed, strings.TrimSpace(sc.Text()))
	}
	resp.Body.Close()
	if len(streamed) != 101 { // 100 matches + end
		t.Fatalf("streamed %d events, want 101", len(streamed))
	}

	var paged []string
	from := int64(0)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/queries/%s/history?from=%d&limit=7", ts.URL, id, from))
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			From     int64             `json:"from"`
			NextFrom int64             `json:"next_from"`
			Events   []json.RawMessage `json:"events"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if page.From != from {
			t.Fatalf("page echoed from=%d, want %d", page.From, from)
		}
		if len(page.Events) == 0 {
			if page.NextFrom != from {
				t.Fatalf("empty page moved the cursor: %d -> %d", from, page.NextFrom)
			}
			break
		}
		for _, raw := range page.Events {
			paged = append(paged, string(raw))
		}
		from = page.NextFrom
	}
	if len(paged) != len(streamed) {
		t.Fatalf("paging returned %d events, streaming %d", len(paged), len(streamed))
	}
	for i := range streamed {
		if paged[i] != streamed[i] {
			t.Fatalf("event %d diverges:\n  stream: %s\n  page:   %s", i, streamed[i], paged[i])
		}
	}
	// Paging detached its transient readers and never parked a floor.
	if qm := pollQueryStatus(t, ts, id, func(QueryMetrics) bool { return true }); qm.Readers != 0 {
		t.Fatalf("history paging left %d readers attached", qm.Readers)
	}
}

// A drop-oldest spilling query stays within its on-disk retention
// budget: old segments rotate out as the window advances.
func TestServerSpillBudgetBounded(t *testing.T) {
	cfg, _ := clipFeed(video.Jackson(), 42, 400)
	srv := New(Config{SpillDir: t.TempDir(), Spill: rlog.SpillConfig{SegmentBytes: 2048, RetainBytes: 8192}})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{
		Policy: rlog.DropOldest, ResultBuffer: 16, Spill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	<-reg.Done()
	qm := reg.metricsRow()
	if qm.SpillBytes <= 0 || qm.SpillBytes > 8192 {
		t.Fatalf("spill footprint %d bytes, want within the 8192 budget", qm.SpillBytes)
	}
	// The retained window is a contiguous suffix: one gap, then events
	// through the end.
	events, _ := reg.HistoryPage(0, 1000)
	if len(events) == 0 || events[0].Kind != EventGap {
		t.Fatalf("first history event = %+v, want the rotation gap", events)
	}
	next := events[0].DroppedTo
	for _, ev := range events[1:] {
		if ev.Kind == EventGap {
			t.Fatalf("history window not contiguous: %+v", ev)
		}
		if ev.EventSeq != next {
			t.Fatalf("history seq %d, want %d", ev.EventSeq, next)
		}
		next++
	}
	if next != 401 {
		t.Fatalf("history ends at %d, want 401", next)
	}
}

// The unversioned aliases are gone: GET /queries answers 404, the /v1
// surface carries no deprecation headers, and errors everywhere use the
// typed envelope.
func TestHTTPDeprecationAndErrorEnvelope(t *testing.T) {
	_, ts := newHTTPServer(t, 20)

	unversioned, err := http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	unversioned.Body.Close()
	if unversioned.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /queries -> %d, want 404", unversioned.StatusCode)
	}

	v1, err := http.Get(ts.URL + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	v1.Body.Close()
	if v1.StatusCode != http.StatusOK || v1.Header.Get("Deprecation") != "" {
		t.Fatalf("GET /v1/queries -> %d, Deprecation %q", v1.StatusCode, v1.Header.Get("Deprecation"))
	}

	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"GET", "/v1/queries/q999/results", "", http.StatusNotFound, "query_not_found"},
		{"GET", "/v1/queries/q999", "", http.StatusNotFound, "query_not_found"},
		{"POST", "/v1/queries/q999/ack", `{"seq":1}`, http.StatusNotFound, "query_not_found"},
		{"GET", "/v1/queries/q999/history", "", http.StatusNotFound, "query_not_found"},
		{"POST", "/v1/queries", "SELECT nonsense", http.StatusBadRequest, "invalid_query"},
		{"POST", "/v1/queries", `SELECT FRAMES FROM nosuch WHERE COUNT(car) = 1`, http.StatusUnprocessableEntity, "feed_not_found"},
		{"POST", "/v1/feeds/gone/drain", "", http.StatusNotFound, "feed_not_found"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env apiError
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: envelope decode: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != tc.status || env.Error.Code != tc.code || env.Error.Message == "" {
			t.Fatalf("%s %s -> %d %q (%q), want %d %q",
				tc.method, tc.path, resp.StatusCode, env.Error.Code, env.Error.Message, tc.status, tc.code)
		}
	}

	// Registering an oversized result ring is the canonical 422 cap
	// rejection.
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query": "SELECT FRAMES FROM jackson WHERE COUNT(car) = 1", "result_buffer": %d}`, MaxResultBuffer+1)))
	if err != nil {
		t.Fatal(err)
	}
	var env apiError
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != "buffer_too_large" {
		t.Fatalf("oversized buffer -> %d %+v, %v", resp.StatusCode, env, err)
	}
}
