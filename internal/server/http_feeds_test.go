package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmq/internal/stream"
	"vmq/internal/video"
)

// newFeedAPIServer starts an empty server (no seeded feed) behind the
// HTTP API, for tests that create feeds at runtime.
func newFeedAPIServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response, want int) feedStatus {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("status = %d, want %d", resp.StatusCode, want)
	}
	var st feedStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The acceptance path, end to end over HTTP: create a push feed at
// runtime, register a query on it, publish >1k frames through the NDJSON
// bridge, watch them matched, drain, and delete — with the end event
// delivered, typed, and nothing lost.
func TestHTTPFeedLifecycleAndPublish(t *testing.T) {
	_, ts := newFeedAPIServer(t)
	p := video.Jackson()
	const n = 1200

	st := decodeStatus(t, postJSON(t, apiBase(ts)+"/feeds", createFeedRequest{
		Name: "cam1", Profile: "jackson",
	}), http.StatusCreated)
	if st.State != string(FeedRunning) {
		t.Fatalf("created feed state %q, want running (server already started)", st.State)
	}
	if st.Profile != "jackson" {
		t.Fatalf("created feed profile %q, want the dataset name, not the bind copy", st.Profile)
	}
	if st.Ingest == nil || st.Ingest.Capacity != defaultIngestBuffer || st.Ingest.Policy != string(stream.PushBlock) {
		t.Fatalf("created feed ingest = %+v", st.Ingest)
	}

	// Duplicate names and unknown profiles are refused.
	if resp := postJSON(t, apiBase(ts)+"/feeds", createFeedRequest{Name: "cam1", Profile: "jackson"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate feed: status %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := postJSON(t, apiBase(ts)+"/feeds", createFeedRequest{Name: "cam2", Profile: "nowhere"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown profile: status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Register a query on the runtime feed.
	resp, err := http.Post(apiBase(ts)+"/queries", "text/plain",
		strings.NewReader(`SELECT FRAMES FROM cam1 WHERE COUNT(car) = 1`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register on runtime feed: status %d", resp.StatusCode)
	}
	var created registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Stream results concurrently with publishing.
	type tally struct {
		matches int
		final   Event
		sawEnd  bool
	}
	results := make(chan tally, 1)
	go func() {
		var tl tally
		defer func() { results <- tl }()
		resp, err := http.Get(apiBase(ts) + "/queries/" + created.ID + "/results")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Error(err)
				return
			}
			switch ev.Kind {
			case EventMatch:
				tl.matches++
			case EventEnd:
				tl.final, tl.sawEnd = ev, true
			}
		}
	}()

	// Publish the clip in batches through the NDJSON bridge.
	frames := video.NewStream(p, 42).Take(n)
	const batch = 400
	for lo := 0; lo < n; lo += batch {
		body, err := EncodeFrames(frames[lo : lo+batch])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(apiBase(ts)+"/feeds/cam1/frames", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var pub publishResponse
		if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || pub.Published != batch || pub.Rejected != 0 || pub.Closed {
			t.Fatalf("publish batch at %d: status %d, %+v", lo, resp.StatusCode, pub)
		}
	}

	// The listing shows the feed running with every frame admitted.
	resp, err = http.Get(apiBase(ts) + "/feeds")
	if err != nil {
		t.Fatal(err)
	}
	var listed []feedStatus
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed) != 1 || listed[0].Name != "cam1" || listed[0].Ingest.Published != n {
		t.Fatalf("GET /feeds = %+v, want cam1 with %d published", listed, n)
	}

	// Drain: the query ends with the typed reason; nothing in flight lost.
	st = decodeStatus(t, postJSON(t, apiBase(ts)+"/feeds/cam1/drain", struct{}{}), http.StatusOK)
	if st.State != string(FeedDraining) && st.State != string(FeedClosed) {
		t.Fatalf("state after drain = %q", st.State)
	}
	tl := <-results
	if !tl.sawEnd {
		t.Fatal("results stream closed without an end event")
	}
	if tl.final.Reason != EndReasonFeedDrained {
		t.Fatalf("end reason %q, want %q", tl.final.Reason, EndReasonFeedDrained)
	}
	if tl.matches == 0 {
		t.Fatal("published clip produced no matches — frames did not reach the query")
	}

	// Publishing into the drained feed reports closed, not an error.
	line, err := EncodeFrames(frames[:1])
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(apiBase(ts)+"/feeds/cam1/frames", "application/x-ndjson", bytes.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	var pub publishResponse
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !pub.Closed || pub.Published != 0 {
		t.Fatalf("publish after drain = %+v, want closed", pub)
	}

	// Delete; a 200 means teardown completed and the name is free.
	req, err := http.NewRequest(http.MethodDelete, apiBase(ts)+"/feeds/cam1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	resp, err = http.Get(apiBase(ts) + "/feeds")
	if err != nil {
		t.Fatal(err)
	}
	listed = nil
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed) != 0 {
		t.Fatalf("feed still listed after delete: %+v", listed)
	}
	if resp := postJSON(t, apiBase(ts)+"/feeds/gone/drain", struct{}{}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain of unknown feed: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// Admission policies behave over the bridge: with no query consuming, a
// reject ring refuses the overflow and a drop-oldest ring evicts it —
// both visible in the publish response and the feed's ingest metrics.
func TestHTTPPublishAdmissionPolicies(t *testing.T) {
	_, ts := newFeedAPIServer(t)
	p := video.Jackson()
	frames := video.NewStream(p, 5).Take(20)
	body, err := EncodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}

	// No query subscribes, so the pump never drains the ring: admission is
	// exactly the ring capacity.
	decodeStatus(t, postJSON(t, apiBase(ts)+"/feeds", createFeedRequest{
		Name: "rej", Profile: "jackson", IngestBuffer: 8, IngestPolicy: "reject",
	}), http.StatusCreated)
	resp, err := http.Post(apiBase(ts)+"/feeds/rej/frames", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pub publishResponse
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pub.Published != 8 || pub.Rejected != 12 {
		t.Fatalf("reject policy: %+v, want 8 published / 12 rejected", pub)
	}

	decodeStatus(t, postJSON(t, apiBase(ts)+"/feeds", createFeedRequest{
		Name: "drop", Profile: "jackson", IngestBuffer: 8, IngestPolicy: "drop-oldest",
	}), http.StatusCreated)
	resp, err = http.Post(apiBase(ts)+"/feeds/drop/frames", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	pub = publishResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pub.Published != 20 || pub.Rejected != 0 {
		t.Fatalf("drop-oldest policy: %+v, want all 20 published", pub)
	}
	m, err := http.Get(apiBase(ts) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Metrics
	if err := json.NewDecoder(m.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	m.Body.Close()
	for _, fm := range snap.Feeds {
		switch fm.Name {
		case "drop":
			if fm.Ingest == nil || fm.Ingest.Dropped != 12 || fm.Ingest.Depth != 8 {
				t.Fatalf("drop feed ingest metrics = %+v, want 12 dropped at depth 8", fm.Ingest)
			}
		case "rej":
			if fm.Ingest == nil || fm.Ingest.Published != 8 {
				t.Fatalf("reject feed ingest metrics = %+v", fm.Ingest)
			}
		}
	}

	// An oversized ring request is refused before allocation, with the
	// cap-rejection code.
	if resp := postJSON(t, apiBase(ts)+"/feeds", createFeedRequest{
		Name: "huge", Profile: "jackson", IngestBuffer: MaxIngestBuffer + 1,
	}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("oversized ingest buffer: status %d, want 422", resp.StatusCode)
	} else {
		var env apiError
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "buffer_too_large" {
			t.Fatalf("oversized ingest buffer envelope = %+v, %v", env, err)
		}
		resp.Body.Close()
	}
}

// wsClientFrame encodes one masked client frame (clients must mask).
func wsClientFrame(op byte, fin bool, payload []byte) []byte {
	mask := [4]byte{0x21, 0x43, 0x65, 0x87}
	b0 := op
	if fin {
		b0 |= 0x80
	}
	out := []byte{b0}
	switch n := len(payload); {
	case n < 126:
		out = append(out, 0x80|byte(n))
	case n <= 0xFFFF:
		out = append(out, 0x80|126, byte(n>>8), byte(n))
	default:
		panic("test frame too large")
	}
	out = append(out, mask[:]...)
	for i, c := range payload {
		out = append(out, c^mask[i%4])
	}
	return out
}

// wsReadServerFrame reads one unmasked server frame (7- and 16-bit
// lengths; result events exceed the 125-byte short form).
func wsReadServerFrame(t *testing.T, br *bufio.Reader) (op byte, payload []byte) {
	t.Helper()
	b0, err := br.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := br.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	if b1&0x80 != 0 {
		t.Fatal("server frame is masked")
	}
	n := int(b1 & 0x7F)
	if n == 126 {
		var ext [2]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			t.Fatal(err)
		}
		n = int(ext[0])<<8 | int(ext[1])
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	return b0 & 0x0F, payload
}

// wsDial performs the client side of the handshake against the test
// server and returns the raw connection.
func wsDial(t *testing.T, tsURL, path string) (net.Conn, *bufio.Reader) {
	t.Helper()
	addr := strings.TrimPrefix(tsURL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	const key = "dGhlIHNhbXBsZSBub25jZQ=="
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n",
		"/v1"+path, addr, key)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("handshake status = %d, want 101", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Sec-WebSocket-Accept"), wsAcceptKey(key); got != want {
		t.Fatalf("Sec-WebSocket-Accept = %q, want %q", got, want)
	}
	return conn, br
}

// The WebSocket bridge: handshake, one frame per text message (including
// a fragmented one), ping answered with pong, clean close — and every
// published frame admitted to the feed.
func TestHTTPFeedWebSocketPublish(t *testing.T) {
	srv, ts := newFeedAPIServer(t)
	decodeStatus(t, postJSON(t, apiBase(ts)+"/feeds", createFeedRequest{
		Name: "wscam", Profile: "jackson", IngestBuffer: 128,
	}), http.StatusCreated)
	f, err := srv.feedByName("wscam")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM wscam WHERE COUNT(car) = 1`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	endc := make(chan Event, 1)
	go func() {
		_, final, _ := drain(reg)
		endc <- final
	}()

	p := video.Jackson()
	frames := video.NewStream(p, 9).Take(51)
	conn, br := wsDial(t, ts.URL, "/feeds/wscam/publish")
	for i, fr := range frames[:50] {
		msg, err := json.Marshal(encodeWireFrame(fr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wsClientFrame(wsOpText, true, msg)); err != nil {
			t.Fatal(err)
		}
		if i == 25 { // a ping mid-stream must come back as a pong
			if _, err := conn.Write(wsClientFrame(wsOpPing, true, []byte("hb"))); err != nil {
				t.Fatal(err)
			}
			op, payload := wsReadServerFrame(t, br)
			if op != wsOpPong || string(payload) != "hb" {
				t.Fatalf("ping answered with op %d %q", op, payload)
			}
		}
	}
	// The last frame arrives fragmented: text fragment + continuation.
	msg, err := json.Marshal(encodeWireFrame(frames[50]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wsClientFrame(wsOpText, false, msg[:len(msg)/2])); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wsClientFrame(wsOpCont, true, msg[len(msg)/2:])); err != nil {
		t.Fatal(err)
	}
	// Close handshake: the server echoes the close frame.
	if _, err := conn.Write(wsClientFrame(wsOpClose, true, []byte{0x03, 0xE8})); err != nil {
		t.Fatal(err)
	}
	op, _ := wsReadServerFrame(t, br)
	if op != wsOpClose {
		t.Fatalf("close answered with op %d", op)
	}

	// Everything published is admitted (block policy, consumer live).
	deadline := time.Now().Add(5 * time.Second)
	for f.push.Published() != int64(len(frames)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := f.push.Published(); got != int64(len(frames)) {
		t.Fatalf("bridge admitted %d frames, want %d", got, len(frames))
	}

	if err := srv.DrainFeed("wscam"); err != nil {
		t.Fatal(err)
	}
	final := <-endc
	if final.Reason != EndReasonFeedDrained {
		t.Fatalf("end reason %q, want %q", final.Reason, EndReasonFeedDrained)
	}

	// A publisher connecting to the drained feed is shut down with a
	// going-away close as soon as it publishes.
	conn2, br2 := wsDial(t, ts.URL, "/feeds/wscam/publish")
	msg, err = json.Marshal(encodeWireFrame(frames[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write(wsClientFrame(wsOpText, true, msg)); err != nil {
		t.Fatal(err)
	}
	op, payload := wsReadServerFrame(t, br2)
	if op != wsOpClose || len(payload) < 2 {
		t.Fatalf("drained feed answered op %d payload %q, want close", op, payload)
	}
	if code := uint16(payload[0])<<8 | uint16(payload[1]); code != 1001 {
		t.Fatalf("close code %d, want 1001 (going away)", code)
	}
}
