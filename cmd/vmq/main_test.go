package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmq/internal/server"
)

// runCmd drives the dispatcher exactly as main does, capturing output.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// An unknown subcommand prints the usage to stderr and exits non-zero.
func TestUnknownCommand(t *testing.T) {
	code, stdout, stderr := runCmd("frobnicate")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if stdout != "" {
		t.Fatalf("unexpected stdout %q", stdout)
	}
	if !strings.Contains(stderr, `unknown command "frobnicate"`) || !strings.Contains(stderr, "usage: vmq") {
		t.Fatalf("stderr = %q, want the error and the usage", stderr)
	}
}

// No arguments at all is a usage error too.
func TestNoCommand(t *testing.T) {
	code, _, stderr := runCmd()
	if code != 2 || !strings.Contains(stderr, "usage: vmq") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// Bad flags surface as a non-zero exit without killing the process (the
// flag sets must not use ExitOnError).
func TestBadFlag(t *testing.T) {
	code, _, stderr := runCmd("query", "-definitely-not-a-flag")
	if code == 0 {
		t.Fatal("bad flag accepted")
	}
	if !strings.Contains(stderr, "flag provided but not defined") {
		t.Fatalf("stderr = %q", stderr)
	}
}

// Asking a subcommand for help prints its flags and exits 0, as the
// pre-refactor flag.ExitOnError behaviour did.
func TestSubcommandHelp(t *testing.T) {
	code, _, stderr := runCmd("query", "-h")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(stderr, "-q string") {
		t.Fatalf("stderr = %q, want the flag listing", stderr)
	}
}

// A missing -q is a command error with exit code 1.
func TestQueryMissingFlag(t *testing.T) {
	code, _, stderr := runCmd("query")
	if code != 1 || !strings.Contains(stderr, "-q is required") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// An -img whose location grid would pass grid.MaxG columns is refused
// before any training starts.
func TestTrainRejectsOversizedImage(t *testing.T) {
	code, stdout, stderr := runCmd("train", "-img", "300")
	if code != 1 || !strings.Contains(stderr, "Img 300") || strings.Contains(stdout, "training") {
		t.Fatalf("code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
}

// The query happy path on a small synthetic stream reports the cascade
// counters.
func TestQueryHappyPath(t *testing.T) {
	code, stdout, stderr := runCmd("query",
		"-q", "SELECT FRAMES FROM jackson WHERE COUNT(car) = 1",
		"-frames", "200")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{"query: SELECT FRAMES FROM jackson", "frames: 200", "filter passed:", "virtual pipeline time:"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// -explain compiles the query as the run does: a monitor prints its
// cascade, and an aggregate fails as `vmq query` fails on it.
func TestQueryExplain(t *testing.T) {
	code, stdout, stderr := runCmd("query", "-explain",
		"-q", "SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND car LEFT OF person")
	want := `plan for: SELECT FRAMES FROM jackson WHERE (COUNT(car) = 1 AND car LEFT OF person)
dataset:  jackson (1.2 obj/frame)
filters:  OD, tolerances CCF-1/CLF-1
cascade:
  AND
    COUNT(car) = 1   <- CCF
    car left-of person   <- CLF activation maps + CCF cross-check
cost model: 1.9ms/frame filter + 200ms/frame detector on passed frames
`
	if code != 0 || stdout != want {
		t.Fatalf("code=%d stderr=%q stdout:\n%s\nwant:\n%s", code, stderr, stdout, want)
	}

	code, stdout, stderr = runCmd("query", "-explain",
		"-q", "SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) >= 1 WINDOW HOPPING (SIZE 300, ADVANCE BY 300)")
	wantErr := "vmq: invalid query: COUNT(FRAMES) is an aggregate; run it window by window\n"
	if code != 1 || stdout != "" || stderr != wantErr {
		t.Fatalf("aggregate: code=%d stdout=%q stderr=%q, want exit 1 and %q", code, stdout, stderr, wantErr)
	}
}

// The windows happy path estimates consecutive hopping windows.
func TestWindowsHappyPath(t *testing.T) {
	code, stdout, stderr := runCmd("windows",
		"-q", "SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) = 1 WINDOW HOPPING (SIZE 150, ADVANCE BY 150)",
		"-n", "2", "-samples", "30")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "window  0:") || !strings.Contains(stdout, "window  1:") {
		t.Fatalf("stdout missing window estimates:\n%s", stdout)
	}
}

// serve's feed parsing rejects unknown datasets and assembles real
// servers for known ones; the assembled server speaks the HTTP API end
// to end.
func TestServeBuildServer(t *testing.T) {
	if _, err := buildServer(serveConfig{feeds: "jackson,nosuch", seed: 1, frames: 100}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := buildServer(serveConfig{feeds: "", seed: 1}); err == nil {
		t.Fatal("empty feed list accepted")
	}
	if _, err := buildServer(serveConfig{feeds: "jackson", seed: 1, policy: "nonsense"}); err == nil {
		t.Fatal("unknown delivery policy accepted")
	}
	srv, err := buildServer(serveConfig{
		feeds: "jackson, detrac", seed: 1, frames: 120,
		policy: "drop-oldest", resultLog: 256, maxQueries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/queries", "text/plain",
		strings.NewReader("SELECT FRAMES FROM detrac WHERE COUNT(car) >= 3"))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID   string `json:"id"`
		Feed string `json:"feed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.Feed != "detrac" {
		t.Fatalf("created = %+v", created)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/queries/" + created.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawEnd := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON %q: %v", sc.Text(), err)
		}
		if ev.Kind == server.EventEnd {
			sawEnd = true
			if ev.Final == nil || ev.Final.FramesTotal != 120 {
				t.Fatalf("final = %+v, want a 120-frame run", ev.Final)
			}
		}
	}
	if !sawEnd {
		t.Fatal("result stream ended without an end event")
	}
}

// A cancelled context (the SIGINT/SIGTERM path) shuts serve down
// gracefully: the in-flight result stream sees its query end with the
// feed_drained reason — not a severed connection — and runServe returns
// cleanly once everything is drained and closed.
func TestServeGracefulShutdown(t *testing.T) {
	srv, err := buildServer(serveConfig{feeds: "jackson", seed: 1, policy: "block"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out strings.Builder
	done := make(chan error, 1)
	hs, errc := serveHolding(ln)
	go func() { done <- runServe(ctx, srv, hs, errc, ln.Addr().String(), "jackson", 10*time.Second, &out) }()
	base := "http://" + ln.Addr().String()

	// Wait for the real API: until runServe swaps it in, the holding
	// handler answers every path with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/metrics")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/queries", "text/plain",
		strings.NewReader("SELECT FRAMES FROM jackson WHERE COUNT(car) = 1"))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	finals := make(chan server.Event, 1)
	go func() {
		resp, err := http.Get(base + "/v1/queries/" + created.ID + "/results")
		if err != nil {
			t.Error(err)
			finals <- server.Event{}
			return
		}
		defer resp.Body.Close()
		var final server.Event
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var ev server.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Error(err)
				break
			}
			if ev.Kind == server.EventEnd {
				final = ev
			}
		}
		finals <- final
	}()

	// The "signal" lands only once the result stream is attached, so the
	// shutdown always has a live consumer to drain to.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var row struct {
			Readers int `json:"readers"`
		}
		resp, err := http.Get(base + "/v1/queries/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&row)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if row.Readers > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result stream never attached")
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("runServe: %v", err)
	}
	final := <-finals
	if final.Kind != server.EventEnd {
		t.Fatal("result stream severed without an end event during shutdown")
	}
	if final.Reason != server.EndReasonFeedDrained {
		t.Fatalf("end reason %q, want %q", final.Reason, server.EndReasonFeedDrained)
	}
	if !strings.Contains(out.String(), "drained and closed") {
		t.Fatalf("shutdown log missing: %q", out.String())
	}
}
