package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vmq/internal/rlog"
	"vmq/internal/vql"
)

// recoverAt builds a journaling server over dir.
func recoverAt(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.StateDir = dir
	srv, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// readEvent reads one event from a cursor with a timeout, so a recovery
// bug that stalls the stream fails the test instead of hanging it.
func readEvent(t *testing.T, r *Registration, reader *rlog.Reader[Event], timeout time.Duration) (Event, bool) {
	t.Helper()
	abort := make(chan struct{})
	tm := time.AfterFunc(timeout, func() { close(abort) })
	defer tm.Stop()
	it, ok := reader.Next(abort)
	if !ok {
		return Event{}, false
	}
	return r.itemEvent(it), true
}

// The kill-restart acceptance bar: a consumer that durably processed
// (acked) through sequence N before the process was killed resumes at
// N+1 after Recover and reads a stream gap-free and byte-identical to
// an uninterrupted run.
func TestServerRecoverResumeByteIdentical(t *testing.T) {
	const (
		n          = 120 // feed length: 120 match events + 1 end event
		ackThrough = 39  // the consumer durably processed 0..39
	)
	spec := FeedSpec{Name: "jackson", Profile: "jackson", Source: "sim", MaxFrames: n}
	src := `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`

	// Reference: the uninterrupted run.
	ref := func() []Event {
		srv := recoverAt(t, t.TempDir(), Config{})
		defer srv.Close()
		if err := srv.CreateFeedSpec(spec); err != nil {
			t.Fatal(err)
		}
		reg, err := srv.Register(parse(t, src), Options{Spill: true})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		evs, final, sawEnd := drain(reg)
		if !sawEnd {
			t.Fatal("reference run: no end event")
		}
		return append(evs, final)
	}()
	if len(ref) != n+1 {
		t.Fatalf("reference run produced %d events, want %d", len(ref), n+1)
	}

	// The run that dies: consume the stream, ack through ackThrough, kill.
	dir := t.TempDir()
	srv := recoverAt(t, dir, Config{})
	if err := srv.CreateFeedSpec(spec); err != nil {
		t.Fatal(err)
	}
	reg, err := srv.Register(parse(t, src), Options{Spill: true})
	if err != nil {
		t.Fatal(err)
	}
	id := reg.ID()
	srv.Start()
	if evs, _, sawEnd := drain(reg); !sawEnd || len(evs) != n {
		t.Fatalf("pre-crash run: %d events, end=%v", len(evs), sawEnd)
	}
	if got := reg.Ack(ackThrough); got != ackThrough {
		t.Fatalf("ack = %d, want %d", got, ackThrough)
	}
	srv.Crash()

	// Restart: the query recovers finished with its history durable, and
	// the consumer resumes exactly where its acks left off.
	srv2 := recoverAt(t, dir, Config{})
	defer srv2.Close()
	r2, ok := srv2.Get(id)
	if !ok {
		t.Fatalf("query %s not recovered", id)
	}
	reader := r2.ResultsFrom(ackThrough + 1)
	defer reader.Detach()
	i := ackThrough + 1
	for {
		it, ok := reader.Next(neverBlock)
		if !ok {
			break
		}
		ev := r2.itemEvent(it)
		if ev.Kind == EventGap {
			t.Fatalf("gap on resume: %+v", ev)
		}
		if i > n {
			t.Fatalf("stream overran: unexpected event %+v", ev)
		}
		if int(ev.EventSeq) != i {
			t.Fatalf("resumed seq = %d, want %d", ev.EventSeq, i)
		}
		want, _ := json.Marshal(ref[i])
		got, _ := json.Marshal(ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d differs after restart:\n got %s\nwant %s", i, got, want)
		}
		i++
	}
	if i != n+1 {
		t.Fatalf("resumed consumer read through seq %d, want %d (end event included)", i-1, n)
	}

	// The recovered row reports itself: finished, recovered, acks intact.
	var found bool
	for _, qm := range srv2.Metrics().Queries {
		if qm.ID != id {
			continue
		}
		found = true
		if !qm.Done || !qm.Recovered {
			t.Fatalf("recovered row: done=%v recovered=%v, want both", qm.Done, qm.Recovered)
		}
		if qm.Acked != ackThrough {
			t.Fatalf("recovered acked = %d, want %d", qm.Acked, ackThrough)
		}
	}
	if !found {
		t.Fatalf("query %s missing from metrics after recovery", id)
	}
}

// A crash with the producer mid-stream: after Recover the query
// re-registers live under its original id, the durable prefix is
// redelivered byte-identical, and the sequence continues into freshly
// produced events without a gap.
func TestServerRecoverMidStreamCrash(t *testing.T) {
	const (
		readBefore = 30 // events consumed before the kill
		ackThrough = 19 // durably processed before the kill
	)
	dir := t.TempDir()
	spec := FeedSpec{Name: "jackson", Profile: "jackson", Source: "sim"} // unbounded
	src := `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`

	srv := recoverAt(t, dir, Config{})
	if err := srv.CreateFeedSpec(spec); err != nil {
		t.Fatal(err)
	}
	reg, err := srv.Register(parse(t, src), Options{Spill: true})
	if err != nil {
		t.Fatal(err)
	}
	id := reg.ID()
	srv.Start()
	reader := reg.ResultsFrom(0)
	seen := make([]Event, 0, readBefore)
	for len(seen) < readBefore {
		ev, ok := readEvent(t, reg, reader, 10*time.Second)
		if !ok {
			t.Fatalf("stream ended after %d events", len(seen))
		}
		if ev.Kind == EventGap {
			t.Fatalf("gap before crash: %+v", ev)
		}
		seen = append(seen, ev)
	}
	reader.Detach()
	reg.Ack(ackThrough)
	srv.Crash()

	srv2 := recoverAt(t, dir, Config{})
	r2, ok := srv2.Get(id)
	if !ok {
		t.Fatal("query not recovered")
	}
	if !r2.recovered {
		t.Fatal("recovered registration not marked recovered")
	}
	srv2.Start()
	reader2 := r2.ResultsFrom(ackThrough + 1)
	// The durable overlap redelivers byte-identical events.
	for i := ackThrough + 1; i < readBefore; i++ {
		ev, ok := readEvent(t, r2, reader2, 10*time.Second)
		if !ok {
			t.Fatalf("stream ended at seq %d", i)
		}
		if ev.Kind == EventGap {
			t.Fatalf("gap in recovered history: %+v", ev)
		}
		want, _ := json.Marshal(seen[i])
		got, _ := json.Marshal(ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("redelivered event %d differs:\n got %s\nwant %s", i, got, want)
		}
	}
	// And the stream keeps going: the restarted runner extends the same
	// sequence with live events, no gap at the durable/live boundary.
	expect := int64(readBefore)
	for k := 0; k < 50; k++ {
		ev, ok := readEvent(t, r2, reader2, 10*time.Second)
		if !ok {
			t.Fatalf("no live events after recovery (at seq %d)", expect)
		}
		if ev.Kind == EventGap {
			t.Fatalf("gap across the durable/live boundary: %+v", ev)
		}
		if ev.EventSeq != expect {
			t.Fatalf("live seq = %d, want %d", ev.EventSeq, expect)
		}
		expect++
	}
	reader2.Detach()
	srv2.Close()
}

// A feed drained before the crash restarts drained: un-draining on
// restart would silently resurrect ingestion the operator shut down.
func TestServerRecoverDrainedFeedStaysDrained(t *testing.T) {
	dir := t.TempDir()
	srv := recoverAt(t, dir, Config{})
	if err := srv.CreateFeedSpec(FeedSpec{Name: "jackson", Profile: "jackson", Source: "sim"}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	if err := srv.DrainFeed("jackson"); err != nil {
		t.Fatal(err)
	}
	srv.Crash()

	srv2 := recoverAt(t, dir, Config{})
	defer srv2.Close()
	if _, err := srv2.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{}); !errors.Is(err, ErrFeedDraining) {
		t.Fatalf("register on recovered drained feed = %v, want ErrFeedDraining", err)
	}
}

// A spill directory no journalled query claims — the residue of a crash
// between id reservation and the register record — is swept on recovery;
// directories outside the server's naming scheme are left alone.
func TestServerRecoverSweepsOrphanSpills(t *testing.T) {
	dir := t.TempDir()
	recoverAt(t, dir, Config{}).Close()

	orphan := filepath.Join(dir, "spill", "q9")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "seg-0.ndjson"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "spill", "not-a-query")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}

	srv := recoverAt(t, dir, Config{})
	defer srv.Close()
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan spill dir not swept: %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("non-server directory swept: %v", err)
	}
}

// A registration the server refuses appends nothing to the manifest and
// burns no id: the next accepted query is still q1.
func TestServerRejectedRegistrationBurnsNoID(t *testing.T) {
	dir := t.TempDir()
	srv := recoverAt(t, dir, Config{})
	defer srv.Close()
	if err := srv.CreateFeedSpec(FeedSpec{Name: "jackson", Profile: "jackson", Source: "sim", MaxFrames: 10}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	overlap := parse(t, `SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) = 1 WINDOW HOPPING (SIZE 100, ADVANCE BY 100)`)
	overlap.Window.Advance = 50
	valid := `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`
	for _, r := range []struct {
		q   *vql.Query
		opt Options
	}{
		{parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(tank) = 1`), Options{}},
		{parse(t, `SELECT FRAMES FROM (PROCESS jackson USING nosuch) WHERE COUNT(car) = 1`), Options{}},
		{overlap, Options{}},
		{parse(t, valid), Options{ResultBuffer: MaxResultBuffer + 1}},
	} {
		if _, err := srv.Register(r.q, r.opt); err == nil {
			t.Errorf("%s %+v accepted", r.q, r.opt)
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Errorf("rejected registrations changed the manifest (err %v):\nbefore %s\nafter  %s", err, before, after)
	}
	reg, err := srv.Register(parse(t, valid), Options{})
	if err != nil {
		t.Fatal(err)
	}
	go drain(reg)
	if reg.ID() != "q1" {
		t.Fatalf("first accepted query got id %s, want q1", reg.ID())
	}
}
