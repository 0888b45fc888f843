package server

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// waitState polls until the feed reaches the wanted lifecycle state.
func waitState(t *testing.T, f *feed, want FeedState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("feed %q stuck in %q, want %q", f.name, f.State(), want)
}

// A feed walks creating → running → draining → closed, the state is
// visible in Metrics, and a drain ends its queries with the
// "feed_drained" reason through the ordinary end-event path.
func TestServerFeedLifecycleStates(t *testing.T) {
	p := video.Jackson()
	push := stream.NewPushSource(32, stream.PushBlock)
	srv := New(Config{})
	defer srv.Close()
	if err := srv.CreateFeed(FeedConfig{
		Name: "cam", Profile: p, Source: push,
		Backend: filters.NewODFilter(p, 7, nil),
	}); err != nil {
		t.Fatal(err)
	}
	f, err := srv.feedByName("cam")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.State(); got != FeedCreating {
		t.Fatalf("before Start: state %q, want %q", got, FeedCreating)
	}
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM cam WHERE COUNT(car) = 1`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	if got := f.State(); got != FeedRunning {
		t.Fatalf("after Start: state %q, want %q", got, FeedRunning)
	}
	m := srv.Metrics()
	if len(m.Feeds) != 1 || m.Feeds[0].State != string(FeedRunning) {
		t.Fatalf("metrics state = %+v, want running", m.Feeds)
	}
	if m.Feeds[0].Ingest == nil || m.Feeds[0].Ingest.Capacity != 32 {
		t.Fatalf("metrics ingest = %+v, want ring of 32", m.Feeds[0].Ingest)
	}

	var outcome struct {
		final  Event
		sawEnd bool
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, outcome.final, outcome.sawEnd = drain(reg)
	}()
	for _, fr := range video.NewStream(p, 7).Take(50) {
		if err := push.Publish(fr, nil); err != nil {
			t.Error(err)
		}
	}
	if err := srv.DrainFeed("cam"); err != nil {
		t.Fatal(err)
	}
	if st := f.State(); st != FeedDraining && st != FeedClosed {
		t.Fatalf("after DrainFeed: state %q", st)
	}
	<-done
	if !outcome.sawEnd {
		t.Fatal("drained query's stream closed without an end event")
	}
	if outcome.final.Reason != EndReasonFeedDrained {
		t.Fatalf("end reason %q, want %q", outcome.final.Reason, EndReasonFeedDrained)
	}
	waitState(t, f, FeedClosed)
	if err := srv.RemoveFeed("cam"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.feedByName("cam"); !errors.Is(err, ErrFeedNotFound) {
		t.Fatalf("removed feed still resolves: %v", err)
	}
	// The freed name is reusable.
	if err := srv.CreateFeed(FeedConfig{
		Name: "cam", Profile: p,
		Source: stream.NewPushSource(8, stream.PushBlock),
	}); err != nil {
		t.Fatalf("name not freed after RemoveFeed: %v", err)
	}
}

// Registering on a draining feed must fail with ErrFeedDraining — a
// query admitted after the ingest cut would start mid-teardown and never
// see a frame. Draining before Start keeps the feed in the draining
// state deterministically (no pump runs to close it).
func TestServerRegisterOnDrainingFeedRejected(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	defer srv.Close()
	if err := srv.CreateFeed(FeedConfig{
		Name: "cam", Profile: p,
		Source: stream.NewPushSource(8, stream.PushBlock),
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.DrainFeed("cam"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register(parse(t, `SELECT FRAMES FROM cam WHERE COUNT(car) = 1`), Options{}); !errors.Is(err, ErrFeedDraining) {
		t.Fatalf("register on draining feed: err = %v, want ErrFeedDraining", err)
	}
	// Draining again is a no-op, not an error.
	if err := srv.DrainFeed("cam"); err != nil {
		t.Fatal(err)
	}
	f, _ := srv.feedByName("cam")
	srv.Start()
	waitState(t, f, FeedClosed)
}

// Deleting a feed with live registrations must emit each query's end
// event, carrying the typed "feed_removed" reason, before the result log
// closes — none may be lost to the teardown.
func TestServerRemoveFeedEmitsEndEvents(t *testing.T) {
	p := video.Jackson()
	push := stream.NewPushSource(64, stream.PushBlock)
	srv := New(Config{})
	defer srv.Close()
	if err := srv.CreateFeed(FeedConfig{
		Name: "cam", Profile: p, Source: push,
		Backend: filters.NewODFilter(p, 7, nil),
	}); err != nil {
		t.Fatal(err)
	}
	const nQueries = 3
	regs := make([]*Registration, nQueries)
	for i := range regs {
		var err error
		regs[i], err = srv.Register(parse(t, `SELECT FRAMES FROM cam WHERE COUNT(car) = 1`), Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	finals := make([]Event, nQueries)
	ends := make([]bool, nQueries)
	var wg sync.WaitGroup
	for i, r := range regs {
		wg.Add(1)
		go func(i int, r *Registration) {
			defer wg.Done()
			_, finals[i], ends[i] = drain(r)
		}(i, r)
	}
	for _, fr := range video.NewStream(p, 7).Take(120) {
		if err := push.Publish(fr, nil); err != nil {
			t.Error(err)
		}
	}
	if err := srv.RemoveFeed("cam"); err != nil {
		t.Fatal(err)
	}
	// RemoveFeed returning means every registration finished: the end
	// events are already in their logs, so the consumers complete without
	// further stimulus.
	wg.Wait()
	for i := range regs {
		if !ends[i] {
			t.Fatalf("query %d: end event lost in feed removal", i)
		}
		if finals[i].Reason != EndReasonFeedRemoved {
			t.Fatalf("query %d: end reason %q, want %q", i, finals[i].Reason, EndReasonFeedRemoved)
		}
		if finals[i].Final == nil {
			t.Fatalf("query %d: end event carries no final result", i)
		}
	}
	if m := srv.Metrics(); len(m.Feeds) != 0 {
		t.Fatalf("feed still listed after removal: %+v", m.Feeds)
	}
}

// Feed churn under the race detector: feeds on clones of one trained
// network created, drained and deleted concurrently with query
// registration. No end event may be lost whichever way a feed goes away,
// and afterwards no feed and no running query is left behind.
func TestServerFeedChurnOnTrainedClones(t *testing.T) {
	base := video.Jackson()
	tcfg := filters.TrainedConfig{Img: 16, Channels: 8, Seed: 33}
	srv := New(Config{})
	defer srv.Close()
	srv.Start()

	const rounds, feedsPer, queriesPer, nFrames = 4, 3, 2, 48
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i := 0; i < feedsPer; i++ {
			wg.Add(1)
			go func(round, i int) {
				defer wg.Done()
				name := fmt.Sprintf("cam-%d-%d", round, i)
				clip := video.NewStream(base, uint64(100+round*feedsPer+i)).Take(nFrames)
				if err := srv.CreateFeed(FeedConfig{
					Name: name, Profile: base,
					Source:  &stream.SliceSource{Frames: clip},
					Backend: filters.NewUntrained(filters.OD, base, tcfg, nil),
				}); err != nil {
					t.Error(err)
					return
				}
				regs := make([]*Registration, queriesPer)
				for q := range regs {
					var err error
					regs[q], err = srv.Register(
						parse(t, `SELECT FRAMES FROM `+name+` WHERE COUNT(car) = 1`), Options{})
					if err != nil {
						t.Error(err)
						return
					}
				}
				type outcome struct {
					reason string
					sawEnd bool
				}
				done := make(chan []outcome, 1)
				go func() {
					outs := make([]outcome, queriesPer)
					var cwg sync.WaitGroup
					for q, r := range regs {
						cwg.Add(1)
						go func(q int, r *Registration) {
							defer cwg.Done()
							_, final, sawEnd := drain(r)
							outs[q] = outcome{reason: final.Reason, sawEnd: sawEnd}
						}(q, r)
					}
					cwg.Wait()
					done <- outs
				}()
				var outs []outcome
				okReasons := map[string]bool{"": true}
				switch i % 3 {
				case 0: // bounded clip runs out on its own, then the feed is removed
					outs = <-done
					if err := srv.RemoveFeed(name); err != nil {
						t.Error(err)
					}
				case 1: // drained mid-flight, then removed
					if err := srv.DrainFeed(name); err != nil {
						t.Error(err)
					}
					outs = <-done
					okReasons[EndReasonFeedDrained] = true
					if err := srv.RemoveFeed(name); err != nil {
						t.Error(err)
					}
				default: // removed mid-flight
					if err := srv.RemoveFeed(name); err != nil {
						t.Error(err)
					}
					outs = <-done
					okReasons[EndReasonFeedRemoved] = true
				}
				for q, o := range outs {
					if !o.sawEnd {
						t.Errorf("feed %s query %d: end event lost", name, q)
					}
					if !okReasons[o.reason] {
						t.Errorf("feed %s query %d: unexpected end reason %q", name, q, o.reason)
					}
				}
			}(round, i)
		}
	}
	wg.Wait()

	m := srv.Metrics()
	if len(m.Feeds) != 0 {
		t.Fatalf("feeds left behind after churn: %+v", m.Feeds)
	}
	// Registrations outlive their feed so consumers can still read the
	// logs, but every one must have finished.
	for _, q := range m.Queries {
		if !q.Done {
			t.Fatalf("query %s on %s still running after churn", q.ID, q.Feed)
		}
	}
}

// Frames arriving through the push-ingestion bridge — round-tripped
// through the publisher wire codec — must produce results field-identical
// to the same clip decoded from a recorded source.
func TestServerPushIngestMatchesFileDecodedFeed(t *testing.T) {
	p := video.Jackson()
	const n = 600
	frames := video.NewStream(p, 42).Take(n)
	pushed := make([]*video.Frame, n)
	for i, fr := range frames {
		pf, err := encodeWireFrame(fr).frame(p)
		if err != nil {
			t.Fatalf("frame %d did not survive the wire codec: %v", i, err)
		}
		pushed[i] = pf
	}

	push := stream.NewPushSource(32, stream.PushBlock)
	srv := New(Config{})
	defer srv.Close()
	if err := srv.CreateFeed(FeedConfig{
		Name: "jackson", Profile: p, Source: push,
		Backend: filters.NewODFilter(p, 42, nil),
	}); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`,
		`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`,
		`SELECT FRAMES FROM jackson WHERE COUNT(person) >= 1`,
	}
	regs := make([]*Registration, len(queries))
	for i, src := range queries {
		var err error
		if regs[i], err = srv.Register(parse(t, src), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	go func() {
		for _, fr := range pushed {
			if err := push.Publish(fr, nil); err != nil {
				t.Error(err)
				return
			}
		}
		push.Close()
	}()

	type outcome struct {
		events []Event
		final  Event
		sawEnd bool
	}
	outcomes := make([]outcome, len(regs))
	var wg sync.WaitGroup
	for i, r := range regs {
		wg.Add(1)
		go func(i int, r *Registration) {
			defer wg.Done()
			outcomes[i].events, outcomes[i].final, outcomes[i].sawEnd = drain(r)
		}(i, r)
	}
	wg.Wait()

	for i, src := range queries {
		if !outcomes[i].sawEnd {
			t.Fatalf("query %d: stream closed without an end event", i)
		}
		if outcomes[i].final.Reason != "" {
			t.Fatalf("query %d: natural end carries reason %q", i, outcomes[i].final.Reason)
		}
		plan := query.MustBind(parse(t, src), p)
		eng := &query.Engine{
			Backend:  filters.NewODFilter(p, 42, nil),
			Detector: detect.NewOracle(nil),
			Tol:      query.Tolerances{Count: 1, Location: 1},
		}
		want := eng.RunStream(plan, &stream.SliceSource{Frames: frames}, n)
		if !reflect.DeepEqual(outcomes[i].final.Final, want) {
			t.Fatalf("query %d diverged from the file-decoded path:\n got %+v\nwant %+v",
				i, outcomes[i].final.Final, want)
		}
		if len(outcomes[i].events) != len(want.Matched) {
			t.Fatalf("query %d: %d match events for %d matches", i, len(outcomes[i].events), len(want.Matched))
		}
		for j, ev := range outcomes[i].events {
			if ev.Kind != EventMatch || ev.Seq != want.Matched[j] {
				t.Fatalf("query %d event %d = %+v, want match at %d", i, j, ev, want.Matched[j])
			}
		}
	}
	if got := push.Published(); got != n {
		t.Fatalf("ingest ring admitted %d frames, want %d", got, n)
	}
	if got := push.Dropped(); got != 0 {
		t.Fatalf("block policy dropped %d frames", got)
	}
}

// Shutdown drains every feed: in-flight queries end with the
// "feed_drained" reason and their consumers complete before the server
// closes; the server refuses new feeds afterwards.
func TestServerShutdownDrainsFeeds(t *testing.T) {
	p := video.Jackson()
	push := stream.NewPushSource(64, stream.PushBlock)
	srv := New(Config{})
	if err := srv.CreateFeed(FeedConfig{
		Name: "cam", Profile: p, Source: push,
		Backend: filters.NewODFilter(p, 7, nil),
	}); err != nil {
		t.Fatal(err)
	}
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM cam WHERE COUNT(car) = 1`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	for _, fr := range video.NewStream(p, 7).Take(60) {
		if err := push.Publish(fr, nil); err != nil {
			t.Fatal(err)
		}
	}
	var final Event
	var sawEnd bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, final, sawEnd = drain(reg)
	}()
	srv.Shutdown(10 * time.Second)
	<-done
	if !sawEnd {
		t.Fatal("shutdown lost the query's end event")
	}
	if final.Reason != EndReasonFeedDrained {
		t.Fatalf("end reason %q, want %q", final.Reason, EndReasonFeedDrained)
	}
	if err := srv.AddFeed(FeedConfig{
		Name: "late", Profile: p,
		Source: stream.NewPushSource(8, stream.PushBlock),
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddFeed after Shutdown: err = %v, want ErrClosed", err)
	}
}
