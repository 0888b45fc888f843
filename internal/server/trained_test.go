package server

import (
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

// A fleet of feeds serving clones of one trained network — separate
// instances, identical weights — must not change any query's results:
// each feed's memo wraps its own network, and every query's events and
// final result are field-identical to a standalone RunStream over its
// feed's frames. FanoutBuffer 2 keeps each feed's chunks sparse (1–2
// frames) while the feeds' evaluations overlap.
func TestServerTrainedFleetMatchesStandalone(t *testing.T) {
	base := video.Jackson()
	const nFeeds, nQueries, nFrames = 4, 2, 96
	const src = `SELECT FRAMES FROM jackson%d WHERE COUNT(car) = 1`
	tcfg := filters.TrainedConfig{Img: 16, Channels: 8, Seed: 33}
	clips := make([][]*video.Frame, nFeeds)
	srv := New(Config{FanoutBuffer: 2})
	defer srv.Close()
	for i := range clips {
		clips[i] = video.NewStream(base, uint64(60+i)).Take(nFrames)
		p := base
		p.Name = fmt.Sprintf("jackson%d", i)
		if err := srv.AddFeed(FeedConfig{
			Name: p.Name, Profile: p,
			Source:  &stream.SliceSource{Frames: clips[i]},
			Backend: filters.NewUntrained(filters.OD, base, tcfg, nil),
		}); err != nil {
			t.Fatal(err)
		}
	}
	type outcome struct {
		events []Event
		final  Event
		sawEnd bool
	}
	out := make([][nQueries]outcome, nFeeds)
	var wg sync.WaitGroup
	for i := range out {
		for q := range out[i] {
			r, err := srv.Register(parse(t, fmt.Sprintf(src, i)), Options{})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(o *outcome) {
				defer wg.Done()
				o.events, o.final, o.sawEnd = drain(r)
			}(&out[i][q])
		}
	}
	srv.Start()
	wg.Wait()

	for i, clip := range clips {
		p := base
		p.Name = fmt.Sprintf("jackson%d", i)
		eng := &query.Engine{
			Backend:  filters.NewUntrained(filters.OD, base, tcfg, nil),
			Detector: detect.NewOracle(nil),
			Tol:      query.Tolerances{Count: 1, Location: 1},
		}
		want := eng.RunStream(query.MustBind(parse(t, fmt.Sprintf(src, i)), p), &stream.SliceSource{Frames: clip}, nFrames)
		for q, o := range out[i] {
			if !o.sawEnd || o.final.Final == nil {
				t.Fatalf("feed %d query %d: no end event with a final result", i, q)
			}
			if !reflect.DeepEqual(o.final.Final, want) {
				t.Fatalf("feed %d query %d diverged from standalone RunStream:\n got %+v\nwant %+v", i, q, o.final.Final, want)
			}
			if len(o.events) != len(want.Matched) {
				t.Fatalf("feed %d query %d: %d match events, standalone matched %d", i, q, len(o.events), len(want.Matched))
			}
			for e, ev := range o.events {
				f := clip[want.Matched[e]]
				if ev.Kind != EventMatch || ev.Seq != want.Matched[e] || ev.FrameIndex != f.Index || ev.Objects != len(f.Objects) {
					t.Fatalf("feed %d query %d event %d = %+v, want the match at seq %d", i, q, e, ev, want.Matched[e])
				}
			}
		}
	}
}

// A paced feed behind a trained network must deliver every match — its
// chunks take the frames already held instead of waiting for a full one —
// and stay result-identical to a standalone run of the same clip.
func TestServerCoalescePacedDeadlineFlush(t *testing.T) {
	p := video.Jackson()
	const n = 48
	frames := video.NewStream(p, 91).Take(n)
	tcfg := filters.TrainedConfig{Img: 16, Channels: 8, Seed: 91}
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:        &stream.SliceSource{Frames: frames},
		Backend:       filters.NewUntrained(filters.OD, p, tcfg, nil),
		FrameInterval: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	evs, _, sawEnd := drain(r)
	if !sawEnd {
		t.Fatal("paced run did not finish")
	}
	eng := &query.Engine{
		Backend:  filters.NewUntrained(filters.OD, p, tcfg, nil),
		Detector: detect.NewOracle(nil),
		Tol:      query.Tolerances{Count: 1, Location: 1},
	}
	plan := query.MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	want := eng.RunStream(plan, &stream.SliceSource{Frames: frames}, n)
	if len(evs) != len(want.Matched) {
		t.Fatalf("paced run matched %d frames, standalone %d", len(evs), len(want.Matched))
	}
	for i, ev := range evs {
		if ev.Seq != want.Matched[i] {
			t.Fatalf("match %d at seq %d, want %d", i, ev.Seq, want.Matched[i])
		}
	}
}

// Query churn with per-query override backends must not accumulate
// state: when the last registration using an override backend retires,
// the feed drops its shared entry, so a long-running server's memos and
// retained weight tensors stay bounded.
func TestServerOverrideBackendChurnReleases(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source: stream.FromStream(video.NewStream(p, 71)), // unbounded live feed
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	tcfg := filters.TrainedConfig{Img: 16, Channels: 8, Seed: 71}
	const churn = 5
	for i := 0; i < churn; i++ {
		r, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), Options{
			Backend:   filters.NewUntrained(filters.OD, p, tcfg, nil),
			MaxFrames: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, sawEnd := drain(r); !sawEnd {
			t.Fatalf("churn query %d did not finish", i)
		}
		<-r.Done()
	}
	f := srv.feeds[p.Name]
	f.mu.Lock()
	entries := len(f.shared)
	f.mu.Unlock()
	if entries != 1 { // only the feed's default backend remains
		t.Fatalf("feed retains %d shared entries after churn, want 1", entries)
	}
}

// One frame published to an idle push feed must produce its match event
// while no second frame exists: the query's chunking must not hold it for
// batch-mates. The network saw exactly one batch of one.
func TestServerCoalesceLoneFrameMatchesAtOnce(t *testing.T) {
	p := video.Jackson()
	tcfg := filters.TrainedConfig{Img: 16, Channels: 8, Seed: 91}
	rec := &widthsBackend{Coalescable: filters.NewUntrained(filters.OD, p, tcfg, nil), widths: make(chan int, 64)}
	push := stream.NewPushSource(8, stream.PushBlock)
	srv := New(Config{})
	defer srv.Close()
	if err := srv.CreateFeed(FeedConfig{Name: "cam", Profile: p, Source: push, Backend: rec}); err != nil {
		t.Fatal(err)
	}
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM cam WHERE COUNT(car) >= 0`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	frame := video.NewStream(p, 5).Next()
	if err := push.Publish(frame, nil); err != nil {
		t.Fatal(err)
	}
	if ev := <-reg.Results(); ev.Kind != EventMatch || ev.FrameIndex != frame.Index {
		t.Fatalf("first event %+v, want the match for frame %d", ev, frame.Index)
	}
	if n := len(rec.widths); n != 1 {
		t.Fatalf("network ran %d evaluations for one frame, want 1", n)
	}
	if w := <-rec.widths; w != 1 {
		t.Fatalf("network evaluated a batch of %d, want a batch of one", w)
	}
}
