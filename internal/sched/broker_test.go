package sched

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmq/internal/filters"
	"vmq/internal/video"
)

// countingCoalescable wraps a coalescable backend and counts true batch
// evaluations (= GEMM dispatches for trained backends).
type countingCoalescable struct {
	filters.Coalescable
	calls  atomic.Int64
	frames atomic.Int64
}

func (c *countingCoalescable) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	c.calls.Add(1)
	c.frames.Add(int64(len(frames)))
	return c.Coalescable.EvaluateBatch(frames, dst)
}

func (c *countingCoalescable) Evaluate(f *video.Frame) *filters.Output {
	var out [1]*filters.Output
	c.EvaluateBatch([]*video.Frame{f}, out[:0])
	return out[0]
}

func newTrained(t testing.TB, seed uint64) *filters.Trained {
	t.Helper()
	p := video.Jackson()
	return filters.NewUntrained(filters.OD, p, filters.TrainedConfig{Img: 16, Channels: 8, Seed: seed}, nil)
}

// gateBackend is a group evaluator whose batch evaluations park until the
// test lets them through, so a test decides exactly which submissions
// arrive while a run is in flight. entered reports each evaluation's
// width as it starts; one token on release (or closing it) lets one
// evaluation (or all of them) finish. While fault is set an evaluation
// panics once let through.
type gateBackend struct {
	filters.Coalescable
	entered chan int
	release chan struct{}
	fault   atomic.Bool
}

func newGate(inner filters.Coalescable) *gateBackend {
	// entered is sized past any test's evaluation count so the evaluator
	// never blocks on a test that has stopped reading it.
	return &gateBackend{Coalescable: inner, entered: make(chan int, 64), release: make(chan struct{})}
}

func (g *gateBackend) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	g.entered <- len(frames)
	<-g.release
	if g.fault.Load() {
		panic("injected batch fault")
	}
	return g.Coalescable.EvaluateBatch(frames, dst)
}

func (g *gateBackend) Evaluate(f *video.Frame) *filters.Output {
	var out [1]*filters.Output
	return g.EvaluateBatch([]*video.Frame{f}, out[:0])[0]
}

// submission is one EvaluateBatch call running on its own goroutine.
type submission struct {
	outs     []*filters.Output
	panicked any
	done     chan struct{}
}

func submitAsync(b filters.Backend, frames []*video.Frame) *submission {
	s := &submission{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer func() { s.panicked = recover() }()
		s.outs = filters.EvaluateBatchInto(b, frames, nil)
	}()
	return s
}

// parkBehindRun submits frames through b while a run is in flight and
// returns once the submission is parked in the group's queue, so
// successive calls park in a known order.
func parkBehindRun(t *testing.T, b filters.Backend, frames []*video.Frame) *submission {
	t.Helper()
	g := b.(*proxy).group
	parked := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		if !g.running {
			t.Fatal("no run in flight to park behind")
		}
		return len(g.pending)
	}
	before := parked()
	s := submitAsync(b, frames)
	for parked() == before {
		runtime.Gosched()
	}
	return s
}

func requireOutputs(t *testing.T, who int, s *submission, want []*filters.Output) {
	t.Helper()
	<-s.done
	if s.panicked != nil {
		t.Fatalf("submitter %d panicked: %v", who, s.panicked)
	}
	if len(s.outs) != len(want) {
		t.Fatalf("submitter %d: %d outputs, want %d", who, len(s.outs), len(want))
	}
	for j := range want {
		requireSameOutput(t, who, j, s.outs[j], want[j])
	}
}

// A lone submission into an idle group runs at once, as a batch of one,
// however many other members are attached: an idle evaluator has nothing
// to wait for.
func TestBrokerIdleGroupRunsLoneSubmissionAtOnce(t *testing.T) {
	gate := newGate(newTrained(t, 3))
	br := New(Config{Batch: 64})
	a := br.Wrap(gate)
	br.Wrap(newTrained(t, 3))
	br.Wrap(newTrained(t, 3))
	frames := video.NewStream(video.Jackson(), 9).Take(1)
	s := submitAsync(a, frames)
	// The evaluation starts while the other members are idle and nothing
	// else will ever arrive.
	if w := <-gate.entered; w != 1 {
		t.Fatalf("lone submission evaluated as a batch of %d", w)
	}
	gate.release <- struct{}{}
	requireOutputs(t, 0, s, filters.EvaluateBatch(newTrained(t, 3), frames))
	ms := br.Metrics()
	if len(ms) != 1 || ms[0].Batches != 1 || ms[0].Frames != 1 || ms[0].Merged != 0 || ms[0].Live != 3 {
		t.Fatalf("metrics after a lone submission: %+v", ms)
	}
}

// Submissions from many "feeds" that arrive while a run is in flight must
// be merged by the next run — whole requests only, in arrival order,
// capped at Batch — and every submitter must get outputs bit-identical to
// a standalone evaluation of its own frames.
func TestBrokerCoalescesAcrossSubmitters(t *testing.T) {
	p := video.Jackson()
	gate := newGate(newTrained(t, 7))
	br := New(Config{Batch: 8})
	sizes := []int{1, 3, 3, 3, 2} // submitter 0 leads; the rest park behind its run
	backends := make([]filters.Backend, len(sizes))
	clips := make([][]*video.Frame, len(sizes))
	for i, n := range sizes {
		if i == 0 {
			backends[i] = br.Wrap(gate) // first member becomes the evaluator
		} else {
			backends[i] = br.Wrap(newTrained(t, 7))
		}
		clips[i] = video.NewStream(p, uint64(100+i)).Take(n)
	}

	subs := make([]*submission, len(sizes))
	subs[0] = submitAsync(backends[0], clips[0])
	if w := <-gate.entered; w != 1 {
		t.Fatalf("leading run evaluated %d frames, want 1", w)
	}
	for i := 1; i < len(sizes); i++ {
		subs[i] = parkBehindRun(t, backends[i], clips[i])
	}
	// 3+3 fit under the cap of 8, the third 3 does not and is not split:
	// it leads the run after, which also takes the 2.
	for _, want := range []int{6, 5} {
		gate.release <- struct{}{}
		if w := <-gate.entered; w != want {
			t.Fatalf("merged run evaluated %d frames, want %d", w, want)
		}
	}
	close(gate.release)
	for i := range subs {
		requireOutputs(t, i, subs[i], filters.EvaluateBatch(newTrained(t, 7), clips[i]))
	}

	ms := br.Metrics()
	if len(ms) != 1 {
		t.Fatalf("one architecture, got %d groups: %+v", len(ms), ms)
	}
	if g := ms[0]; g.Members != len(sizes) || g.Batches != 3 || g.Frames != 12 || g.Merged != 2 || g.MaxBatch != 6 {
		t.Fatalf("group metrics %+v: want %d members, 3 batches of 1+6+5 frames, 2 merged", g, len(sizes))
	}
}

func requireSameOutput(t *testing.T, feed, j int, got, want *filters.Output) {
	t.Helper()
	if math.Float64bits(got.Total) != math.Float64bits(want.Total) {
		t.Fatalf("feed %d frame %d: total %v vs %v", feed, j, got.Total, want.Total)
	}
	for c := range got.Counts {
		if math.Float64bits(got.Counts[c]) != math.Float64bits(want.Counts[c]) {
			t.Fatalf("feed %d frame %d class %d: count %v vs %v", feed, j, c, got.Counts[c], want.Counts[c])
		}
		gm, wm := got.Maps[c], want.Maps[c]
		if (gm == nil) != (wm == nil) {
			t.Fatalf("feed %d frame %d class %d: map presence differs", feed, j, c)
		}
		if gm != nil {
			for k := range gm.Cells {
				if gm.Cells[k] != wm.Cells[k] {
					t.Fatalf("feed %d frame %d class %d cell %d differs", feed, j, c, k)
				}
			}
		}
	}
}

// A single-member group never merges: every submission finds the
// evaluator idle and runs alone.
func TestBrokerSingleMemberNoStall(t *testing.T) {
	br := New(Config{Batch: 64})
	b := br.Wrap(newTrained(t, 3))
	frames := video.NewStream(video.Jackson(), 9).Take(24)
	var outs []*filters.Output
	for i := 0; i < len(frames); i += 2 {
		outs = filters.EvaluateBatchInto(b, frames[i:i+2], outs[:0])
	}
	ms := br.Metrics()
	if len(ms) != 1 || ms[0].Frames != 24 || ms[0].Batches != 12 || ms[0].Merged != 0 {
		t.Fatalf("metrics after single-member run: %+v", ms)
	}
}

// Batch caps merging, it never splits a submission: a request wider than
// the cap still runs whole, in one evaluation.
func TestBrokerSizeTrigger(t *testing.T) {
	counting := &countingCoalescable{Coalescable: newTrained(t, 3)}
	br := New(Config{Batch: 4})
	b := br.Wrap(counting)
	frames := video.NewStream(video.Jackson(), 9).Take(6)
	if outs := filters.EvaluateBatch(b, frames); len(outs) != 6 {
		t.Fatalf("%d outputs, want 6", len(outs))
	}
	if counting.calls.Load() != 1 || counting.frames.Load() != 6 {
		t.Fatalf("evaluator saw %d calls / %d frames, want 1 / 6", counting.calls.Load(), counting.frames.Load())
	}
	if ms := br.Metrics(); len(ms) != 1 || ms[0].MaxBatch != 6 {
		t.Fatalf("metrics after an over-wide submission: %+v", ms)
	}
}

// Different architectures must form different groups — their frames never
// share a GEMM.
func TestBrokerGroupsByArchitecture(t *testing.T) {
	br := New(Config{Batch: 2})
	a := br.Wrap(newTrained(t, 1))
	b := br.Wrap(newTrained(t, 2))
	if len(br.Metrics()) != 2 {
		t.Fatalf("two architectures should form two groups: %+v", br.Metrics())
	}
	// Non-coalescable backends pass through unchanged.
	cal := filters.NewODFilter(video.Jackson(), 1, nil)
	if br.Wrap(cal) != filters.Backend(cal) {
		t.Fatal("calibrated backend should not be wrapped")
	}
	// Re-wrapping a proxy joins the same group instead of nesting.
	if rewrapped, ok := br.Wrap(a).(*proxy); !ok || rewrapped.group != a.(*proxy).group {
		t.Fatal("re-wrapping must join the existing group")
	}
	_ = b
}

// Hammer the broker from many goroutines under -race: correctness of the
// scatter (each caller gets outputs for exactly its frames, in order).
func TestBrokerScatterOrderUnderLoad(t *testing.T) {
	p := video.Jackson()
	inner := newTrained(t, 5)
	br := New(Config{Batch: 8})
	const workers = 6
	backends := make([]filters.Backend, workers)
	for i := range backends {
		backends[i] = br.Wrap(newTrained(t, 5))
	}
	clip := video.NewStream(p, 77).Take(60)
	want := filters.EvaluateBatch(inner, clip)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(clip); i += workers {
				out := backends[w].Evaluate(clip[i])
				requireSameOutput(t, w, i, out, want[i])
			}
		}(w)
	}
	wg.Wait()
}

// A departed member (its feed's source ended) no longer counts as live,
// and the members still attached keep being served.
func TestBrokerMemberLeave(t *testing.T) {
	br := New(Config{Batch: 64})
	a := br.Wrap(newTrained(t, 3))
	b := br.Wrap(newTrained(t, 3))
	b.(Member).Leave()
	b.(Member).Leave() // idempotent
	for _, f := range video.NewStream(video.Jackson(), 9).Take(8) {
		a.Evaluate(f)
	}
	ms := br.Metrics()
	if len(ms) != 1 || ms[0].Members != 2 || ms[0].Live != 1 || ms[0].Frames != 8 {
		t.Fatalf("metrics after leave: %+v", ms)
	}
}

// Members leaving while a run is in flight — even every one of them —
// must neither strand a request parked behind that run nor evaluate any
// frame twice; the group abandoned mid-run is retired once it goes idle,
// with every frame accounted.
func TestBrokerLeaveDuringRun(t *testing.T) {
	p := video.Jackson()
	gate := newGate(newTrained(t, 3))
	counting := &countingCoalescable{Coalescable: gate}
	br := New(Config{Batch: 64})
	a := br.Wrap(counting)
	b := br.Wrap(newTrained(t, 3))
	clipA := video.NewStream(p, 9).Take(2)
	clipB := video.NewStream(p, 10).Take(3)

	lead := submitAsync(a, clipA)
	<-gate.entered
	parked := parkBehindRun(t, b, clipB)
	b.(Member).Leave()
	a.(Member).Leave()
	close(gate.release)

	requireOutputs(t, 0, lead, filters.EvaluateBatch(newTrained(t, 3), clipA))
	requireOutputs(t, 1, parked, filters.EvaluateBatch(newTrained(t, 3), clipB))
	if calls, frames := counting.calls.Load(), counting.frames.Load(); calls != 2 || frames != 5 {
		t.Fatalf("evaluator saw %d calls / %d frames, want 2 / 5", calls, frames)
	}
	br.mu.Lock()
	active := len(br.groups)
	br.mu.Unlock()
	if active != 0 {
		t.Fatalf("%d groups still held after every member left", active)
	}
	ms := br.Metrics()
	if len(ms) != 1 || ms[0].Frames != 5 || ms[0].Batches != 2 || ms[0].Live != 0 {
		t.Fatalf("metrics after an abandoned group's last run: %+v", ms)
	}
}

// Rotated-out architectures must not pin their evaluator: when a group's
// last proxy departs, the group is removed (weights and scratch become
// collectable) while its counters stay visible, merged per key, in the
// metrics snapshot.
func TestBrokerRetiresAbandonedGroups(t *testing.T) {
	br := New(Config{Batch: 4})
	for round := 0; round < 3; round++ {
		b := br.Wrap(newTrained(t, 11)) // same key every round
		b.Evaluate(video.NewStream(video.Jackson(), 9).Next())
		b.(Member).Leave()
	}
	idle := br.Wrap(newTrained(t, 12)) // different key, never submits
	idle.(Member).Leave()

	br.mu.Lock()
	active := len(br.groups)
	br.mu.Unlock()
	if active != 0 {
		t.Fatalf("%d groups still held after every proxy left", active)
	}
	ms := br.Metrics()
	if len(ms) != 2 {
		t.Fatalf("want 2 retired keys in metrics, got %+v", ms)
	}
	for _, g := range ms {
		if g.Live != 0 {
			t.Fatalf("retired group reports live members: %+v", g)
		}
	}
	var submitted GroupMetrics
	for _, g := range ms {
		if g.Frames > 0 {
			submitted = g
		}
	}
	if submitted.Members != 3 || submitted.Frames != 3 || submitted.Batches != 3 {
		t.Fatalf("rotated key should accumulate 3 members/frames/batches: %+v", submitted)
	}
}

// A member whose evaluation panics must not take down its coalesce group:
// a poisoned merged run still resolves every request it took, healthy
// group-mates get outputs bit-identical to a standalone evaluation, only
// the faulting submitter observes the panic — and, although that
// submitter was leading the run, the request parked behind it is still
// promoted and the group keeps serving afterwards.
func TestBrokerIsolatesPanickingMember(t *testing.T) {
	p := video.Jackson()
	bad := newGate(newTrained(t, 7))
	br := New(Config{Batch: 8})
	// Wrapped first: the faulting backend becomes the group evaluator, so
	// the merged batch itself panics and the broker must fall back to
	// per-submitter isolation.
	badProxy := br.Wrap(bad)
	first, good, next := br.Wrap(newTrained(t, 7)), br.Wrap(newTrained(t, 7)), br.Wrap(newTrained(t, 7))
	clips := make([][]*video.Frame, 4)
	for i, n := range []int{1, 4, 4, 2} {
		clips[i] = video.NewStream(p, uint64(11+i)).Take(n)
	}
	want := func(i int) []*filters.Output { return filters.EvaluateBatch(newTrained(t, 7), clips[i]) }

	lead := submitAsync(first, clips[0])
	<-bad.entered
	faulting := parkBehindRun(t, badProxy, clips[1]) // leads the poisoned run
	healthy := parkBehindRun(t, good, clips[2])      // merged into it: 4+4 fills the cap
	behind := parkBehindRun(t, next, clips[3])       // left for the run after

	bad.release <- struct{}{}
	requireOutputs(t, 0, lead, want(0))
	if w := <-bad.entered; w != 8 {
		t.Fatalf("merged run evaluated %d frames, want 8", w)
	}
	bad.fault.Store(true)
	close(bad.release)

	<-faulting.done
	if faulting.panicked == nil {
		t.Fatal("faulting member's submitter never observed its panic")
	}
	requireOutputs(t, 2, healthy, want(2))
	// The evaluator is still armed, so the promoted request's own run is
	// poisoned too and resolves through its submitter's healthy backend.
	requireOutputs(t, 3, behind, want(3))

	// The group survives the fault: with the evaluator disarmed, members
	// keep evaluating through it with identical results.
	bad.fault.Store(false)
	requireOutputs(t, 2, submitAsync(good, clips[2]), want(2))
	ms := br.Metrics()
	if len(ms) != 1 || ms[0].Batches != 4 || ms[0].Frames != 15 || ms[0].Merged != 1 {
		t.Fatalf("metrics after the fault: %+v", ms)
	}
}

// Feeds joining and draining across architectures while merged runs
// execute: the broker's bookkeeping (join, run, leave, retire, metrics
// folds) must stay race-free and account for every frame exactly once.
// Run under -race this is the churn proof.
func TestBrokerChurn(t *testing.T) {
	p := video.Jackson()
	const arches, workers, rounds, perFeed = 5, 8, 6, 24
	br := New(Config{Batch: 6})

	stop := make(chan struct{})
	var snapshots sync.WaitGroup
	snapshots.Add(1)
	go func() {
		defer snapshots.Done()
		for {
			select {
			case <-stop:
				return
			default:
				br.Metrics()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frames := video.NewStream(p, uint64(500+w)).Take(perFeed)
			for round := 0; round < rounds; round++ {
				arch := (w + round) % arches
				bk := br.Wrap(newTrained(t, uint64(30+arch)))
				var outs []*filters.Output
				for off := 0; off+2 <= len(frames); off += 2 {
					outs = filters.EvaluateBatchInto(bk, frames[off:off+2], outs)
				}
				if len(outs) != perFeed {
					t.Errorf("worker %d round %d: %d outputs, want %d", w, round, len(outs), perFeed)
				}
				bk.(Member).Leave()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapshots.Wait()

	var frames int64
	for _, gm := range br.Metrics() {
		frames += gm.Frames
	}
	if want := int64(workers * rounds * perFeed); frames != want {
		t.Fatalf("metrics account %d frames, want %d", frames, want)
	}
}
