package filters

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"vmq/internal/nn"
	"vmq/internal/simclock"
	"vmq/internal/tensor"
	"vmq/internal/video"
)

// fanoutBackends returns the trained backends whose EvaluateBatch splits
// frames across cores, each on its own clock, keyed by the clock's cost
// name for the charge check.
func fanoutBackends() map[string]BatchBackend {
	p := video.Jackson()
	cfg := TrainedConfig{Img: 32, Channels: 8, Seed: 11}
	od := NewUntrained(OD, p, cfg, simclock.New())
	return map[string]BatchBackend{
		"ic": NewUntrained(IC, p, cfg, simclock.New()),
		"od": od,
		"cof": &TrainedCOF{Net: nn.NewCountOnlyNet(rand.New(rand.NewPCG(11, 0)), 3, 32),
			Clock: simclock.New(), Img: 32, NoiseSeed: 13},
		// The struct literal an external caller can build: no class
		// universe, no threshold, and every reusable buffer left at its
		// zero value for the first call to grow.
		"zero-value": &Trained{Clock: simclock.New(), Img: od.Img, NoiseSeed: od.NoiseSeed, Net: od.Net},
	}
}

func clockOf(b BatchBackend) (*simclock.Clock, string) {
	switch b := b.(type) {
	case *Trained:
		return b.Clock, b.Tech.Cost().Name
	case *TrainedCOF:
		return b.Clock, OD.Cost().Name
	}
	panic("not a trained backend")
}

// However many cores one batch call is split across, every frame's output
// must equal its per-frame Evaluate, the call must charge one clock unit
// per frame, and the caller's dst prefix must survive untouched.
func TestTrainedEvaluateBatchAcrossProcs(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 11).Take(40)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for name, b := range fanoutBackends() {
		want := make([]*Output, len(frames))
		for i, f := range frames {
			want[i] = b.Evaluate(f)
		}
		clk, op := clockOf(b)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, w := range []int{1, 2, 3, 31, 33, 40} {
				head := &Output{Total: -1}
				// Odd widths append in place, even ones make dst grow.
				dst := make([]*Output, 1, 1+w%2*w)
				dst[0] = head
				before := clk.Calls(op)
				got := b.EvaluateBatch(frames[:w], dst)
				if len(got) != 1+w || got[0] != head || head.Total != -1 {
					t.Fatalf("%s procs=%d w=%d: dst prefix not preserved (len %d)", name, procs, w, len(got))
				}
				if !reflect.DeepEqual(got[1:], want[:w]) {
					t.Fatalf("%s procs=%d w=%d: batched outputs diverged from Evaluate", name, procs, w)
				}
				if n := clk.Calls(op) - before; n != int64(w) {
					t.Fatalf("%s procs=%d w=%d: %d clock charges, want %d", name, procs, w, n, w)
				}
			}
		}
	}
}

// A warmed 32-frame call split over two cores allocates no more than the
// pass before the fan-out did at GOMAXPROCS=2 (310 at Go 1.24: outputs,
// maps, the network's tensor headers and the rasteriser pool's
// goroutines) plus four. testing.AllocsPerRun pins GOMAXPROCS to 1, which
// would run a single part, so this counts mallocs around a loop instead.
func TestTrainedEvaluateBatchAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	b := fanoutBackends()["od"]
	frames := video.NewStream(video.Jackson(), 11).Take(32)
	dst := b.EvaluateBatch(frames, nil)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		dst = b.EvaluateBatch(frames, dst[:0])
	}
	runtime.ReadMemStats(&after)
	if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs > 310+4 {
		t.Fatalf("32-frame EvaluateBatch allocates %v objects, want <= %d", allocs, 310+4)
	}
}

// panicPart fails the two-frame part of a three-frame call split in two,
// which a worker goroutine runs; the caller's one-frame part succeeds.
type panicPart struct{}

func (panicPart) forward(_ *nn.Arena, batch *tensor.Tensor, out []*Output) {
	if batch.Shape[0] == 2 {
		panic("part failed")
	}
	out[0] = &Output{}
}

// A panic in a worker goroutine's part surfaces on the calling goroutine
// (where the memo poisons its entries) after every part has finished,
// instead of killing the process.
func TestFanoutReraisesPartPanic(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var s fanout
	defer func() {
		if r := recover(); r != "part failed" {
			t.Fatalf("recovered %v, want the worker part's panic", r)
		}
	}()
	s.evaluate(panicPart{}, video.NewStream(video.Jackson(), 3).Take(3), 8, 1, nil)
}
