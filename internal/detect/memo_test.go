package detect

import (
	"reflect"
	"sync"
	"testing"

	"vmq/internal/simclock"
	"vmq/internal/video"
)

func TestOrderInsensitiveDeclarations(t *testing.T) {
	if !IsOrderInsensitive(NewOracle(nil)) {
		t.Fatal("oracle must declare order-insensitive detections")
	}
	if IsOrderInsensitive(NewSimYOLO(nil, 1)) {
		t.Fatal("SimYOLO's RNG is call-order sensitive; it must not qualify")
	}
	if NewMemo(NewSimYOLO(nil, 1), 0) != nil {
		t.Fatal("NewMemo must refuse an order-sensitive detector")
	}
}

// The memo serves identical detections to every query while running the
// inner detector (and charging its clock) once per frame.
func TestMemoSharesDetections(t *testing.T) {
	p := video.Detrac()
	frames := video.NewStream(p, 21).Take(48)
	clk := simclock.New()
	memo := NewMemo(NewOracle(clk), 0)
	if memo == nil {
		t.Fatal("memo over the oracle must construct")
	}
	if memo.Cost() != simclock.CostMaskRCNN {
		t.Fatalf("cost not forwarded: %+v", memo.Cost())
	}

	const queries = 5
	var wg sync.WaitGroup
	outs := make([][][]Detection, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for _, f := range frames {
				outs[q] = append(outs[q], memo.Detect(f))
			}
		}(q)
	}
	wg.Wait()

	if got := clk.Calls("mask-rcnn"); got != int64(len(frames)) {
		t.Fatalf("inner detector ran %d times for %d frames x %d queries", got, len(frames), queries)
	}
	hits, misses := memo.Stats()
	if misses != int64(len(frames)) || hits != int64((queries-1)*len(frames)) {
		t.Fatalf("stats = %d hits / %d misses", hits, misses)
	}
	reference := NewOracle(nil)
	for q := 0; q < queries; q++ {
		for i, f := range frames {
			if !reflect.DeepEqual(outs[q][i], reference.Detect(f)) {
				t.Fatalf("query %d frame %d: memoised detections diverge from a fresh oracle", q, i)
			}
		}
	}
}

// Eviction bounds the cache without breaking correctness.
func TestMemoEviction(t *testing.T) {
	p := video.Jackson()
	frames := video.NewStream(p, 22).Take(40)
	clk := simclock.New()
	memo := NewMemo(NewOracle(clk), 8)
	for _, f := range frames {
		memo.Detect(f)
	}
	reference := NewOracle(nil)
	for _, f := range frames {
		if !reflect.DeepEqual(memo.Detect(f), reference.Detect(f)) {
			t.Fatalf("frame %d: post-eviction detections diverge", f.Index)
		}
	}
	if got := clk.Calls("mask-rcnn"); got != int64(2*len(frames)) {
		t.Fatalf("inner ran %d times, want %d (full re-evaluation after thrash)", got, 2*len(frames))
	}
}

// A detection memo serving an endless feed must hold a bounded number of
// entries: frames past the eviction watermark are released and only cost
// a re-evaluation if a straggler query revisits them.
func TestMemoBoundedUnderLongFeed(t *testing.T) {
	p := video.Detrac()
	const capacity, total = 128, 4096
	memo := NewMemo(NewOracle(nil), capacity)
	src := video.NewStream(p, 31)
	for i := 0; i < total; i++ {
		memo.Detect(src.Next())
		if got := memo.Entries(); got > capacity {
			t.Fatalf("after %d frames the memo holds %d entries, cap %d", i+1, got, capacity)
		}
	}
	if got := memo.Entries(); got != capacity {
		t.Fatalf("steady state holds %d entries, want the full capacity %d", got, capacity)
	}
	if hits, misses := memo.Stats(); hits != 0 || misses != total {
		t.Fatalf("distinct frames: hits=%d misses=%d, want 0/%d", hits, misses, total)
	}
}

// faultyOracle panics on its first Detect of frame fail and counts every
// call per frame, the panicking one included.
type faultyOracle struct {
	*Oracle
	fail  *video.Frame
	calls map[*video.Frame]int
}

func (o *faultyOracle) Detect(f *video.Frame) []Detection {
	o.calls[f]++
	if f == o.fail && o.calls[f] == 1 {
		panic("injected detector fault")
	}
	return o.Oracle.Detect(f)
}

// A frame whose first Detect panicked is retried, and the retry keeps its
// place in the eviction queue: the poisoned attempt's stale slot must not
// evict the live entry, which would run the detector (and charge its
// clock) a third time.
func TestMemoRetryAfterPanicKeepsItsSlot(t *testing.T) {
	p := video.Detrac()
	frames := video.NewStream(p, 23).Take(2)
	a, b := frames[0], frames[1]
	inner := &faultyOracle{Oracle: NewOracle(nil), fail: a, calls: map[*video.Frame]int{}}
	memo := NewMemo(inner, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected fault must reach the caller")
			}
		}()
		memo.Detect(a)
	}()
	memo.Detect(a)
	memo.Detect(b)
	memo.Detect(a)
	if got := inner.calls[a]; got != 2 {
		t.Fatalf("frame detected %d times (one poisoned, one retry), want 2", got)
	}
}

// A hit allocates nothing, and a miss at most the entry and its latch:
// the frames carry no objects, so the oracle itself allocates nothing.
func TestMemoAllocs(t *testing.T) {
	const runs = 50
	empty := make([]*video.Frame, runs+1)
	for i := range empty {
		empty[i] = &video.Frame{Index: i}
	}
	memo := NewMemo(NewOracle(nil), 0)
	next := 0
	if n := testing.AllocsPerRun(runs, func() { memo.Detect(empty[next]); next++ }); n > 2 {
		t.Errorf("miss: %v allocs, want <= 2", n)
	}
	if n := testing.AllocsPerRun(runs, func() { memo.Detect(empty[0]) }); n != 0 {
		t.Errorf("hit: %v allocs, want 0", n)
	}
}
