package filters

import (
	"reflect"
	"sync"
	"testing"

	"vmq/internal/simclock"
	"vmq/internal/video"
)

// countingBackend counts inner evaluations, concurrency-safely.
type countingBackend struct {
	Backend
	mu    sync.Mutex
	calls int
}

func (c *countingBackend) Evaluate(f *video.Frame) *Output {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Backend.Evaluate(f)
}

func (c *countingBackend) ConcurrentSafe() bool { return ConcurrentSafe(c.Backend) }

func (c *countingBackend) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// Shared serves identical outputs to every caller while evaluating the
// inner backend exactly once per frame, and forwards the backend metadata.
func TestSharedMemoisesPerFrame(t *testing.T) {
	p := video.Jackson()
	inner := &countingBackend{Backend: NewODFilter(p, 3, nil)}
	shared := NewShared(inner, 0)
	if shared.Technique() != OD || shared.Grid() != 56 {
		t.Fatalf("metadata not forwarded: %v g=%d", shared.Technique(), shared.Grid())
	}
	if !ConcurrentSafe(shared) {
		t.Fatal("Shared must declare concurrency safety")
	}
	frames := video.NewStream(p, 3).Take(64)
	reference := NewODFilter(p, 3, nil)
	const queries = 6
	var wg sync.WaitGroup
	outs := make([][]*Output, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for _, f := range frames {
				outs[q] = append(outs[q], shared.Evaluate(f))
			}
		}(q)
	}
	wg.Wait()
	if got := inner.Calls(); got != len(frames) {
		t.Fatalf("inner evaluated %d times for %d frames x %d queries", got, len(frames), queries)
	}
	hits, misses := shared.Stats()
	if misses != int64(len(frames)) || hits != int64((queries-1)*len(frames)) {
		t.Fatalf("stats = %d hits / %d misses, want %d / %d",
			hits, misses, (queries-1)*len(frames), len(frames))
	}
	for q := 0; q < queries; q++ {
		for i, f := range frames {
			if !reflect.DeepEqual(outs[q][i], reference.Evaluate(f)) {
				t.Fatalf("query %d frame %d: shared output diverges from a standalone backend", q, i)
			}
		}
	}
}

// The clock is charged once per frame, not once per query — the virtual
// saving the shared scan exists for.
func TestSharedChargesClockOncePerFrame(t *testing.T) {
	p := video.Jackson()
	clk := simclock.New()
	shared := NewShared(NewODFilter(p, 4, clk), 0)
	frames := video.NewStream(p, 4).Take(50)
	for q := 0; q < 4; q++ {
		for _, f := range frames {
			shared.Evaluate(f)
		}
	}
	if got := clk.Calls("od-filter"); got != int64(len(frames)) {
		t.Fatalf("clock charged %d times, want %d", got, len(frames))
	}
}

// Eviction keeps the cache bounded and never breaks correctness: a caller
// trailing past the capacity re-evaluates and still gets the per-frame
// deterministic output.
func TestSharedEviction(t *testing.T) {
	p := video.Jackson()
	inner := &countingBackend{Backend: NewODFilter(p, 5, nil)}
	shared := NewShared(inner, 16)
	frames := video.NewStream(p, 5).Take(64)
	for _, f := range frames {
		shared.Evaluate(f)
	}
	// Only the last 16 frames remain cached, and a full second pass
	// thrashes even those (its own insertions evict the cached tail before
	// the scan reaches it) — re-evaluating everything, with outputs still
	// per-frame deterministic. In production the queries advance together,
	// so their spread stays far below the capacity and this worst case
	// never occurs.
	reference := NewODFilter(p, 5, nil)
	for _, f := range frames {
		if !reflect.DeepEqual(shared.Evaluate(f), reference.Evaluate(f)) {
			t.Fatalf("frame %d: post-eviction output diverges", f.Index)
		}
	}
	if got := inner.Calls(); got != 2*64 {
		t.Fatalf("inner evaluated %d times, want %d", got, 2*64)
	}
}

// A backend that is not concurrency-safe can still be shared: Shared
// serialises the inner calls.
type unsafeBackend struct {
	Backend
	mu   sync.Mutex
	busy bool
}

func (u *unsafeBackend) Evaluate(f *video.Frame) *Output {
	u.mu.Lock()
	if u.busy {
		u.mu.Unlock()
		panic("concurrent call into a single-threaded backend")
	}
	u.busy = true
	u.mu.Unlock()
	out := u.Backend.Evaluate(f)
	u.mu.Lock()
	u.busy = false
	u.mu.Unlock()
	return out
}

func TestSharedSerialisesUnsafeInner(t *testing.T) {
	p := video.Jackson()
	inner := &unsafeBackend{Backend: NewODFilter(p, 6, nil)}
	if ConcurrentSafe(inner) {
		t.Fatal("test wrapper must read as single-threaded")
	}
	shared := NewShared(inner, 0)
	frames := video.NewStream(p, 6).Take(128)
	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			// Stagger starting points so goroutines race onto fresh frames.
			for i := range frames {
				shared.Evaluate(frames[(i+q*16)%len(frames)])
			}
		}(q)
	}
	wg.Wait()
}

// faultyBackend panics on its first evaluation of frame fail and counts
// every call per frame, the panicking one included.
type faultyBackend struct {
	Backend
	fail  *video.Frame
	calls map[*video.Frame]int
}

func (b *faultyBackend) Evaluate(f *video.Frame) *Output {
	b.calls[f]++
	if f == b.fail && b.calls[f] == 1 {
		panic("injected backend fault")
	}
	return b.Backend.Evaluate(f)
}

// A frame whose first evaluation panicked is retried, and the retry keeps
// its place in the eviction queue: the poisoned attempt's stale slot must
// not evict the live entry, which would evaluate the frame a third time.
func TestSharedRetryAfterPanicKeepsItsSlot(t *testing.T) {
	p := video.Jackson()
	frames := video.NewStream(p, 7).Take(2)
	a, b := frames[0], frames[1]
	inner := &faultyBackend{Backend: NewODFilter(p, 7, nil), fail: a, calls: map[*video.Frame]int{}}
	shared := NewShared(inner, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected fault must reach the caller")
			}
		}()
		shared.Evaluate(a)
	}()
	shared.Evaluate(a)
	shared.Evaluate(b)
	shared.Evaluate(a)
	if got := inner.calls[a]; got != 2 {
		t.Fatalf("frame evaluated %d times (one poisoned, one retry), want 2", got)
	}
}

// Memo bookkeeping must not tax the shared scan's allocations: a hit
// allocates nothing, an all-hit batch only its claim slice, and an
// all-miss batch at most 77 allocations over the bare batch evaluation
// (two per frame for the latch plus the batch's own slices).
func TestSharedAllocs(t *testing.T) {
	p := video.Jackson()
	const width, runs = 32, 10
	inner := NewODFilter(p, 8, nil)
	frames := video.NewStream(p, 8).Take(width * (runs + 1))
	batches := func() func() []*video.Frame {
		next := 0
		return func() []*video.Frame {
			b := frames[next : next+width]
			next += width
			return b
		}
	}
	dst := make([]*Output, 0, width)

	bare := batches()
	bareAllocs := testing.AllocsPerRun(runs, func() { EvaluateBatchInto(inner, bare(), nil) })
	shared := NewShared(inner, 0)
	miss := batches()
	missAllocs := testing.AllocsPerRun(runs, func() { shared.EvaluateBatch(miss(), dst[:0]) })
	if over := missAllocs - bareAllocs; over > 77 {
		t.Errorf("all-miss batch: %v allocs, %v over the bare evaluation's %v; want <= 77", missAllocs, over, bareAllocs)
	}
	if n := testing.AllocsPerRun(runs, func() { shared.EvaluateBatch(frames[:width], dst[:0]) }); n > 1 {
		t.Errorf("all-hit batch: %v allocs, want <= 1", n)
	}
	if n := testing.AllocsPerRun(runs, func() { shared.Evaluate(frames[0]) }); n != 0 {
		t.Errorf("single-frame hit: %v allocs, want 0", n)
	}
}
