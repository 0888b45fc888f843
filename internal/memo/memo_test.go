package memo

import (
	"runtime"
	"testing"

	"vmq/internal/video"
)

func frames(n int) []*video.Frame {
	fs := make([]*video.Frame, n)
	for i := range fs {
		fs[i] = &video.Frame{Index: i}
	}
	return fs
}

func value(f *video.Frame) int { return 10 * f.Index }

func values(fs []*video.Frame) []int {
	vs := make([]int, len(fs))
	for i, f := range fs {
		vs[i] = value(f)
	}
	return vs
}

// recovered runs fn and returns the value it panicked with, or nil.
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// awaitHits spins until n callers have claimed an entry someone else
// owns, which is the point where they block on its latch.
func awaitHits(c *Cache[int], n int64) {
	for c.hits.Load() < n {
		runtime.Gosched()
	}
}

// The single-frame path: callers waiting on a fill that panics re-panic
// with the owner's value, the poisoned entry leaves the cache, and the
// next claim fills again.
func TestMemoGetPoisonWakesWaiters(t *testing.T) {
	c := New[int](0)
	f := frames(1)[0]
	entered, release := make(chan struct{}), make(chan struct{})
	boom := "fill failed"
	owner := make(chan any)
	go func() {
		owner <- recovered(func() {
			c.Get(f, func(*video.Frame) int {
				close(entered)
				<-release
				panic(boom)
			})
		})
	}()
	<-entered

	const waiters = 4
	got := make(chan any, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			got <- recovered(func() { c.Get(f, func(*video.Frame) int { panic("a waiter must not fill") }) })
		}()
	}
	awaitHits(c, waiters)
	close(release)

	if p := <-owner; p != boom {
		t.Fatalf("owner panicked with %v, want %v", p, boom)
	}
	for i := 0; i < waiters; i++ {
		if p := <-got; p != boom {
			t.Fatalf("waiter panicked with %v, want the owner's %v", p, boom)
		}
	}
	if n := c.Entries(); n != 0 {
		t.Fatalf("poisoned entry still cached: %d entries", n)
	}
	fills := 0
	if v := c.Get(f, func(f *video.Frame) int { fills++; return value(f) }); v != value(f) || fills != 1 {
		t.Fatalf("retry returned %d after %d fills, want %d after 1", v, fills, value(f))
	}
	if hits, misses := c.Stats(); hits != waiters || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want %d / 2", hits, misses, waiters)
	}
}

// The batch path: a batch whose fill panics poisons exactly the frames it
// owned. Single-frame waiters and an overlapping batch re-panic with its
// value; the overlapping batch's own frames stay cached; a later batch
// fills only the poisoned frames again.
func TestMemoGetBatchPoisonWakesWaiters(t *testing.T) {
	c := New[int](0)
	fs := frames(6)
	entered, release := make(chan struct{}), make(chan struct{})
	boom := "batch fill failed"
	owner := make(chan any)
	go func() {
		owner <- recovered(func() {
			c.GetBatch(fs[:4], nil, func([]*video.Frame) []int {
				close(entered)
				<-release
				panic(boom)
			})
		})
	}()
	<-entered

	got := make(chan any, 3)
	for _, f := range fs[:2] {
		go func(f *video.Frame) {
			got <- recovered(func() { c.Get(f, func(*video.Frame) int { panic("a waiter must not fill") }) })
		}(f)
	}
	go func() {
		got <- recovered(func() { c.GetBatch(fs[2:], nil, values) })
	}()
	awaitHits(c, 4) // two single-frame waiters, and frames 2 and 3 of the overlapping batch
	close(release)

	if p := <-owner; p != boom {
		t.Fatalf("owner panicked with %v, want %v", p, boom)
	}
	for i := 0; i < 3; i++ {
		if p := <-got; p != boom {
			t.Fatalf("waiter panicked with %v, want the owner's %v", p, boom)
		}
	}
	if n := c.Entries(); n != 2 {
		t.Fatalf("%d entries cached, want the overlapping batch's 2", n)
	}
	var filled []*video.Frame
	out := c.GetBatch(fs, nil, func(owned []*video.Frame) []int {
		filled = append(filled, owned...)
		return values(owned)
	})
	if len(filled) != 4 || filled[0] != fs[0] || filled[3] != fs[3] {
		t.Fatalf("retry filled %d frames, want exactly the 4 poisoned ones", len(filled))
	}
	for i, v := range out {
		if v != value(fs[i]) {
			t.Fatalf("frame %d: got %d, want %d", i, v, value(fs[i]))
		}
	}
}

// A poisoned entry leaves the map but not the eviction queue. When its
// stale slot comes up, the frame's live retry must stay cached — on both
// paths.
func TestMemoRetryAfterPoisonKeepsItsSlot(t *testing.T) {
	for _, batch := range []bool{false, true} {
		c := New[int](2)
		fs := frames(2)
		a, b := fs[0], fs[1]
		fills := 0
		fail := true
		get := func(f *video.Frame) {
			fill := func(f *video.Frame) int {
				if f == a {
					fills++
				}
				if fail {
					fail = false
					panic("fill failed")
				}
				return value(f)
			}
			if batch {
				c.GetBatch([]*video.Frame{f}, nil, func(fs []*video.Frame) []int { return []int{fill(fs[0])} })
			} else {
				c.Get(f, fill)
			}
		}
		if recovered(func() { get(a) }) == nil {
			t.Fatal("the first fill must panic")
		}
		get(a)
		get(b)
		get(a)
		if fills != 2 {
			t.Fatalf("batch=%v: frame filled %d times (one poisoned, one retry), want 2", batch, fills)
		}
	}
}
