// Package sched implements the server-wide inference coalescing broker:
// the cross-feed generalisation of the per-feed micro-batching scan.
//
// The paper's economics argument is that monitoring many concurrent
// queries over many camera feeds is only viable when frame evaluation
// cost is amortised across everything that shares work. Within one feed
// the scan batcher already groups frames ahead of the fan-out; but a
// server hosting twenty sparse feeds that all serve the same trained
// model still issues twenty tiny GEMM batches where one would do — one
// per feed. The broker collects those pending batches from every feed whose
// backend shares a network architecture/weights identity
// (filters.Coalescable) and evaluates them as one large ForwardBatch,
// scattering the per-frame outputs back to each submitter — and through
// it into each feed's shared memo.
//
// Batches close by group commit: a submission that finds its group's
// evaluator idle runs at once, alone; submissions that arrive while a run
// is in flight park, and the next run merges them (whole requests, up to
// Config.Batch frames). Nothing ever waits for batch-mates that may not
// come — a frame only waits while the evaluator is busy — yet a saturated
// group still fills whole batches, because frames accumulate exactly
// while a run is in flight.
//
// Coalescing never changes a result: the batched kernels produce
// bit-identical per-frame outputs for every batch width, and equal
// coalescing keys certify that any member backend evaluates any member's
// frames identically.
package sched

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"vmq/internal/filters"
	"vmq/internal/video"
)

// Config tunes a Broker. The zero value selects the defaults.
type Config struct {
	// Batch caps a merged run: the frames of the whole parked requests
	// one evaluation takes (default 32 — two of the server's default
	// per-feed micro-batches). A single request larger than the cap still
	// runs whole. Values < 2 select the default.
	Batch int
}

// Broker coalesces batch evaluations across backends sharing an
// architecture identity. It never blocks a submission indefinitely:
// every request is evaluated by its own submitter or by the submitter
// leading the run that merges it, so shutdown needs no coordination.
//
// The broker's one mutex guards only group membership and metrics; runs
// are serialised per group, so unrelated architectures evaluate
// concurrently.
type Broker struct {
	batch int

	mu     sync.Mutex
	groups map[string]*group
	// retired accumulates the final counters of groups whose last proxy
	// departed (rotated-out architectures): the group itself is removed —
	// so its evaluator's weight tensors and scratch buffers are released —
	// but its history stays visible in Metrics, merged per key and capped
	// FIFO so churn cannot grow the snapshot without bound.
	retired      map[string]*GroupMetrics
	retiredOrder []string
}

// retainRetired caps how many departed architecture keys keep their
// accumulated counters in the metrics snapshot.
const retainRetired = 64

// New creates a Broker.
func New(cfg Config) *Broker {
	if cfg.Batch < 2 {
		cfg.Batch = 32
	}
	return &Broker{
		batch:   cfg.Batch,
		groups:  make(map[string]*group),
		retired: make(map[string]*GroupMetrics),
	}
}

// Wrap returns a backend whose batch evaluations are coalesced with every
// other Wrap-returned backend sharing b's coalescing key. Backends that
// declare no key (filters.CoalesceKeyOf == "") are returned unchanged —
// they evaluate exactly as before. The proxy is always safe for
// concurrent use: the broker serialises the underlying evaluations.
func (br *Broker) Wrap(b filters.Backend) filters.Backend {
	if br == nil {
		return b
	}
	key := filters.CoalesceKeyOf(b)
	if key == "" {
		return b
	}
	br.mu.Lock()
	defer br.mu.Unlock()
	g, ok := br.groups[key]
	if !ok {
		// The first member becomes the group's evaluator: equal keys make
		// member backends interchangeable, so one instance (one weight
		// set, one arena) serves the whole group cache-hot.
		g = &group{key: key, br: br, eval: b.(filters.Coalescable)}
		br.groups[key] = g
	}
	g.mu.Lock()
	g.joined++
	g.attached++
	g.mu.Unlock()
	return &proxy{group: g, inner: b}
}

// GroupMetrics is one architecture group's share of the broker snapshot.
type GroupMetrics struct {
	// Key is the group's architecture/weights identity.
	Key string `json:"key"`
	// Members is the number of backends ever wrapped into the group; Live
	// is how many of them are still attached — a backend detaches when its
	// feed's source ends or the feed closes.
	Members int `json:"members"`
	Live    int `json:"live"`
	// Batches is the number of coalesced evaluations; Frames the frames
	// they covered (AvgBatch = Frames/Batches); MaxBatch the largest
	// single evaluation.
	Batches  int64   `json:"batches"`
	Frames   int64   `json:"frames"`
	AvgBatch float64 `json:"avg_batch"`
	MaxBatch int     `json:"max_batch"`
	// Merged is the number of batches that combined frames from more than
	// one submission — the cross-feed coalescing the broker exists for.
	Merged int64 `json:"merged"`
}

// Metrics snapshots every group — active ones plus the accumulated
// counters of retired ones, merged per key — sorted by key.
func (br *Broker) Metrics() []GroupMetrics {
	if br == nil {
		return nil
	}
	byKey := make(map[string]GroupMetrics)
	br.mu.Lock()
	for key, gm := range br.retired {
		byKey[key] = *gm
	}
	groups := make([]*group, 0, len(br.groups))
	for _, g := range br.groups {
		groups = append(groups, g)
	}
	br.mu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		gm := g.snapshotLocked()
		g.mu.Unlock()
		byKey[g.key] = mergeGroupMetrics(byKey[g.key], gm)
	}
	out := make([]GroupMetrics, 0, len(byKey))
	for _, gm := range byKey {
		if gm.Batches > 0 {
			gm.AvgBatch = float64(gm.Frames) / float64(gm.Batches)
		}
		out = append(out, gm)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// mergeGroupMetrics folds b's counters into a (same key; the zero value
// is the identity).
func mergeGroupMetrics(a, b GroupMetrics) GroupMetrics {
	a.Key = b.Key
	a.Members += b.Members
	a.Live += b.Live
	a.Batches += b.Batches
	a.Frames += b.Frames
	a.Merged += b.Merged
	if b.MaxBatch > a.MaxBatch {
		a.MaxBatch = b.MaxBatch
	}
	return a
}

// retireLocked folds a departing group's counters into the broker's
// retired accumulator (caller holds br.mu and g.mu).
func (br *Broker) retireLocked(g *group) {
	gm := g.snapshotLocked()
	if have, ok := br.retired[g.key]; ok {
		*have = mergeGroupMetrics(*have, gm)
		return
	}
	br.retired[g.key] = &gm
	br.retiredOrder = append(br.retiredOrder, g.key)
	for len(br.retiredOrder) > retainRetired {
		delete(br.retired, br.retiredOrder[0])
		br.retiredOrder = br.retiredOrder[1:]
	}
}

// Member is implemented by the backends Wrap returns. Leave detaches the
// backend from its group when its feed stops submitting (source
// exhausted, feed closed); the group is removed once its last member has
// left. Leave is idempotent, and a member that submits again after
// leaving is still served.
type Member interface {
	Leave()
}

// request is one submission awaiting evaluation.
type request struct {
	from   *proxy // submitter: counted per run, and the fallback evaluator of a poisoned one
	frames []*video.Frame
	outs   []*filters.Output // filled by the run's leader
	pval   any               // panic value when this request's evaluation faulted
	// wake exists only on a request parked behind an in-flight run. It
	// receives true once another submitter's run has resolved the request,
	// false when the finishing leader hands it the evaluator.
	wake chan bool
}

// result returns the resolved request's outputs on its submitter's
// goroutine — or re-panics there with its evaluation's fault, where the
// query's own pipeline barrier (or the feed's warm-scan barrier) turns it
// into that query's typed failure.
func (r *request) result() []*filters.Output {
	if r.pval != nil {
		panic(r.pval)
	}
	return r.outs
}

// group is the state of one architecture identity.
type group struct {
	key  string
	br   *Broker
	eval filters.BatchBackend

	mu       sync.Mutex
	attached int // proxies wrapped and not yet departed: gates group removal
	joined   int // proxies ever wrapped (metrics)
	// running is set while a submitter leads a run. It serialises the
	// evaluations (member backends reuse forward-pass arenas and are not
	// concurrency-safe) and is what makes later submissions park in
	// pending, oldest first. An idle group has nothing pending.
	running  bool
	pending  []*request
	batches  int64
	frames   int64
	maxBatch int
	merged   int64

	// Recycled by whichever submitter currently leads.
	reqs    []*request
	all     []*video.Frame
	scratch []*filters.Output
}

// submit evaluates frames through the group and blocks until their
// outputs are ready. A submission that finds the evaluator idle leads a
// run at once; one that arrives mid-run parks until a later run has
// merged it, or until the finishing leader promotes it to lead that run
// itself.
func (g *group) submit(from *proxy, frames []*video.Frame) []*filters.Output {
	r := &request{from: from, frames: frames}
	g.mu.Lock()
	if g.running {
		r.wake = make(chan bool, 1)
		g.pending = append(g.pending, r)
		g.mu.Unlock()
		if <-r.wake {
			return r.result()
		}
		g.mu.Lock()
	}
	g.running = true
	if len(g.pending) == 0 && g.attached > 1 {
		// About to run alone: let every group-mate that is already
		// runnable park its request first. Without this a group on one
		// processor never merges — a run does not block, so nobody else
		// gets to submit while it is in flight. With nothing else
		// runnable the yield returns at once.
		g.mu.Unlock()
		runtime.Gosched()
		g.mu.Lock()
	}
	reqs := g.claimLocked(r)
	g.mu.Unlock()
	g.run(reqs)
	g.handOff()
	return r.result()
}

// claimLocked takes one run's requests — lead, then parked submissions in
// arrival order for as long as each fits whole under the batch cap — and
// accounts the run (caller holds g.mu).
func (g *group) claimLocked(lead *request) []*request {
	n, k := len(lead.frames), 0
	for k < len(g.pending) && n+len(g.pending[k].frames) <= g.br.batch {
		n += len(g.pending[k].frames)
		k++
	}
	reqs := append(append(g.reqs[:0], lead), g.pending[:k]...)
	g.popLocked(k)
	g.batches++
	g.frames += int64(n)
	if n > g.maxBatch {
		g.maxBatch = n
	}
	if len(reqs) > 1 {
		g.merged++
	}
	return reqs
}

// popLocked drops the k oldest parked requests (caller holds g.mu).
func (g *group) popLocked(k int) {
	rest := copy(g.pending, g.pending[k:])
	clear(g.pending[rest:])
	g.pending = g.pending[:rest]
}

// handOff ends a leader's turn: the oldest parked submitter, if any, is
// woken to lead the next run; otherwise the evaluator goes idle.
func (g *group) handOff() {
	g.mu.Lock()
	if len(g.pending) > 0 {
		next := g.pending[0]
		g.popLocked(1)
		g.mu.Unlock()
		next.wake <- false
		return
	}
	g.running = false
	abandoned := g.attached <= 0
	g.mu.Unlock()
	if abandoned {
		g.retireIfAbandoned()
	}
}

// run evaluates one claimed set through the group evaluator and scatters
// the outputs back to the submitters in claim order, waking every one but
// the leader (reqs[0], whose goroutine this is).
//
// run never panics: a fault in the merged evaluation is contained by
// re-running each request alone on its own submitter's inner backend —
// equal coalescing keys make members interchangeable, so healthy
// group-mates still get their outputs and only the request whose
// evaluation faults carries the panic value back to its submitter. One
// poisoned query must not take down its feed's coalesce group, let alone
// the process hosting it.
func (g *group) run(reqs []*request) {
	all := g.all[:0]
	for _, r := range reqs {
		all = append(all, r.frames...)
	}
	outs, pval := evalGuarded(g.eval, all, g.scratch[:0])
	off := 0
	for i, r := range reqs {
		if pval == nil {
			r.outs = append(r.outs, outs[off:off+len(r.frames)]...)
			off += len(r.frames)
		} else if solo, p := evalGuarded(r.from.inner, r.frames, nil); p != nil {
			// Merged batch poisoned: isolated per submitter, this one faults.
			r.pval = p
		} else {
			r.outs = solo
		}
		if i > 0 {
			r.wake <- true
		}
	}
	// Clear the recycled backing arrays: their slots would otherwise pin
	// the run's requests, frames and outputs until the group's next run,
	// which on a quiet group may never come. A panicking evaluation
	// returns no outs, so scratch slots it may have written are dropped
	// rather than recycled.
	clear(reqs)
	clear(all)
	clear(outs)
	g.reqs, g.all, g.scratch = reqs[:0], all[:0], outs[:0]
}

// evalGuarded runs one batch evaluation, converting a panic into a
// returned value so group state and locks stay consistent on the
// leader's goroutine.
func evalGuarded(b filters.Backend, frames []*video.Frame, dst []*filters.Output) (outs []*filters.Output, pval any) {
	defer func() {
		if p := recover(); p != nil {
			outs, pval = nil, p
		}
	}()
	return filters.EvaluateBatchInto(b, frames, dst), nil
}

// snapshotLocked captures the group's counters (caller holds g.mu).
func (g *group) snapshotLocked() GroupMetrics {
	return GroupMetrics{
		Key:      g.key,
		Members:  g.joined,
		Live:     g.attached,
		Batches:  g.batches,
		Frames:   g.frames,
		MaxBatch: g.maxBatch,
		Merged:   g.merged,
	}
}

// release detaches one proxy.
func (g *group) release() {
	g.mu.Lock()
	g.attached--
	abandoned := g.attached <= 0
	g.mu.Unlock()
	if abandoned {
		g.retireIfAbandoned()
	}
}

// retireIfAbandoned removes the group from the broker once its last proxy
// has departed and its evaluator is idle, so rotated-out architectures do
// not pin their evaluator's weight tensors and scratch buffers forever. A
// group abandoned mid-run is retired by the leader that finds nothing
// left to hand off to.
func (g *group) retireIfAbandoned() {
	g.br.mu.Lock()
	g.mu.Lock()
	if g.attached <= 0 && !g.running && g.br.groups[g.key] == g {
		delete(g.br.groups, g.key)
		g.br.retireLocked(g)
	}
	g.mu.Unlock()
	g.br.mu.Unlock()
}

// proxy routes one wrapped backend's evaluations through its group.
type proxy struct {
	group *group
	inner filters.Backend
	left  atomic.Bool
}

// Technique implements filters.Backend.
func (p *proxy) Technique() filters.Technique { return p.inner.Technique() }

// Grid implements filters.Backend.
func (p *proxy) Grid() int { return p.inner.Grid() }

// Evaluate implements filters.Backend: a batch of one, coalesced like any
// other submission.
func (p *proxy) Evaluate(f *video.Frame) *filters.Output {
	return p.group.submit(p, []*video.Frame{f})[0]
}

// EvaluateBatch implements filters.BatchBackend. The returned outputs are
// appended to dst per the interface's aliasing rule.
func (p *proxy) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	if len(frames) == 0 {
		return dst
	}
	return append(dst, p.group.submit(p, frames)...)
}

// ConcurrentSafe implements filters.ConcurrentBackend: submissions may
// come from any number of goroutines; the group serialises the inner
// evaluations.
func (p *proxy) ConcurrentSafe() bool { return true }

// CoalesceKey implements filters.Coalescable, so an already-wrapped
// backend re-wrapped by the same or another broker still coalesces.
func (p *proxy) CoalesceKey() string { return p.group.key }

// Leave implements Member.
func (p *proxy) Leave() {
	if p.left.CompareAndSwap(false, true) {
		p.group.release()
	}
}
