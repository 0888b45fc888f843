package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vmq"
	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/simclock"
)

// tracer holds one incarnation's spans in preallocated memory: one slot per
// (feed, frame index) and boundary. Spans are recorded from the benchmark's
// own files only, at the public seams of each layer — Publish call and
// return, the decorated filter backend, the decorated detector, consumer
// decode and ack. The PushSource itself is never wrapped (the server
// type-asserts it), so a frame's ring residency and its wait for
// batch-mates are one span, scan.wait.
//
// Every slot is written once; slots written by goroutines the benchmark
// does not own (evaluations, detections, decodes) are atomics so the first
// writer wins.
type tracer struct {
	feedIndex map[string]int // CameraID → feed

	pubCall, pubRet    [][]int64
	evalStart, evalEnd [][]atomic.Int64
	detStart, detEnd   [][]atomic.Int64
	decoded, acked     [][]atomic.Int64
	evalCalls, evalNs  atomic.Int64
	evalFrames         atomic.Int64
	detCalls, detNs    atomic.Int64
	batchHist          [maxBatchWidth + 1]atomic.Int64 // evaluations by batch width
	depth              *depthSampler
}

const maxBatchWidth = 256

func newTracer(feeds, framesPerFeed int) *tracer {
	tr := &tracer{feedIndex: make(map[string]int, feeds)}
	plain := func() [][]int64 {
		out := make([][]int64, feeds)
		for i := range out {
			out[i] = make([]int64, framesPerFeed)
		}
		return out
	}
	atomics := func() [][]atomic.Int64 {
		out := make([][]atomic.Int64, feeds)
		for i := range out {
			out[i] = make([]atomic.Int64, framesPerFeed)
		}
		return out
	}
	tr.pubCall, tr.pubRet = plain(), plain()
	tr.evalStart, tr.evalEnd = atomics(), atomics()
	tr.detStart, tr.detEnd = atomics(), atomics()
	tr.decoded, tr.acked = atomics(), atomics()
	return tr
}

// slot resolves a frame to its trace slot; ok is false for a frame the
// tracer was not sized for.
func (tr *tracer) slot(f *vmq.Frame) (feed, idx int, ok bool) {
	feed, ok = tr.feedIndex[f.CameraID]
	if !ok || f.Index < 0 || f.Index >= len(tr.pubCall[feed]) {
		return 0, 0, false
	}
	return feed, f.Index, true
}

func (tr *tracer) noteEval(frames []*vmq.Frame, t0, t1 int64) {
	tr.evalCalls.Add(1)
	tr.evalFrames.Add(int64(len(frames)))
	tr.evalNs.Add(t1 - t0)
	w := len(frames)
	if w > maxBatchWidth {
		w = maxBatchWidth
	}
	tr.batchHist[w].Add(1)
	for _, f := range frames {
		if feed, idx, ok := tr.slot(f); ok && tr.evalStart[feed][idx].CompareAndSwap(0, t0) {
			tr.evalEnd[feed][idx].Store(t1)
		}
	}
}

// tracedBackend times a feed's filter backend. It forwards every optional
// interface the server and the broker look for — BatchBackend, Coalescable,
// Parallel, ConcurrentBackend — so decorating changes no scheduling
// decision: an undeclared CoalesceKey, for one, would silently stop the
// broker from merging feeds.
type tracedBackend struct {
	inner filters.Backend
	tr    *tracer
}

func (b *tracedBackend) Technique() filters.Technique { return b.inner.Technique() }
func (b *tracedBackend) Grid() int                    { return b.inner.Grid() }

func (b *tracedBackend) Evaluate(f *vmq.Frame) *filters.Output {
	t0 := nowNs()
	out := b.inner.Evaluate(f)
	b.tr.noteEval([]*vmq.Frame{f}, t0, nowNs())
	return out
}

func (b *tracedBackend) EvaluateBatch(frames []*vmq.Frame, dst []*filters.Output) []*filters.Output {
	t0 := nowNs()
	dst = filters.EvaluateBatchInto(b.inner, frames, dst)
	b.tr.noteEval(frames, t0, nowNs())
	return dst
}

// CoalesceKey is empty for a backend that declares none, which is how the
// broker recognises a backend it must leave alone.
func (b *tracedBackend) CoalesceKey() string  { return filters.CoalesceKeyOf(b.inner) }
func (b *tracedBackend) SetEvalWorkers(n int) { filters.SetEvalWorkers(b.inner, n) }
func (b *tracedBackend) ForwardFlops() int64  { return filters.ForwardFlopsOf(b.inner) }
func (b *tracedBackend) ConcurrentSafe() bool { return filters.ConcurrentSafe(b.inner) }

// tracedDetector times a feed's confirmation detector, forwarding
// OrderInsensitive so the feed still shares one detection memo.
type tracedDetector struct {
	inner detect.Detector
	tr    *tracer
}

func (d *tracedDetector) Detect(f *vmq.Frame) []detect.Detection {
	t0 := nowNs()
	out := d.inner.Detect(f)
	t1 := nowNs()
	d.tr.detCalls.Add(1)
	d.tr.detNs.Add(t1 - t0)
	if feed, idx, ok := d.tr.slot(f); ok && d.tr.detStart[feed][idx].CompareAndSwap(0, t0) {
		d.tr.detEnd[feed][idx].Store(t1)
	}
	return out
}

func (d *tracedDetector) Cost() simclock.Cost { return d.inner.Cost() }
func (d *tracedDetector) OrderInsensitiveDetections() bool {
	return detect.IsOrderInsensitive(d.inner)
}

// depthSampler polls the servers' own telemetry during a traced phase:
// ingest ring depth, per-query fan-out backlog and consumer lag are levels,
// not events, so they are sampled rather than spanned.
type depthSampler struct {
	ringDepth []float64
	ringMax   int
	queueMax  int
	lagMax    int64
	stopC     chan struct{}
	wg        sync.WaitGroup
}

func startDepthSampler(inc *incarnation) *depthSampler {
	s := &depthSampler{stopC: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopC:
				return
			case <-tick.C:
			}
			for _, srv := range inc.servers {
				m := srv.Metrics()
				for _, f := range m.Feeds {
					if f.Ingest != nil {
						s.ringDepth = append(s.ringDepth, float64(f.Ingest.Depth))
						if f.Ingest.Depth > s.ringMax {
							s.ringMax = f.Ingest.Depth
						}
					}
				}
				for _, q := range m.Queries {
					if q.QueueDepth > s.queueMax {
						s.queueMax = q.QueueDepth
					}
					if q.ConsumerLag > s.lagMax {
						s.lagMax = q.ConsumerLag
					}
				}
			}
		}
	}()
	return s
}

func (s *depthSampler) stop() {
	close(s.stopC)
	s.wg.Wait()
}

// frameSpans names the stages of one frame's life, in order. Each is the
// interval between two recorded boundaries; together they tile the
// interval from the frame's due time to its acknowledgement.
var frameSpans = []string{
	"gen.late",     // due → Publish called (paced only)
	"ingest.admit", // Publish called → returned
	"scan.wait",    // admitted → first filter evaluation containing the frame
	"filters.eval", // that evaluation
	"exec.wait",    // filter output ready → detector called
	"detect.eval",  // the detector call
	"deliver",      // detector returned → match event decoded by the consumer
	"ack",          // decoded → acknowledged
}

// frameBounds returns the frame's recorded boundaries in frameSpans order
// (len(frameSpans)+1 values), clamped to be non-decreasing; ok is false
// when the frame produced no decoded match (filtered out, or no match).
// due is 0 outside the paced phase, which makes gen.late empty.
func (tr *tracer) frameBounds(feed, idx int, due int64) (b [9]int64, ok bool) {
	dec := tr.decoded[feed][idx].Load()
	if dec == 0 || tr.detStart[feed][idx].Load() == 0 || tr.evalStart[feed][idx].Load() == 0 {
		return b, false
	}
	call := tr.pubCall[feed][idx]
	if due == 0 {
		due = call
	}
	ack := tr.acked[feed][idx].Load()
	if ack == 0 {
		ack = dec
	}
	b = [9]int64{due, call, tr.pubRet[feed][idx],
		tr.evalStart[feed][idx].Load(), tr.evalEnd[feed][idx].Load(),
		tr.detStart[feed][idx].Load(), tr.detEnd[feed][idx].Load(), dec, ack}
	// A frame can be picked off the ring before Publish returns, and clocks
	// read on different cores may disagree by a few ns: never let a span
	// run backwards.
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			b[i] = b[i-1]
		}
	}
	return b, true
}

// traceEvent is one Chrome trace-event ("X" = complete event, µs units).
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// maxTraceFrames caps how many frames per feed are written out: the trace
// is for reading in Perfetto, the metrics are computed from every frame.
const maxTraceFrames = 2000

// writeChromeTrace writes the first maxTraceFrames matched frames of each
// feed as Chrome trace-event JSON: one process per feed, one thread lane
// per frame modulo 16 so overlapping frames do not stack on one line. Every
// frame is a root span "frame" with its stages as children, sharing the id
// feed:frame_index. Returns the number of spans written.
func (tr *tracer) writeChromeTrace(path string, inc *incarnation) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	n, err := tr.encodeTrace(w, inc)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func (tr *tracer) encodeTrace(w *bufio.Writer, inc *incarnation) (int, error) {
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		return 0, err
	}
	n := 0
	emit := func(name string, feed, idx int, from, to int64, args map[string]string) error {
		if n > 0 {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		n++
		return enc.Encode(traceEvent{Name: name, Cat: inc.plan.Kind.String(), Ph: "X",
			Ts: float64(from) / 1e3, Dur: float64(to-from) / 1e3, Pid: feed, Tid: idx % 16, Args: args}) // Encode ends the line
	}
	for feed := range tr.pubCall {
		written := 0
		for idx := warmFrames; idx < len(tr.pubCall[feed]) && written < maxTraceFrames; idx++ {
			b, ok := tr.frameBounds(feed, idx, inc.due[feed][idx])
			if !ok {
				continue
			}
			written++
			args := map[string]string{"id": fmt.Sprintf("%s:%d", inc.names[feed], idx)}
			if err := emit("frame", feed, idx, b[0], b[8], args); err != nil {
				return n, err
			}
			for s, name := range frameSpans {
				if b[s+1] == b[s] {
					continue
				}
				if err := emit(name, feed, idx, b[s], b[s+1], args); err != nil {
					return n, err
				}
			}
		}
	}
	_, err := w.WriteString("]}\n")
	return n, err
}
