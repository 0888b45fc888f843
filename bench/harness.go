package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vmq"
	"vmq/internal/detect"
	"vmq/internal/filters"
)

// epoch anchors every timestamp of the run; nowNs is monotonic.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

type phaseKind int

const (
	saturate phaseKind = iota // closed loop: the publisher blocks on admission
	paced                     // open loop at the workload's fixed rate
)

func (p phaseKind) String() string {
	if p == paced {
		return "paced"
	}
	return "saturate"
}

// phasePlan is one incarnation of a run: which phase it measures, how many
// frames per feed, and whether its backends and detectors are decorated.
type phasePlan struct {
	Kind   phaseKind
	Frames int // per feed, after warm-up
	Traced bool
	// Clip is how many frames per feed set-up generates (0 = Frames). A run
	// gives every incarnation the same Clip, so its set-ups do the same
	// work and their median means something.
	Clip int
}

// setupTimes attributes one incarnation's set-up.
type setupTimes struct {
	Total, Framegen, Train, Start, Register, Warm float64 // seconds
}

// incarnation is one freshly built system under test: servers, feeds,
// registered queries and their consumers, warmed up and ready for a phase.
type incarnation struct {
	w      *workload
	seed   uint64
	plan   phasePlan
	frames [][]*vmq.Frame // per feed, warm-up first
	names  []string       // feed names
	pushes []*vmq.PushSource
	// servers[i] hosts feed i%len(servers); one server unless routed.
	servers []*vmq.Server
	routed  *routedRig // non-nil for routedStream
	// trained holds the per-feed CNN instances (nil for calibrated feeds),
	// undecorated, for the reference replays after the servers closed.
	trained []*filters.Trained

	consumers []*consumer
	wg        sync.WaitGroup // consumers
	// consumerLifeNs sums the consumer goroutines' lifetimes: the base of
	// their idle share.
	consumerLifeNs atomic.Int64
	tr             *tracer // nil unless plan.Traced
	// due[feed][frameIndex] is when a paced frame was due (ns since epoch,
	// 0 for warm-up and saturate frames). Written by the publisher before
	// the frame is published, read by consumers after its event arrives.
	due [][]int64

	setup setupTimes
	fails failCount
	// final is each server's telemetry snapshot taken after the streams
	// ended and before the servers closed.
	final []vmq.ServerMetrics
}

// failCount tallies operations that failed; every field must stay 0 on the
// workloads as defined.
type failCount struct {
	Publish  int64 // Publish returned an error
	Ingest   int64 // frames dropped by an ingest ring
	Dropped  int64 // events a result log dropped
	Gapped   int64 // events a consumer was told it missed
	HTTP     int64 // non-2xx responses and transport errors
	NoEnd    int64 // streams that closed without their end event
	SeqOrder int64 // duplicate or out-of-order event_seq
	Gate     int64 // events missing from or foreign to the reference
}

func (f failCount) total() int64 {
	return f.Publish + f.Ingest + f.Dropped + f.Gapped + f.HTTP + f.NoEnd + f.SeqOrder + f.Gate
}

func (f *failCount) add(o failCount) {
	f.Publish += o.Publish
	f.Ingest += o.Ingest
	f.Dropped += o.Dropped
	f.Gapped += o.Gapped
	f.HTTP += o.HTTP
	f.NoEnd += o.NoEnd
	f.SeqOrder += o.SeqOrder
	f.Gate += o.Gate
}

// windowEvent is one served window estimate.
type windowEvent struct {
	Start int
	Res   *vmq.AggregateResult
	At    int64
}

// consumer holds what one registration's stream delivered.
type consumer struct {
	inc     *incarnation
	feed    int
	query   int
	id      string // registration id (fleet form when routed)
	reg     *vmq.Registration
	matches []int32 // frame_index of every match event, arrival order
	windows []windowEvent
	final   *vmq.Result
	sawEnd  bool
	endAt   int64
	events  atomic.Int64 // events decoded so far (phase accounting reads it live)
	nextSeq int64
	seqErrs int64
	gapped  int64
	lat     []float64 // ms, paced frames only, arrival order
	latAt   []int64
	// traced only
	waitNs int64 // time parked waiting for the next event
	ackNs  []int64
}

// handle records one decoded event. seq is its event_seq, at when the
// consumer held it decoded.
func (c *consumer) handle(ev *vmq.Event, seq int64, at int64) {
	if seq != c.nextSeq {
		c.seqErrs++
	}
	c.nextSeq = seq + 1
	c.events.Add(1)
	switch ev.Kind {
	case vmq.EventMatch:
		c.matches = append(c.matches, int32(ev.FrameIndex))
		inc := c.inc
		if ev.FrameIndex < len(inc.due[c.feed]) {
			if due := inc.due[c.feed][ev.FrameIndex]; due > 0 {
				c.lat = append(c.lat, float64(at-due)/1e6)
				c.latAt = append(c.latAt, at)
			}
			if inc.tr != nil {
				inc.tr.decoded[c.feed][ev.FrameIndex].CompareAndSwap(0, at)
			}
		}
	case vmq.EventWindow:
		c.windows = append(c.windows, windowEvent{Start: ev.WindowStart, Res: ev.Window, At: at})
	case vmq.EventEnd:
		c.sawEnd = true
		c.endAt = at
		c.final = ev.Final
	}
}

// gap records a gap notice covering n events.
func (c *consumer) gap(from, to int64) {
	c.gapped += to - from
	c.nextSeq = to
}

// newIncarnation builds and warms one system under test. Everything here
// is set-up time: frame generation, filter training, server start, feed
// creation, query registration, warm-up.
func newIncarnation(w *workload, seed uint64, plan phasePlan) (*incarnation, error) {
	runtime.GC() // every set-up starts from a collected heap
	t0 := time.Now()
	last := t0
	lap := func(dst *float64) { // books the time since the previous lap
		now := time.Now()
		*dst += now.Sub(last).Seconds()
		last = now
	}
	inc := &incarnation{w: w, seed: seed, plan: plan}
	total := warmFrames + max(plan.Clip, plan.Frames)
	if plan.Traced {
		inc.tr = newTracer(w.Feeds, total)
	}
	fail := func(err error) (*incarnation, error) {
		inc.close()
		return nil, err
	}

	nServers := 1
	if w.Delivery == routedStream {
		nServers = w.Shards
	}
	for i := 0; i < nServers; i++ {
		// Defaults only: the benchmark measures the configuration a user
		// gets, and sets no knob.
		inc.servers = append(inc.servers, vmq.NewServer(vmq.ServerConfig{}))
	}
	inc.names = make([]string, w.Feeds)
	for i := range inc.names {
		inc.names[i] = w.feedName(i)
	}
	if w.Delivery == routedStream {
		if err := newRoutedRig(inc); err != nil { // also renames the feeds
			return fail(err)
		}
	}
	lap(&inc.setup.Start)

	// Inputs: the same seed gives byte-identical frames.
	inc.frames = make([][]*vmq.Frame, w.Feeds)
	inc.due = make([][]int64, w.Feeds)
	for i := range inc.frames {
		inc.frames[i] = genFrames(w, inc.names[i], seed, i, total)
		inc.due[i] = make([]int64, total)
		if inc.tr != nil {
			inc.tr.feedIndex[inc.names[i]] = i
		}
	}
	lap(&inc.setup.Framegen)

	backends, err := inc.buildBackends()
	if err != nil {
		return fail(err)
	}
	lap(&inc.setup.Train)

	inc.pushes = make([]*vmq.PushSource, w.Feeds)
	for i := range inc.pushes {
		inc.pushes[i] = vmq.NewPushSource(pushCapacity, vmq.PushBlock)
		cfg := vmq.FeedConfig{
			Name:    inc.names[i],
			Profile: w.Profile(),
			Source:  inc.pushes[i],
			Backend: backends[i],
		}
		if tr := inc.tr; tr != nil {
			cfg.NewDetector = func() detect.Detector { return &tracedDetector{inner: detect.NewOracle(nil), tr: tr} }
		}
		if err := inc.serverOf(i).AddFeed(cfg); err != nil {
			return fail(fmt.Errorf("add feed %s: %w", inc.names[i], err))
		}
	}
	lap(&inc.setup.Start)

	if err := inc.registerAll(); err != nil {
		return fail(err)
	}
	lap(&inc.setup.Register)

	for _, s := range inc.servers {
		s.Start()
	}
	inc.startConsumers()
	if err := inc.warmUp(); err != nil {
		return fail(err)
	}
	runtime.GC() // every phase starts from the same heap state
	lap(&inc.setup.Warm)
	inc.setup.Total = time.Since(t0).Seconds()
	return inc, nil
}

// genFrames generates feed i's frames. CameraID is the feed name, so a
// frame names its feed wherever it turns up (the coalescing broker hands
// one feed's frames to another feed's backend instance).
func genFrames(w *workload, name string, seed uint64, feed, n int) []*vmq.Frame {
	return vmq.NewSession(w.boundProfile(name), seed*1009+uint64(feed)).Stream.Take(n)
}

// boundProfile is the profile queries on a feed bind against: the dataset
// profile under the feed's name, as the server renames it.
func (w *workload) boundProfile(name string) vmq.Profile {
	p := w.Profile()
	p.Name = name
	return p
}

// calibratedBackend is a feed's calibrated OD filter — also what the
// reference replays use, since its output depends only on frame and seed.
func (w *workload) calibratedBackend(name string, seed uint64) vmq.Backend {
	return vmq.NewSession(w.boundProfile(name), seed).Backend
}

func (inc *incarnation) buildBackends() ([]vmq.Backend, error) {
	w := inc.w
	out := make([]vmq.Backend, w.Feeds)
	switch w.Backend {
	case calibratedOD:
		for i := range out {
			out[i] = w.calibratedBackend(inc.names[i], inc.seed)
		}
	case trainedOD:
		base, ok := vmq.TrainFilter(vmq.ODTechnique, w.Profile(), w.Train).(*filters.Trained)
		if !ok {
			return nil, fmt.Errorf("TrainFilter returned an unexpected backend type")
		}
		inc.trained = make([]*filters.Trained, w.Feeds)
		inc.trained[0] = base
		var weights bytes.Buffer
		if w.Feeds > 1 {
			if err := base.SaveWeights(&weights); err != nil {
				return nil, fmt.Errorf("save weights: %w", err)
			}
		}
		for i := 1; i < w.Feeds; i++ {
			// One instance per feed, same weights and clock: equal
			// CoalesceKeys, so the broker may merge their batches.
			clone := filters.NewUntrained(filters.OD, w.Profile(), w.Train, base.Clock)
			if err := clone.LoadWeights(bytes.NewReader(weights.Bytes())); err != nil {
				return nil, fmt.Errorf("load weights: %w", err)
			}
			inc.trained[i] = clone
		}
		for i, t := range inc.trained {
			out[i] = t
		}
	}
	if inc.tr != nil {
		for i := range out {
			out[i] = &tracedBackend{inner: out[i], tr: inc.tr}
		}
	}
	return out, nil
}

func (inc *incarnation) serverOf(feed int) *vmq.Server {
	if inc.routed != nil {
		return inc.servers[inc.routed.shardOf[feed]]
	}
	return inc.servers[0]
}

func (inc *incarnation) registerAll() error {
	w := inc.w
	for f := 0; f < w.Feeds; f++ {
		for qi, qs := range w.Queries {
			c := &consumer{inc: inc, feed: f, query: qi}
			text := fmt.Sprintf(qs.Text, inc.names[f])
			if inc.routed != nil {
				id, err := inc.routed.register(text, qs)
				if err != nil {
					return err
				}
				c.id = id
			} else {
				q, err := vmq.ParseQuery(text)
				if err != nil {
					return fmt.Errorf("parse %q: %w", text, err)
				}
				reg, err := inc.servers[0].Register(q, vmq.RegistrationOptions{
					Policy: qs.Policy, ResultBuffer: qs.Buffer, Seed: windowSeed(inc.seed, qi),
				})
				if err != nil {
					return fmt.Errorf("register %q: %w", text, err)
				}
				c.reg, c.id = reg, reg.ID()
			}
			inc.consumers = append(inc.consumers, c)
		}
	}
	return nil
}

// windowSeed seeds query qi's window sampler (ignored by monitoring
// queries).
func windowSeed(seed uint64, qi int) uint64 { return seed*31 + uint64(qi) + 1 }

func (inc *incarnation) startConsumers() {
	if inc.routed != nil {
		inc.wg.Add(1)
		go func() {
			defer inc.wg.Done()
			t0 := nowNs()
			inc.routed.consume(inc)
			inc.consumerLifeNs.Add(nowNs() - t0)
		}()
		return
	}
	for _, c := range inc.consumers {
		inc.wg.Add(1)
		go func(c *consumer) {
			defer inc.wg.Done()
			t0 := nowNs()
			defer func() { inc.consumerLifeNs.Add(nowNs() - t0) }()
			if inc.w.Delivery == readerAck {
				c.consumeReader()
			} else {
				c.consumeChan()
			}
		}(c)
	}
}

// consumeReader is the exactly-once consumer: a cursor from sequence 0,
// every event acknowledged as it is read.
func (c *consumer) consumeReader() {
	r := c.reg.ResultsFrom(0)
	defer r.Detach()
	traced := c.inc.tr != nil
	for {
		var t0 int64
		if traced {
			t0 = nowNs()
		}
		it, ok := r.Next(nil)
		if !ok {
			return
		}
		at := nowNs()
		if traced {
			c.waitNs += at - t0
		}
		if it.Gap != nil {
			c.gap(it.Gap.From, it.Gap.To)
			continue
		}
		ev := it.Value
		c.handle(&ev, it.Seq, at)
		r.Ack(it.Seq)
		if traced {
			done := nowNs()
			c.ackNs = append(c.ackNs, done-at)
			if ev.Kind == vmq.EventMatch {
				c.inc.tr.acked[c.feed][ev.FrameIndex].CompareAndSwap(0, done)
			}
		}
	}
}

// consumeChan is the fire-and-forget consumer over Results().
func (c *consumer) consumeChan() {
	traced := c.inc.tr != nil
	ch := c.reg.Results()
	for {
		var t0 int64
		if traced {
			t0 = nowNs()
		}
		ev, ok := <-ch
		if !ok {
			return
		}
		at := nowNs()
		if traced {
			c.waitNs += at - t0
		}
		if ev.Kind == vmq.EventGap {
			c.gap(ev.DroppedFrom, ev.DroppedTo)
			continue
		}
		c.handle(&ev, ev.EventSeq, at)
	}
}

// warmUp publishes the first warmFrames of every feed and waits until every
// query has processed them, so the timed phase starts on warm memos, grown
// arenas and an empty pipeline.
func (inc *incarnation) warmUp() error {
	for i := 0; i < warmFrames; i++ {
		for f, p := range inc.pushes {
			if err := p.Publish(inc.frames[f][i], nil); err != nil {
				return fmt.Errorf("warm-up publish: %w", err)
			}
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := true
		for _, s := range inc.servers {
			for _, q := range s.Metrics().Queries {
				if q.Frames < warmFrames {
					done = false
				}
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up did not finish within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	Kind      phaseKind
	Frames    int64   // frames admitted, all feeds
	Events    int64   // events decoded during the phase
	Wall      float64 // s: first publish → last end event read
	PubWall   float64 // s: first publish → last publish returned
	CPU       float64 // s user+sys over Wall
	AllocKB   float64 // KiB allocated over Wall
	GCCycles  uint32
	GCPauseMs float64
	Lat       []float64 // ms, arrival order (paced)
	LateMs    []float64 // ms behind schedule at each publish call (paced)
	GenBusy   float64   // share of PubWall the publisher was not sleeping (paced)
	T0, T1    int64
	// Saturate phases are cut into satSegments equal runs of frames; these
	// hold each steady-state segment's rates (the first segment fills the
	// ingest rings and is left out).
	SegFPS, SegEPS, SegCPU, SegAlloc []float64 // frames/s, events/s, CPU-s per 1000 frames, KiB per frame
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run publishes the phase's frames, ends the feeds and waits for every
// stream's end event.
func (inc *incarnation) run() phaseResult {
	res := phaseResult{Kind: inc.plan.Kind}
	var eventsBefore int64
	for _, c := range inc.consumers {
		eventsBefore += c.events.Load()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	var sampler *depthSampler
	if inc.tr != nil {
		sampler = startDepthSampler(inc)
	}

	res.T0 = nowNs()
	if inc.plan.Kind == saturate {
		inc.publishSaturate(&res)
	} else {
		inc.publishPaced(&res)
	}
	pubEnd := nowNs()
	for _, p := range inc.pushes {
		p.Close() // feeds end: buffered frames still flow, then end events
	}
	inc.wg.Wait()
	res.T1 = res.T0
	for _, c := range inc.consumers {
		if c.endAt > res.T1 {
			res.T1 = c.endAt
		}
	}
	if res.T1 == res.T0 { // no end event anywhere; fall back to now
		res.T1 = nowNs()
	}
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	if sampler != nil {
		sampler.stop()
		inc.tr.depth = sampler
	}

	res.Wall = float64(res.T1-res.T0) / 1e9
	res.PubWall = float64(pubEnd-res.T0) / 1e9
	res.CPU = cpu1 - cpu0
	res.AllocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	res.GCCycles = ms1.NumGC - ms0.NumGC
	res.GCPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.Frames = int64(inc.plan.Frames) * int64(inc.w.Feeds)
	for _, c := range inc.consumers {
		res.Events += c.events.Load()
	}
	res.Events -= eventsBefore
	res.Lat = mergeByArrival(inc.consumers)
	inc.collectFails()
	return res
}

// mergeByArrival interleaves every consumer's latency samples in arrival
// order, so chunked percentiles cut the phase by time, not by query.
func mergeByArrival(cs []*consumer) []float64 {
	idx := make([]int, len(cs))
	var out []float64
	for {
		best := -1
		for i, c := range cs {
			if idx[i] < len(c.latAt) && (best < 0 || c.latAt[idx[i]] < cs[best].latAt[idx[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, cs[best].lat[idx[best]])
		idx[best]++
	}
}

// satSegments is how many equal parts a saturate phase is cut into. Under
// block admission the publisher is admitted at the rate the system
// consumes, so each part's admission rate is the sustained throughput over
// that part; reporting the median part keeps one stall (a neighbour on the
// box, a GC cycle) out of the result.
const satSegments = 10

func (inc *incarnation) publishSaturate(res *phaseResult) {
	tr := inc.tr
	n := inc.plan.Frames
	events := func() (total int64) {
		for _, c := range inc.consumers {
			total += c.events.Load()
		}
		return total
	}
	allocKB := func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc) / 1024
	}
	seg := 1
	segT, segCPU, segEv, segAlloc, segStart := nowNs(), cpuSeconds(), events(), allocKB(), 0
	for i := warmFrames; i < warmFrames+n; i++ {
		if done := i - warmFrames; n >= 4*satSegments && done == seg*n/satSegments {
			t, cpu, ev, alloc := nowNs(), cpuSeconds(), events(), allocKB()
			if seg > 1 && t > segT { // segment 1 filled the rings
				frames := float64((done - segStart) * len(inc.pushes))
				dt := float64(t-segT) / 1e9
				res.SegFPS = append(res.SegFPS, frames/dt)
				res.SegEPS = append(res.SegEPS, float64(ev-segEv)/dt)
				res.SegCPU = append(res.SegCPU, (cpu-segCPU)/frames*1000)
				res.SegAlloc = append(res.SegAlloc, (alloc-segAlloc)/frames)
			}
			seg++
			segT, segCPU, segEv, segAlloc, segStart = t, cpu, ev, alloc, done
		}
		for f, p := range inc.pushes {
			if tr != nil {
				tr.pubCall[f][i] = nowNs()
			}
			if err := p.Publish(inc.frames[f][i], nil); err != nil {
				inc.fails.Publish++
			}
			if tr != nil {
				tr.pubRet[f][i] = nowNs()
			}
		}
	}
}

// publishPaced offers frames on a fixed schedule, feeds interleaved evenly
// (independent cameras do not fire in lock-step). A frame is timed from the
// instant it was due, so a stall's cost to every later frame is counted.
func (inc *incarnation) publishPaced(res *phaseResult) {
	tr := inc.tr
	interval := 1e9 / inc.w.PacedFPS // ns between consecutive publishes, all feeds
	start := nowNs() + int64(time.Millisecond)
	res.T0 = start
	res.LateMs = make([]float64, 0, inc.plan.Frames*len(inc.pushes))
	var busy int64
	k := 0
	for i := warmFrames; i < warmFrames+inc.plan.Frames; i++ {
		for f, p := range inc.pushes {
			due := start + int64(float64(k)*interval)
			k++
			inc.due[f][i] = due
			if now := nowNs(); now < due {
				sleepNs(due - now)
			}
			call := nowNs()
			res.LateMs = append(res.LateMs, float64(call-due)/1e6)
			if tr != nil {
				tr.pubCall[f][i] = call
			}
			if err := p.Publish(inc.frames[f][i], nil); err != nil {
				inc.fails.Publish++
			}
			ret := nowNs()
			if tr != nil {
				tr.pubRet[f][i] = ret
			}
			busy += ret - call
		}
	}
	if wall := nowNs() - start; wall > 0 {
		res.GenBusy = float64(busy) / float64(wall)
	}
}

// sleepNs blocks for d nanoseconds in nanosleep(2). time.Sleep parks an idle
// P in epoll_wait, whose timeout is whole milliseconds: at the sub-ms
// inter-arrival gaps of the paced phases it would release frames in 1 ms
// bursts. The kernel's own timer holds a schedule to well under 0.1 ms.
func sleepNs(d int64) {
	ts := syscall.NsecToTimespec(d)
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem // interrupted by a signal (the runtime preempts with SIGURG)
	}
}

// collectFails folds what the servers and consumers saw go wrong into the
// incarnation's tally. Called once, after the streams ended.
func (inc *incarnation) collectFails() {
	for _, p := range inc.pushes {
		inc.fails.Ingest += p.Dropped()
	}
	for _, s := range inc.servers {
		m := s.Metrics()
		inc.final = append(inc.final, m)
		for _, q := range m.Queries {
			inc.fails.Dropped += q.Dropped
		}
	}
	for _, c := range inc.consumers {
		inc.fails.Gapped += c.gapped
		inc.fails.SeqOrder += c.seqErrs
		if !c.sawEnd {
			inc.fails.NoEnd++
		}
	}
	if inc.routed != nil {
		inc.fails.HTTP += inc.routed.httpFails.Load()
	}
}

// close tears the system down. Safe on a partly built incarnation.
func (inc *incarnation) close() {
	for _, p := range inc.pushes {
		if p != nil {
			p.Close()
		}
	}
	if inc.routed != nil {
		inc.routed.close()
	}
	for _, s := range inc.servers {
		s.Close()
	}
}
