package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"vmq"
	"vmq/internal/nn"
	"vmq/internal/rlog"
	"vmq/internal/stats"
	"vmq/internal/tensor"
	"vmq/internal/video"
)

// layerInputs is what the traced run hands the per-layer metrics.
type layerInputs struct {
	w         *workload
	o         options
	setups    []setupTimes
	gate      gateResult
	satPlain  []phaseResult
	satTraced *phaseResult
	paced     *phaseResult
	incSat    *incarnation // decorated saturate incarnation
	incPaced  *incarnation // decorated paced incarnation
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// metrics derives every per-layer metric: counters and busy times from the
// decorated saturate phase, waits from the decorated paced phase, and the
// parts no seam exposes (rasteriser, im2col, GEMM, bare rlog, HTTP drains)
// from short replays of the recorded work through each layer's public
// entry points.
func (li *layerInputs) metrics(res *runResult) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64) {
		unit, ok := perLayerUnits[name]
		if !ok {
			panic("bench: per-layer metric " + name + " is not declared in perLayerUnits")
		}
		m[name] = metric{v, unit}
	}
	for _, name := range perLayerNames { // a metric the workload does not exercise reads 0
		set(name, 0)
	}

	// --- set-up attribution (median over the run's incarnations)
	var tr, fg, rg, wm []float64
	for _, s := range li.setups {
		tr, fg, rg, wm = append(tr, s.Train), append(fg, s.Framegen), append(rg, s.Register), append(wm, s.Warm)
	}
	set("setup.train_s", median(tr))
	set("setup.framegen_s", median(fg))
	set("setup.register_s", median(rg))
	set("setup.warm_s", median(wm))

	set("stats.agg_rel_err", li.gate.AggRelErr)
	set("stats.agg_var_reduction_x", li.gate.AggVarRedX)
	set("query.filter_pass_rate", li.gate.FilterPass)
	set("query.virtual_speedup_x", li.gate.VirtualSpeedX)
	set("proc.peak_rss_mb", peakRSSMB())

	var plainFPS float64
	if len(li.satPlain) > 0 {
		p := li.satPlain[0]
		plainFPS = steadyFPS(&p)
		set("proc.cpu_util", p.CPU/p.Wall/float64(runtime.NumCPU()))
		set("proc.gc_cycles", float64(p.GCCycles))
		set("proc.gc_pause_ms", p.GCPauseMs)
	}

	if li.incSat != nil && li.satTraced != nil {
		li.saturateLayers(set, plainFPS)
	}
	if li.incPaced != nil && li.paced != nil {
		li.pacedLayers(set)
	}
	li.replays(set, plainFPS, res)
	return m
}

// steadyFPS is a saturate phase's throughput as the end-to-end metric
// takes it: the median steady-state segment, or the whole phase when it was
// too short to segment.
func steadyFPS(p *phaseResult) float64 {
	if len(p.SegFPS) > 0 {
		return median(p.SegFPS)
	}
	return float64(p.Frames) / p.Wall
}

// saturateLayers: work counts and busy shares under full load.
func (li *layerInputs) saturateLayers(set func(string, float64), plainFPS float64) {
	inc, pr, t := li.incSat, li.satTraced, li.incSat.tr
	wallNs := float64(pr.T1 - pr.T0)
	frames := float64(pr.Frames + int64(warmFrames*li.w.Feeds)) // decorators saw the warm-up too

	if plainFPS > 0 {
		set("trace.overhead_pct", (plainFPS-steadyFPS(pr))/plainFPS*100)
	}

	calls, evalFrames, evalNs := float64(t.evalCalls.Load()), float64(t.evalFrames.Load()), float64(t.evalNs.Load())
	set("filters.eval_calls", calls)
	set("filters.eval_frames", evalFrames)
	if calls > 0 {
		set("filters.batch_mean", evalFrames/calls)
		set("filters.batch_p95", histPercentile(&t.batchHist, 0.95))
	}
	if evalFrames > 0 {
		set("filters.ns_per_frame", evalNs/evalFrames)
	}
	// Busy share over the timed phase only: scale the whole-incarnation
	// busy time by the phase's share of the frames.
	phaseShare := float64(pr.Frames) / frames
	set("filters.busy_share", evalNs*phaseShare/wallNs)
	set("filters.evals_per_frame", evalFrames/frames)

	dCalls, dNs := float64(t.detCalls.Load()), float64(t.detNs.Load())
	set("detect.calls", dCalls)
	if dCalls > 0 {
		set("detect.ns_per_call", dNs/dCalls)
	}
	set("detect.busy_share", dNs*phaseShare/wallNs)

	var admit []float64
	for f := range t.pubCall {
		for i := warmFrames; i < len(t.pubCall[f]); i++ {
			admit = append(admit, ms(t.pubRet[f][i]-t.pubCall[f][i]))
		}
	}
	sorted := sortedCopy(admit)
	set("stream.admit_wait_ms_p50", percentile(sorted, 0.5))
	set("stream.admit_wait_ms_p99", percentile(sorted, 0.99))
	if d := t.depth; d != nil {
		set("stream.ring_depth_mean", mean(d.ringDepth))
		set("stream.ring_depth_max", float64(d.ringMax))
		set("query.queue_depth_max", float64(d.queueMax))
		set("rlog.lag_max", float64(d.lagMax))
	}

	var (
		memoHits, memoMiss, detHits, detMiss   int64
		scanBatches, scanFrames                float64
		schedBatches, schedFrames, schedMerged int64
		schedMax                               int
		appended, dropped, ingestDropped       int64
	)
	for _, sm := range inc.final {
		for _, fm := range sm.Feeds {
			for _, sf := range fm.SharedFilters {
				memoHits += sf.Hits
				memoMiss += sf.Misses
			}
			if sd := fm.SharedDetector; sd != nil {
				detHits += sd.Hits
				detMiss += sd.Evals
			}
			scanBatches += float64(fm.ScanBatches)
			scanFrames += float64(fm.ScanBatches) * fm.ScanAvgBatch
			if fm.Ingest != nil {
				ingestDropped += fm.Ingest.Dropped
			}
		}
		for _, g := range sm.Coalesce {
			schedBatches += g.Batches
			schedFrames += g.Frames
			schedMerged += g.Merged
			if g.MaxBatch > schedMax {
				schedMax = g.MaxBatch
			}
		}
		for _, q := range sm.Queries {
			appended += q.EventSeq
			dropped += q.Dropped
		}
	}
	if n := memoHits + memoMiss; n > 0 {
		set("filters.memo_hit_rate", float64(memoHits)/float64(n))
	}
	if n := detHits + detMiss; n > 0 {
		set("detect.memo_hit_rate", float64(detHits)/float64(n))
	}
	set("detect.evals_per_frame", float64(detMiss)/frames)
	if scanBatches > 0 {
		set("scan.batch_mean", scanFrames/scanBatches)
	}
	set("sched.batches", float64(schedBatches))
	if schedBatches > 0 {
		set("sched.batch_mean", float64(schedFrames)/float64(schedBatches))
		set("sched.merged_share", float64(schedMerged)/float64(schedBatches))
	}
	set("sched.batch_max", float64(schedMax))
	set("stream.ingest_dropped", float64(ingestDropped))
	set("rlog.appended", float64(appended))
	set("rlog.dropped", float64(dropped))

	var waitNs, decoded int64
	var acks []float64
	for _, c := range inc.consumers {
		waitNs += c.waitNs
		decoded += c.events.Load()
		for _, a := range c.ackNs {
			acks = append(acks, ms(a))
		}
	}
	if life := inc.consumerLifeNs.Load(); life > 0 {
		set("rlog.reader_idle_share", float64(waitNs)/float64(life))
	}
	if inc.routed != nil {
		for _, a := range inc.routed.ackRTT {
			acks = append(acks, ms(a))
		}
		if decoded > 0 { // the wire carried the warm-up's events too
			set("server.ndjson_bytes_per_event", float64(inc.routed.wireBytes)/float64(decoded))
		}
		set("fleet.resumes", float64(inc.routed.resumes))
	}
	sortedAcks := sortedCopy(acks)
	set("server.ack_rtt_ms_p50", percentile(sortedAcks, 0.5))
	set("server.ack_rtt_ms_p99", percentile(sortedAcks, 0.99))
}

// pacedLayers: where a frame's time goes at the fixed offered rate.
func (li *layerInputs) pacedLayers(set func(string, float64)) {
	inc, pr, t := li.incPaced, li.paced, li.incPaced.tr
	var scanWait, scanWaitMatched, execWait, deliver, admit, fEval, dEval, late, total, attributed []float64
	var spans []span
	for f := range t.pubCall {
		for i := warmFrames; i < len(t.pubCall[f]); i++ {
			if es := t.evalStart[f][i].Load(); es > 0 {
				w := es - t.pubRet[f][i]
				if w < 0 {
					w = 0
				}
				scanWait = append(scanWait, ms(w))
			}
			b, ok := t.frameBounds(f, i, inc.due[f][i])
			if !ok {
				continue
			}
			// Root span due→decoded with the named stages as children: its
			// self time is the part of the latency no stage explains.
			spans = spans[:0]
			spans = append(spans, span{Name: "frame", Start: b[0], End: b[7], Parent: -1})
			for s := 0; s < 7; s++ {
				spans = append(spans, span{Name: frameSpans[s], Start: b[s], End: b[s+1], Parent: 0})
			}
			self := selfTimes(spans)
			lat := b[7] - b[0]
			total = append(total, ms(lat))
			attributed = append(attributed, ms(lat-self[0]))
			late = append(late, ms(b[1]-b[0]))
			admit = append(admit, ms(b[2]-b[1]))
			scanWaitMatched = append(scanWaitMatched, ms(b[3]-b[2]))
			fEval = append(fEval, ms(b[4]-b[3]))
			execWait = append(execWait, ms(b[5]-b[4]))
			dEval = append(dEval, ms(b[6]-b[5]))
			deliver = append(deliver, ms(b[7]-b[6]))
		}
	}
	p := func(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), q) }
	set("scan.wait_ms_p50", p(scanWait, 0.5))
	set("scan.wait_ms_p99", p(scanWait, 0.99))
	set("query.exec_wait_ms_p50", p(execWait, 0.5))
	set("query.exec_wait_ms_p99", p(execWait, 0.99))
	set("server.deliver_ms_p50", p(deliver, 0.5))
	set("server.deliver_ms_p99", p(deliver, 0.99))
	set("span.gen_late_ms_mean", mean(late))
	set("span.ingest_admit_ms_mean", mean(admit))
	set("span.scan_wait_ms_mean", mean(scanWaitMatched))
	set("span.filters_eval_ms_mean", mean(fEval))
	set("span.exec_wait_ms_mean", mean(execWait))
	set("span.detect_eval_ms_mean", mean(dEval))
	set("span.deliver_ms_mean", mean(deliver))
	set("span.event_latency_ms_mean", mean(total))
	if tot := mean(total); tot > 0 {
		set("trace.attributed_pct", mean(attributed)/tot*100)
	}
	// The tail percentiles are reported here, not end to end: on the 2-core
	// reference box they differ by 40-130 % between runs of one seed.
	set("tail.event_latency_p90_ms", chunkedPercentile(pr.Lat, 0.90, latChunks))
	set("tail.event_latency_p99_ms", chunkedPercentile(pr.Lat, 0.99, latChunks))
	set("gen.late_ms_p99", p(pr.LateMs, 0.99))
	set("gen.busy_share", pr.GenBusy)

	// Window emission: last frame of the window admitted → its window event
	// decoded (hopping windows tile from frame 0).
	var emit []float64
	for _, c := range inc.consumers {
		for _, we := range c.windows {
			last := we.Start + windowSize - 1
			if last >= warmFrames && last < len(t.pubRet[c.feed]) {
				emit = append(emit, ms(we.At-t.pubRet[c.feed][last]))
			}
		}
	}
	set("query.window_emit_ms_p50", p(emit, 0.5))
	set("query.window_emit_ms_p99", p(emit, 0.99))
}

// histPercentile reads a quantile off the batch-width histogram.
func histPercentile(h *[maxBatchWidth + 1]atomic.Int64, q float64) float64 {
	var total int64
	for i := range h {
		total += h[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	var seen int64
	for i := range h {
		seen += h[i].Load()
		if seen > target {
			return float64(i)
		}
	}
	return maxBatchWidth
}

// replays measures what no seam of the running server exposes, by pushing
// the recorded work (the batch-width histogram of the decorated saturate
// phase) back through each layer's public entry points, alone.
func (li *layerInputs) replays(set func(string, float64), plainFPS float64, res *runResult) {
	if li.incSat != nil && li.incSat.trained != nil {
		li.replayCNN(set)
	}
	set("stats.cv_us_per_window", replayCV())
	set("rlog.cycle_ns_per_event", replayRlog())
	if err := li.replayHTTP(set); err != nil {
		res.Notes = append(res.Notes, "HTTP replay: "+err.Error())
		res.Fails.HTTP++
	}
	if plainFPS > 0 {
		if fps, err := li.singleThread(); err != nil {
			res.Notes = append(res.Notes, "single-thread re-run: "+err.Error())
		} else if fps > 0 {
			set("proc.single_thread_fps", fps)
			set("proc.scaling_x", plainFPS/fps)
		}
	}
}

// timeIt runs fn repeatedly for at least budget and returns the mean ns per
// call.
func timeIt(budget time.Duration, fn func()) float64 {
	fn() // warm: grow buffers
	n := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		fn()
		n++
	}
	return float64(time.Since(t0)) / float64(n)
}

// replayCNN splits filters.eval into rasterise / forward (im2col, GEMM) by
// replaying the recorded batch widths through video.RenderBatchInto,
// (*nn.CountLocNet).ForwardBatch, tensor.Im2ColBatchInto and
// tensor.MatMulBiasAct on the workload's own network.
func (li *layerInputs) replayCNN(set func(string, float64)) {
	inc := li.incSat
	net := inc.trained[0]
	t := inc.tr
	type wc struct {
		width int
		count int64
	}
	var widths []wc
	var calls, frames int64
	for w := 1; w <= maxBatchWidth; w++ {
		if c := t.batchHist[w].Load(); c > 0 {
			widths = append(widths, wc{w, c})
			calls += c
			frames += c * int64(w)
		}
	}
	if frames == 0 {
		return
	}
	// Spend the replay budget on the widths that carry the frames.
	const budget = 600 * time.Millisecond
	clip := genFrames(li.w, inc.names[0], inc.seed, 0, maxBatchWidth)
	var arena nn.Arena
	var renderNs, fwdNs, im2colNs, gemmNs, flops, allocs float64
	for _, x := range widths {
		share := float64(x.count*int64(x.width)) / float64(frames)
		if share < 0.01 {
			continue
		}
		per := time.Duration(float64(budget) * share / 4)
		batch := tensor.New(x.width, 3, net.Img, net.Img)
		fr := clip[:x.width]
		renderNs += float64(x.count) * timeIt(per, func() { video.RenderBatchInto(batch, fr, net.NoiseSeed, 0) })
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		reps := 0
		fwdNs += float64(x.count) * timeIt(per, func() {
			arena.Reset()
			net.Net.ForwardBatch(&arena, batch)
			reps++
		})
		runtime.ReadMemStats(&ms1)
		allocs += float64(x.count) * float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)

		// Walk the backbone's shapes for this width.
		c, h, w := 3, net.Img, net.Img
		for _, l := range net.Net.Backbone.Layers {
			switch l := l.(type) {
			case *nn.Conv2D:
				outC := l.W.Value.Shape[0]
				ckk := l.W.Value.Len() / outC
				oh, ow := l.P.OutSize(h, w)
				in := tensor.New(c, x.width, h, w)
				cols := tensor.New(ckk, x.width*oh*ow)
				out := tensor.New(outC, x.width*oh*ow)
				wm := l.W.Value.Reshape(outC, ckk)
				p := l.P
				im2colNs += float64(x.count) * timeIt(per/6, func() { tensor.Im2ColBatchInto(cols, in, p) })
				gemmNs += float64(x.count) * timeIt(per/6, func() {
					tensor.MatMulBiasAct(out, wm, cols, l.B.Value.Data, tensor.ActLeakyReLU, 0.1, 0)
				})
				flops += float64(x.count) * 2 * float64(outC) * float64(ckk) * float64(x.width*oh*ow)
				c, h, w = outC, oh, ow
			case *nn.MaxPool:
				h, w = h/l.K, w/l.K
			}
		}
	}
	n := float64(frames)
	set("video.render_ns_per_frame", renderNs/n)
	set("nn.forward_ns_per_frame", fwdNs/n)
	set("nn.forward_allocs_per_batch", allocs/float64(calls))
	set("tensor.im2col_ns_per_frame", im2colNs/n)
	set("tensor.gemm_ns_per_frame", gemmNs/n)
	if gemmNs > 0 {
		set("tensor.gemm_gflops", flops/gemmNs)
	}
}

// replayCV times one control-variate fit at the size a window's detector
// sample has (200 samples, one control).
func replayCV() float64 {
	rng := rand.New(rand.NewPCG(1, 2))
	ys, xs := make([]float64, 200), make([]float64, 200)
	for i := range ys {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.8*xs[i] + 0.2*rng.NormFloat64()
	}
	return timeIt(20*time.Millisecond, func() {
		if _, err := stats.ControlVariate(ys, xs, 0); err != nil {
			panic(err)
		}
	}) / 1e3
}

// replayRlog times append → Next → Ack on a bare result log: the floor
// under every delivered event.
func replayRlog() float64 {
	l := rlog.New[int](1024, rlog.Block)
	r := l.ReaderFrom(0)
	defer r.Detach()
	i := 0
	return timeIt(20*time.Millisecond, func() {
		l.Append(i, false, nil)
		it, _ := r.Next(nil)
		r.Ack(it.Seq)
		i++
	})
}

// replayHTTP drains one finished query's history straight off a shard and
// through the router (relay decode, re-encode, merge), and publishes a
// clip over POST /v1/feeds/{name}/frames: the per-event and per-frame
// price of the HTTP surface with nothing else running.
func (li *layerInputs) replayHTTP(set func(string, float64)) error {
	const events = 4096
	p := vmq.Jackson()
	srv := vmq.NewServer(vmq.ServerConfig{})
	defer srv.Close()
	clip := vmq.NewSession(p, li.o.Seed).Stream.Take(events)
	if err := srv.AddFeed(vmq.FeedConfig{Name: p.Name, Profile: p, Source: vmq.SliceSource(clip),
		Backend: vmq.NewSession(p, li.o.Seed).Backend}); err != nil {
		return err
	}
	push := vmq.NewPushSource(pushCapacity, vmq.PushBlock)
	if err := srv.AddFeed(vmq.FeedConfig{Name: "ingest", Profile: p, Source: push,
		Backend: vmq.NewSession(p, li.o.Seed).Backend}); err != nil {
		return err
	}
	every, err := vmq.ParseQuery(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`)
	if err != nil {
		return err
	}
	// Ring large enough to hold the whole history, so the finished query
	// can be drained from sequence 0 any number of times.
	reg, err := srv.Register(every, vmq.RegistrationOptions{ResultBuffer: 2 * events})
	if err != nil {
		return err
	}
	sink, err := vmq.ParseQuery(`SELECT FRAMES FROM ingest WHERE COUNT(car) >= 0`)
	if err != nil {
		return err
	}
	if _, err := srv.Register(sink, vmq.RegistrationOptions{Policy: vmq.DeliverDropOldest}); err != nil {
		return err
	}
	srv.Start()
	<-reg.Done()

	l, hs, err := serveOn(srv.Handler())
	if err != nil {
		return err
	}
	defer hs.Close()
	shardURL := "http://" + l.Addr().String()
	router, err := vmq.NewRouter(vmq.RouterConfig{Shards: []vmq.ShardInfo{{Name: "a", URL: shardURL}}})
	if err != nil {
		return err
	}
	defer router.Close()
	rl, rhs, err := serveOn(router.Handler())
	if err != nil {
		return err
	}
	defer rhs.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	drain := func(url string) (nsPerEvent, allocsPerEvent float64, err error) {
		var ms0, ms1 runtime.MemStats
		const reps = 8
		var t0 time.Time
		for i := -1; i < reps; i++ { // pass -1 is untimed: connection, pages, caches
			if i == 0 {
				runtime.ReadMemStats(&ms0)
				t0 = time.Now()
			}
			resp, gerr := client.Get(url)
			if gerr != nil {
				return 0, 0, gerr
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil || resp.StatusCode != http.StatusOK {
				return 0, 0, fmt.Errorf("drain %s: HTTP %d %v", url, resp.StatusCode, rerr)
			}
			if n := strings.Count(string(body), "\n"); n != events+1 {
				return 0, 0, fmt.Errorf("drain %s: %d lines, want %d", url, n, events+1)
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		n := float64(reps * (events + 1))
		return float64(el) / n, float64(ms1.Mallocs-ms0.Mallocs) / n, nil
	}
	dNs, dAllocs, err := drain(shardURL + "/v1/queries/" + reg.ID() + "/results?from=0")
	if err != nil {
		return err
	}
	rNs, rAllocs, err := drain("http://" + rl.Addr().String() + "/v1/queries/a:" + reg.ID() + "/results?from=0")
	if err != nil {
		return err
	}
	set("server.direct_ns_per_event", dNs)
	set("server.direct_allocs_per_event", dAllocs)
	set("fleet.relay_ns_per_event", rNs)
	set("fleet.relay_allocs_per_event", rAllocs)
	if dNs > 0 {
		set("fleet.relay_overhead_x", rNs/dNs)
	}

	const ingestFrames = 2048
	body, err := vmq.EncodeFrames(clip[:ingestFrames])
	if err != nil {
		return err
	}
	var t0 time.Time
	for pass := 0; pass < 2; pass++ { // the first pass is untimed
		t0 = time.Now()
		resp, err := client.Post(shardURL+"/v1/feeds/ingest/frames", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("publish frames: HTTP %d", resp.StatusCode)
		}
	}
	set("server.ingest_http_ns_per_frame", float64(time.Since(t0))/ingestFrames)
	set("server.wire_bytes_per_frame", float64(len(body))/ingestFrames)
	return nil
}

// singleThread re-runs a short undecorated saturate phase of this workload
// at GOMAXPROCS(1): the baseline "parallel path slower than serial" is
// judged against. Returns frames/s.
func (li *layerInputs) singleThread() (float64, error) {
	frames := li.w.phaseFrames(li.w.SatFPS, li.o.Seconds, satShare/4, li.o.Scale, 256)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	inc, err := newIncarnation(li.w, li.o.Seed, phasePlan{Kind: saturate, Frames: frames})
	if err != nil {
		return 0, err
	}
	pr := inc.run()
	inc.close()
	if f := inc.fails.total(); f > 0 {
		return 0, fmt.Errorf("%d operations failed", f)
	}
	return float64(pr.Frames) / pr.Wall, nil
}
