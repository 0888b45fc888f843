package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// options are the knobs of one benchmark invocation.
type options struct {
	Seed    uint64
	Seconds float64
	Scale   float64
	Trace   bool
	OutDir  string // "" writes no files
	// Plan overrides the incarnation sequence (tests run a shorter one).
	Plan []phasePlan
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseSummary is one incarnation's row in the result file.
type phaseSummary struct {
	Phase     string     `json:"phase"`
	Traced    bool       `json:"traced"`
	Frames    int64      `json:"frames"`
	Events    int64      `json:"events"`
	WallS     float64    `json:"wall_s"`
	FPS       float64    `json:"frames_per_s"`
	Setup     setupTimes `json:"setup"`
	LatN      int        `json:"latency_samples,omitempty"`
	LateP99Ms float64    `json:"gen_late_ms_p99,omitempty"`
	DrainMs   float64    `json:"drain_ms"`
	AllocKB   float64    `json:"alloc_kb_per_frame"`
	GCCycles  uint32     `json:"gc_cycles"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Scale      float64           `json:"scale"`
	Trace      bool              `json:"trace"`
	Machine    provenance        `json:"machine"`
	Phases     []phaseSummary    `json:"phases"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Exact      map[string]metric `json:"exact"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	FailRatio  float64           `json:"fail_ratio"`
	Fails      failCount         `json:"fails"`
	Correct    bool              `json:"correct"`
	GateDetail []string          `json:"gate_detail,omitempty"`
	// Valid is false when the paced phase did not hold its schedule (the
	// generator ran late, or the backlog was still growing at the end), so
	// its latencies describe an overloaded system, not the offered rate.
	Valid     bool     `json:"valid"`
	Notes     []string `json:"notes,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

// defaultPlan is the incarnation sequence of a run: three set-ups whose
// median is setup_s.
//
// Untraced: saturate, paced, saturate. A process's first incarnation runs on
// a heap the OS has not yet backed with pages (delivery_routed's first
// saturate phase reads 15-20 % slower than its second), and throughput,
// taken as the median over both phases' segments, absorbs that better than
// a median latency measured cold does: with the paced phase first,
// delivery_routed's event_latency_p50_ms ranged over 25 % between runs of
// one seed, with it second over 6 %.
//
// Traced: paced, saturate, saturate, the paced and the last phase decorated.
// trace.overhead_pct compares the two saturate phases, so both must run
// warm, and the traced run's latencies feed attribution, not a bound.
func defaultPlan(w *workload, o options) []phasePlan {
	sat := w.phaseFrames(w.SatFPS, o.Seconds, satShare, o.Scale, 2*windowSize)
	pac := w.phaseFrames(w.PacedFPS, o.Seconds, pacedShare, o.Scale, 64)
	clip := max(sat, pac)
	if o.Trace {
		return []phasePlan{{paced, pac, true, clip}, {saturate, sat, false, clip}, {saturate, sat, true, clip}}
	}
	return []phasePlan{{saturate, sat, false, clip}, {paced, pac, false, clip}, {saturate, sat, false, clip}}
}

// runWorkload runs every incarnation of the plan and assembles the result.
func runWorkload(w *workload, o options) (*runResult, error) {
	plan := o.Plan
	if plan == nil {
		plan = defaultPlan(w, o)
	}
	res := &runResult{
		Workload: w.Name, Why: w.Why, Seed: o.Seed, Seconds: o.Seconds, Scale: o.Scale,
		Trace: o.Trace, Machine: readProvenance(), Valid: true,
		Exact: map[string]metric{},
	}
	var (
		setups      []setupTimes
		satPlain    []phaseResult // undecorated saturate phases
		satTraced   *phaseResult
		pacedRes    *phaseResult
		gated       bool
		g           gateResult
		tracedSat   *incarnation
		tracedPaced *incarnation
	)
	for _, pp := range plan {
		inc, err := newIncarnation(w, o.Seed, pp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		pr := inc.run()
		inc.close()
		setups = append(setups, inc.setup)
		res.Fails.add(inc.fails)
		// Operations attempted: frames offered, events delivered, HTTP
		// requests made (and, below, streams checked by the gate).
		res.Attempted += int64(warmFrames+pp.Frames) * int64(w.Feeds)
		for _, c := range inc.consumers {
			res.Attempted += c.events.Load()
		}
		if inc.routed != nil {
			res.Attempted += inc.routed.requests.Load()
		}

		ps := phaseSummary{Phase: pp.Kind.String(), Traced: pp.Traced, Frames: pr.Frames, Events: pr.Events,
			WallS: pr.Wall, FPS: float64(pr.Frames) / pr.Wall, Setup: inc.setup, LatN: len(pr.Lat),
			DrainMs: (pr.Wall - pr.PubWall) * 1e3, AllocKB: pr.AllocKB / float64(pr.Frames), GCCycles: pr.GCCycles}
		if pp.Kind == paced {
			ps.LateP99Ms = percentile(sortedCopy(pr.LateMs), 0.99)
			res.checkPaced(&pr, &ps)
		}
		res.Phases = append(res.Phases, ps)

		prCopy := pr
		switch {
		case pp.Kind == paced:
			pacedRes = &prCopy
			if pp.Traced {
				tracedPaced = inc
			}
		case pp.Traced:
			satTraced = &prCopy
			tracedSat = inc
		default:
			satPlain = append(satPlain, pr)
		}
		// The gate replays the first saturate incarnation: it saw the most
		// frames per feed.
		if !gated && pp.Kind == saturate {
			gated = true
			g = inc.gate()
			res.Fails.Gate += g.Mismatches
			res.GateDetail = g.Detail
			res.Attempted += int64(g.Queries)
		}
		// Keep only what later stages read; drop the frames.
		inc.frames = nil
	}

	res.Failed = res.Fails.total()
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && gated

	res.Exact["match_recall"] = metric{g.Recall, "ratio"}
	res.Exact["detector_calls_per_frame"] = metric{g.DetectorCalls, "ratio"}
	res.Exact["agg_rel_err"] = metric{g.AggRelErr, "ratio"}
	res.Exact["agg_var_reduction_x"] = metric{g.AggVarRedX, "x"}
	res.Exact["fail_ratio"] = metric{res.FailRatio, "ratio"}

	e2e := map[string]metric{}
	var totals []float64
	for _, s := range setups {
		totals = append(totals, s.Total)
	}
	e2e["setup_s"] = metric{median(totals), "s"}
	// Throughput, CPU and allocation cost are medians over the steady-state
	// segments of the undecorated saturate phases (a one-off arena regrowth
	// lands in one segment, not in the result); a phase too short to segment
	// (a smoke run) falls back to its whole.
	var segFPS, segEPS, segCPU, segAlloc []float64
	for _, p := range satPlain {
		if len(p.SegFPS) == 0 && p.Wall > 0 && p.Frames > 0 {
			p.SegFPS = []float64{float64(p.Frames) / p.Wall}
			p.SegEPS = []float64{float64(p.Events) / p.Wall}
			p.SegCPU = []float64{p.CPU / float64(p.Frames) * 1000}
			p.SegAlloc = []float64{p.AllocKB / float64(p.Frames)}
		}
		segFPS, segEPS = append(segFPS, p.SegFPS...), append(segEPS, p.SegEPS...)
		segCPU, segAlloc = append(segCPU, p.SegCPU...), append(segAlloc, p.SegAlloc...)
	}
	if len(segFPS) > 0 {
		e2e["frames_per_s"] = metric{median(segFPS), "frames/s"}
		e2e["events_per_s"] = metric{median(segEPS), "events/s"}
		e2e["cpu_s_per_kframe"] = metric{median(segCPU), "s/kframe"}
		e2e["alloc_kb_per_frame"] = metric{median(segAlloc), "KiB/frame"}
	}
	if pacedRes != nil && len(pacedRes.Lat) > 0 {
		e2e["event_latency_p50_ms"] = metric{chunkedPercentile(pacedRes.Lat, 0.50, latChunks), "ms"}
	}
	e2e["match_recall"] = res.Exact["match_recall"]
	e2e["detector_calls_per_frame"] = res.Exact["detector_calls_per_frame"]
	res.EndToEnd = e2e

	if o.Trace {
		lm := layerInputs{w: w, o: o, setups: setups, gate: g, satPlain: satPlain,
			satTraced: satTraced, paced: pacedRes, incSat: tracedSat, incPaced: tracedPaced}
		res.PerLayer = lm.metrics(res)
		if o.OutDir != "" && tracedPaced != nil && tracedPaced.tr != nil {
			path := fmt.Sprintf("%s/trace-%s-seed%d.json", o.OutDir, w.Name, o.Seed)
			n, err := tracedPaced.tr.writeChromeTrace(path, tracedPaced)
			if err != nil {
				res.Notes = append(res.Notes, "trace not written: "+err.Error())
			} else {
				res.TraceFile = path
				res.PerLayer["trace.spans"] = metric{float64(n), perLayerUnits["trace.spans"]}
			}
		}
	}
	runtime.GC()
	return res, nil
}

// checkPaced marks the run invalid when the paced phase did not hold its
// schedule: the generator's lateness p99 above 1 ms and half the latency
// p99, or lateness growing through the phase (the publisher is
// parked on a full ingest ring, i.e. the backlog grows monotonically).
func (r *runResult) checkPaced(pr *phaseResult, ps *phaseSummary) {
	// The generator's own lateness is inside every latency (frames are
	// timed from when they were due); it must stay a minor part of the tail
	// it helps measure.
	if limit := math.Max(1, 0.5*percentile(sortedCopy(pr.Lat), 0.99)); ps.LateP99Ms > limit {
		r.Valid = false
		r.Notes = append(r.Notes, fmt.Sprintf("paced generator ran late: p99 %.3f ms > %.3f ms", ps.LateP99Ms, limit))
	}
	n := len(pr.LateMs)
	if n >= 50 {
		first := median(pr.LateMs[:n/5])
		last := median(pr.LateMs[n-n/5:])
		if last > 1 && last > 4*first {
			r.Valid = false
			r.Notes = append(r.Notes, fmt.Sprintf("paced backlog grew: median lateness %.3f ms → %.3f ms", first, last))
		}
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
