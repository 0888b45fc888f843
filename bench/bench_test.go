package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"vmq"
	"vmq/internal/detect"
	"vmq/internal/filters"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestPercentileHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}

	// One chunk carries an outlier burst; the median over chunks ignores it,
	// the plain quantile does not.
	var lat []float64
	for i := 0; i < 500; i++ {
		v := 1.0
		if i >= 100 && i < 200 && i%10 == 0 {
			v = 100
		}
		lat = append(lat, v)
	}
	if got := chunkedPercentile(lat, 0.99, 5); got != 1 {
		t.Errorf("chunked p99 = %v, want 1 (burst confined to one chunk)", got)
	}
	if got := percentile(sortedCopy(lat), 0.99); got != 100 {
		t.Errorf("plain p99 = %v, want 100", got)
	}
	if got, want := chunkedPercentile(xs[:4], 0.5, 5), 2.5; !near(got, want) {
		t.Errorf("chunked quantile of a short sample = %v, want the plain %v", got, want)
	}

	// statistics.quantiles([...], n=4) of these ten values is
	// [2.75, 5.5, 8.25]; the spread is (8.25-2.75)/5.5 = 1.
	if got := quartileSpread(xs); !near(got, 1) {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 20], n=4) = [10.25, 11.5, 18.0].
	if got, want := quartileSpread([]float64{20, 10, 12, 11}), (18.0-10.25)/11.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "frame", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 20..30 counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a.child", Start: 12, End: 18, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - (20 + 20 + 10), 20 - 6, 30, 30, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	steadyA := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steadyA, []float64{100, 100, 101, 99}, true, "unchanged"},
		{"slower throughput", steadyA, []float64{80, 81, 79, 80}, true, "REGRESSED"},
		{"faster throughput", steadyA, []float64{120, 121, 119, 120}, true, "improved"},
		{"higher latency", steadyA, []float64{120, 121, 119, 120}, false, "REGRESSED"},
		{"noisy, overlapping", []float64{100, 130, 80, 100}, []float64{101, 128, 82, 99}, true, "unresolved"},
		{"noisy, but every run better", []float64{100, 130, 80, 100}, []float64{140, 190, 135, 150}, true, "improved"},
	} {
		if _, got := verdict(c.a, c.b, c.higher, 0.05); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// The decorators must keep forwarding every optional interface the server
// and the broker look for, or decorating changes what is measured.
func TestDecoratorsForwardInterfaces(t *testing.T) {
	p := vmq.Jackson()
	cfg := vmq.TrainedConfig{Img: 16, Channels: 8, Seed: 3}
	tr := newTracer(1, 8)
	trained := filters.NewUntrained(filters.OD, p, cfg, nil)
	var b filters.Backend = &tracedBackend{inner: trained, tr: tr}
	co, ok := b.(filters.Coalescable)
	if !ok {
		t.Fatal("tracedBackend does not implement filters.Coalescable")
	}
	if co.CoalesceKey() == "" || co.CoalesceKey() != trained.CoalesceKey() {
		t.Errorf("CoalesceKey %q, inner %q", co.CoalesceKey(), trained.CoalesceKey())
	}
	if par, ok := b.(filters.Parallel); !ok || par.ForwardFlops() != trained.ForwardFlops() || par.ForwardFlops() == 0 {
		t.Error("tracedBackend does not forward filters.Parallel")
	}
	if filters.ConcurrentSafe(b) != filters.ConcurrentSafe(trained) {
		t.Error("tracedBackend changed the trained backend's concurrency declaration")
	}

	cal := vmq.NewSession(p, 3).Backend
	c := &tracedBackend{inner: cal, tr: tr}
	if c.CoalesceKey() != "" {
		t.Errorf("a calibrated backend must stay uncoalesced, key %q", c.CoalesceKey())
	}
	if !filters.ConcurrentSafe(c) {
		t.Error("tracedBackend hid the calibrated backend's ConcurrentSafe")
	}

	// Same outputs, and the evaluation is on record.
	tr.feedIndex[p.Name] = 0
	frames := vmq.NewSession(p, 3).Stream.Take(4)
	want := filters.EvaluateBatch(cal, frames)
	got := c.EvaluateBatch(frames, nil)
	if !reflect.DeepEqual(got, want) {
		t.Error("decorated evaluation differs from the inner backend's")
	}
	if tr.evalFrames.Load() != 4 || tr.batchHist[4].Load() != 1 || tr.evalStart[0][3].Load() == 0 {
		t.Errorf("evaluation not recorded: frames %d hist[4] %d", tr.evalFrames.Load(), tr.batchHist[4].Load())
	}

	d := &tracedDetector{inner: detect.NewOracle(nil), tr: tr}
	if !detect.IsOrderInsensitive(d) {
		t.Error("tracedDetector does not forward OrderInsensitive: the feed would lose its detection memo")
	}
	if len(d.Detect(frames[0])) != len(frames[0].Objects) || tr.detCalls.Load() != 1 {
		t.Error("decorated detection differs or was not recorded")
	}
}

// Eight decorated clones of one trained network must still merge in the
// coalescing broker.
func TestDecoratedClonesStillCoalesce(t *testing.T) {
	w, _ := workloadByName("cnn_sparse_fleet")
	inc, err := newIncarnation(w, 1, phasePlan{Kind: saturate, Frames: 256, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	inc.run()
	inc.close()
	if f := inc.fails.total(); f != 0 {
		t.Fatalf("%d operations failed: %+v", f, inc.fails)
	}
	var batches, merged int64
	for _, sm := range inc.final {
		for _, g := range sm.Coalesce {
			if g.Members != w.Feeds {
				t.Errorf("coalesce group %s has %d members, want %d", g.Key, g.Members, w.Feeds)
			}
			batches += g.Batches
			merged += g.Merged
		}
	}
	if batches == 0 || merged == 0 {
		t.Errorf("sched.merged_share is 0: %d batches, %d merged", batches, merged)
	}
	if got, want := inc.tr.evalFrames.Load(), int64((warmFrames+256)*w.Feeds); got != want {
		t.Errorf("filters.evals_per_frame != 1: %d evaluations of %d frames", got, want)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		enc := func(seed uint64) []byte {
			raw, err := vmq.EncodeFrames(genFrames(w, w.feedName(0), seed, 0, 300))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		if !bytes.Equal(enc(7), enc(7)) {
			t.Errorf("%s: same seed generated different frames", w.Name)
		}
		if bytes.Equal(enc(7), enc(8)) {
			t.Errorf("%s: different seeds generated the same frames", w.Name)
		}
	}
}

// smokePlan is a scaled-down run: one saturate incarnation (which the gate
// replays) and, where set-up is cheap, a paced one.
func smokePlan(w *workload) []phasePlan {
	plan := []phasePlan{{Kind: saturate, Frames: 2 * windowSize}}
	if w.Backend == calibratedOD {
		plan = append(plan, phasePlan{Kind: paced, Frames: 256})
	}
	return plan
}

func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w, options{Seed: 2, Seconds: 20, Scale: 0.01, Plan: smokePlan(w)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("incorrect: failed %d %+v gate %v", res.Failed, res.Fails, res.GateDetail)
			}
			if res.Attempted < int64(2*windowSize) {
				t.Errorf("attempted %d operations", res.Attempted)
			}
			for _, n := range []string{"setup_s", "frames_per_s", "events_per_s", "cpu_s_per_kframe",
				"alloc_kb_per_frame", "match_recall", "detector_calls_per_frame"} {
				if m, ok := res.EndToEnd[n]; !ok || !(m.Value > 0) || m.Unit == "" {
					t.Errorf("end-to-end metric %s = %+v", n, m)
				}
			}
			if w.Backend == calibratedOD {
				if m := res.EndToEnd["event_latency_p50_ms"]; !(m.Value > 0) {
					t.Errorf("end-to-end metric event_latency_p50_ms = %+v", m)
				}
			}
		})
	}
}

// The same seed must give the same exact metrics, run after run.
func TestExactMetricsRepeat(t *testing.T) {
	w, _ := workloadByName("calibrated_mix")
	run := func() map[string]metric {
		res, err := runWorkload(w, options{Seed: 5, Seconds: 20, Scale: 0.01, Plan: smokePlan(w)[:1]})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("incorrect: %+v %v", res.Fails, res.GateDetail)
		}
		return res.Exact
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("exact metrics differ between two runs of one seed:\n%v\n%v", a, b)
	}
	if a["agg_var_reduction_x"].Value <= 0 || a["match_recall"].Value <= 0 {
		t.Errorf("exact metrics not measured: %v", a)
	}
}

// BENCHMARK.json must declare exactly what the program prints.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if got, ok := workloadByName(w.Name); !ok || got.Why != w.Why {
			t.Errorf("workload %s: why differs from the program's", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	names = nil
	for _, e := range bf.EndToEnd {
		names = append(names, e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "higher" && e.Better != "lower") {
			t.Errorf("end-to-end %s: bound %v better %q", e.Name, e.Bound, e.Better)
		}
	}
	if !reflect.DeepEqual(names, endToEndNames) {
		t.Errorf("end_to_end %v, program prints %v", names, endToEndNames)
	}
	names = nil
	for _, p := range bf.PerLayer {
		names = append(names, p.Name)
		if perLayerUnits[p.Name] != p.Unit {
			t.Errorf("per-layer %s: unit %q, program prints %q", p.Name, p.Unit, perLayerUnits[p.Name])
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, perLayerNames) {
		t.Errorf("per_layer differs from what the program prints:\n%v\n%v", names, perLayerNames)
	}
}
