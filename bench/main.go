// Command bench is the repository's benchmark: four standing-query
// workloads driven in-process against vmq.NewServer / vmq.NewRouter with
// default configuration, end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run, outputs checked against an
// independent reference. See README.md in this directory.
//
//	bash bench/run.sh --workload cnn_dense --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                       # all workloads, untraced
//	bash bench/run.sh -trace 1              # all workloads, traced
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// endToEndNames is the end_to_end list of BENCHMARK.json: what an untraced
// run prints. Every workload reports every name.
var endToEndNames = []string{
	"setup_s",
	"frames_per_s",
	"events_per_s",
	"event_latency_p50_ms",
	"cpu_s_per_kframe",
	"alloc_kb_per_frame",
	"match_recall",
	"detector_calls_per_frame",
}

// perLayerUnits is the per_layer list of BENCHMARK.json with units: what a
// traced run prints. A metric a workload does not exercise reads 0.
var perLayerUnits = map[string]string{
	"video.render_ns_per_frame":  "ns",
	"tensor.im2col_ns_per_frame": "ns", "tensor.gemm_ns_per_frame": "ns", "tensor.gemm_gflops": "GFLOP/s",
	"nn.forward_ns_per_frame": "ns", "nn.forward_allocs_per_batch": "count",
	"filters.eval_calls": "count", "filters.eval_frames": "count", "filters.batch_mean": "frames",
	"filters.batch_p95": "frames", "filters.ns_per_frame": "ns", "filters.busy_share": "ratio",
	"filters.evals_per_frame": "ratio", "filters.memo_hit_rate": "ratio",
	"sched.batches": "count", "sched.batch_mean": "frames", "sched.batch_max": "frames", "sched.merged_share": "ratio",
	"scan.batch_mean": "frames", "scan.wait_ms_p50": "ms", "scan.wait_ms_p99": "ms",
	"stream.admit_wait_ms_p50": "ms", "stream.admit_wait_ms_p99": "ms", "stream.ring_depth_mean": "frames",
	"stream.ring_depth_max": "frames", "stream.ingest_dropped": "count",
	"query.exec_wait_ms_p50": "ms", "query.exec_wait_ms_p99": "ms", "query.filter_pass_rate": "ratio",
	"query.queue_depth_max": "frames", "query.window_emit_ms_p50": "ms", "query.window_emit_ms_p99": "ms",
	"query.virtual_speedup_x": "x",
	"detect.calls":            "count", "detect.ns_per_call": "ns", "detect.busy_share": "ratio",
	"detect.evals_per_frame": "ratio", "detect.memo_hit_rate": "ratio",
	"stats.cv_us_per_window": "us", "stats.agg_rel_err": "ratio", "stats.agg_var_reduction_x": "x",
	"rlog.appended": "count", "rlog.dropped": "count", "rlog.lag_max": "events",
	"rlog.reader_idle_share": "ratio", "rlog.cycle_ns_per_event": "ns",
	"server.deliver_ms_p50": "ms", "server.deliver_ms_p99": "ms", "server.ndjson_bytes_per_event": "B",
	"server.ack_rtt_ms_p50": "ms", "server.ack_rtt_ms_p99": "ms", "server.direct_ns_per_event": "ns",
	"server.direct_allocs_per_event": "count", "server.ingest_http_ns_per_frame": "ns", "server.wire_bytes_per_frame": "B",
	"fleet.relay_ns_per_event": "ns", "fleet.relay_allocs_per_event": "count", "fleet.relay_overhead_x": "x", "fleet.resumes": "count",
	"proc.peak_rss_mb": "MiB", "proc.gc_cycles": "count", "proc.gc_pause_ms": "ms", "proc.cpu_util": "ratio",
	"proc.single_thread_fps": "frames/s", "proc.scaling_x": "x",
	"gen.late_ms_p99": "ms", "gen.busy_share": "ratio",
	"setup.train_s": "s", "setup.framegen_s": "s", "setup.register_s": "s", "setup.warm_s": "s",
	"span.gen_late_ms_mean": "ms", "span.ingest_admit_ms_mean": "ms", "span.scan_wait_ms_mean": "ms",
	"span.filters_eval_ms_mean": "ms", "span.exec_wait_ms_mean": "ms", "span.detect_eval_ms_mean": "ms",
	"span.deliver_ms_mean": "ms", "span.event_latency_ms_mean": "ms",
	"tail.event_latency_p90_ms": "ms", "tail.event_latency_p99_ms": "ms",
	"trace.overhead_pct": "%", "trace.attributed_pct": "%", "trace.spans": "count",
}

var perLayerNames = sortedKeys(perLayerUnits)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = fs.Uint64("seed", 1, "seed for frame generation and window samplers")
		seconds = fs.Float64("seconds", 20, "how long one workload run measures, at the commit its rates were recorded on")
		trace   = fs.Int("trace", 0, "1 runs decorated and reports the per-layer metrics; 0 reports the end-to-end metrics")
		scale   = fs.Float64("scale", 1, "multiplies every phase's frame count (0.01 is a smoke run)")
		out     = fs.String("out", defaultOutDir(), `directory for result files and traces ("" writes none)`)
		compare = fs.Bool("compare", false, "compare two result files given as arguments against the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "need -seconds > 0, -scale > 0 and -trace 0 or 1")
		return 2
	}
	var run []*workload
	if *name == "all" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		run = []*workload{w}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "create %s: %v\n", *out, err)
			return 1
		}
	}
	o := options{Seed: *seed, Seconds: *seconds, Scale: *scale, Trace: *trace == 1, OutDir: *out}
	status := 0
	var results []*runResult
	for _, w := range run {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		results = append(results, res)
		report(stdout, res)
		if !res.Correct {
			status = 1
		}
		if *out != "" {
			path := freeName(*out, fmt.Sprintf("result-%s-seed%d-trace%d", w.Name, *seed, *trace))
			if err := writeJSON(path, res); err != nil {
				fmt.Fprintf(stderr, "write %s: %v\n", path, err)
				return 1
			}
		}
	}
	// The last line of standard output is the machine-readable result (one
	// line per workload when several ran).
	for _, res := range results {
		line, err := json.Marshal(contractLine(res))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return status
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].Name
	}
	return names
}

// defaultOutDir is bench/out from the repository root, out from inside
// bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// freeName returns dir/stem.json, or dir/stem-2.json, -3 … when earlier
// runs already wrote that name: repeated runs accumulate side by side, which
// is what -compare reads.
func freeName(dir, stem string) string {
	path := filepath.Join(dir, stem+".json")
	for k := 2; ; k++ {
		if _, err := os.Stat(path); err != nil {
			return path
		}
		path = filepath.Join(dir, fmt.Sprintf("%s-%d.json", stem, k))
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// contractResult is the benchmark contract's result line.
type contractResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractLine selects exactly the metrics BENCHMARK.json declares for the
// run's mode: every end-to-end metric untraced, every per-layer metric
// traced.
func contractLine(res *runResult) contractResult {
	c := contractResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	if res.Trace {
		for _, n := range perLayerNames {
			c.Metrics[n] = res.PerLayer[n]
		}
		return c
	}
	for _, n := range endToEndNames {
		m, ok := res.EndToEnd[n]
		if !ok {
			c.Correct = false // a metric the run could not measure
		}
		c.Metrics[n] = m
	}
	return c
}

// report prints one workload's result for people.
func report(w io.Writer, res *runResult) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %gs, scale %g) ==\n", res.Workload, mode, res.Seed, res.Seconds, res.Scale)
	fmt.Fprintf(w, "   %s\n", res.Why)
	m := res.Machine
	fmt.Fprintf(w, "   %s | nproc %d | GOMAXPROCS %d | kernel %s | %s | commit %s\n",
		m.CPUModel, m.NProc, m.GOMAXPROCS, m.Kernel, m.GoVersion, m.Commit)
	for _, p := range res.Phases {
		fmt.Fprintf(w, "   phase %-8s traced=%-5v frames %7d events %7d wall %7.3fs %9.1f frames/s setup %.3fs drain %.1fms",
			p.Phase, p.Traced, p.Frames, p.Events, p.WallS, p.FPS, p.Setup.Total, p.DrainMs)
		if p.Phase == "paced" {
			fmt.Fprintf(w, " latency samples %d gen late p99 %.3fms", p.LatN, p.LateP99Ms)
		}
		fmt.Fprintln(w)
	}
	if !res.Trace { // a traced run's own throughput and latency carry the decorators
		fmt.Fprintln(w, "   end-to-end:")
		for _, n := range endToEndNames {
			if v, ok := res.EndToEnd[n]; ok {
				fmt.Fprintf(w, "     %-28s %14.6g %s\n", n, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintln(w, "   exact:")
	for _, n := range sortedKeys(res.Exact) {
		fmt.Fprintf(w, "     %-28s %14.6g %s\n", n, res.Exact[n].Value, res.Exact[n].Unit)
	}
	if res.Trace {
		fmt.Fprintln(w, "   per-layer:")
		for _, n := range perLayerNames {
			fmt.Fprintf(w, "     %-34s %14.6g %s\n", n, res.PerLayer[n].Value, res.PerLayer[n].Unit)
		}
		if span, share := dominantSpan(res.PerLayer); span != "" {
			fmt.Fprintf(w, "   paced latency: %.1f%% attributed to named spans; dominant span %s (%.0f%% of the mean)\n",
				res.PerLayer["trace.attributed_pct"].Value, span, share*100)
		}
		if res.TraceFile != "" {
			fmt.Fprintf(w, "   trace: %s (open in ui.perfetto.dev)\n", res.TraceFile)
		}
	}
	fmt.Fprintf(w, "   attempted %d failed %d (fail_ratio %g) %+v\n", res.Attempted, res.Failed, res.FailRatio, res.Fails)
	for _, d := range res.GateDetail {
		fmt.Fprintf(w, "   GATE: %s\n", d)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   NOTE: %s\n", n)
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	if !res.Valid {
		verdict += ", paced phase INVALID (see notes)"
	}
	fmt.Fprintf(w, "   verdict: %s\n", verdict)
}

// dominantSpan names the stage holding the largest share of the paced
// phase's mean event latency.
func dominantSpan(pl map[string]metric) (string, float64) {
	total := pl["span.event_latency_ms_mean"].Value
	if total <= 0 {
		return "", 0
	}
	best, bestV := "", 0.0
	for _, n := range []string{"gen_late", "ingest_admit", "scan_wait", "filters_eval", "exec_wait", "detect_eval", "deliver"} {
		if v := pl["span."+n+"_ms_mean"].Value; v > bestV {
			best, bestV = n, v
		}
	}
	return best, bestV / total
}
