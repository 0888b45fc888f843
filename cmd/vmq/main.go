// Command vmq runs video monitoring queries and the paper's experiment
// suite from the command line.
//
// Usage:
//
//	vmq datasets
//	vmq query   -q 'SELECT FRAMES FROM jackson WHERE COUNT(car) = 1' [-frames N] [-ctol K] [-ltol K] [-brute]
//	vmq aggregate -q 'SELECT COUNT(FRAMES) FROM jackson WHERE car LEFT OF person' [-window N] [-samples K]
//	vmq windows -q 'SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) = 1 WINDOW HOPPING (SIZE 1000, ADVANCE BY 1000)' [-n N] [-samples K]
//	vmq serve   [-addr :8372] [-feeds jackson,detrac] [-fps 30] [-seed 42] [-policy block|drop-oldest|sample-under-pressure] [-result-log N] [-max-queries N]
//	vmq route   [-addr :8473] -shard http://a:8372 -shard http://b:8372 [-vnodes N] [-probe-interval D] [-breaker-failures N] [-breaker-cooldown D]
//	vmq experiment -name tableII|fig7|fig11|fig15|tableIII|tableIV|constraint|branch|anomaly|all [-frames N] [-reps N]
//	vmq train   [-dataset jackson] [-frames N] [-epochs N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vmq/internal/experiments"
	"vmq/internal/filters"
	"vmq/internal/metrics"
	"vmq/internal/simclock"
	"vmq/internal/video"
	"vmq/internal/vql"

	"vmq"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches a command line and returns the process exit code. It is
// the testable core of main: commands print to out, diagnostics to errw.
func run(argv []string, out, errw io.Writer) int {
	if len(argv) < 1 {
		usage(errw)
		return 2
	}
	var err error
	switch argv[0] {
	case "datasets":
		err = cmdDatasets(out)
	case "query":
		err = cmdQuery(argv[1:], out, errw)
	case "aggregate":
		err = cmdAggregate(argv[1:], out, errw)
	case "windows":
		err = cmdWindows(argv[1:], out, errw)
	case "serve":
		err = cmdServe(argv[1:], out, errw)
	case "route":
		err = cmdRoute(argv[1:], out, errw)
	case "experiment":
		err = cmdExperiment(argv[1:], out, errw)
	case "train":
		err = cmdTrain(argv[1:], out, errw)
	case "-h", "--help", "help":
		usage(errw)
	default:
		fmt.Fprintf(errw, "vmq: unknown command %q\n", argv[0])
		usage(errw)
		return 2
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // the user asked for help; match flag.ExitOnError's success exit
		}
		fmt.Fprintf(errw, "vmq: %v\n", err)
		return 1
	}
	return 0
}

func usage(errw io.Writer) {
	fmt.Fprintln(errw, `usage: vmq <command> [flags]

commands:
  datasets     list the benchmark dataset profiles (Table II)
  query        run a monitoring query through the filter cascade
  aggregate    run a windowed aggregate with control variates
  windows      run a windowed aggregate over n consecutive windows
  serve        host continuous queries over live feeds (HTTP API)
  route        front a fleet of serve shards with one query surface
               (consistent-hash feed routing, merged result streams)
  experiment   regenerate a paper table/figure (tableII, fig7, fig11,
               fig15, tableIII, tableIV, constraint, branch, anomaly, all)
  train        train a real CNN filter and report its accuracy`)
}

// newFlagSet builds a flag set that reports parse errors instead of
// exiting the process, so run stays testable.
func newFlagSet(name string, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(errw)
	return fs
}

func cmdDatasets(out io.Writer) error {
	rows := experiments.TableII(experiments.Config{Frames: 3000})
	fmt.Fprint(out, experiments.FormatTableII(rows))
	return nil
}

func profileOf(q *vql.Query) (video.Profile, error) {
	p, ok := video.ProfileByName(q.Source)
	if !ok {
		return video.Profile{}, fmt.Errorf("unknown dataset %q (try: coral, jackson, detrac)", q.Source)
	}
	return p, nil
}

func cmdQuery(args []string, out, errw io.Writer) error {
	fs := newFlagSet("query", errw)
	src := fs.String("q", "", "VQL query text")
	frames := fs.Int("frames", 3000, "number of stream frames to process")
	ctol := fs.Int("ctol", 1, "count tolerance (0=exact CCF, 1=CCF-1, 2=CCF-2)")
	ltol := fs.Int("ltol", 1, "location tolerance (0=exact CLF, 1=CLF-1, 2=CLF-2)")
	seed := fs.Uint64("seed", 42, "stream seed")
	brute := fs.Bool("brute", false, "also run the brute-force baseline for comparison")
	explain := fs.Bool("explain", false, "print the execution plan and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *src == "" {
		return fmt.Errorf("query: -q is required")
	}
	q, err := vmq.ParseQuery(*src)
	if err != nil {
		return err
	}
	p, err := profileOf(q)
	if err != nil {
		return err
	}
	sess := vmq.NewSession(p, *seed)
	sess.Tol = vmq.Tolerances{Count: *ctol, Location: *ltol}

	if *explain {
		text, err := sess.Explain(q)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
		return nil
	}
	plan, err := sess.Bind(q)
	if err != nil {
		return err
	}
	framesSlice := sess.Stream.Take(*frames)
	truth := vmq.GroundTruth(plan, framesSlice)
	trueCount := 0
	for _, t := range truth {
		if t {
			trueCount++
		}
	}

	// Re-run over a fresh identical stream so the engine sees the frames.
	sess2 := vmq.NewSession(p, *seed)
	sess2.Tol = sess.Tol
	res, err := sess2.RunQuery(q, *frames)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "query: %s\n", q)
	fmt.Fprintf(out, "frames: %d  true frames: %d  matched: %d  accuracy: %.3f\n",
		res.FramesTotal, trueCount, len(res.Matched), vmq.Score(res, truth))
	fmt.Fprintf(out, "filter passed: %d (selectivity %.3f)  detector calls: %d\n",
		res.FilterPassed, res.Selectivity(), res.DetectorCalls)
	fmt.Fprintf(out, "virtual pipeline time: %v\n", res.VirtualTime)
	if *brute {
		sess3 := vmq.NewSession(p, *seed)
		bres, err := sess3.RunQueryBrute(q, *frames)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "brute force: %v (%0.1fx speedup)\n",
			bres.VirtualTime, bres.VirtualTime.Seconds()/res.VirtualTime.Seconds())
	}
	return nil
}

func cmdAggregate(args []string, out, errw io.Writer) error {
	fs := newFlagSet("aggregate", errw)
	src := fs.String("q", "", "VQL aggregate query text")
	window := fs.Int("window", 5000, "window size when the query has no WINDOW clause")
	samples := fs.Int("samples", 300, "detector samples per window")
	seed := fs.Uint64("seed", 42, "stream seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *src == "" {
		return fmt.Errorf("aggregate: -q is required")
	}
	q, err := vmq.ParseQuery(*src)
	if err != nil {
		return err
	}
	p, err := profileOf(q)
	if err != nil {
		return err
	}
	sess := vmq.NewSession(p, *seed)
	res, err := sess.RunAggregate(q, *window, *samples)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "query: %s\n", q)
	fmt.Fprintf(out, "window: %d frames, %d detector samples, %d control variate(s)\n",
		res.WindowSize, res.Samples, res.Controls)
	fmt.Fprintf(out, "plain estimate:   %.4f/frame (stderr %.4f)\n", res.Plain.Mean, res.Plain.StdErr())
	fmt.Fprintf(out, "CV estimate:      %.4f/frame (variance reduced %.1fx, beta %v)\n",
		res.CV.Estimate, res.CV.Reduction, res.CV.Beta)
	fmt.Fprintf(out, "ground truth:     %.4f/frame\n", res.TruePerFrameMean)
	fmt.Fprintf(out, "per-sample cost:  %v (filter + detector)\n", res.VirtualTimePerSample)
	if q.Select.Kind == vql.SelectFrameCount {
		fmt.Fprintf(out, "window total:     %.1f frames estimated, %.1f true\n",
			res.CV.Estimate*float64(res.WindowSize), res.TruePerFrameMean*float64(res.WindowSize))
	}
	return nil
}

func cmdWindows(args []string, out, errw io.Writer) error {
	fs := newFlagSet("windows", errw)
	src := fs.String("q", "", "VQL aggregate query text (must carry a WINDOW clause)")
	n := fs.Int("n", 5, "number of consecutive windows to estimate")
	samples := fs.Int("samples", 0, "detector samples per window (0 selects the default, 200)")
	seed := fs.Uint64("seed", 42, "stream seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *src == "" {
		return fmt.Errorf("windows: -q is required")
	}
	q, err := vmq.ParseQuery(*src)
	if err != nil {
		return err
	}
	p, err := profileOf(q)
	if err != nil {
		return err
	}
	sess := vmq.NewSession(p, *seed)
	results, err := sess.RunWindows(q, *n, *samples)
	if err != nil && !errors.Is(err, vmq.ErrStreamExhausted) {
		return err
	}
	fmt.Fprintf(out, "query: %s\n", q)
	for i, r := range results {
		fmt.Fprintf(out, "window %2d: CV estimate %8.4f/frame (plain %8.4f, truth %8.4f, var reduced %.1fx)\n",
			i, r.CV.Estimate, r.Plain.Mean, r.TruePerFrameMean, r.CV.Reduction)
	}
	if err != nil {
		fmt.Fprintf(out, "source exhausted after %d of %d windows\n", len(results), *n)
	}
	return nil
}

func cmdExperiment(args []string, out, errw io.Writer) error {
	fs := newFlagSet("experiment", errw)
	name := fs.String("name", "all", "experiment name")
	frames := fs.Int("frames", 0, "frames per dataset (0 = paper test-split size)")
	reps := fs.Int("reps", 0, "aggregate repetitions (0 = 20)")
	seed := fs.Uint64("seed", 20, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Frames: *frames, Seed: *seed, Repetitions: *reps}
	run := func(n string) error {
		switch n {
		case "tableII":
			fmt.Fprint(out, experiments.FormatTableII(experiments.TableII(cfg)))
		case "fig7":
			fmt.Fprint(out, experiments.FormatFigure7(experiments.Figure7(cfg)))
		case "fig11":
			fmt.Fprint(out, experiments.FormatFigure11(experiments.Figure11(cfg)))
		case "fig15":
			fmt.Fprint(out, experiments.FormatFigure15(experiments.Figure15(cfg)))
		case "tableIII":
			fmt.Fprint(out, experiments.FormatTableIII(experiments.TableIII(cfg)))
		case "tableIV":
			fmt.Fprint(out, experiments.FormatTableIV(experiments.TableIV(cfg)))
		case "tableIVhf":
			fmt.Fprint(out, experiments.FormatTableIV(experiments.TableIVHighFidelity(cfg)))
		case "constraint":
			fmt.Fprint(out, experiments.FormatConstraintAccuracy(experiments.ConstraintAccuracy(cfg)))
		case "branch":
			fmt.Fprint(out, experiments.FormatBranchTradeoff(experiments.BranchTradeoff(cfg)))
		case "anomaly":
			fmt.Fprint(out, experiments.FormatUnexpectedObjects(experiments.UnexpectedObjects(cfg)))
		case "planner":
			fmt.Fprint(out, experiments.FormatPlanner(experiments.Planner(cfg)))
		case "trained":
			rows, sweep := experiments.TrainedComparison(cfg)
			fmt.Fprint(out, experiments.FormatTrainedComparison(rows, sweep))
		case "samplers":
			fmt.Fprint(out, experiments.FormatSamplerAblation(experiments.SamplerAblation(cfg)))
		default:
			return fmt.Errorf("unknown experiment %q", n)
		}
		return nil
	}
	if *name == "all" {
		for _, n := range []string{"tableII", "fig7", "fig11", "fig15", "tableIII", "tableIV", "tableIVhf", "constraint", "branch", "anomaly", "planner", "samplers", "trained"} {
			if err := run(n); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	return run(*name)
}

func cmdTrain(args []string, out, errw io.Writer) error {
	fs := newFlagSet("train", errw)
	dataset := fs.String("dataset", "jackson", "dataset profile")
	frames := fs.Int("frames", 300, "training frames")
	epochs := fs.Int("epochs", 3, "training epochs")
	img := fs.Int("img", 32, "rasterisation size (pixels)")
	test := fs.Int("test", 150, "evaluation frames")
	tech := fs.String("tech", "ic", "filter family: ic or od")
	save := fs.String("save", "", "write trained weights to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, ok := video.ProfileByName(*dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	family := filters.IC
	if *tech == "od" {
		family = filters.OD
	}
	fmt.Fprintf(out, "training %s filter on %s (%d frames, %d epochs, %dx%d px)...\n",
		family, p.Name, *frames, *epochs, *img, *img)
	backend := filters.TrainFilter(family, p, filters.TrainedConfig{
		Frames: *frames, Epochs: *epochs, Img: *img, Channels: 16, Seed: 1,
	}, simclock.New())

	s := video.NewStream(p, 999)
	var total metrics.CountAccuracy
	perClass := map[video.Class]*metrics.CountAccuracy{}
	for _, cm := range p.Classes {
		perClass[cm.Class] = &metrics.CountAccuracy{}
	}
	for i := 0; i < *test; i++ {
		f := s.Next()
		est := backend.Evaluate(f)
		total.Observe(f.Count()-len(p.Static), est.Total)
		for _, cm := range p.Classes {
			perClass[cm.Class].Observe(f.CountClass(cm.Class), est.Counts[cm.Class])
		}
	}
	fmt.Fprintf(out, "total count:  %s\n", total.String())
	for _, cm := range p.Classes {
		fmt.Fprintf(out, "%-12s %s\n", cm.Class.String()+":", perClass[cm.Class].String())
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := backend.SaveWeights(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "weights saved to %s\n", *save)
	}
	return nil
}
