package experiments

import (
	"fmt"
	"strings"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/simclock"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// QuerySpec pairs one of the paper's benchmark queries with the filter
// combination Table III reports as the most selective combination reaching
// (near-)full accuracy.
type QuerySpec struct {
	Name    string
	Dataset string
	VQL     string
	Combo   string // the paper's filter-combination label
	Tol     query.Tolerances
	// PaperSeconds is Table III's execution time for reference.
	PaperSeconds float64
	// PaperAccuracy is Table III's accuracy (1.0 except q7 = 0.93).
	PaperAccuracy float64
}

// TableIIIQueries returns q1–q7 exactly as defined in Section IV-B,
// annotated with the filter combinations of Table III.
func TableIIIQueries() []QuerySpec {
	return []QuerySpec{
		{
			Name: "q1", Dataset: "coral",
			VQL:   `SELECT FRAMES FROM coral WHERE COUNT(person) = 2`,
			Combo: "OD-CCF-1", Tol: query.Tolerances{Count: 1},
			PaperSeconds: 909.4, PaperAccuracy: 1,
		},
		{
			Name: "q2", Dataset: "coral",
			VQL: `SELECT FRAMES FROM coral
				WHERE COUNT(person) >= 2 AND COUNT(person IN QUADRANT(LOWER LEFT)) = 2`,
			Combo: "OD-CCF-1/OD-CLF", Tol: query.Tolerances{Count: 1},
			PaperSeconds: 427, PaperAccuracy: 1,
		},
		{
			Name: "q3", Dataset: "jackson",
			VQL:   `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND COUNT(person) = 1`,
			Combo: "OD-CCF", Tol: query.Tolerances{},
			PaperSeconds: 87.4, PaperAccuracy: 1,
		},
		{
			Name: "q4", Dataset: "jackson",
			VQL:   `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1 AND COUNT(person) >= 1`,
			Combo: "OD-CCF", Tol: query.Tolerances{},
			PaperSeconds: 122.6, PaperAccuracy: 1,
		},
		{
			Name: "q5", Dataset: "jackson",
			VQL: `SELECT FRAMES FROM jackson
				WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`,
			Combo: "OD-CCF/OD-CLF-1", Tol: query.Tolerances{Location: 1},
			PaperSeconds: 67.6, PaperAccuracy: 1,
		},
		{
			Name: "q6", Dataset: "detrac",
			VQL:   `SELECT FRAMES FROM detrac WHERE COUNT(car) = 1 AND COUNT(bus) = 1`,
			Combo: "OD-CCF-1", Tol: query.Tolerances{Count: 1},
			PaperSeconds: 367.6, PaperAccuracy: 1,
		},
		{
			Name: "q7", Dataset: "detrac",
			VQL: `SELECT FRAMES FROM detrac
				WHERE COUNT(car) = 1 AND COUNT(bus) = 1 AND car LEFT OF bus`,
			Combo: "OD-CCF-1/OD-CLF-2", Tol: query.Tolerances{Count: 1, Location: 2},
			PaperSeconds: 293.4, PaperAccuracy: 0.93,
		},
	}
}

// TableIIIRow is one row of Table III with the brute-force comparison of
// the accompanying text ("To run Coral through Mask R-CNN requires 5.2
// hours ...").
type TableIIIRow struct {
	Query         string
	Combo         string
	Frames        int
	TrueFrames    int
	Matched       int
	Accuracy      float64
	Selectivity   float64
	FilterSeconds float64 // cascaded execution, virtual time
	BruteSeconds  float64 // detector-on-every-frame, virtual time
	Speedup       float64
	PaperSeconds  float64
	PaperAccuracy float64
}

// TableIII executes q1–q7 with their Table III filter combinations,
// measuring accuracy against ground truth and virtual execution time
// against the brute-force baseline.
func TableIII(cfg Config) []TableIIIRow {
	var rows []TableIIIRow
	for _, spec := range TableIIIQueries() {
		p, ok := video.ProfileByName(spec.Dataset)
		if !ok {
			panic("experiments: unknown dataset " + spec.Dataset)
		}
		n := cfg.framesFor(p)
		frames := video.NewStream(p, cfg.seed()+4).Take(n)
		q, err := vql.Parse(spec.VQL)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", spec.Name, err))
		}
		plan := query.MustBind(q, p)
		truth := query.GroundTruth(plan, frames)
		trueFrames := 0
		for _, t := range truth {
			if t {
				trueFrames++
			}
		}
		eng := &query.Engine{
			Backend:  filters.NewODFilter(p, cfg.seed(), nil),
			Detector: detect.NewOracle(nil),
			Tol:      spec.Tol,
		}
		res := eng.Run(plan, frames)
		brute := time.Duration(n) * simclock.CostMaskRCNN.PerCall
		rows = append(rows, TableIIIRow{
			Query:         spec.Name,
			Combo:         spec.Combo,
			Frames:        n,
			TrueFrames:    trueFrames,
			Matched:       len(res.Matched),
			Accuracy:      query.Score(res, truth),
			Selectivity:   res.Selectivity(),
			FilterSeconds: res.VirtualTime.Seconds(),
			BruteSeconds:  brute.Seconds(),
			Speedup:       brute.Seconds() / res.VirtualTime.Seconds(),
			PaperSeconds:  spec.PaperSeconds,
			PaperAccuracy: spec.PaperAccuracy,
		})
	}
	return rows
}

// FormatTableIII renders the rows in Table III's layout with the
// brute-force comparison.
func FormatTableIII(rows []TableIIIRow) string {
	var b strings.Builder
	b.WriteString("Table III: Execution times (s) and filter combinations\n")
	fmt.Fprintf(&b, "%-4s %-18s %7s %6s %9s %9s %8s %9s %9s\n",
		"q", "combo", "frames", "acc", "filt(s)", "brute(s)", "speedup", "paper(s)", "paperAcc")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %-18s %7d %6.3f %9.1f %9.1f %7.1fx %9.1f %9.2f\n",
			r.Query, r.Combo, r.Frames, r.Accuracy,
			r.FilterSeconds, r.BruteSeconds, r.Speedup, r.PaperSeconds, r.PaperAccuracy)
	}
	return b.String()
}

// AggregateSpec pairs one of the paper's Table IV aggregate queries with
// its published variance reduction.
type AggregateSpec struct {
	Name           string
	Dataset        string
	VQL            string
	PaperReduction float64
	PaperMsPerFrm  float64
}

// TableIVQueries returns a1–a5 exactly as defined in Section IV-C.
func TableIVQueries() []AggregateSpec {
	return []AggregateSpec{
		{
			Name: "a1", Dataset: "jackson",
			VQL: `SELECT COUNT(FRAMES) FROM jackson
				WHERE car IN QUADRANT(LOWER RIGHT)`,
			PaperReduction: 48, PaperMsPerFrm: 201.6,
		},
		{
			Name: "a2", Dataset: "jackson",
			VQL: `SELECT COUNT(FRAMES) FROM jackson
				WHERE car LEFT OF person`,
			PaperReduction: 12, PaperMsPerFrm: 201.6,
		},
		{
			// The paper's a3 asks for frames with exactly three objects; on
			// the synthetic Detrac (mean 15.8 objects with strong temporal
			// correlation) such frames effectively never occur within one
			// window, so the count constraint is adapted to >= 3. The
			// experiment's purpose — multiple control variates across a
			// count predicate and two region predicates — is unchanged.
			Name: "a3", Dataset: "detrac",
			VQL: `SELECT COUNT(FRAMES) FROM detrac
				WHERE COUNT(*) >= 3 AND car IN QUADRANT(LOWER LEFT) AND bus IN QUADRANT(UPPER LEFT)`,
			PaperReduction: 38, PaperMsPerFrm: 202.2,
		},
		{
			Name: "a4", Dataset: "detrac",
			VQL: `SELECT COUNT(FRAMES) FROM detrac
				WHERE car LEFT OF bus`,
			PaperReduction: 230, PaperMsPerFrm: 201.6,
		},
		{
			Name: "a5", Dataset: "coral",
			VQL: `SELECT COUNT(FRAMES) FROM coral
				WHERE COUNT(person) = 3 AND COUNT(person IN QUADRANT(LOWER LEFT)) >= 2`,
			PaperReduction: 89, PaperMsPerFrm: 202.2,
		},
	}
}

// TableIVRow is one row of Table IV: the virtual time per sampled frame
// (filters plus the Mask R-CNN stand-in) and the measured variance
// reduction from control variates, averaged over the configured number of
// repetitions.
type TableIVRow struct {
	Query          string
	Controls       int
	MsPerSample    float64
	MeanReduction  float64
	MeanEstimate   float64
	TrueValue      float64
	Repetitions    int
	PaperReduction float64
	PaperMsPerFrm  float64
}

// TableIV executes a1–a5 with sampling plus (multiple) control variates.
// Each query runs cfg.Repetitions times over the same window with fresh
// samples; reductions are averaged as in the paper ("each query is
// executed one hundred times and we report averages").
func TableIV(cfg Config) []TableIVRow {
	return tableIVWith(cfg, filters.ODCalibration())
}

// TableIVHighFidelity is the control-variate ablation: the same five
// aggregate queries with a near-saturation filter calibration, showing
// that the CV machinery reaches the paper's largest variance reductions
// once filter/ground-truth agreement is high enough.
func TableIVHighFidelity(cfg Config) []TableIVRow {
	return tableIVWith(cfg, filters.HighFidelityCalibration())
}

func tableIVWith(cfg Config, cal filters.Calibration) []TableIVRow {
	var rows []TableIVRow
	for _, spec := range TableIVQueries() {
		p, ok := video.ProfileByName(spec.Dataset)
		if !ok {
			panic("experiments: unknown dataset " + spec.Dataset)
		}
		n := cfg.framesFor(p)
		frames := video.NewStream(p, cfg.seed()+5).Take(n)
		q, err := vql.Parse(spec.VQL)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", spec.Name, err))
		}
		plan := query.MustBind(q, p)
		backend := filters.NewCalibrated(filters.OD, cal, p, 56, cfg.seed(), nil)
		det := detect.NewOracle(nil)
		sampleSize := n / 10
		if sampleSize < 30 {
			sampleSize = 30
		}
		reps := cfg.reps()
		var sumRed, sumEst float64
		var controls int
		var perSample time.Duration
		var truth float64
		for rep := 0; rep < reps; rep++ {
			res, err := query.RunAggregate(plan, frames, backend, det, query.AggregateConfig{
				SampleSize: sampleSize,
				Sampler:    stream.NewUniformSampler(cfg.seed() + uint64(rep)*7919),
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: %s: %v", spec.Name, err))
			}
			// Cap per-repetition reductions: a sample whose residuals all
			// vanish reports an infinite ratio, which would swamp the mean.
			red := res.CV.Reduction
			if red > 1000 {
				red = 1000
			}
			sumRed += red
			sumEst += res.Estimate(vql.SelectFrameCount)
			controls = res.Controls
			perSample = res.VirtualTimePerSample
			truth = res.TruePerFrameMean * float64(res.WindowSize)
		}
		rows = append(rows, TableIVRow{
			Query:          spec.Name,
			Controls:       controls,
			MsPerSample:    float64(perSample.Microseconds()) / 1000,
			MeanReduction:  sumRed / float64(reps),
			MeanEstimate:   sumEst / float64(reps),
			TrueValue:      truth,
			Repetitions:    reps,
			PaperReduction: spec.PaperReduction,
			PaperMsPerFrm:  spec.PaperMsPerFrm,
		})
	}
	return rows
}

// FormatTableIV renders the rows in Table IV's layout.
func FormatTableIV(rows []TableIVRow) string {
	var b strings.Builder
	b.WriteString("Table IV: Aggregate queries, filter+detector time per sampled frame and variance reduction\n")
	fmt.Fprintf(&b, "%-4s %9s %10s %10s %10s %5s %10s %10s\n",
		"q", "ms/frame", "varRed", "estimate", "truth", "ctrl", "paperRed", "paperMs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %9.1f %9.1fx %10.1f %10.1f %5d %9.0fx %10.1f\n",
			r.Query, r.MsPerSample, r.MeanReduction, r.MeanEstimate, r.TrueValue,
			r.Controls, r.PaperReduction, r.PaperMsPerFrm)
	}
	return b.String()
}
