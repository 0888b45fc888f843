package query

import (
	"fmt"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/stats"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// AggregateConfig controls Monte Carlo aggregate execution (Section III).
type AggregateConfig struct {
	// SampleSize is the number of frames the detector evaluates per
	// window.
	SampleSize int
	// Sampler picks the sampled frame indices (default uniform).
	Sampler stream.Sampler
	// MuFromFullWindow is ignored: the control means µ_Z always come from
	// filtering every frame of the window, so they are exact. It stays for
	// the benchmark harness, which still sets it.
	MuFromFullWindow bool
}

// ControlValues appends the control-variate vector for one frame to dst
// and returns the extended slice: one entry per predicate leaf (counts as
// estimates, spatial/region predicates as 0/1 indicators) plus the
// aggregation target estimate for AVG queries, or the total count when
// the plan has neither. This realises the paper's Figure 6: "for each
// frame suitable all suitable filters are applied and control variates is
// deployed to estimate the aggregate."
func ControlValues(dst []float64, plan *Plan, out *filters.Output, f *video.Frame) []float64 {
	n := len(dst)
	if plan.Where != nil {
		dst = appendLeafControls(dst, plan.Where, out, f)
	}
	if plan.Agg != nil {
		dst = append(dst, plan.Agg.FilterRegionCount(out, f.Bounds))
	}
	if len(dst) == n {
		dst = append(dst, out.Total)
	}
	return dst
}

func appendLeafControls(dst []float64, e BoundExpr, out *filters.Output, f *video.Frame) []float64 {
	switch n := e.(type) {
	case *boundAnd:
		return appendLeafControls(appendLeafControls(dst, n.l, out, f), n.r, out, f)
	case *boundOr:
		return appendLeafControls(appendLeafControls(dst, n.l, out, f), n.r, out, f)
	case *boundNot:
		return appendLeafControls(dst, n.e, out, f)
	case *boundCount:
		if n.all {
			return append(dst, out.Total)
		}
		return append(dst, out.Counts[n.class])
	case *boundSpatial, *boundRegionPred:
		// Controls need correlation, not conservatism: Manhattan-1
		// tolerance maximises agreement with the detector-evaluated
		// truth by absorbing one-cell displacements.
		v := 0.0
		if e.EvalFilter(out, f.Bounds, Tolerances{Location: 1}) {
			v = 1
		}
		return append(dst, v)
	}
	return dst
}

// frameValue is a frame's Y under dets: the 0/1 predicate outcome for
// COUNT(FRAMES) queries, or for AVG queries the aggregation-target count
// of a qualifying frame.
func frameValue(plan *Plan, f *video.Frame, dets []detect.Detection) float64 {
	if plan.Where != nil && !plan.Where.EvalExact(dets, f.Bounds) {
		return 0
	}
	if plan.Query.Select.Kind == vql.SelectFrameCount {
		return 1
	}
	return float64(plan.Agg.RegionCount(dets, f.Bounds))
}

// AggregateResult reports one window's estimate with and without control
// variates — the per-query rows of Table IV.
type AggregateResult struct {
	// WindowSize is the number of frames in the window.
	WindowSize int
	// Samples is the number of detector-evaluated frames.
	Samples int
	// Plain is the naive sampling estimate of the per-frame mean.
	Plain stats.Summary
	// CV is the control-variate estimate.
	CV stats.CVResult
	// Controls is the number of control variates used (1 = single CV).
	Controls int
	// TruePerFrameMean is the ground-truth per-frame mean over the window
	// (available because the substrate is a simulator), for error
	// reporting.
	TruePerFrameMean float64
	// VirtualTimePerSample is the simulated cost per detector sample
	// including its filter pass — Table IV's "Filter + Mask RCNN" column.
	VirtualTimePerSample time.Duration
}

// Estimate returns the CV point estimate of the windowed aggregate: the
// qualifying-frame count for COUNT(FRAMES) queries, or the per-frame mean
// for AVG queries.
func (r *AggregateResult) Estimate(kind vql.SelectKind) float64 {
	if kind == vql.SelectFrameCount {
		return r.CV.Estimate * float64(r.WindowSize)
	}
	return r.CV.Estimate
}

// RunAggregate executes a windowed aggregate over one window of frames.
// The per-frame quantity Y is the 0/1 predicate outcome for COUNT(FRAMES)
// queries or the aggregation-target count for AVG queries, measured by the
// detector on sampled frames; the filter outputs provide the (possibly
// multiple) control variates.
func RunAggregate(plan *Plan, frames []*video.Frame, backend filters.Backend, det detect.Detector, cfg AggregateConfig) (*AggregateResult, error) {
	if plan.Query.Select.Kind == vql.SelectFrames {
		return nil, fmt.Errorf("query: RunAggregate needs an aggregate SELECT, got FRAMES")
	}
	if cfg.SampleSize <= 0 {
		return nil, fmt.Errorf("query: non-positive sample size %d", cfg.SampleSize)
	}
	if cfg.Sampler == nil {
		cfg.Sampler = stream.NewUniformSampler(1)
	}
	n := len(frames)
	if n == 0 {
		return nil, fmt.Errorf("query: empty window")
	}
	if cfg.SampleSize > n {
		cfg.SampleSize = n
	}

	// One scan reads every frame once. It fills the n×d control matrix,
	// whose column means are the exact µ_Z, and sums the ground-truth Y.
	// It goes through the backend's batch path (batched GEMMs for trained
	// backends; under the server's shared scan, a memo fill all
	// co-registered queries reuse) in bounded chunks, so the scan holds
	// O(chunk) outputs however large the window is.
	const scanChunk = 64
	var (
		ctrl    []float64
		outs    []*filters.Output
		truth   = Truth{plan: plan}
		trueSum float64
	)
	for start := 0; start < n; start += scanChunk {
		chunk := frames[start:min(start+scanChunk, n)]
		outs = filters.EvaluateBatchInto(backend, chunk, outs[:0])
		for k, f := range chunk {
			ctrl = ControlValues(ctrl, plan, outs[k], f)
			trueSum += truth.value(f)
		}
	}
	d := len(ctrl) / n

	// The detector runs in sample order: an order-sensitive detector
	// (SimYOLO) sees the frames in the order the sampler drew them.
	idx := cfg.Sampler.Sample(n, cfg.SampleSize)
	ys := make([]float64, len(idx))
	for k, i := range idx {
		ys[k] = frameValue(plan, frames[i], det.Detect(frames[i]))
	}

	// Keep the controls that vary over the sample (a constant one carries
	// no information and would make the covariance matrix singular), with
	// their window means µ_Z.
	var cols [][]float64
	var mu []float64
	for j := 0; j < d; j++ {
		col := make([]float64, len(idx))
		for k, i := range idx {
			col[k] = ctrl[i*d+j]
		}
		if stats.Summarize(col).Variance > 0 {
			sum := 0.0
			for i := j; i < len(ctrl); i += d {
				sum += ctrl[i]
			}
			cols = append(cols, col)
			mu = append(mu, sum/float64(n))
		}
	}

	res := &AggregateResult{
		WindowSize:           n,
		Samples:              len(idx),
		Plain:                stats.Summarize(ys),
		Controls:             len(cols),
		TruePerFrameMean:     trueSum / float64(n),
		VirtualTimePerSample: det.Cost().PerCall + backend.Technique().Cost().PerCall,
	}
	switch len(cols) {
	case 0:
		// No usable controls: fall back to the plain estimate.
		res.CV = stats.CVResult{
			Plain:     res.Plain,
			Estimate:  res.Plain.Mean,
			Variance:  res.Plain.Variance / float64(max(res.Plain.N, 1)),
			Reduction: 1,
		}
		return res, nil
	case 1:
		cv, err := stats.ControlVariate(ys, cols[0], mu[0])
		if err != nil {
			return nil, err
		}
		res.CV = cv
		return res, nil
	}

	zs := make([][]float64, len(idx))
	for k := range zs {
		row := make([]float64, len(cols))
		for jj, col := range cols {
			row[jj] = col[k]
		}
		zs[k] = row
	}
	cv, err := stats.MultipleControlVariates(ys, zs, mu)
	if err != nil {
		// Near-singular sample covariance (e.g. duplicated controls):
		// retry with the first control alone.
		single, serr := stats.ControlVariate(ys, cols[0], mu[0])
		if serr != nil {
			return nil, err
		}
		res.CV = single
		res.Controls = 1
		return res, nil
	}
	res.CV = cv
	return res, nil
}
