package experiments

import (
	"fmt"
	"math"
	"strings"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// SamplerRow compares frame samplers for one aggregate query: the empirical
// standard deviation of the plain and CV estimates across repetitions.
type SamplerRow struct {
	Sampler  string
	PlainStd float64
	CVStd    float64
	MeanEst  float64
	Truth    float64
}

// SamplerAblation runs the a1 aggregate (frames with a car in the lower
// right quadrant, Jackson) under uniform, systematic and temporally
// stratified sampling, reporting the across-repetition spread of the
// estimates. On autocorrelated video, spreading samples in time
// (systematic/stratified) reduces variance on top of what control
// variates deliver.
func SamplerAblation(cfg Config) []SamplerRow {
	p, _ := video.ProfileByName("jackson")
	n := cfg.framesFor(p)
	frames := video.NewStream(p, cfg.seed()+11).Take(n)
	q, err := vql.Parse(`SELECT COUNT(FRAMES) FROM jackson WHERE car IN QUADRANT(LOWER RIGHT)`)
	if err != nil {
		panic(err)
	}
	plan := query.MustBind(q, p)
	backend := filters.NewODFilter(p, cfg.seed(), nil)
	det := detect.NewOracle(nil)
	sampleSize := n / 10
	if sampleSize < 30 {
		sampleSize = 30
	}
	reps := cfg.reps()

	samplers := []struct {
		name string
		mk   func(seed uint64) stream.Sampler
	}{
		{"uniform", func(s uint64) stream.Sampler { return stream.NewUniformSampler(s) }},
		{"systematic", func(s uint64) stream.Sampler { return stream.NewSystematicSampler(s) }},
		{"stratified", func(s uint64) stream.Sampler { return stream.NewStratifiedSampler(s) }},
	}
	var rows []SamplerRow
	for _, sm := range samplers {
		var plainSum, plainSq, cvSum, cvSq float64
		var truth float64
		for rep := 0; rep < reps; rep++ {
			res, err := query.RunAggregate(plan, frames, backend, det, query.AggregateConfig{
				SampleSize: sampleSize,
				Sampler:    sm.mk(cfg.seed() + uint64(rep)*6151),
			})
			if err != nil {
				panic(err)
			}
			plainSum += res.Plain.Mean
			plainSq += res.Plain.Mean * res.Plain.Mean
			cvSum += res.CV.Estimate
			cvSq += res.CV.Estimate * res.CV.Estimate
			truth = res.TruePerFrameMean
		}
		r := float64(reps)
		plainVar := plainSq/r - (plainSum/r)*(plainSum/r)
		cvVar := cvSq/r - (cvSum/r)*(cvSum/r)
		rows = append(rows, SamplerRow{
			Sampler:  sm.name,
			PlainStd: sqrtNonNeg(plainVar),
			CVStd:    sqrtNonNeg(cvVar),
			MeanEst:  cvSum / r,
			Truth:    truth,
		})
	}
	return rows
}

func sqrtNonNeg(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// FormatSamplerAblation renders the sampler comparison.
func FormatSamplerAblation(rows []SamplerRow) string {
	var b strings.Builder
	b.WriteString("Sampler ablation (a1, Jackson): across-repetition std of the per-frame estimate\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s\n", "sampler", "plainStd", "cvStd", "meanEst", "truth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.4f %10.4f %10.4f %10.4f\n",
			r.Sampler, r.PlainStd, r.CVStd, r.MeanEst, r.Truth)
	}
	return b.String()
}
