package main

import (
	"fmt"
	"math"
	"reflect"

	"vmq"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/stream"
)

// gateResult is what the correctness gate and the accuracy metrics found
// for one finished incarnation.
type gateResult struct {
	Mismatches int64    // events missing from, or foreign to, the reference
	Detail     []string // first few mismatches, for the report
	Queries    int      // streams checked
	Prefix     int      // frames per feed the reference replayed

	Recall        float64 // min over monitoring queries (paper Table III accuracy)
	DetectorCalls float64 // detector invocations ÷ frames × queries
	FilterPass    float64 // frames the filter let through ÷ frames × queries
	VirtualSpeedX float64 // brute-force virtual time ÷ cascade virtual time
	AggRelErr     float64 // median over windows (calibrated_mix; else 0)
	AggVarRedX    float64
}

func (g *gateResult) fail(format string, args ...any) {
	g.Mismatches++
	if len(g.Detail) < 8 {
		g.Detail = append(g.Detail, fmt.Sprintf(format, args...))
	}
}

// gate checks a finished incarnation's served results against an
// independent computation over the same frames: every monitoring query's
// served frame_index list for a prefix of its feed against the one-shot
// executor (Session.RunQueryOn over a SliceSource), and every window event
// against query.RunWindows with the registration's sampler seed. It also
// derives the accuracy metrics from everything the run served. Call it
// after close(): it drives the feed's own CNN instances.
func (inc *incarnation) gate() gateResult {
	w := inc.w
	g := gateResult{Recall: 1}
	g.Prefix = warmFrames + inc.plan.Frames
	if max := warmFrames + gatePrefix; g.Prefix > max {
		g.Prefix = max
	}
	var relErrs, varReds []float64
	var detCalls, passed, frames int64
	var virtCascade, virtBrute float64

	// One memoised reference backend per feed, so the feed's queries share
	// one replay of the filter like they share the live scan.
	refBackend := make([]vmq.Backend, w.Feeds)
	for f := range refBackend {
		var b vmq.Backend
		if inc.trained != nil {
			b = inc.trained[f]
		} else {
			b = w.calibratedBackend(inc.names[f], inc.seed)
		}
		refBackend[f] = filters.NewShared(b, len(inc.frames[f]))
	}

	for _, c := range inc.consumers {
		g.Queries++
		qs := w.Queries[c.query]
		text := fmt.Sprintf(qs.Text, inc.names[c.feed])
		q, err := vmq.ParseQuery(text)
		if err != nil {
			g.fail("%s: %v", c.id, err)
			continue
		}
		if !c.sawEnd {
			g.fail("%s: stream closed without an end event", c.id)
		}
		ref := vmq.NewSession(w.boundProfile(inc.names[c.feed]), inc.seed)
		ref.Backend = refBackend[c.feed]
		plan, err := ref.Bind(q)
		if err != nil {
			g.fail("%s: %v", c.id, err)
			continue
		}
		all := inc.frames[c.feed][:warmFrames+inc.plan.Frames] // what was published
		prefix := all[:g.Prefix]

		if qs.Window {
			nWin := g.Prefix / windowSize
			want, err := query.RunWindows(plan, vmq.SliceSource(prefix), ref.Backend, ref.Detector, nWin,
				query.AggregateConfig{SampleSize: 200, Sampler: stream.NewUniformSampler(windowSeed(inc.seed, c.query)), MuFromFullWindow: true})
			if err != nil {
				g.fail("%s: reference windows: %v", c.id, err)
				continue
			}
			if len(c.windows) < len(want) {
				g.fail("%s: served %d windows, reference has %d in the prefix", c.id, len(c.windows), len(want))
			}
			for i := range want {
				if i >= len(c.windows) {
					break
				}
				got := c.windows[i]
				if got.Start != i*windowSize || !reflect.DeepEqual(got.Res, want[i]) {
					g.fail("%s: window %d (start %d) differs from RunWindows", c.id, i, got.Start)
				}
			}
			if want := len(all) / windowSize; len(c.windows) != want {
				g.fail("%s: served %d windows over %d frames, want %d", c.id, len(c.windows), len(all), want)
			}
			for _, we := range c.windows {
				if we.Res == nil {
					continue
				}
				if truth := we.Res.TruePerFrameMean; truth != 0 {
					relErrs = append(relErrs, math.Abs(we.Res.CV.Estimate-truth)/math.Abs(truth))
				}
				if r := we.Res.CV.Reduction; r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r) {
					varReds = append(varReds, r)
				}
			}
			continue
		}

		res, err := ref.RunQueryOn(q, vmq.SliceSource(prefix), len(prefix))
		if err != nil {
			g.fail("%s: reference run: %v", c.id, err)
			continue
		}
		// Served matches inside the prefix, in arrival order, must be the
		// reference list exactly: same frames, same order, no duplicates.
		var served []int
		for _, fi := range c.matches {
			if int(fi) < g.Prefix {
				served = append(served, int(fi))
			}
		}
		want := make([]int, len(res.Matched))
		for i, seq := range res.Matched {
			want[i] = prefix[seq].Index
		}
		if n := diffCount(served, want); n > 0 {
			g.Mismatches += int64(n) - 1
			g.fail("%s: %d served frames differ from the reference (%d served, %d expected) for %q",
				c.id, n, len(served), len(want), text)
		}

		// Accuracy over everything served (paper Table III): recall of
		// ground-truth frames.
		seqs := make([]int, len(c.matches))
		for i, fi := range c.matches {
			seqs[i] = int(fi)
		}
		truth := vmq.GroundTruth(plan, all)
		if r := vmq.Score(&vmq.Result{Matched: seqs}, truth); r < g.Recall {
			g.Recall = r
		}
		if c.final != nil {
			detCalls += int64(c.final.DetectorCalls)
			passed += int64(c.final.FilterPassed)
			frames += int64(c.final.FramesTotal)
			virtCascade += c.final.VirtualTime.Seconds()
			virtBrute += float64(c.final.FramesTotal) * ref.Detector.Cost().PerCall.Seconds()
			if c.final.FramesTotal != len(all) {
				g.fail("%s: end event reports %d frames, %d were published", c.id, c.final.FramesTotal, len(all))
			}
		}
	}
	if frames > 0 {
		g.DetectorCalls = float64(detCalls) / float64(frames)
		g.FilterPass = float64(passed) / float64(frames)
	}
	if virtCascade > 0 {
		g.VirtualSpeedX = virtBrute / virtCascade
	}
	g.AggRelErr = median(relErrs)
	g.AggVarRedX = median(varReds)
	return g
}

// diffCount returns how many positions two ordered lists disagree on,
// counting the length difference.
func diffCount(got, want []int) int {
	n := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			n++
		}
	}
	if d := len(got) - len(want); d > 0 {
		n += d
	} else {
		n -= d
	}
	return n
}
