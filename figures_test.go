package vmq_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// wantPaperFigures is every metric the paper benchmarks report at
// benchConfig() scale, keyed by benchmark then unit.
var wantPaperFigures = map[string]map[string]float64{
	"BranchTradeoff": {
		"g14-f1": 0.77248677248677255,
		"g56-f1": 0.82412060301507528,
	},
	"ConstraintAccuracy": {
		"agreement": 0.96799999999999997,
	},
	"Figure11": {
		"jackson-ICCCF-car-exact": 1,
	},
	"Figure15": {
		"IC-CLF-f1": 0.4068670362805174,
		"OD-CLF-f1": 0.82247729682386028,
	},
	"Figure7": {
		"detrac-ODCF-exact": 0.52100000000000002,
		"detrac-ODCF-±2":    0.97499999999999998,
	},
	"Planner": {
		"min-accuracy": 1,
	},
	"TableII": {
		"obj/frame": 13.581,
		"std":       9.1151214473532942,
	},
	"TableIII": {
		"min-accuracy":  0.94505494505494503,
		"min-speedup-x": 5.0890585241730282,
	},
	"TableIV": {
		"a1-varRed-x": 4.8675725456125178,
		"a2-varRed-x": 1.9016666666666648,
		"a3-varRed-x": 2.6783169371216862,
		"a4-varRed-x": 12.903114242854882,
		"a5-varRed-x": 1.0365715128336923,
	},
	"TableIVHighFidelity": {
		"max-varRed-x": 674.72666666666669,
	},
	"UnexpectedObjects": {
		"recall": 1,
	},
}

// TestPaperFiguresExact pins the paper's figures bit for bit. The
// experiments are deterministic for a fixed seed on any core count and
// kernel level, so a moved figure means a filter decision, a sampler or
// a tolerance rule changed. If that was the intent, replace
// wantPaperFigures with the printed literal and say why the numbers moved.
func TestPaperFiguresExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment (a few seconds of CPU)")
	}
	got := make(map[string]map[string]float64, len(paperFigures))
	for name, run := range paperFigures {
		got[name] = run(benchConfig())
	}
	if diff := figureDiff(wantPaperFigures, got); diff != "" {
		t.Errorf("paper figures moved (-want +got):\n%s\nfull result:\n%s", diff, figuresLiteral(got))
	}
}

// figureLines flattens m to one "name unit value" line per metric, with
// every value printed at full precision (%.17g round-trips a float64).
func figureLines(m map[string]map[string]float64) map[string]bool {
	lines := map[string]bool{}
	for name, units := range m {
		for unit, v := range units {
			lines[fmt.Sprintf("%s %s %.17g", name, unit, v)] = true
		}
	}
	return lines
}

// figureDiff lists the metrics whose value differs between want and got,
// or that only one of them has.
func figureDiff(want, got map[string]map[string]float64) string {
	w, g := figureLines(want), figureLines(got)
	var diff []string
	for l := range w {
		if !g[l] {
			diff = append(diff, "- "+l)
		}
	}
	for l := range g {
		if !w[l] {
			diff = append(diff, "+ "+l)
		}
	}
	metric := func(l string) string { return l[2:strings.LastIndexByte(l, ' ')] }
	sort.SliceStable(diff, func(i, j int) bool { return metric(diff[i]) < metric(diff[j]) })
	return strings.Join(diff, "\n")
}

// figuresLiteral prints m as the Go literal wantPaperFigures holds.
func figuresLiteral(m map[string]map[string]float64) string {
	var b strings.Builder
	b.WriteString("map[string]map[string]float64{\n")
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(&b, "\t%q: {\n", name)
		for _, unit := range sortedKeys(m[name]) {
			fmt.Fprintf(&b, "\t\t%q: %.17g,\n", unit, m[name][unit])
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}")
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
