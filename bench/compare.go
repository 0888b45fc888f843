package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	var last error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if err != nil {
			last = err
			continue
		}
		var b benchmarkFile
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &b, nil
	}
	return nil, last
}

// loadRuns reads one side of a comparison: a result file, or a directory
// of them. Traced runs carry no end-to-end numbers and are skipped.
func loadRuns(path string) ([]*runResult, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []*runResult
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			runs = append(runs, &r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", path)
	}
	return runs, nil
}

// verdict judges side b against side a for one metric. worse is how much
// worse b's median is as a share of a's (negative = better).
func verdict(a, b []float64, higherBetter bool, bound float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if higherBetter {
			worse = -worse
		}
	}
	spread := quartileSpread(a)
	if s := quartileSpread(b); s > spread {
		spread = s
	}
	// b beats a outright when every run of b reads better than every run
	// of a; then spread cannot hide a regression.
	sa, sb := sortedCopy(a), sortedCopy(b)
	outright := sb[len(sb)-1] < sa[0]
	if higherBetter {
		outright = sb[0] > sa[len(sa)-1]
	}
	switch {
	case worse > bound:
		return worse, "REGRESSED"
	case spread > bound && !outright:
		return worse, "unresolved"
	case worse < -bound:
		return worse, "improved"
	default:
		return worse, "unchanged"
	}
}

// compareFiles prints one row per workload × end-to-end metric of side b
// against side a, judged by the bounds in BENCHMARK.json. It refuses sides
// recorded on different machines. Exit status 1 when any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintf(stderr, "BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := loadRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fp := a[0].Machine.fingerprint()
	for _, r := range append(append([]*runResult(nil), a...), b...) {
		if got := r.Machine.fingerprint(); got != fp {
			fmt.Fprintf(stderr, "refusing to compare results from different machines:\n  %s\n  %s\n", fp, got)
			return 2
		}
	}
	values := func(runs []*runResult, workload, name string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "%-18s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	status := 0
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			va, vb := values(a, w.Name, e.Name), values(b, w.Name, e.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, word := verdict(va, vb, e.Better == "higher", e.Bound)
			if word == "REGRESSED" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-18s %-26s %14.6g %14.6g %+8.1f%% %6.0f%%  %s (n=%d,%d)\n",
				w.Name, e.Name, median(va), median(vb), worse*100, e.Bound*100, word, len(va), len(vb))
		}
	}
	return status
}
