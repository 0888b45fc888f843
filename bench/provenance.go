package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"vmq/internal/tensor"
)

// provenance is the machine fingerprint every result file records;
// -compare refuses to compare files whose fingerprints differ.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"tensor_kernel"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readProvenance() provenance {
	p := provenance{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     tensor.Kernel(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit comes from the VCS stamp the go tool embeds; a checkout
	// that is not a repository (the benchmark driver's) has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// fingerprint is what must match for two result files to be comparable.
func (p provenance) fingerprint() string {
	return fmt.Sprintf("%s|%d|%d|%s|%s", p.CPUModel, p.NProc, p.GOMAXPROCS, p.Kernel, p.GOARCH)
}
