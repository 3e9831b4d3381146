package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
)

// repeat is the repeatability self-check: it runs every workload in
// interleaved sets of runs of this same binary (A B B A …), so that drift of
// the machine hits every set alike, and compares each end-to-end metric's
// medians across the sets. Two sets of runs of the same code must agree
// within the metric's own bound, or the bound cannot tell a regression from
// noise.
func repeat(sets, runs int, seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	exceeded := 0
	fmt.Printf("%-16s %-16s %14s %14s %8s %6s\n", "workload", "metric", "lowest median", "highest median", "diff", "bound")
	for _, w := range workloads {
		// values[set][metric] collects one value per run.
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = map[string][]float64{}
		}
		for r := 0; r < runs; r++ {
			for i := 0; i < sets; i++ {
				set := i
				if r%2 == 1 {
					set = sets - 1 - i
				}
				res, err := runChild(exe, w.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				for name, m := range res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			for s := range values {
				m := median(values[s][d.name])
				lo, hi = min(lo, m), max(hi, m)
			}
			diff := (hi - lo) / lo
			verdict := ""
			if diff > d.bound {
				verdict = "EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-16s %-16s %14.6g %14.6g %7.2f%% %5.0f%% %s\n", w.name, d.name, lo, hi, 100*diff, 100*d.bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics differ between sets of runs of the same code by more than their bound", exceeded)
	}
	return nil
}

// runChild runs one untraced run of one workload in a child process and
// parses the JSON line it ends with.
func runChild(exe, workload string, seed int64, seconds float64) (*jsonResult, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line: %w", err)
	}
	return &res, nil
}
