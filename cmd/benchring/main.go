// Command benchring turns `go test -bench` output into a tracked
// BENCH_*.json ledger (BENCH_ring.json for the ring hot path,
// BENCH_kernels.json for the join kernels). It reads benchmark output on
// stdin, parses every Benchmark* line into name → {unit: value}, and
// writes the JSON file. A benchmark that appears more than once (`-count
// N`) is recorded as the median of its samples, with their min/max and
// count under "spread" as the run's noise band. An existing file's
// "baseline" section is preserved so current runs are always comparable
// against the recorded pre-optimization numbers; -rebaseline promotes the
// parsed run to be the new baseline instead.
//
// The run label defaults to `git describe --always --dirty` and the date
// to today (UTC); both can be injected with -label/-date so the file
// never needs hand-editing. A label ending in -dirty is refused unless
// -allow-dirty is given: a ledger row must name the code it measured.
//
// Usage:
//
//	go test ./internal/ring/ -bench . | benchring -o BENCH_ring.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// run is one labeled benchmark sweep.
type run struct {
	Label string `json:"label"`
	Date  string `json:"date,omitempty"`
	// Results maps benchmark name (GOMAXPROCS suffix stripped) to its
	// reported metrics, e.g. {"ns/op": 103940, "allocs/op": 9}: the
	// median where the benchmark ran more than once.
	Results map[string]map[string]float64 `json:"results"`
	// Spread holds, for every benchmark that ran more than once, the
	// range its samples covered.
	Spread map[string]map[string]spread `json:"spread,omitempty"`
}

// spread is the noise band of one metric over N samples.
type spread struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	N   int     `json:"n"`
}

// file is the BENCH_*.json layout.
type file struct {
	Description string `json:"description"`
	Command     string `json:"command"`
	Baseline    *run   `json:"baseline,omitempty"`
	Current     *run   `json:"current,omitempty"`
}

// parseBench extracts benchmark samples from `go test -bench` output:
// name → unit → one value per line the benchmark printed.
func parseBench(lines *bufio.Scanner) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	for lines.Scan() {
		fields := strings.Fields(lines.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		// fields[1] is the iteration count; value/unit pairs follow.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchring: %s: bad value %q", name, fields[i])
			}
			if out[name] == nil {
				out[name] = make(map[string][]float64)
			}
			out[name][fields[i+1]] = append(out[name][fields[i+1]], v)
		}
	}
	return out, lines.Err()
}

// fold reduces every metric's samples to their median and, where there is
// more than one sample, their spread.
func fold(samples map[string]map[string][]float64) (map[string]map[string]float64, map[string]map[string]spread) {
	results := make(map[string]map[string]float64, len(samples))
	spreads := make(map[string]map[string]spread)
	for name, metrics := range samples {
		results[name] = make(map[string]float64, len(metrics))
		band := make(map[string]spread)
		for unit, vs := range metrics {
			vs = slices.Clone(vs)
			slices.Sort(vs)
			n := len(vs)
			results[name][unit] = (vs[(n-1)/2] + vs[n/2]) / 2
			if n > 1 {
				band[unit] = spread{Min: vs[0], Max: vs[n-1], N: n}
			}
		}
		if len(band) > 0 {
			spreads[name] = band
		}
	}
	return results, spreads
}

// summarize prints the current-vs-baseline comparison for shared metrics.
func summarize(w *os.File, baseline, current *run) {
	if baseline == nil || current == nil {
		return
	}
	names := make([]string, 0, len(current.Results))
	for name := range current.Results {
		if _, ok := baseline.Results[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		base, cur := baseline.Results[name], current.Results[name]
		units := make([]string, 0, len(cur))
		for unit := range cur {
			if _, ok := base[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			b, c := base[unit], cur[unit]
			ratio := "  (n/a)"
			if b > 0 {
				ratio = fmt.Sprintf("  (%.2fx)", c/b)
			}
			band := ""
			if sp, ok := current.Spread[name][unit]; ok {
				band = fmt.Sprintf("  [%.1f..%.1f over %d]", sp.Min, sp.Max, sp.N)
			}
			fmt.Fprintf(w, "%-28s %-10s %14.1f -> %12.1f%s%s\n", name, unit, b, c, ratio, band)
		}
	}
}

// describeHead labels the run from the repository state: git describe
// (which flags dirty trees and tags), falling back to the short commit
// hash, falling back to "dev" outside a repository.
func describeHead() string {
	for _, args := range [][]string{
		{"describe", "--always", "--dirty"},
		{"rev-parse", "--short", "HEAD"},
	} {
		out, err := exec.Command("git", args...).Output()
		if s := strings.TrimSpace(string(out)); err == nil && s != "" {
			return s
		}
	}
	return "dev"
}

// checkLabel refuses to label a ledger row with a dirty tree: nobody can
// check out "abc1234-dirty" to measure it again.
func checkLabel(label string, allowDirty bool) error {
	if strings.HasSuffix(label, "-dirty") && !allowDirty {
		return fmt.Errorf("benchring: label %q names a dirty tree; commit first, or pass -allow-dirty", label)
	}
	return nil
}

// runGuard enforces the zero-alloc contract: every named benchmark must
// appear on stdin and report allocs/op == 0 in every sample. A missing
// benchmark fails too — a drifted -bench regex must not let the guard
// pass vacuously.
func runGuard(names string) int {
	results, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bad := 0
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := results[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchring: guard: %s missing from benchmark output\n", name)
			bad++
			continue
		}
		samples, ok := m["allocs/op"]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchring: guard: %s reports no allocs/op (missing ReportAllocs?)\n", name)
			bad++
			continue
		}
		if allocs := slices.Max(samples); allocs != 0 {
			fmt.Fprintf(os.Stderr, "benchring: guard: %s allocates: %v allocs/op, want 0\n", name, allocs)
			bad++
			continue
		}
		fmt.Printf("benchring: guard: %-28s 0 allocs/op\n", name)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func main() {
	outPath := flag.String("o", "BENCH_ring.json", "output file")
	desc := flag.String("desc", "Ring hot-path benchmarks: per-hop forwarding cost and codec cost. "+
		"Medians of -count 5; baseline is the parent of the last change to the ring's loops, current is the latest `make bench-ring`.", "the file's description field")
	command := flag.String("cmd", "make bench-ring", "the file's command field: what regenerates it")
	label := flag.String("label", "", "label for this run (default: git describe --always --dirty)")
	date := flag.String("date", "", "date for this run, YYYY-MM-DD (default: today, UTC)")
	rebaseline := flag.Bool("rebaseline", false, "record this run as the baseline instead of current")
	allowDirty := flag.Bool("allow-dirty", false, "accept a label ending in -dirty")
	guard := flag.String("guard", "", "comma-separated benchmarks that must report 0 allocs/op; verify stdin and exit, writing nothing")
	flag.Parse()

	if *guard != "" {
		os.Exit(runGuard(*guard))
	}

	if *label == "" {
		*label = describeHead()
	}
	if err := checkLabel(*label, *allowDirty); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *date == "" {
		*date = time.Now().UTC().Format("2006-01-02")
	} else if _, err := time.Parse("2006-01-02", *date); err != nil {
		fmt.Fprintf(os.Stderr, "benchring: -date %q is not YYYY-MM-DD\n", *date)
		os.Exit(2)
	}

	samples, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	results, spreads := fold(samples)
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchring: no benchmark lines on stdin")
		os.Exit(1)
	}

	var f file
	if prev, err := os.ReadFile(*outPath); err == nil {
		if err := json.Unmarshal(prev, &f); err != nil {
			fmt.Fprintf(os.Stderr, "benchring: %s exists but is not valid JSON: %v\n", *outPath, err)
			os.Exit(1)
		}
	}
	f.Description = *desc
	f.Command = *command
	r := &run{Label: *label, Date: *date, Results: results, Spread: spreads}
	if *rebaseline || f.Baseline == nil {
		f.Baseline = r
	}
	if !*rebaseline {
		f.Current = r
	}

	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *outPath, len(results))
	summarize(os.Stdout, f.Baseline, f.Current)
}
