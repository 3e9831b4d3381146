// Command benchpairs runs a base revision (extracted with `git archive`)
// and the working tree in alternating pairs, the measurement a performance
// claim rests on: pair i runs the base first when i is even and the change
// first when i is odd, so a slow episode of the host lands on both sides
// alike. Per metric it prints both sides' medians and quartiles and the
// pairs the change won (ties count for neither).
//
// -workload runs bench/run.sh; BENCHMARK.json says which way is better.
// -bench builds one `go test -c` binary per package per side first, then
// runs each with -test.bench REGEX -test.benchmem -test.count 1 in its
// package directory; higher is better for units ending in "/s", lower for
// the rest. -o writes that comparison as a ledger (BENCH_*.json), keeping
// the file's description, and refuses a dirty tree: a row must name the
// code it measured.
//
//	benchpairs -base HEAD~1 -workload rotate_wide_tcp [-n 10] [-seed 1] [-trace 0]
//	benchpairs -base HEAD~1 -bench REGEX [-n 10] [-o LEDGER] PKG...
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// report is what benchpairs reads of bench/run.sh's JSON report.
type report struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

// row names one compared number, a bench/run.sh metric (unit empty) or a
// benchmark's reading in one unit, and the direction that is better.
type row struct {
	name, unit string
	higher     bool
}

// samples holds one side's readings of each row, in run order.
type samples map[row][]float64

// result is one row of the comparison: each side's [median, q1, q3] and
// the pairs the change won.
type result struct {
	Base   [3]float64 `json:"base"`
	Change [3]float64 `json:"change"`
	Wins   int        `json:"wins"`
}

// revision labels one side of a ledger.
type revision struct {
	Label string `json:"label"`
	Date  string `json:"date"`
}

// ledger is the BENCH_*.json layout.
type ledger struct {
	Description string                       `json:"description"`
	Command     string                       `json:"command"`
	Base        revision                     `json:"base"`
	Change      revision                     `json:"change"`
	Pairs       int                          `json:"pairs"`
	Rows        map[string]map[string]result `json:"rows"`
}

var sideNames = [2]string{"base", "change"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		base     = flag.String("base", "", "base revision (required)")
		workload = flag.String("workload", "", "bench/run.sh workload to compare")
		bench    = flag.String("bench", "", "go test -bench regexp to compare over the package arguments")
		pairs    = flag.Int("n", 10, "pairs of runs")
		seed     = flag.Int64("seed", 1, "workload seed")
		trace    = flag.Int("trace", 0, "1 compares the per-layer metrics of traced workload runs")
		out      = flag.String("o", "", "ledger the -bench comparison is written to")
	)
	flag.Parse()
	if *base == "" || *pairs < 1 || (*workload == "") == (*bench == "" || flag.NArg() == 0) {
		return fmt.Errorf("need -base, -n ≥ 1, and either -workload or -bench with packages")
	}
	today := time.Now().UTC().Format("2006-01-02")
	change, err := git("describe", "--always", "--dirty")
	if err == nil && *out != "" {
		err = checkLabel(change)
	}
	if err != nil {
		return err
	}
	baseLabel, err := git("rev-parse", "--short", "--verify", *base+"^{commit}")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dirs := [2]string{filepath.Join(tmp, "base"), "."}
	extract := exec.Command("sh", "-c", `mkdir "$1" && git archive "$0" | tar -x -C "$1"`, *base, dirs[0])
	if extract.Stderr = os.Stderr; extract.Run() != nil {
		return fmt.Errorf("cannot extract %s", *base)
	}

	if *workload != "" {
		return compareWorkload(dirs, *workload, *pairs, *seed, *trace)
	}
	rows, err := compareBenchmarks(dirs, tmp, *bench, flag.Args(), *pairs)
	if err != nil || *out == "" {
		return err
	}
	return writeLedger(*out, ledger{
		Command: fmt.Sprintf("benchpairs -base %s -bench '%s' -n %d -o %s %s",
			baseLabel, *bench, *pairs, *out, strings.Join(flag.Args(), " ")),
		Base:   revision{Label: baseLabel, Date: today},
		Change: revision{Label: change, Date: today},
		Pairs:  *pairs,
		Rows:   rows,
	})
}

// compareWorkload runs bench/run.sh in both checkouts and prints the
// comparison of its metrics and the failed operations.
func compareWorkload(dirs [2]string, workload string, pairs int, seed int64, trace int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf struct { // the part of BENCHMARK.json read here
		RunSeconds int                             `json:"run_seconds"`
		EndToEnd   []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	defs := bf.EndToEnd
	if trace != 0 {
		defs = bf.PerLayer
	}
	var rows []row
	for _, d := range defs {
		rows = append(rows, row{name: d.Name, higher: d.Better == "higher"})
	}
	args := []string{"bench/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", strconv.Itoa(trace)}
	var failed, attempted [2]int
	got, err := runPairs(pairs, func(side int, into samples) (string, error) {
		cmd := exec.Command("bash", args...)
		cmd.Dir, cmd.Stderr = dirs[side], os.Stderr
		out, err := cmd.Output()
		var rep report // the JSON line bench/run.sh ends with
		if out = bytes.TrimSpace(out); err == nil {
			err = json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &rep)
		}
		if err != nil || !rep.Correct {
			return "", fmt.Errorf("%s: no correct report (%v)", strings.Join(args, " "), err)
		}
		failed[side] += rep.Failed
		attempted[side] += rep.Attempted
		var line strings.Builder
		for _, rw := range rows {
			if m, ok := rep.Metrics[rw.name]; ok {
				into[rw] = append(into[rw], m.Value)
				fmt.Fprintf(&line, "  %s %.6g", rw.name, m.Value)
			}
		}
		fmt.Fprintf(&line, "  failed %d/%d", rep.Failed, rep.Attempted)
		return line.String(), nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("\n%s, seed %d, %d pairs, %d s windows, trace %d\n", workload, seed, pairs, bf.RunSeconds, trace)
	tabulate(rows, got, pairs)
	for side := range sideNames {
		fmt.Printf("%s: failed %d of %d attempted\n", sideNames[side], failed[side], attempted[side])
	}
	return nil
}

// compareBenchmarks builds each package's test binary in both checkouts,
// runs the benchmarks matching regex in pairs, prints the comparison and
// returns its rows.
func compareBenchmarks(dirs [2]string, bin, regex string, pkgs []string, pairs int) (map[string]map[string]result, error) {
	var bins [2][]string
	for side, dir := range dirs {
		for i, pkg := range pkgs {
			path := filepath.Join(bin, fmt.Sprintf("%s%d.test", sideNames[side], i))
			build := exec.Command("go", "test", "-c", "-o", path, pkg)
			build.Dir, build.Stderr = dir, os.Stderr
			if err := build.Run(); err != nil {
				return nil, fmt.Errorf("%s: go test -c %s: %w", sideNames[side], pkg, err)
			}
			bins[side] = append(bins[side], path)
		}
	}
	got, err := runPairs(pairs, func(side int, into samples) (string, error) {
		for i, path := range bins[side] {
			cmd := exec.Command(path, "-test.run", "^$", "-test.bench", regex, "-test.benchmem", "-test.count", "1")
			cmd.Dir, cmd.Stderr = filepath.Join(dirs[side], pkgs[i]), os.Stderr
			out, err := cmd.Output()
			if err == nil {
				err = parseBench(bytes.NewReader(out), into)
			}
			if err != nil {
				return "", fmt.Errorf("%s: %w", pkgs[i], err)
			}
		}
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	var rows []row
	for rw := range got[0] {
		rows = append(rows, rw)
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(strings.Compare(a.name, b.name), strings.Compare(a.unit, b.unit))
	})
	fmt.Printf("\n%s, %d pairs\n", regex, pairs)
	return tabulate(rows, got, pairs), nil
}

// runPairs runs once for both sides in n alternating pairs, printing each
// run's line as it finishes, and returns each side's readings.
func runPairs(n int, once func(side int, into samples) (string, error)) ([2]samples, error) {
	got := [2]samples{make(samples), make(samples)}
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			side := (i + j) % 2 // even pairs run the base first, odd ones the change
			line, err := once(side, got[side])
			if err != nil {
				return got, fmt.Errorf("pair %d, %s: %w", i+1, sideNames[side], err)
			}
			fmt.Printf("pair %2d %-6s%s\n", i+1, sideNames[side], line)
		}
	}
	return got, nil
}

// parseBench appends the readings of every Benchmark line of `go test
// -bench` output to into, by benchmark name (GOMAXPROCS suffix stripped)
// and unit. Better is higher for units ending in "/s", lower for the rest.
func parseBench(r io.Reader, into samples) error {
	lines := bufio.NewScanner(r)
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
				return fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			rw := row{name, fields[i+1], strings.HasSuffix(fields[i+1], "/s")}
			into[rw] = append(into[rw], v)
		}
	}
	return lines.Err()
}

// tabulate prints, per row, both sides' medians and quartiles and the
// pairs the change won, and returns that table by name and unit. A row
// that was not read once in every run is left out.
func tabulate(rows []row, got [2]samples, pairs int) map[string]map[string]result {
	table, width := make(map[string]map[string]result), 36
	for _, rw := range rows {
		width = max(width, len(rw.name)+1+len(rw.unit))
	}
	fmt.Printf("%-*s %-42s %-42s %s\n", width, "metric", "base median [q1, q3]", "change median [q1, q3]", "change wins")
	for _, rw := range rows {
		b, c := got[0][rw], got[1][rw]
		if len(b) != pairs || len(c) != pairs {
			continue
		}
		res := result{Base: quartiles(b), Change: quartiles(c)}
		for i := range b {
			if (rw.higher && c[i] > b[i]) || (!rw.higher && c[i] < b[i]) {
				res.Wins++
			}
		}
		fmt.Printf("%-*s %-42s %-42s %d/%d\n", width, strings.TrimSpace(rw.name+" "+rw.unit),
			summary(res.Base), summary(res.Change), res.Wins, pairs)
		if table[rw.name] == nil {
			table[rw.name] = make(map[string]result)
		}
		table[rw.name][rw.unit] = res
	}
	return table
}

// quartiles returns the median, first and third quartiles of vals.
func quartiles(vals []float64) [3]float64 {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return [3]float64{quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)}
}

// summary formats a median and its quartiles.
func summary(q [3]float64) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[0], q[1], q[2])
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// writeLedger writes l to path, keeping the description of the file it
// replaces when l has none.
func writeLedger(path string, l ledger) error {
	if prev, err := os.ReadFile(path); err == nil && l.Description == "" {
		var old ledger
		if err := json.Unmarshal(prev, &old); err != nil {
			return fmt.Errorf("%s exists but is not valid JSON: %w", path, err)
		}
		l.Description = old.Description
	}
	data, err := json.MarshalIndent(&l, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	return err
}

// checkLabel refuses to label a ledger row with a dirty tree: nobody can
// check out "abc1234-dirty" to measure it again.
func checkLabel(label string) error {
	if strings.HasSuffix(label, "-dirty") {
		return fmt.Errorf("label %q names a dirty tree; commit first", label)
	}
	return nil
}

// git runs git with args and returns its trimmed output.
func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
