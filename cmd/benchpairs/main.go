// Command benchpairs runs the repository's benchmark (bench/run.sh) on two
// checkouts in alternating pairs — the measurement a performance claim
// rests on (ROADMAP: "a claim needs alternating parent/change pairs"). Pair
// i runs the base first when i is even and the change first when i is odd,
// so a slow episode of the host lands on both sides alike.
//
// Every run is printed as it finishes; the summary gives, per metric, both
// sides' medians and quartiles, how many pairs the change won (ties count
// for neither), and the operations that failed. The direction of "better"
// comes from BENCHMARK.json. The change is the working directory's checkout.
//
// Usage (normally through `make bench-pairs W=rotate_wide_tcp BASE=HEAD~1`,
// which extracts the base revision with `git archive` first):
//
//	benchpairs -base /tmp/base -workload rotate_wide_tcp [-n 10] [-seed 1] [-trace 0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// report is the JSON line bench/run.sh ends with.
type report struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// benchmarkFile is the part of BENCHMARK.json benchpairs reads.
type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		base     = flag.String("base", "", "checkout of the base revision (required)")
		workload = flag.String("workload", "", "benchmark workload (required)")
		pairs    = flag.Int("n", 10, "pairs of runs")
		seed     = flag.Int64("seed", 1, "workload seed")
		trace    = flag.Int("trace", 0, "1 compares the per-layer metrics of traced runs")
	)
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		return fmt.Errorf("need -base, -workload and -n ≥ 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	defs := bf.EndToEnd
	if *trace != 0 {
		defs = bf.PerLayer
	}
	args := []string{"bench/run.sh", "--workload", *workload, "--seed", strconv.FormatInt(*seed, 10),
		"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", strconv.Itoa(*trace)}

	sides := [2]struct{ name, dir string }{{"base", *base}, {"change", "."}}
	var reports [2][]report
	for i := 0; i < *pairs; i++ {
		for j := 0; j < 2; j++ {
			side := (i + j) % 2 // even pairs run the base first, odd ones the change
			rep, err := runOnce(sides[side].dir, args)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, sides[side].name, err)
			}
			reports[side] = append(reports[side], rep)
			fmt.Printf("pair %2d %-6s", i+1, sides[side].name)
			for _, d := range defs {
				if m, ok := rep.Metrics[d.Name]; ok {
					fmt.Printf("  %s %.6g", d.Name, m.Value)
				}
			}
			fmt.Printf("  failed %d/%d\n", rep.Failed, rep.Attempted)
		}
	}

	fmt.Printf("\n%s, seed %d, %d pairs, %d s windows, trace %d\n", *workload, *seed, *pairs, bf.RunSeconds, *trace)
	fmt.Printf("%-36s %-42s %-42s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "change wins")
	for _, d := range defs {
		var vals [2][]float64
		for side := range vals {
			for _, rep := range reports[side] {
				if m, ok := rep.Metrics[d.Name]; ok {
					vals[side] = append(vals[side], m.Value)
				}
			}
		}
		if len(vals[0]) != *pairs || len(vals[1]) != *pairs {
			continue // the workload does not report this metric
		}
		wins := 0
		for i := range vals[0] {
			b, c := vals[0][i], vals[1][i]
			if (d.Better == "lower" && c < b) || (d.Better == "higher" && c > b) {
				wins++
			}
		}
		fmt.Printf("%-36s %-42s %-42s %d/%d\n", d.Name, summary(vals[0]), summary(vals[1]), wins, *pairs)
	}
	for side, reps := range reports {
		failed, attempted := 0, 0
		for _, rep := range reps {
			failed += rep.Failed
			attempted += rep.Attempted
		}
		fmt.Printf("%s: failed %d of %d attempted\n", sides[side].name, failed, attempted)
	}
	return nil
}

// runOnce runs the benchmark in dir and parses the JSON line it ends with.
func runOnce(dir string, args []string) (report, error) {
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("last output line is not the benchmark's JSON report: %w", err)
	}
	if !rep.Correct {
		return rep, fmt.Errorf("benchmark reported incorrect results")
	}
	return rep, nil
}

// summary formats the median and quartiles of vals.
func summary(vals []float64) string {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75))
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
