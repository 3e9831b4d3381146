// Command cyclobench regenerates the paper's evaluation tables and figures
// (§V) from the calibrated cost model and the discrete-event ring
// simulator.
//
// Usage:
//
//	cyclobench                  # run every experiment
//	cyclobench -run fig7        # one experiment (ids from -list)
//	cyclobench -list            # list experiment ids
//	cyclobench -chaos -seed 7   # seeded fault-injection suite on live rings
//
// The default run's output is cyclobench_output.txt at the repository
// root, pinned byte for byte by this command's golden test.
//
// The printed "paper:" notes state what the original evaluation reported,
// so shapes can be compared at a glance; EXPERIMENTS.md records the full
// paper-vs-reproduction comparison.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cyclojoin/internal/costmodel"
	"cyclojoin/internal/experiments"
)

func main() {
	runID := flag.String("run", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	chaos := flag.Bool("chaos", false, "run the seeded fault-injection scenarios against live rings instead of experiments")
	seed := flag.Uint64("seed", 1, "schedule seed for -chaos (0 derives one from the clock)")
	withHealth := flag.Bool("health", false, "with -chaos: run the live health sampler over each scenario and add its worst verdict to the table")
	flag.Parse()

	if *chaos {
		os.Exit(runChaos(os.Stdout, *seed, *withHealth))
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := experiments.All()
	if *runID != "" {
		e, err := experiments.ByID(*runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		selected = []experiments.Experiment{e}
	}
	if err := run(os.Stdout, selected); err != nil {
		fmt.Fprintf(os.Stderr, "cyclobench: %v\n", err)
		os.Exit(1)
	}
}

// run renders each experiment's table under the paper's calibration, one
// blank line between tables.
func run(w io.Writer, selected []experiments.Experiment) error {
	cal := costmodel.Default()
	for i, e := range selected {
		tbl, err := e.Run(cal)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := tbl.Render(w); err != nil {
			return fmt.Errorf("render %s: %w", e.ID, err)
		}
		if i < len(selected)-1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}
