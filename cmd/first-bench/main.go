// first-bench regenerates every table and figure from the paper's
// evaluation (§5) on the simulated substrate and prints paper-vs-measured
// rows. Independent experiment cells fan out across cores (-workers); run
// with -exp to select one experiment.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/argonne-first/first/internal/experiments"
	"github.com/argonne-first/first/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+experiments.ExperimentNames())
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload seed")
	workers := flag.Int("workers", 0, "fleet goroutines (0 = GOMAXPROCS, 1 = sequential)")
	queue := flag.String("queue", "calendar", "kernel event queue: calendar|heap (heap is the reference; outputs must be byte-identical)")
	calibOut := flag.String("calib-out", "", "directory to preserve divergent livefed schedules when the calibration gate trips (-exp livefed)")
	flag.Parse()

	fleet := experiments.Fleet{Workers: *workers}
	switch *queue {
	case "", "calendar":
		fleet.Queue = sim.QueueCalendar
	case "heap":
		fleet.Queue = sim.QueueHeap
	default:
		fmt.Fprintf(os.Stderr, "unknown -queue %q (want calendar or heap)\n", *queue)
		os.Exit(2)
	}
	if *exp == "livefed" {
		// livefed is the gated path: the report includes the sim-vs-real
		// calibration table, and a tolerance-gate trip is a failing exit
		// code (with the divergent schedule preserved under -calib-out).
		if !experiments.RunLiveFedGateOn(os.Stdout, fleet, *seed, experiments.LiveFedCells, *calibOut) {
			os.Exit(1)
		}
	} else if err := experiments.ReportOn(os.Stdout, *exp, *seed, fleet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
