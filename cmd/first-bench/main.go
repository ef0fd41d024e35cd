// first-bench regenerates every table and figure from the paper's
// evaluation (§5) on the simulated substrate and prints paper-vs-measured
// rows. Independent experiment cells fan out across cores (-workers); run
// with -exp to select one experiment, and -json to append a machine-readable
// BENCH_<n>.json perf record alongside the human-readable report. -diff
// compares the two newest records and fails on perf regressions (`make
// bench-diff`).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/argonne-first/first/internal/experiments"
	"github.com/argonne-first/first/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig3|fig4|fig5|table1|batch|opt1|opt2|opt3|routing|storm|federate|autoscale|livefed|all")
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload seed")
	workers := flag.Int("workers", 0, "fleet goroutines (0 = GOMAXPROCS, 1 = sequential)")
	queue := flag.String("queue", "calendar", "kernel event queue: calendar|heap (heap is the reference; outputs must be byte-identical)")
	emitJSON := flag.Bool("json", false, "also write a BENCH_<n>.json perf record (always regenerates the full suite, regardless of -exp)")
	jsonOut := flag.String("json-out", "", "explicit path for the JSON record (implies -json)")
	diff := flag.Bool("diff", false, "compare the two newest BENCH_<n>.json records and exit 1 on perf regressions (skips the report)")
	diffDir := flag.String("diff-dir", ".", "directory holding BENCH_<n>.json records for -diff")
	calibOut := flag.String("calib-out", "", "directory to preserve divergent livefed schedules when the calibration gate trips (-exp livefed)")
	flag.Parse()

	if *diff {
		regs, notice, skipped, err := experiments.DiffLatest(*diffDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if skipped {
			// Nothing to compare (single-record fork checkout, fresh tree):
			// that is not a regression, so degrade to a clear notice + ok.
			fmt.Println("bench-diff: " + notice)
			return
		}
		if notice != "" {
			fmt.Println(notice)
		}
		if len(regs) == 0 {
			fmt.Println("bench-diff: no regressions")
			return
		}
		fmt.Printf("bench-diff: %d regression(s) (>%.0f%% slower, or any extra allocs/op):\n",
			len(regs), 100*experiments.WallRegressionThreshold)
		for _, r := range regs {
			fmt.Println("  " + r.String())
		}
		os.Exit(1)
	}

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

	if *emitJSON || *jsonOut != "" {
		// The record always covers every experiment so BENCH_<n>.json files
		// stay comparable across runs, whatever -exp selected above.
		rec := experiments.CollectBench(fleet, *seed)
		path := *jsonOut
		if path == "" {
			path = experiments.NextBenchPath(".")
		}
		if err := experiments.WriteBench(rec, path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (total %.0f ms)\n", path, rec.WallMS)
	}
}
