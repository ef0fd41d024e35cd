// Command benchmark is the repo's one benchmark: six named workloads over
// both halves of the reproduction (the DES twin and the live in-process
// stack), the end-to-end metrics a user of either half waits for, and — in a
// separate traced run — per-layer metrics taken from outside the program.
// BENCHMARK.json at the repo root declares the workloads, metrics, units and
// regression bounds; README.md explains why each exists.
//
//	bash benchmark/run.sh --workload live-chat --seed 7 --seconds 10 --trace 0
//	go run -C benchmark . -all -seed 20251015
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// declared mirrors the parts of BENCHMARK.json the command needs: it is the
// single place a metric's name and unit are written down.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadDeclared finds BENCHMARK.json from the repo root or from benchmark/.
func loadDeclared() (declared, string, error) {
	var d declared
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		if err := json.Unmarshal(raw, &d); err != nil {
			return d, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return d, dir, nil
	}
	return d, "", fmt.Errorf("BENCHMARK.json not found in . or ..; run from the repo root or from benchmark/")
}

// runners maps a workload name to the code that measures it.
func runnerOf(name string) func(runConfig) outcome {
	switch {
	case name == "live-chat" || name == "live-hot":
		return runLive
	case desWorkloads[name].rep != nil:
		return runDES
	}
	return nil
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload between two yardstick readings and checks what
// it produced against the declaration: every declared metric of the mode is
// reported, and nothing undeclared is.
func measure(d declared, cfg runConfig) (resultLine, outcome, [2]float64) {
	ys := [2]float64{yardstick(), 0}
	o := runnerOf(cfg.workload)(cfg)
	ys[1] = yardstick()

	decls := d.EndToEnd
	if cfg.trace {
		decls = d.PerLayer
		o.metrics["host.yardstick_ns"] = (ys[0] + ys[1]) / 2
	}
	res := resultLine{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, m := range decls {
		known[m.Name] = true
		v, ok := o.metrics[m.Name]
		// A per-layer metric a workload never reaches reads 0: the layer
		// did no work there, which is itself the prediction for that pair.
		if !ok && !cfg.trace {
			o.problemf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problemf("metric %s is not finite", m.Name)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range o.metrics {
		if !known[name] {
			o.problemf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if o.attempted < 1 {
		o.problemf("nothing was attempted")
	}
	if o.failed != 0 {
		o.problemf("%d of %d operations failed", o.failed, o.attempted)
	}
	sort.Strings(o.problems)
	res.Correct = len(o.problems) == 0
	return res, o, ys
}

// runOne measures one workload and prints its metrics by name with units,
// then the result line. It reports whether every check passed.
func runOne(d declared, cfg runConfig) bool {
	res, o, ys := measure(d, cfg)
	decls := d.EndToEnd
	if cfg.trace {
		decls = d.PerLayer
	}
	fmt.Printf("workload %s  seed %d  trace %v\n", cfg.workload, cfg.seed, cfg.trace)
	for _, m := range decls {
		fmt.Printf("  %-34s %16.6f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Printf("  attempted %d, failed %d\n", o.attempted, o.failed)
	if o.digest != "" {
		fmt.Printf("  modelled-row digest %s\n", o.digest)
	}
	for _, n := range o.notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  yardstick %.3f ns before, %.3f ns after\n", ys[0], ys[1])
	if math.Abs(ys[0]-ys[1]) > 0.1*math.Min(ys[0], ys[1]) {
		fmt.Printf("  WARNING: the host yardstick moved by more than 10 %% during this run; its timings are suspect\n")
	}
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}

func main() {
	d, root, err := loadDeclared()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", recordedSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", float64(d.RunSeconds), "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	all := flag.Bool("all", false, "run every workload in turn")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || (*workload == "") == !*all {
		fmt.Fprintln(os.Stderr, "usage: benchmark (-workload <name> | -all) [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}

	var names []string
	for _, w := range d.Workloads {
		if *all || w.Name == *workload {
			if runnerOf(w.Name) == nil {
				fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json declares workload %q, which this command does not implement\n", w.Name)
				os.Exit(2)
			}
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: workload %q is not declared in BENCHMARK.json\n", *workload)
		os.Exit(2)
	}

	ok := true
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1,
			outDir: filepath.Join(root, "benchmark", "out")}
		ok = runOne(d, cfg) && ok
	}
	if !ok {
		os.Exit(1)
	}
}
