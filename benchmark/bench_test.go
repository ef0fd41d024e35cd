package main

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// smokeConfig is a workload at about 1/200 of its measured size.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 0.05, trace: trace, scale: 1.0 / 200, outDir: t.TempDir()}
}

// TestSmoke runs every declared workload, untraced and traced, and holds the
// command to its declaration in both directions: every name it prints is in
// BENCHMARK.json, every name in BENCHMARK.json is printed by some workload.
func TestSmoke(t *testing.T) {
	d, _, err := loadDeclared()
	if err != nil {
		t.Fatal(err)
	}
	implemented := []string{"live-chat", "live-hot"}
	for name := range desWorkloads {
		implemented = append(implemented, name)
	}
	sort.Strings(implemented)
	var declaredNames []string
	for _, w := range d.Workloads {
		declaredNames = append(declaredNames, w.Name)
	}
	sort.Strings(declaredNames)
	if strings.Join(implemented, " ") != strings.Join(declaredNames, " ") {
		t.Fatalf("workloads implemented %v, declared %v", implemented, declaredNames)
	}

	moved := map[string]bool{} // per-layer metrics some workload reported as non-zero
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.Name, trace)
			res, o, _ := measure(d, cfg)
			// measure itself rejects undeclared and missing metrics.
			if !res.Correct {
				t.Errorf("%s trace=%v: %s", w.Name, trace, strings.Join(o.problems, "; "))
			}
			for name, m := range res.Metrics {
				if m.Value != 0 {
					moved[name] = true
				} else if !trace {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.tracePath()); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
		}
	}
	// Counters that are 0 at smoke size because nothing churns or scales in
	// a few simulated seconds, and layers no workload spends a CPU sample in.
	quiet := map[string]bool{}
	for _, m := range d.PerLayer {
		if !moved[m.Name] {
			quiet[m.Name] = true
		}
	}
	for name := range quiet {
		if !strings.HasSuffix(name, "cpu_share") && !strings.HasPrefix(name, "desmodel.") &&
			!strings.HasPrefix(name, "federation.rung_") && name != "scheduler.queued_peak" {
			t.Errorf("per-layer metric %s is declared but no workload reports it", name)
		}
	}
}

// TestChecksFail shows the checks can fail: a lost request, a modelled row
// that changes between replications, and a metric nobody declared.
func TestChecksFail(t *testing.T) {
	var o outcome
	checkRep(desRep{offered: 10, completed: 9, failed: 1, digest: "a"}, &o)
	checkRep(desRep{offered: 10, completed: 10, digest: "b"}, &o)
	if len(o.problems) != 2 {
		t.Fatalf("problems = %q, want a lost request and a changed digest", o.problems)
	}

	d, _, err := loadDeclared()
	if err != nil {
		t.Fatal(err)
	}
	d.EndToEnd = d.EndToEnd[1:] // req_per_s and the rest, without setup_s
	res, o, _ := measure(d, smokeConfig(t, "des-storm", false))
	if res.Correct || !strings.Contains(strings.Join(o.problems, "\n"), "setup_s is not declared") {
		t.Fatalf("undeclared metric passed: %q", o.problems)
	}
}

// TestBench10CrossCheck pins the benchmark's own federate and autoscale
// drivers to the values BENCH_10.json recorded through internal/experiments.
func TestBench10CrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full-size replications")
	}
	for workload, c := range crossChecks {
		for _, p := range c.verify(desWorkloads[workload].rep) {
			t.Errorf("%s: %s", workload, p)
		}
	}
}
