package experiments

import (
	"os"
	"reflect"
	"testing"

	"github.com/argonne-first/first/internal/sim"
)

// The federate determinism suite runs at two scales: the short family per
// PR, and the full beyond-paper family (10⁶ open-loop requests + 10⁴ WebUI
// sessions) in the nightly CI job — set FIRST_FEDERATE_FULL=1 (or run `make
// federate-night`) to enable it locally.

// federateFullEnabled reports whether the full-scale suite should run.
func federateFullEnabled() bool { return os.Getenv("FIRST_FEDERATE_FULL") != "" }

// TestFederateDifferentialWorkers pins the federate family byte-identical
// across fleet worker counts: the parallel run must reproduce the
// sequential reference exactly.
func TestFederateDifferentialWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	seq := RunFederateCellsOn(Sequential, DefaultSeed, FederateCellsShort)
	par := RunFederateCellsOn(Parallel, DefaultSeed, FederateCellsShort)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("federate diverges across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFederateDifferentialQueue pins the family byte-identical across the
// calendar-queue kernel and the 4-ary heap reference.
func TestFederateDifferentialQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	cal := RunFederateCellsOn(Sequential, DefaultSeed, FederateCellsShort)
	heap := RunFederateCellsOn(heapRef, DefaultSeed, FederateCellsShort)
	if !reflect.DeepEqual(cal, heap) {
		t.Errorf("federate diverges between calendar and heap kernels:\ncal:  %+v\nheap: %+v", cal, heap)
	}
}

// assertFederateChurn checks the scenario family actually exercised what it
// claims: completions, every priority rung, migration, drains, cold
// restarts, and at least one hard kill.
func assertFederateChurn(t *testing.T, rows []FederateRow) {
	t.Helper()
	var rungs [3]int64
	var migrations int64
	var drains, kills, colds int
	for _, r := range rows {
		if (r.Mode == "open" || r.Mode == "cordon") && r.M.Completed != r.Offered {
			t.Errorf("%s c%d: completed %d of %d open-loop requests", r.Mode, r.Clusters, r.M.Completed, r.Offered)
		}
		if r.M.Failed != 0 {
			t.Errorf("%s c%d: %d failed requests", r.Mode, r.Clusters, r.M.Failed)
		}
		rungs[0] += r.Rungs.Active
		rungs[1] += r.Rungs.Capacity
		rungs[2] += r.Rungs.FirstConf
		migrations += r.Migrations
		drains += r.Drains
		kills += r.HardKills
		colds += r.ColdStarts
	}
	if rungs[0] == 0 || rungs[1] == 0 || rungs[2] == 0 {
		t.Errorf("priority ladder not hit on all rungs: active=%d capacity=%d first-conf=%d", rungs[0], rungs[1], rungs[2])
	}
	if migrations == 0 {
		t.Error("no requests migrated between clusters")
	}
	if drains == 0 {
		t.Error("no walltime drains")
	}
	if kills == 0 {
		t.Error("no walltime hard kills")
	}
	if colds <= len(rows) {
		t.Errorf("cold starts = %d; churn should force restarts beyond the initial ones", colds)
	}
}

// TestFederateChurnShort asserts the short family hits the full churn
// surface (the per-PR guard that a refactor didn't quietly de-fang it).
func TestFederateChurnShort(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	assertFederateChurn(t, RunFederateCellsOn(Parallel, DefaultSeed, FederateCellsShort))
}

// TestFederateFullScale is the nightly gate: the full beyond-paper family,
// byte-identical across worker counts and queue kinds, with the churn
// surface fully exercised. ~10s sequential per run — too slow for per-PR CI.
func TestFederateFullScale(t *testing.T) {
	if !federateFullEnabled() {
		t.Skip("set FIRST_FEDERATE_FULL=1 for the full 10⁶-request suite (nightly CI)")
	}
	cal := RunFederateOn(Parallel, DefaultSeed)
	assertFederateChurn(t, cal)
	seq := RunFederateOn(Sequential, DefaultSeed)
	if !reflect.DeepEqual(cal, seq) {
		t.Error("full-scale federate diverges across worker counts")
	}
	heap := RunFederateOn(Fleet{Queue: sim.QueueHeap}, DefaultSeed)
	if !reflect.DeepEqual(cal, heap) {
		t.Error("full-scale federate diverges between calendar and heap kernels")
	}
	for _, r := range cal {
		if r.Mode == "open" && r.Clusters == 4 && r.Offered != 1_000_000 {
			t.Errorf("headline open-loop cell offered %d requests, want 10⁶", r.Offered)
		}
		if r.Mode == "webui" && r.Offered < 10_000 {
			t.Errorf("WebUI cell issued %d turns, want ≥ the 10⁴ sessions' first turns", r.Offered)
		}
	}
	// The drain-aware twin must pay for its cordons on the identical trace:
	// routing away from incarnations about to drain has to catch fewer
	// in-flight requests in migrations AND leave the caught ones cheaper.
	var open, cordon *FederateRow
	for i := range cal {
		if r := &cal[i]; r.Clusters == 8 {
			switch r.Mode {
			case "open":
				open = r
			case "cordon":
				cordon = r
			}
		}
	}
	if open == nil || cordon == nil {
		t.Fatal("full family lost the c8 open/cordon twin pair")
	}
	if cordon.Migrations >= open.Migrations {
		t.Errorf("cordon twin migrated %d requests, not below the drain-blind %d", cordon.Migrations, open.Migrations)
	}
	if cordon.MigratedMedianS >= open.MigratedMedianS {
		t.Errorf("cordon twin migrated-latency median %.2fs not below the drain-blind %.2fs",
			cordon.MigratedMedianS, open.MigratedMedianS)
	}
}
