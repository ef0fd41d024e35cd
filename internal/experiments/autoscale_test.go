package experiments

import (
	"os"
	"reflect"
	"testing"

	"github.com/argonne-first/first/internal/sim"
)

// The autoscale determinism suite mirrors the federate one: the short family
// runs per PR, the full family (10⁶-scale, every shape) in the nightly CI
// job — set FIRST_AUTOSCALE_FULL=1 (or run `make autoscale-night`) to enable
// it locally.

// autoScaleFullEnabled reports whether the full-scale suite should run.
func autoScaleFullEnabled() bool { return os.Getenv("FIRST_AUTOSCALE_FULL") != "" }

// TestAutoScaleDifferentialWorkers pins the autoscale family byte-identical
// across fleet worker counts: the parallel run must reproduce the
// sequential reference exactly.
func TestAutoScaleDifferentialWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	seq := RunAutoScaleCellsOn(Sequential, DefaultSeed, AutoScaleCellsShort)
	par := RunAutoScaleCellsOn(Parallel, DefaultSeed, AutoScaleCellsShort)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("autoscale diverges across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestAutoScaleDifferentialQueue pins the family byte-identical across the
// calendar-queue kernel and the 4-ary heap reference.
func TestAutoScaleDifferentialQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	cal := RunAutoScaleCellsOn(Sequential, DefaultSeed, AutoScaleCellsShort)
	heap := RunAutoScaleCellsOn(heapRef, DefaultSeed, AutoScaleCellsShort)
	if !reflect.DeepEqual(cal, heap) {
		t.Errorf("autoscale diverges between calendar and heap kernels:\ncal:  %+v\nheap: %+v", cal, heap)
	}
}

// assertAutoScaleElasticity checks the family exercised what it claims:
// every request completes, the scaler fires in BOTH directions (Fig4's
// grow-and-shrink story), pools actually deepen past one instance, the cap
// refuses at least one growth step, and the priority ladder keeps firing on
// every rung while deployments churn.
func assertAutoScaleElasticity(t *testing.T, rows []AutoScaleRow) {
	t.Helper()
	var rungs [3]int64
	var ups, downs, refused, colds, drains, prewarms int
	for _, r := range rows {
		if r.M.Completed != r.Offered {
			t.Errorf("%s c%d: completed %d of %d requests", r.Shape, r.Clusters, r.M.Completed, r.Offered)
		}
		if r.M.Failed != 0 {
			t.Errorf("%s c%d: %d failed requests", r.Shape, r.Clusters, r.M.Failed)
		}
		if r.ScaleUps+r.PreWarms == 0 || r.ScaleDowns == 0 {
			t.Errorf("%s c%d: scaler fired up=%d pre=%d down=%d, want both directions nonzero", r.Shape, r.Clusters, r.ScaleUps, r.PreWarms, r.ScaleDowns)
		}
		if r.Predictive && r.PreWarms == 0 {
			t.Errorf("%s c%d: predictive cell never pre-warmed", r.Shape, r.Clusters)
		}
		if !r.Predictive && r.PreWarms != 0 {
			t.Errorf("%s c%d: reactive cell recorded %d pre-warms; the predictive path leaked", r.Shape, r.Clusters, r.PreWarms)
		}
		if r.PeakInstances <= 1 {
			t.Errorf("%s c%d: peak instances = %d, pools never grew", r.Shape, r.Clusters, r.PeakInstances)
		}
		rungs[0] += r.Rungs.Active
		rungs[1] += r.Rungs.Capacity
		rungs[2] += r.Rungs.FirstConf
		ups += r.ScaleUps
		downs += r.ScaleDowns
		refused += r.ScaleRefused
		colds += r.ColdStarts
		drains += r.Drains
		prewarms += r.PreWarms
	}
	if rungs[0] == 0 || rungs[1] == 0 || rungs[2] == 0 {
		t.Errorf("priority ladder not hit on all rungs: active=%d capacity=%d first-conf=%d", rungs[0], rungs[1], rungs[2])
	}
	if refused == 0 {
		t.Error("no scale-up was ever refused at the MaxInstances cap")
	}
	if drains == 0 {
		t.Error("no walltime drains alongside the scaler churn")
	}
	if colds <= ups+prewarms {
		t.Errorf("cold starts = %d ≤ scale-ups %d + pre-warms %d; demand-driven starts missing", colds, ups, prewarms)
	}
}

// TestAutoScaleElasticityShort asserts the short family hits the full
// elasticity surface (the per-PR guard that a refactor didn't quietly
// de-fang the scaler).
func TestAutoScaleElasticityShort(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	assertAutoScaleElasticity(t, RunAutoScaleCellsOn(Parallel, DefaultSeed, AutoScaleCellsShort))
}

// TestAutoScaleFullScale is the nightly gate: the full family, elasticity
// surface fully exercised, byte-identical across worker counts and queue
// kinds. Too slow for per-PR CI.
func TestAutoScaleFullScale(t *testing.T) {
	if !autoScaleFullEnabled() {
		t.Skip("set FIRST_AUTOSCALE_FULL=1 for the full autoscale suite (nightly CI)")
	}
	cal := RunAutoScaleOn(Parallel, DefaultSeed)
	assertAutoScaleElasticity(t, cal)
	seq := RunAutoScaleOn(Sequential, DefaultSeed)
	if !reflect.DeepEqual(cal, seq) {
		t.Error("full-scale autoscale diverges across worker counts")
	}
	heap := RunAutoScaleOn(Fleet{Queue: sim.QueueHeap}, DefaultSeed)
	if !reflect.DeepEqual(cal, heap) {
		t.Error("full-scale autoscale diverges between calendar and heap kernels")
	}
}

// TestAutoScaleFullScalePredictiveVsReactive is the nightly
// predictive-vs-reactive sweep: every predictive cell is a twin of a
// reactive cell on the identical trace, and the forecast-driven scaler must
// pay for itself — tail latency strictly below the watermark baseline on the
// trend-forecastable shape (diurnal), no worse on the square wave (bursty
// has no trend for the Holt forecaster to lead, and its tail is set by
// at-cap overload in the burst quarters), with refused-at-cap no worse
// everywhere. (The name rides the ^TestAutoScaleFullScale nightly selector.)
func TestAutoScaleFullScalePredictiveVsReactive(t *testing.T) {
	if !autoScaleFullEnabled() {
		t.Skip("set FIRST_AUTOSCALE_FULL=1 for the full autoscale suite (nightly CI)")
	}
	rows := RunAutoScaleOn(Parallel, DefaultSeed)
	type twin struct {
		shape    string
		clusters int
	}
	reactive := map[twin]AutoScaleRow{}
	predictive := map[twin]AutoScaleRow{}
	for _, r := range rows {
		k := twin{r.Shape, r.Clusters}
		if r.Predictive {
			predictive[k] = r
		} else {
			reactive[k] = r
		}
	}
	if len(predictive) == 0 {
		t.Fatal("full family has no predictive cells")
	}
	for k, p := range predictive {
		r, ok := reactive[k]
		if !ok {
			t.Errorf("%s c%d: predictive cell has no reactive twin", k.shape, k.clusters)
			continue
		}
		if p.PreWarms == 0 {
			t.Errorf("%s c%d: predictive twin never pre-warmed", k.shape, k.clusters)
		}
		if k.shape == "diurnal" && p.M.P99LatS >= r.M.P99LatS {
			t.Errorf("%s c%d: predictive p99 %.2fs not below reactive %.2fs on the same trace",
				k.shape, k.clusters, p.M.P99LatS, r.M.P99LatS)
		}
		if p.M.P99LatS > r.M.P99LatS {
			t.Errorf("%s c%d: predictive p99 %.2fs worse than reactive %.2fs on the same trace",
				k.shape, k.clusters, p.M.P99LatS, r.M.P99LatS)
		}
		if p.ScaleRefused > r.ScaleRefused {
			t.Errorf("%s c%d: predictive refused-at-cap %d worse than reactive %d",
				k.shape, k.clusters, p.ScaleRefused, r.ScaleRefused)
		}
	}
}
