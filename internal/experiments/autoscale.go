package experiments

import (
	"math"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// The autoscale experiment family reproduces Fig4's elastic-deployment story
// inside the federation: demand shifts between models mid-run (diurnal
// swells, square-wave bursts) and the per-cluster auto-scaler grows each
// deployment pool through the scheduler's real cold-start path, then drains
// the emptiest instance back down when the wave passes — while walltime
// churn, hard kills, and background science jobs keep the priority ladder
// firing on every rung. Its cells are FederateCells with a Shape and a
// MaxInstances cap.

// AutoScaleCells is the family: diurnal and bursty demand over 2-8
// clusters, pools up to 4 instances deep.
var AutoScaleCells = []FederateCell{
	{Shape: "diurnal", Clusters: 2, OpenLoopReqs: 150_000, RatePerSec: 120, PeriodS: 400, MaxInstances: 3},
	{Shape: "diurnal", Clusters: 4, OpenLoopReqs: 400_000, RatePerSec: 200, PeriodS: 500, MaxInstances: 4},
	{Shape: "bursty", Clusters: 4, OpenLoopReqs: 250_000, RatePerSec: 160, PeriodS: 400, MaxInstances: 4},
	{Shape: "bursty", Clusters: 8, OpenLoopReqs: 150_000, RatePerSec: 120, PeriodS: 400, MaxInstances: 3},
	// Predictive twins of the two c4 cells: identical traces (the cell seed
	// derives from shape/clusters/reqs only), scaler swapped — the report's
	// reactive-vs-predictive comparison. One instance of cap headroom over
	// the reactive twin, same hardware: replacement pre-warms respect the
	// MaxInstances cap, so a pool that is to overlap a dying incarnation
	// with its replacement needs the slot to put the replacement in.
	{Shape: "diurnal", Clusters: 4, OpenLoopReqs: 400_000, RatePerSec: 200, PeriodS: 500, MaxInstances: 5, Predictive: true},
	{Shape: "bursty", Clusters: 4, OpenLoopReqs: 250_000, RatePerSec: 160, PeriodS: 400, MaxInstances: 5, Predictive: true},
}

// RunAutoScaleOn regenerates the family on f.
func RunAutoScaleOn(f Fleet, seed int64) []FederateRow {
	return RunFederateCellsOn(f, seed, AutoScaleCells)
}

// demand returns the cell's open-loop demand curve: each arrival's model
// draw and the offered-rate multiplier, as functions of virtual time. A flat
// cell (Shape "") draws models uniformly at a constant rate. A shaped cell
// sends 80 % of arrivals to a hot model that rotates once per period, so
// pools must grow under each wave and shrink behind it; "bursty" offers 4×
// the rate in the first quarter of each period and 0.4× after, "diurnal"
// swings sinusoidally between 0.25× and 1.75×.
func (c FederateCell) demand(rng *sim.RNG, models int) (pick func(sim.Time) int, mult func(sim.Time) float64) {
	if c.Shape == "" {
		return func(sim.Time) int { return rng.Intn(models) }, func(sim.Time) float64 { return 1 }
	}
	period := time.Duration(c.PeriodS) * time.Second
	pick = func(t sim.Time) int {
		if rng.Float64() >= 0.8 {
			return rng.Intn(models)
		}
		return int(t/period) % models
	}
	if c.Shape == "bursty" {
		return pick, func(t sim.Time) float64 {
			if frac := float64(t%period) / float64(period); frac < 0.25 {
				return 4.0
			}
			return 0.4
		}
	}
	return pick, func(t sim.Time) float64 {
		return 1 + 0.75*math.Sin(2*math.Pi*float64(t%period)/float64(period))
	}
}
