package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/sim"
)

// The autoscale experiment family reproduces Fig4's elastic-deployment story
// inside the federation: demand shifts between models mid-run (diurnal
// swells, square-wave bursts) and the per-cluster auto-scaler grows each
// deployment pool through the scheduler's real cold-start path, then drains
// the emptiest instance back down when the wave passes — while walltime
// churn, hard kills, and background science jobs keep the priority ladder
// firing on every rung.

// AutoScaleCell is one cell of the family: an open-loop trace whose offered
// rate and hot model are functions of virtual time.
type AutoScaleCell struct {
	// Shape selects the demand curve: "diurnal" (sinusoidal rate swing, hot
	// model rotating once per period) or "bursty" (4× rate burst in the
	// first quarter of each period, near-idle after, hot model rotating).
	Shape    string
	Clusters int
	Reqs     int
	// BaseRatePerSec is the mean offered rate; the shape modulates around it.
	BaseRatePerSec float64
	// PeriodS is the demand cycle length in seconds.
	PeriodS int
	// MaxInstances caps each deployment pool (≥ 2 enables the scaler).
	MaxInstances int
	// Churn tempo overrides in seconds (0 = DefaultFederationParams): short
	// horizons need faster walltimes to exercise drains and migration.
	ServeWalltimeS int
	DrainGraceS    int
	BGPeriodS      int
	// Scaler overrides (0 = DefaultAutoScaleParams).
	ScaleIntervalS   int
	HiWater, LoWater float64
	// Predictive turns on the forecast-driven scaler (Holt level+trend per
	// deployment) plus a one-interval CordonLead so routing stops feeding
	// incarnations about to drain. Off — the zero value — keeps the
	// reactive watermark policy byte-for-byte; predictive cells are twins
	// of reactive ones (same trace seed) so a record compares them directly.
	Predictive bool
}

// params resolves the cell's federation parameters.
func (c AutoScaleCell) params() desmodel.FederationParams {
	p := churnParams(c.Clusters, c.ServeWalltimeS, c.DrainGraceS, c.BGPeriodS)
	s := desmodel.DefaultAutoScaleParams()
	s.MaxInstances = c.MaxInstances
	if c.ScaleIntervalS > 0 {
		s.Interval = time.Duration(c.ScaleIntervalS) * time.Second
	}
	if c.HiWater > 0 {
		s.HiWater = c.HiWater
	}
	if c.LoWater > 0 {
		s.LoWater = c.LoWater
	}
	if c.Predictive {
		s.Predictive = true
		// One scaler interval of routing lead before each walltime drain:
		// long enough for Select to steer the next arrivals elsewhere,
		// short enough not to idle capacity.
		p.CordonLead = s.Interval
	}
	p.Scale = s
	return p
}

// AutoScaleCells is the full family: diurnal and bursty demand over 2-8
// clusters, pools up to 4 instances deep. The nightly suite pins it
// byte-identical across worker counts and queue kinds (make autoscale-night).
var AutoScaleCells = []AutoScaleCell{
	{Shape: "diurnal", Clusters: 2, Reqs: 150_000, BaseRatePerSec: 120, PeriodS: 400, MaxInstances: 3},
	{Shape: "diurnal", Clusters: 4, Reqs: 400_000, BaseRatePerSec: 200, PeriodS: 500, MaxInstances: 4},
	{Shape: "bursty", Clusters: 4, Reqs: 250_000, BaseRatePerSec: 160, PeriodS: 400, MaxInstances: 4},
	{Shape: "bursty", Clusters: 8, Reqs: 150_000, BaseRatePerSec: 120, PeriodS: 400, MaxInstances: 3},
	// Predictive twins of the two c4 cells: identical traces (the cell seed
	// derives from shape/clusters/reqs only), scaler swapped — the record's
	// reactive-vs-predictive comparison. One instance of cap headroom over
	// the reactive twin, same hardware: replacement pre-warms respect the
	// MaxInstances cap, so a pool that is to overlap a dying incarnation
	// with its replacement needs the slot to put the replacement in (the
	// short family's predictive cell documents the same convention).
	{Shape: "diurnal", Clusters: 4, Reqs: 400_000, BaseRatePerSec: 200, PeriodS: 500, MaxInstances: 5, Predictive: true},
	{Shape: "bursty", Clusters: 4, Reqs: 250_000, BaseRatePerSec: 160, PeriodS: 400, MaxInstances: 5, Predictive: true},
}

// AutoScaleCellsShort is the scaled-down family for per-PR differential
// tests; the nightly CI job runs the full one (see TestAutoScaleFullScale).
var AutoScaleCellsShort = []AutoScaleCell{
	{Shape: "diurnal", Clusters: 2, Reqs: 25_000, BaseRatePerSec: 120, PeriodS: 150, MaxInstances: 3,
		ServeWalltimeS: 60, DrainGraceS: 20, BGPeriodS: 90, ScaleIntervalS: 5},
	{Shape: "bursty", Clusters: 4, Reqs: 30_000, BaseRatePerSec: 160, PeriodS: 120, MaxInstances: 4,
		ServeWalltimeS: 60, DrainGraceS: 20, BGPeriodS: 90, ScaleIntervalS: 5},
	// One predictive cell rides in the per-PR family so make check pins the
	// forecast/cordon path byte-identical across worker counts and queue
	// kinds on every PR. One extra instance of headroom over the reactive
	// cell: replacement pre-warms respect the MaxInstances cap, and the
	// 60 s walltime keeps churning pools pinned at a cap of 3.
	{Shape: "diurnal", Clusters: 2, Reqs: 25_000, BaseRatePerSec: 120, PeriodS: 150, MaxInstances: 4,
		ServeWalltimeS: 60, DrainGraceS: 20, BGPeriodS: 90, ScaleIntervalS: 5, Predictive: true},
}

// AutoScaleRow is one cell's results.
type AutoScaleRow struct {
	Shape    string
	Clusters int
	// Predictive marks the forecast-driven twin of a reactive cell.
	Predictive bool
	Offered    int
	M          desmodel.Metrics

	Rungs      desmodel.FedRungs
	Migrations int64
	// Scaler activity summed over clusters: pool growth, policy-driven
	// shrinks, and scale-ups refused at the MaxInstances cap.
	ScaleUps     int
	ScaleDowns   int
	ScaleRefused int
	// PreWarms counts forecast-driven starts (projected watermark crossings
	// and walltime replacements) — predictive cells only.
	PreWarms int
	// PeakInstances is the deepest any single cluster's pools grew.
	PeakInstances int
	ClusterTotals
}

// RunAutoScaleOn regenerates the full family on f.
func RunAutoScaleOn(f Fleet, seed int64) []AutoScaleRow {
	return RunAutoScaleCellsOn(f, seed, AutoScaleCells)
}

// RunAutoScaleCellsOn fans the given cells over the fleet. Each cell's RNG
// seeds derive from (seed, cell shape) only, so results are byte-identical
// across worker counts and queue kinds.
func RunAutoScaleCellsOn(f Fleet, seed int64, cells []AutoScaleCell) []AutoScaleRow {
	rows := make([]AutoScaleRow, len(cells))
	f.RunArena(len(cells), func(i int, a *desmodel.Arena) {
		rows[i] = autoScaleRun(a, cells[i], seed)
	})
	return rows
}

// shapeFns returns the cell's demand curve: offered-rate multiplier and hot
// model index as pure functions of virtual time (deterministic — no state).
func (c AutoScaleCell) shapeFns(models int) (mult func(sim.Time) float64, hot func(sim.Time) int) {
	period := time.Duration(c.PeriodS) * time.Second
	hot = func(t sim.Time) int {
		return int(t/period) % models
	}
	if c.Shape == "bursty" {
		mult = func(t sim.Time) float64 {
			if frac := float64(t%period) / float64(period); frac < 0.25 {
				return 4.0
			}
			return 0.4
		}
		return mult, hot
	}
	// Diurnal: sinusoidal swing between 0.25× and 1.75× the base rate.
	mult = func(t sim.Time) float64 {
		return 1 + 0.75*math.Sin(2*math.Pi*float64(t%period)/float64(period))
	}
	return mult, hot
}

// autoScaleRun drives one cell: an open-loop trace whose arrival gaps thin
// against the shape's instantaneous rate and whose model choice concentrates
// on the rotating hot model, so pools must grow under each wave and shrink
// behind it.
func autoScaleRun(a *desmodel.Arena, c AutoScaleCell, seed int64) AutoScaleRow {
	p := c.params()
	n := c.Reqs
	rng := sim.NewRNG(seed + int64(c.Clusters)*1_000_003 + int64(n) + int64(len(c.Shape)))
	models := len(p.Models)
	mult, hot := c.shapeFns(models)
	sys, reqs, end := driveFederation(a, fmt.Sprintf("autoscale %s cell c%d predictive=%v", c.Shape, c.Clusters, c.Predictive),
		p, n, c.BaseRatePerSec, rng, func(now sim.Time) int {
			if rng.Float64() >= 0.8 {
				return rng.Intn(models)
			}
			return hot(now)
		}, mult)
	return autoScaleRow(sys, c, n, reqs, end)
}

func autoScaleRow(sys *desmodel.Federation, c AutoScaleCell, offered int, reqs []*desmodel.Req, end sim.Time) AutoScaleRow {
	row := AutoScaleRow{
		Shape:      c.Shape,
		Clusters:   c.Clusters,
		Predictive: c.Predictive,
		Offered:    offered,
		M:          desmodel.Collect(reqs),
		Rungs:      sys.Rungs(),
		Migrations: sys.Migrations(),
	}
	stats := sys.ClusterStats()
	row.ClusterTotals = foldClusters(stats, end)
	for _, cs := range stats {
		row.ScaleUps += cs.ScaleUps
		row.ScaleDowns += cs.ScaleDowns
		row.ScaleRefused += cs.ScaleRefused
		row.PreWarms += cs.PreWarms
		row.PeakInstances = max(row.PeakInstances, cs.PeakInstances)
	}
	return row
}
