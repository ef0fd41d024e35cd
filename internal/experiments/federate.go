package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/workload"
)

// The federate experiment family drives the paper's §4.5 federation layer at
// beyond-paper scale: every request flows through the sharded gateway
// front-end, the real federation.Select priority ladder, a real PBS-like
// scheduler per cluster (kernel-driven), and continuous-batching engine
// instances — with mid-run endpoint churn (walltime drains, hard kills, cold
// restarts through Queued→Starting→Running) migrating requests between
// clusters. It is the first scenario where every layer of the reproduction
// runs inside one simulated system.

// FederateCell is one cell of the family: either an open-loop Poisson trace
// (OpenLoopReqs > 0) or a closed-loop WebUI session population.
type FederateCell struct {
	Clusters     int
	OpenLoopReqs int
	RatePerSec   float64
	Sessions     int
	WindowS      int
	ThinkS       int
	// Churn tempo overrides in seconds (0 = DefaultFederationParams): short
	// horizons need faster walltimes to exercise drains and migration.
	ServeWalltimeS int
	DrainGraceS    int
	BGPeriodS      int
	// CordonLeadS, when positive, flags each serving incarnation that many
	// seconds ahead of its walltime drain so the routing ladder steers new
	// work away before the drain fires — the drain-aware twin of a plain
	// open-loop cell (same trace seed), reported as mode "cordon".
	CordonLeadS int

	// Replay turns the cell into a live-storm calibration twin: all churn
	// comes from the recorded schedule (kills, cold restarts, background
	// GPU claims at the live request indices), the single live model is
	// served on the live inventory, and the self-scheduled tempo above is
	// off. Breaker and MaxAttempts mirror the live gateway so avoidance
	// and failover budgets match.
	Replay          *chaosnet.Schedule
	ReplayModel     string
	NodesPerCluster int
	GPUsPerNode     int
	Breaker         resilience.BreakerConfig
	MaxAttempts     int
}

// churnParams is DefaultFederationParams with a cell's churn tempo overrides
// applied, in seconds (0 = keep the default).
func churnParams(clusters, serveWalltimeS, drainGraceS, bgPeriodS int) desmodel.FederationParams {
	p := desmodel.DefaultFederationParams(clusters)
	if serveWalltimeS > 0 {
		p.ServeWalltime = time.Duration(serveWalltimeS) * time.Second
	}
	if drainGraceS > 0 {
		p.DrainGrace = time.Duration(drainGraceS) * time.Second
	}
	if bgPeriodS > 0 {
		p.BGPeriod = time.Duration(bgPeriodS) * time.Second
		p.BGStagger = p.BGPeriod / 5
		p.BGWalltime = p.BGPeriod * 2 / 3
	}
	return p
}

// params resolves the cell's federation parameters.
func (c FederateCell) params() desmodel.FederationParams {
	p := churnParams(c.Clusters, c.ServeWalltimeS, c.DrainGraceS, c.BGPeriodS)
	if c.CordonLeadS > 0 {
		p.CordonLead = time.Duration(c.CordonLeadS) * time.Second
	}
	if c.Replay != nil {
		p.Models = []perfmodel.ModelSpec{perfmodel.Default.MustLookup(c.ReplayModel)}
		p.NodesPerCluster = c.NodesPerCluster
		p.GPUsPerNode = c.GPUsPerNode
		// Walltime churn and periodic background jobs are the replayed
		// schedule's job now; the self-scheduled tempo would double-count
		// them. The serve walltime just needs to outlive any horizon.
		p.ServeWalltime = 100_000_000 * time.Second
		p.DrainGrace = time.Second
		p.BGPeriod = 0
		p.Replay = &desmodel.ReplayParams{
			Schedule:    *c.Replay,
			Breaker:     c.Breaker,
			MaxAttempts: c.MaxAttempts,
		}
	}
	return p
}

// FederateCells is the full-scale family the ROADMAP calls for: 10⁶
// open-loop requests through a 4-cluster federation (plus 2- and 8-cluster
// sweep points) and 10⁴ closed-loop WebUI sessions.
var FederateCells = []FederateCell{
	{Clusters: 2, OpenLoopReqs: 200_000, RatePerSec: 200},
	{Clusters: 4, OpenLoopReqs: 1_000_000, RatePerSec: 200},
	{Clusters: 8, OpenLoopReqs: 200_000, RatePerSec: 200},
	// Drain-aware twin of the c8 cell above: identical trace, serving
	// incarnations cordoned 30 s before their walltime drain so the ladder
	// stops feeding them — the record's migration-penalty comparison. The
	// twin needs the wide topology: cordoning only changes a routing
	// decision when an uncordoned alternative exists (idle capacity or an
	// active sibling), and the packed 2-cluster sweep point offers neither,
	// so its twin would ride the dying instance anyway (rung 2b) and
	// reproduce the drain-blind trace byte for byte.
	{Clusters: 8, OpenLoopReqs: 200_000, RatePerSec: 200, CordonLeadS: 30},
	{Clusters: 4, Sessions: 10_000, WindowS: 300, ThinkS: 30,
		ServeWalltimeS: 120, DrainGraceS: 60, BGPeriodS: 150},
}

// FederateCellsShort is the scaled-down family for per-PR differential
// tests; the nightly CI job runs the full one (see TestFederateFullScale).
var FederateCellsShort = []FederateCell{
	{Clusters: 2, OpenLoopReqs: 20_000, RatePerSec: 200,
		ServeWalltimeS: 45, DrainGraceS: 15, BGPeriodS: 80},
	{Clusters: 4, OpenLoopReqs: 40_000, RatePerSec: 200,
		ServeWalltimeS: 45, DrainGraceS: 15, BGPeriodS: 80},
	{Clusters: 3, Sessions: 1_000, WindowS: 120, ThinkS: 30,
		ServeWalltimeS: 45, DrainGraceS: 15, BGPeriodS: 80},
}

// FederateRow is one cell's results.
type FederateRow struct {
	Clusters int
	Mode     string // "open", "cordon" (drain-aware open twin), or "webui"
	Offered  int    // open-loop trace length or issued session turns
	M        desmodel.Metrics

	Rungs      desmodel.FedRungs
	Migrations int64
	// MigratedMedianS is the median end-to-end latency of migrated requests
	// (the churn penalty clients actually observe).
	MigratedMedianS float64
	ClusterTotals
	// SchedQueuedPeak is the deepest scheduler queue across clusters.
	SchedQueuedPeak int
	// ReplayTrips counts twin breaker trips under a replayed schedule
	// (calibration column against the live gateway's trip count).
	ReplayTrips int64
}

// federateEventBudget aborts a runaway cell: background jobs self-schedule
// forever, so a request-accounting bug would otherwise spin the kernel
// silently instead of failing loudly.
const federateEventBudget = 400_000_000

// openLoopHorizon bounds an open-loop cell's virtual time at four times the
// trace's nominal length plus half a day. Background jobs and the scaler
// self-schedule forever, so without it a lost request would keep the last
// completion from ever stopping the run and spin the kernel to the event
// budget instead of reaching auditConservation. A healthy run stops at the
// last completion with that instance's walltime timer still queued, so the
// horizon never moves the end time Run reports.
func openLoopHorizon(n int, ratePerSec float64) sim.Time {
	return sim.Seconds(4*float64(n)/ratePerSec) + 12*time.Hour
}

// auditConservation aborts a cell whose federation lost or double-counted a
// request: every offered request must have arrived, and at most maxInFlight
// of them (0 for cells that run to their last completion) may be unfinished
// — at an engine, or past the fabric's worker window and not yet observed —
// when the run ends.
func auditConservation(cell string, sys *desmodel.Federation, offered, maxInFlight int) {
	arr, comp := sys.Arrivals(), sys.Completions()
	if arr != int64(offered) || comp > arr || arr-comp > int64(maxInFlight) || sys.InFlight() > maxInFlight {
		panic(fmt.Sprintf("experiments: %s: conservation violated (offered %d, arrivals %d, completions %d, %d inside the window, at most %d may be in flight)",
			cell, offered, arr, comp, sys.InFlight(), maxInFlight))
	}
}

// driveFederation runs one open-loop cell of n requests against p: arrivals
// self-schedule so the kernel never holds the whole trace — each draws its
// lengths, then its model from pick, then the gap to the next as an
// exponential of mean 1/(rate·mult(now)) — the run stops at the last
// completion (background churn and the scaler would otherwise run forever)
// or at openLoopHorizon, and is audited before anything is reported.
func driveFederation(a *desmodel.Arena, cell string, p desmodel.FederationParams, n int, rate float64, rng *sim.RNG,
	pick func(now sim.Time) int, mult func(now sim.Time) float64) (*desmodel.Federation, []*desmodel.Req, sim.Time) {
	k := a.Begin()
	k.MaxEvents = federateEventBudget
	defer func() { k.MaxEvents = 0 }()
	completed := 0
	sys := desmodel.NewFederationIn(a, p, func(*desmodel.Req) {
		completed++
		if completed == n {
			k.Stop()
		}
	})
	spec := workload.FederateOpen()
	baseGap := float64(time.Second) / rate
	reqs := make([]*desmodel.Req, n)
	idx := 0
	var step func()
	step = func() {
		now := k.Now()
		pt, ot := spec.SampleLengths(rng)
		r := &desmodel.Req{ID: idx + 1, PromptTok: pt, OutputTok: ot, Model: pick(now)}
		reqs[idx] = r
		// Under replay this fires the schedule's churn events due at this
		// index before the arrival routes — the same ordering the live
		// driver uses (kill/restart/claim, then issue). No-op otherwise.
		sys.ReplayAdvance(idx)
		sys.Arrive(r)
		idx++
		if idx < n {
			k.Schedule(time.Duration(rng.Exp(baseGap/mult(now))), step)
		}
	}
	k.Schedule(time.Duration(rng.Exp(baseGap)), step)
	end := k.Run(openLoopHorizon(n, rate))
	auditConservation(cell, sys, n, 0)
	return sys, reqs, end
}

// RunFederateOn regenerates the full family on f.
func RunFederateOn(f Fleet, seed int64) []FederateRow {
	return RunFederateCellsOn(f, seed, FederateCells)
}

// RunFederateCellsOn fans the given cells over the fleet. Each cell's RNG
// seeds derive from (seed, cell shape) only, so results are byte-identical
// across worker counts and queue kinds.
func RunFederateCellsOn(f Fleet, seed int64, cells []FederateCell) []FederateRow {
	rows := make([]FederateRow, len(cells))
	f.RunArena(len(cells), func(i int, a *desmodel.Arena) {
		c := cells[i]
		if c.OpenLoopReqs > 0 {
			rows[i] = federateOpen(a, c, seed)
		} else {
			rows[i] = federateWebUI(a, c, seed)
		}
	})
	return rows
}

// federateOpen drives an open-loop Poisson trace, models drawn uniformly.
func federateOpen(a *desmodel.Arena, c FederateCell, seed int64) FederateRow {
	p := c.params()
	n := c.OpenLoopReqs
	rng := sim.NewRNG(seed + int64(c.Clusters)*1_000_003 + int64(n))
	sys, reqs, end := driveFederation(a, fmt.Sprintf("federate %s cell c%d", openMode(c), c.Clusters), p, n, c.RatePerSec, rng,
		func(sim.Time) int { return rng.Intn(len(p.Models)) },
		func(sim.Time) float64 { return 1 })
	return federateRow(sys, c, openMode(c), n, reqs, end)
}

// openMode labels an open-loop cell: drain-aware twins report as "cordon"
// so reports and bench records keep the reactive baseline's keys intact.
func openMode(c FederateCell) string {
	if c.CordonLeadS > 0 {
		return "cordon"
	}
	return "open"
}

// federateWebUI drives closed-loop WebUI chat sessions (stateful history,
// think time) against the federation; each session sticks to one model.
func federateWebUI(a *desmodel.Arena, c FederateCell, seed int64) FederateRow {
	k := a.Begin()
	k.MaxEvents = federateEventBudget
	defer func() { k.MaxEvents = 0 }()
	p := c.params()
	think := time.Duration(c.ThinkS) * time.Second
	loop := newClosedLoop(k, workload.WebUI(), seed+int64(c.Clusters)+int64(c.Sessions), c.Sessions, think)
	loop.enableChatHistory(8192)
	models := len(p.Models)
	loop.assign = func(r *desmodel.Req) { r.Model = r.Session % models }
	sys := desmodel.NewFederationIn(a, p, loop.onDone)
	loop.start(sys)
	window := time.Duration(c.WindowS) * time.Second
	end := k.Run(window)
	auditConservation(fmt.Sprintf("federate webui cell c%d", c.Clusters), sys, loop.issued, c.Sessions)
	return federateRow(sys, c, "webui", loop.issued, loop.finished, end)
}

func federateRow(sys *desmodel.Federation, c FederateCell, mode string, offered int, reqs []*desmodel.Req, end sim.Time) FederateRow {
	row := FederateRow{
		Clusters:    c.Clusters,
		Mode:        mode,
		Offered:     offered,
		M:           desmodel.Collect(reqs),
		Rungs:       sys.Rungs(),
		Migrations:  sys.Migrations(),
		ReplayTrips: sys.ReplayBreakerTrips(),
	}
	stats := sys.ClusterStats()
	row.ClusterTotals = foldClusters(stats, end)
	var migrated []float64
	for _, r := range reqs {
		if r != nil && r.Migrations > 0 && !r.Failed && r.ObservedAt > 0 {
			migrated = append(migrated, sim.Sec(r.ObservedAt-r.ArrivalAt))
		}
	}
	if len(migrated) > 0 {
		sort.Float64s(migrated)
		row.MigratedMedianS = migrated[len(migrated)/2]
	}
	for _, cs := range stats {
		row.SchedQueuedPeak = max(row.SchedQueuedPeak, cs.SchedQueuedPeak)
	}
	return row
}

// ClusterTotals is what a federation row reports of its clusters' accounts:
// lifecycle counts summed over clusters, and GPU-busy utilization over the
// horizon as the mean over clusters and the busiest one.
type ClusterTotals struct {
	ColdStarts  int
	Drains      int
	HardKills   int
	UtilMeanPct float64
	UtilMaxPct  float64
}

func foldClusters(stats []desmodel.FedClusterStats, end sim.Time) ClusterTotals {
	var t ClusterTotals
	horizon := sim.Sec(end)
	var utilSum float64
	for _, cs := range stats {
		t.ColdStarts += cs.ColdStarts
		t.Drains += cs.Drains
		t.HardKills += cs.HardKills
		util := 0.0
		if horizon > 0 && cs.TotalGPUs > 0 {
			util = 100 * cs.BusyGPUSeconds / (float64(cs.TotalGPUs) * horizon)
		}
		utilSum += util
		t.UtilMaxPct = max(t.UtilMaxPct, util)
	}
	if len(stats) > 0 {
		t.UtilMeanPct = utilSum / float64(len(stats))
	}
	return t
}
