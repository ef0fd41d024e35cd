package desmodel

import (
	"fmt"
	"time"

	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/sim"
)

// kernelClock adapts the event kernel's virtual timeline to clock.Clock so
// live control-plane components (the PBS scheduler) can run inside a DES
// scenario. Only Now/Since are served; Sleep/After panic — kernel-driven
// components must take deterministic timers (scheduler.Config.Timer), never
// block a goroutine.
type kernelClock struct{ k *sim.Kernel }

var kernelEpoch = time.Unix(0, 0).UTC()

func (c kernelClock) Now() time.Time { return kernelEpoch.Add(c.k.Now()) }

func (c kernelClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c kernelClock) Sleep(time.Duration) {
	panic("desmodel: kernelClock cannot Sleep; wire a deterministic Timer instead")
}

func (c kernelClock) After(time.Duration) <-chan time.Time {
	panic("desmodel: kernelClock cannot After; wire a deterministic Timer instead")
}

// FederationParams describe a multi-cluster federation scenario: N clusters,
// each with a real inventory (cluster.Cluster) and a real PBS-like scheduler
// (scheduler.Scheduler driven by the kernel through Config.Timer), serving M
// models behind the sharded gateway front-end. Every request is routed by the
// real federation.Select priority ladder (§4.5) over live state snapshots.
type FederationParams struct {
	// Clusters is the federation size (the paper federates Sophia+Polaris;
	// the scenario family sweeps 2-8).
	Clusters int
	// NodesPerCluster and GPUsPerNode shape each cluster's inventory.
	NodesPerCluster int
	GPUsPerNode     int
	GPU             perfmodel.GPUSpec
	// Models are the served model specs. Model m's configuration-registry
	// order (priority 3's "first configured") is the cluster list rotated by
	// m, so first-configured load does not pile onto cluster 0 for every
	// model.
	Models []perfmodel.ModelSpec

	// Gateway front-end: requests hash onto Shards serialized lanes charging
	// CritSection each, then PostWork off-lock before the routing decision.
	// Zero Shards means no front-end stage, as for every FirstParams cost.
	Shards      int
	CritSection time.Duration
	PostWork    time.Duration

	// Prologue is the scheduler's Starting phase (node boot, container
	// start) for every job, serving and background alike.
	Prologue time.Duration
	// ServeWalltime is how long a serving instance runs after weights are
	// loaded before it drains (endpoint walltime churn). The scheduler job's
	// walltime is load + ServeWalltime + DrainGrace: if the running batch
	// has not drained within the grace, the real walltime timer hard-kills
	// the job mid-batch and the survivors migrate.
	ServeWalltime time.Duration
	DrainGrace    time.Duration
	// CordonLead, when positive, flags each serving incarnation this long
	// before its serve-walltime drain fires (clamped to ServeWalltime/2).
	// A cordoned instance is skipped by in-pool selection while an
	// uncordoned sibling serves, and a deployment whose entire serving
	// capacity is cordoned advertises Cordoned through the routing ladder
	// (federation.EndpointInfo), steering new arrivals elsewhere one lead
	// ahead of the drain — shrinking the migrated-request population at
	// the source. Zero (the default) keeps routing byte-identical to the
	// drain-blind behaviour.
	CordonLead time.Duration

	// Scale is the Fig4-style auto-scaling policy growing and shrinking each
	// deployment's instance pool with demand. The zero value (MaxInstances
	// ≤ 1) pins every pool at one instance — the pre-autoscaler behaviour.
	Scale AutoScaleParams

	// First is the fabric hop around the router and the pools (first.go). The
	// zero value wires none of it: a routed request enters its engine at the
	// routing instant and is observed as the engine completes it.
	First FirstParams
	// Hot is how many instances of every deployment serve from t = 0 outside
	// the scheduler — §3.2.2's hot nodes: no job, no walltime, and no place in
	// the inventory (a standing reservation).
	Hot int

	// Background science jobs compete with serving jobs for GPUs: each
	// cluster submits one every BGPeriod (offset by BGStagger×cluster) that
	// holds BGGPUs until its walltime expires. They are what pushes the
	// priority ladder onto its capacity and first-configured rungs.
	BGPeriod   time.Duration
	BGStagger  time.Duration
	BGWalltime time.Duration
	BGGPUs     int

	// Replay, when set, drives all churn from a recorded live schedule
	// instead of the self-scheduled tempo above (see replay.go). Pools are
	// pre-started like a live boot, demand-driven cold starts are off, and
	// kills/restarts/background claims fire at the replayed request
	// indices via ReplayAdvance.
	Replay *ReplayParams
}

// DefaultFederationModels returns the served model mix: two 4-GPU models and
// a 1-GPU model, so deployments pack unevenly onto 4-GPU nodes.
func DefaultFederationModels() []perfmodel.ModelSpec {
	return []perfmodel.ModelSpec{
		perfmodel.Default.MustLookup(perfmodel.Llama8B),
		perfmodel.Default.MustLookup(perfmodel.Gemma27B),
		perfmodel.Default.MustLookup("Qwen/Qwen2.5-7B-Instruct"),
	}
}

// DefaultFederationParams sizes a federation of `clusters` clusters: 2 nodes
// × 4 GPUs each (8 GPUs — the three-model mix needs 9 and a background job 4
// more, so no cluster can host everything and the priority ladder's capacity
// and first-configured rungs genuinely fire), 10-minute serving walltimes
// with 2-minute drain grace, and background churn on a ~7.5-minute cadence.
// Auto-scaling is off (MaxInstances 1); scenarios opt in via Scale.
func DefaultFederationParams(clusters int) FederationParams {
	p := fedDefaults
	p.Clusters = clusters
	p.Models = DefaultFederationModels()
	return p
}

// fedDefaults is DefaultFederationParams less the cluster count and the model
// mix, which allocates: withDefaults reads it for every cell built.
var fedDefaults = FederationParams{
	NodesPerCluster: 2,
	GPUsPerNode:     4,
	GPU:             perfmodel.A100_40,
	Shards:          16,
	CritSection:     4 * time.Microsecond,
	PostWork:        25 * time.Microsecond,
	Prologue:        30 * time.Second,
	ServeWalltime:   600 * time.Second,
	DrainGrace:      120 * time.Second,
	BGPeriod:        450 * time.Second,
	BGStagger:       80 * time.Second,
	BGWalltime:      300 * time.Second,
	BGGPUs:          4,
}

// FedRungs counts routing decisions per priority rung.
type FedRungs struct {
	Active    int64 // rung 1: model running/starting/queued somewhere
	Capacity  int64 // rung 2: a cluster had free GPUs for a cold start
	FirstConf int64 // rung 3: nothing active, nothing fits — first configured
}

// FedClusterStats is one cluster's scenario-end accounting.
type FedClusterStats struct {
	Name       string
	Routed     int64 // requests the ladder sent here
	Served     int64 // requests completed here
	ColdStarts int   // serving jobs submitted (Queued→Starting→Running)
	Drains     int   // graceful walltime drains
	HardKills  int   // walltime expiries that killed a live batch
	// LiveInstances counts pool members still holding a place at snapshot
	// time (queued, loading, or serving). A draining incarnation is on its
	// way out and is deliberately not live: the mid-drain end-of-run path
	// must not leak it into the final instance accounting.
	LiveInstances int
	// PeakInstances is the deepest the cluster's pools ever grew (summed
	// over models, draining included while the incarnation held GPUs).
	PeakInstances int
	// ScaleUps / ScaleDowns count auto-scaler pool growth and policy-driven
	// shrink actions (early drains or queued-job cancels); ScaleRefused
	// counts scale-up decisions refused at the MaxInstances cap.
	ScaleUps     int
	ScaleDowns   int
	ScaleRefused int
	// PreWarms counts predictive cold starts: forecast-driven early
	// scale-ups plus walltime-replacement pre-warms (both also counted in
	// ColdStarts — a pre-warm pays the same scheduler path).
	PreWarms int
	// BusyGPUSeconds is Σ engine busy time × GPUs over all incarnations
	// (utilization numerator; divide by total GPUs × horizon).
	BusyGPUSeconds float64
	// TotalGPUs is the cluster's inventory size.
	TotalGPUs int
	// SchedQueuedPeak is the deepest scheduler queue observed at submit
	// time (serving restarts stacking behind background jobs).
	SchedQueuedPeak int
}

// fedCluster is one simulated cluster: real inventory, real scheduler, one
// deployment pool per model. Its events — instance lifecycle, scheduler
// timers, engine stepping, background churn, the scaler — run on the
// federation's kernel, f.k.
type fedCluster struct {
	f     *Federation
	name  string
	cl    *cluster.Cluster
	sched *scheduler.Scheduler
	deps  []*fedDep

	// stats holds the counters, each kept where it happens; ClusterStats
	// completes a copy. busyGPU is the dead incarnations' BusyGPUSeconds.
	stats   FedClusterStats
	busyGPU time.Duration
}

// Federation is the multi-cluster DES scenario: the sharded gateway
// front-end in front of N cluster+scheduler instances, every request routed
// by the real federation.Select over live snapshots, with deployment pools
// churning through the full Queued→Starting→Running→drain/kill lifecycle and
// the auto-scaler growing and shrinking them with demand.
type Federation struct {
	// k is the run's only kernel: gateway admission, routing, and every
	// cluster's events share one timeline, so the router's reads of cluster
	// state are exact.
	k *sim.Kernel
	p FederationParams
	// a lends every incarnation its engine and takes a dead one's back, so
	// the next cold restart reuses it.
	a    *Arena
	done func(*Req)

	// arrive is the path's first stage, bound once: the shard front-end,
	// else the fabric's worker window, else route itself — fe is nil and
	// first unwired when their params are zero.
	arrive func(*Req)
	fe     *shardFE
	first  firstPath

	clusters []*fedCluster
	scratch  []federation.EndpointInfo

	replay *fedReplay

	rungs      FedRungs
	migrations int64
	// arrivals is half of the conservation invariant (the other half,
	// completions, is Σ clusters' served): every request that arrives
	// completes exactly once, across any number of drains, kills, cancels,
	// and scale-downs.
	arrivals int64
}

func (p FederationParams) withDefaults() FederationParams {
	d := &fedDefaults
	if p.Clusters <= 0 {
		p.Clusters = 4
	}
	// BGPeriod == 0 means background churn is off, so the BG fields are not
	// unconditionally defaulted — but churn that is on must be complete: a
	// walltime-less science job would hold its GPUs forever (scheduler
	// semantics: Walltime 0 = unlimited) and starve serving restarts.
	if p.BGPeriod > 0 {
		if p.BGGPUs <= 0 {
			p.BGGPUs = d.BGGPUs
		}
		if p.BGWalltime <= 0 {
			p.BGWalltime = d.BGWalltime
		}
		if p.BGStagger <= 0 {
			p.BGStagger = d.BGStagger
		}
	}
	if p.NodesPerCluster <= 0 {
		p.NodesPerCluster = d.NodesPerCluster
	}
	if p.GPUsPerNode <= 0 {
		p.GPUsPerNode = d.GPUsPerNode
	}
	if p.GPU.Name == "" {
		p.GPU = d.GPU
	}
	if len(p.Models) == 0 {
		p.Models = DefaultFederationModels()
	}
	if p.Prologue <= 0 {
		p.Prologue = d.Prologue
	}
	if p.ServeWalltime <= 0 {
		p.ServeWalltime = d.ServeWalltime
	}
	if p.DrainGrace <= 0 {
		p.DrainGrace = d.DrainGrace
	}
	// The cordon must leave a serving majority of the walltime: a lead at
	// or beyond the walltime would cordon the incarnation the moment it
	// starts serving, so clamp to half — mirroring the LoWater clamp's
	// anti-livelock reasoning.
	if p.CordonLead < 0 {
		p.CordonLead = 0
	}
	if p.CordonLead > p.ServeWalltime/2 {
		p.CordonLead = p.ServeWalltime / 2
	}
	p.Scale = p.Scale.withDefaults()
	return p
}

// mustBeBuildable refuses what ROADMAP 2(ii) has yet to define. A request
// riding the pickup pipe has nowhere to go if its instance drains or dies, so
// the fabric hop needs instances that never do; and a hot instance has no
// scheduler job for a scaler to drain or a replayed kill to fail.
func (p FederationParams) mustBeBuildable() {
	fabric := p.First != FirstParams{}
	if (fabric && p.Hot < 1) || ((fabric || p.Hot > 0) && (p.Scale.MaxInstances > 1 || p.Replay != nil)) {
		panic("desmodel: FederationParams.First needs Hot >= 1, and neither combines with a scaler or a replay yet")
	}
}

// NewFederationIn builds the scenario on an experiment-fleet arena's kernel.
// Engines are borrowed from the arena per deployment incarnation and
// reclaimed (reset) at the next cell — or mid-cell, when an incarnation dies
// and the pool recycles its engine for the next cold start.
func NewFederationIn(a *Arena, p FederationParams, done func(*Req)) *Federation {
	p = p.withDefaults()
	p.mustBeBuildable()
	k := a.k
	f := &Federation{k: k, p: p, a: a, done: done, scratch: make([]federation.EndpointInfo, 0, p.Clusters)}
	f.arrive = f.route
	if p.First != (FirstParams{}) {
		f.first.wire(k, p.First, f.route, done)
		f.arrive = f.first.arrive
	}
	if p.Shards > 0 {
		f.fe = newShardFE(k, p.Shards, p.CritSection, p.PostWork, f.arrive)
		f.arrive = f.fe.admit
	}
	for i := 0; i < p.Clusters; i++ {
		c := &fedCluster{f: f}
		c.cl = cluster.New(fmt.Sprintf("fed-%d", i), p.NodesPerCluster, p.GPUsPerNode, p.GPU)
		c.name = c.cl.Name()
		c.sched = scheduler.New(c.cl, kernelClock{k}, scheduler.Config{
			Prologue: p.Prologue,
			Backfill: true,
			Timer:    k.Schedule,
		})
		for m := range p.Models {
			d := &fedDep{
				f: f, c: c, model: m,
				coldStart: p.Prologue + p.Models[m].LoadTime(p.GPU),
				fcArrive:  NewForecast(p.Scale.ForecastAlpha, p.Scale.ForecastBeta),
				fcServe:   NewForecast(p.Scale.ForecastAlpha, 0),
			}
			if p.First.Routing == RouteRandom {
				d.rng = sim.NewRNG(1)
			}
			c.deps = append(c.deps, d)
			for h := 0; h < p.Hot; h++ {
				d.startHot()
			}
		}
		f.clusters = append(f.clusters, c)
		if p.BGPeriod > 0 && p.BGGPUs > 0 {
			// Background jobs self-schedule forever; open-loop drivers end
			// the run with Kernel.Stop once the trace completes.
			var bg func()
			bg = func() {
				c.submitBG()
				k.Schedule(p.BGPeriod, bg)
			}
			k.Schedule(p.BGStagger*time.Duration(i)+p.BGPeriod/2, bg)
		}
		if p.Scale.MaxInstances > 1 {
			// The scaler ticks per cluster, evaluating every deployment pool
			// in slice order — one deterministic event per interval. Like the
			// background jobs it self-schedules forever.
			c.armScaler()
		}
	}
	if p.Replay != nil {
		f.replay = newFedReplay(f, *p.Replay)
		// A live system boots with MinInstances:1 per deployment; the twin
		// matches by pre-starting every pool at t=0 instead of cold-starting
		// on first demand. After boot, only replayed restart events revive a
		// killed pool.
		for _, c := range f.clusters {
			for _, d := range c.deps {
				d.startInstance()
			}
		}
	}
	return f
}

// submitBG submits one background science job; the scheduler's own walltime
// timer reclaims it (the real TimedOut path).
func (c *fedCluster) submitBG() {
	_, err := c.sched.Submit(scheduler.JobSpec{
		Name:     "science-batch",
		User:     "bg",
		GPUs:     c.f.p.BGGPUs,
		Walltime: c.f.p.BGWalltime,
	})
	if err != nil {
		panic(err)
	}
	c.noteQueued()
}

func (c *fedCluster) noteQueued() {
	if q := c.sched.QueuedCount(); q > c.stats.SchedQueuedPeak {
		c.stats.SchedQueuedPeak = q
	}
}

// Arrive is a client request hitting the federation gateway: stamped,
// counted, and handed to the path's first stage — shard-lane admission
// (serialized critical section) and PostWork, the fabric's worker window,
// or the routing decision itself.
//
//first:hotpath pinned by TestSystemsCarryZeroAlloc (stage_test.go)
func (f *Federation) Arrive(r *Req) {
	r.ArrivalAt = f.k.Now()
	f.arrivals++
	f.arrive(r)
}

// Rungs returns the per-rung routing decision counts.
func (f *Federation) Rungs() FedRungs { return f.rungs }

// Migrations returns how many times requests were re-routed off a dying
// placement.
func (f *Federation) Migrations() int64 { return f.migrations }

// Arrivals returns how many requests entered the federation gateway.
func (f *Federation) Arrivals() int64 { return f.arrivals }

// Completions returns how many requests an engine finished and handed on —
// the conservation invariant's other half (no request lost, none
// double-done): the sum of the per-cluster served counters.
func (f *Federation) Completions() int64 {
	var n int64
	for _, c := range f.clusters {
		n += c.stats.Served
	}
	return n
}

// InFlight reports requests admitted through the fabric's worker window and
// not yet observed, and MaxBacklog the high-water mark of those waiting for a
// slot in it; both are zero when FederationParams.First is.
func (f *Federation) InFlight() int { return f.first.inFlight }

func (f *Federation) MaxBacklog() int { return f.first.maxBacklog }

// EmittedTokensBy returns output tokens generated by the hot instances up to
// virtual time t (the streaming view); other incarnations keep no log.
func (f *Federation) EmittedTokensBy(t sim.Time) int64 {
	var sum int64
	for _, c := range f.clusters {
		for _, d := range c.deps {
			for _, in := range d.insts {
				if in.eng != nil {
					sum += in.eng.EmittedBy(t)
				}
			}
		}
	}
	return sum
}

// ClusterStats snapshots per-cluster accounting, folding in any still-live
// engine incarnations (closed-loop runs end mid-flight, including mid-drain:
// a draining incarnation's busy time counts exactly once and it is not
// reported as a live pool member). The snapshot is a pure read — calling it
// twice yields identical stats.
func (f *Federation) ClusterStats() []FedClusterStats {
	out := make([]FedClusterStats, len(f.clusters))
	for i, c := range f.clusters {
		busy := c.busyGPU
		live := 0
		for _, d := range c.deps {
			live += d.liveCount()
			for _, in := range d.insts {
				if in.eng != nil {
					busy += time.Duration(int64(in.eng.Stats().BusyTime) * int64(f.p.Models[d.model].TensorParallel))
				}
			}
		}
		out[i] = c.stats
		out[i].Name = c.name
		out[i].LiveInstances = live
		out[i].BusyGPUSeconds = busy.Seconds()
		out[i].TotalGPUs = f.p.NodesPerCluster * f.p.GPUsPerNode
	}
	return out
}
