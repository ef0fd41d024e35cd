package desmodel

import (
	"fmt"
	"time"

	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
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

// instState is one instance incarnation's lifecycle position.
type instState uint8

const (
	instQueued   instState = iota // job submitted, waiting for nodes/prologue
	instLoading                   // nodes granted, weights loading
	instServing                   // accepting and serving traffic
	instDraining                  // no new work; running batch finishing
	instDead                      // terminal; detached from the pool
)

// fedInstance is one engine incarnation inside a deployment's pool: its own
// scheduler job (paying the real Queued→Starting→Running cold-start path),
// its own serve-walltime drain, and — when the auto-scaler shrinks the pool —
// a policy-driven early drain through the same machinery.
type fedInstance struct {
	d *fedDep

	state     instState
	job       *scheduler.Job
	eng       *EngineSim
	drainDone bool // a zero-delay drain-completion event is queued

	// cordoned marks a serving incarnation inside its CordonLead window:
	// the walltime drain is imminent, so in-pool selection passes it over
	// and the routing ladder is told when every serving sibling is in the
	// same state. drainAt is the kernel time the serve-walltime drain was
	// armed for (EndpointInfo.DrainingAt observability).
	cordoned bool
	drainAt  sim.Time
}

// fedDep is one (cluster, model) deployment: a pool of 1..MaxInstances
// engine incarnations plus the requests parked while none of them serves.
type fedDep struct {
	f     *Federation
	c     *fedCluster
	model int

	insts   []*fedInstance // pool members (dead incarnations are removed)
	pending []*Req         // parked until an instance serves
	// RouteRoundRobin's cursor and RouteRandom's draws (pickServing).
	rrNext int
	rng    *sim.RNG

	// Auto-scaler hysteresis state (see autoscale.go).
	hiStreak int
	loStreak int
	peakPool int
	// lastLive is the live count seen by the previous scaleTick; a change
	// through any path resets both streaks (the watermarks are
	// per-instance, so a streak is only meaningful at one denominator).
	lastLive int
	// hiRefused latches one ScaleRefused count per sustained at-cap
	// episode. The episode ends — and the latch clears — only after the
	// hi condition has been absent for HiSustain consecutive ticks
	// (hiBreak counts those), mirroring the sustain needed to enter it:
	// a one-tick flap from pool churn is the same standing episode.
	hiRefused bool
	hiBreak   int

	// Predictive-scaler state (autoscale.go, forecast.go): the Holt
	// arrival forecaster, the service-rate EWMA, the per-tick sample
	// accumulators they consume, and the deployment's cached cold-start
	// duration (prologue + weights load — the forecast horizon). Samples
	// are counted where offer/onServed run.
	fcArrive    Forecast
	fcServe     Forecast
	arrivedTick int
	servedTick  int
	coldStart   time.Duration
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

// route applies the real federation.Select priority ladder over live
// snapshots of every cluster's deployment and inventory state.
func (f *Federation) route(r *Req) {
	if f.replay != nil {
		f.routeReplay(r)
		return
	}
	m := r.Model
	n := len(f.clusters)
	spec := &f.p.Models[m]
	infos := f.scratch[:0]
	for i := 0; i < n; i++ {
		c := f.clusters[(m+i)%n]
		infos = append(infos, c.endpointInfo(m, spec))
	}
	f.scratch = infos[:0]
	idx, reason, err := federation.Select(infos)
	if err != nil {
		panic(err) // unreachable: the candidate list is never empty
	}
	switch reason {
	case federation.ReasonActive:
		f.rungs.Active++
	case federation.ReasonCapacity:
		f.rungs.Capacity++
	default:
		f.rungs.FirstConf++
	}
	target := f.clusters[(m+idx)%n]
	target.stats.Routed++
	target.deps[m].offer(r)
}

// endpointInfo is one cluster's routing-ladder candidate row, read from the
// cluster's live state at the routing instant.
func (c *fedCluster) endpointInfo(m int, spec *perfmodel.ModelSpec) federation.EndpointInfo {
	d := c.deps[m]
	serving, cordoned, drainingAt := d.routingView()
	return federation.EndpointInfo{
		ID:         c.name,
		ModelState: d.modelState(),
		FreeGPUs:   c.cl.Status().FreeGPUs,
		NeededGPUs: spec.TensorParallel,
		Depth:      d.depth(),
		Instances:  serving,
		Cordoned:   cordoned,
		DrainingAt: drainingAt,
	}
}

// routingView is one pass over the pool collecting what the routing ladder
// is told: the uncordoned serving count (the capacity worth advertising — a
// queued or loading incarnation is minutes of prologue and load away from
// helping), whether serving capacity exists but all of it is cordoned ahead
// of an imminent drain, and how far away the soonest cordoned drain is. With
// CordonLead unset no instance ever cordons, so the view reduces exactly to
// the serving count / false / 0 — the drain-blind ladder inputs.
func (d *fedDep) routingView() (serving int, cordoned bool, drainingAt time.Duration) {
	total := 0
	var soonest sim.Time = -1
	for _, in := range d.insts {
		if in.state != instServing {
			continue
		}
		total++
		if in.cordoned {
			if soonest < 0 || in.drainAt < soonest {
				soonest = in.drainAt
			}
			continue
		}
		serving++
	}
	cordoned = total > 0 && serving == 0
	if soonest >= 0 {
		if dt := soonest - d.f.k.Now(); dt > 0 {
			drainingAt = time.Duration(dt)
		}
	}
	return serving, cordoned, drainingAt
}

// migrateFrom re-routes a request whose placement on this cluster died.
func (c *fedCluster) migrateFrom(r *Req) {
	r.Migrations++
	c.f.migrations++
	c.f.route(r)
}

// modelState aggregates the pool's lifecycle onto the paper's §4.3 states:
// serving anywhere beats loading beats queued. Draining instances report
// nothing — they must not attract new work, and their held GPUs keep the
// capacity rung honest.
func (d *fedDep) modelState() string {
	anyLoading, anyQueued := false, false
	var queued *fedInstance
	for _, in := range d.insts {
		switch in.state {
		case instServing:
			return "running"
		case instLoading:
			anyLoading = true
		case instQueued:
			if !anyQueued {
				queued = in
			}
			anyQueued = true
		}
	}
	if anyLoading {
		return "starting"
	}
	if anyQueued {
		if queued.job != nil && queued.job.State() == scheduler.Starting {
			return "starting"
		}
		return "queued"
	}
	return "cold"
}

// depth is the deployment's total queue depth (federation tie-break input):
// parked requests plus the waiting+running load of every instance still
// accepting work. Draining incarnations are excluded — their remaining batch
// occupies no capacity a new request could wait for.
func (d *fedDep) depth() int {
	n := len(d.pending)
	for _, in := range d.insts {
		if in.state == instServing {
			n += in.eng.Depth()
		}
	}
	return n
}

// offer delivers a routed request: straight into the least-loaded serving
// instance when one exists, parked (cold-starting the pool's first instance
// if it is empty) otherwise.
func (d *fedDep) offer(r *Req) {
	d.arrivedTick++ // forecast sample: arrivals since the last scaler tick
	if in := d.pickServing(); in != nil {
		d.f.place(in, r)
		return
	}
	d.pending = append(d.pending, r)
	if len(d.insts) == 0 && d.f.replay == nil {
		// Under replay, a dead pool revives only at its scheduled restart
		// event — a demand-driven cold start here would self-heal faster
		// than the live system it is calibrated against.
		d.startInstance()
	}
}

// place is the one way a request enters an engine pool: onto the fabric's
// pickup pipe, the picked instance riding on it, or straight into the engine.
func (f *Federation) place(in *fedInstance, r *Req) {
	if f.first.wired() {
		r.inst = in.eng
		f.first.pickup.push(r)
		return
	}
	r.EngineAt = f.k.Now()
	in.eng.Submit(r.PromptTok, r.OutputTok, r)
}

// startHot opens one instance that serves from t = 0 outside the scheduler.
// An incarnation's emission log dies with it, so only these, which never
// die, keep one (EmittedTokensBy reads them).
func (d *fedDep) startHot() {
	f := d.f
	in := &fedInstance{d: d, state: instServing}
	in.eng = f.a.EngineSimIn(f.p.Models[d.model], f.p.GPU, 0, func(seq *serving.Sequence) { in.onServed(nil, seq) })
	d.insts = append(d.insts, in)
	d.notePool()
}

// startInstance submits one serving job: the incarnation enters the
// scheduler's real Queued→Starting→Running lifecycle, competing with
// background jobs. Both the demand-driven first instance and every
// auto-scaler growth step pay this same cold-start path.
func (d *fedDep) startInstance() {
	f := d.f
	spec := f.p.Models[d.model]
	load := spec.LoadTime(f.p.GPU)
	in := &fedInstance{d: d, state: instQueued}
	d.insts = append(d.insts, in)
	d.c.stats.ColdStarts++
	d.notePool()
	job, err := d.c.sched.Submit(scheduler.JobSpec{
		Name:      spec.Name,
		User:      "first-serve",
		GPUs:      spec.TensorParallel,
		Walltime:  load + f.p.ServeWalltime + f.p.DrainGrace,
		OnRunning: func(j *scheduler.Job) { in.onJobRunning(j, load) },
		OnEnd:     func(j *scheduler.Job, st scheduler.State) { in.onJobEnd(j, st) },
	})
	if err != nil {
		panic(err) // unreachable: GPUs > 0 and the scheduler is never closed
	}
	in.job = job
	d.c.noteQueued()
}

// onJobRunning fires when the scheduler grants nodes (Starting→Running):
// the instance boots and loads weights before it can serve.
func (in *fedInstance) onJobRunning(j *scheduler.Job, load time.Duration) {
	if in.job != j || in.state != instQueued {
		return
	}
	in.state = instLoading
	in.d.f.k.Schedule(load, func() { in.onLoaded(j) })
}

// onLoaded opens the instance for traffic: the engine incarnation is
// created, parked requests flush into the pool, and the serve-walltime drain
// is armed.
func (in *fedInstance) onLoaded(j *scheduler.Job) {
	if in.job != j || in.state != instLoading {
		return
	}
	d := in.d
	f := d.f
	spec := f.p.Models[d.model]
	in.state = instServing
	in.eng = f.a.EngineSimIn(spec, f.p.GPU, 0, func(seq *serving.Sequence) { in.onServed(j, seq) }).withoutEmitLog()
	pend := d.pending
	d.pending = nil
	for _, r := range pend {
		// Flush least-loaded across the pool: sibling instances may have
		// come up at the same instant.
		f.place(d.pickServing(), r)
	}
	in.drainAt = f.k.Now() + f.p.ServeWalltime
	f.k.Schedule(f.p.ServeWalltime, func() { in.beginDrain(j, false) })
	if lead := f.p.CordonLead; lead > 0 {
		// Cordon one lead ahead of the drain: selection and the routing
		// ladder stop sending new work here while the remaining walltime
		// is too short to be worth queueing behind.
		f.k.Schedule(f.p.ServeWalltime-lead, func() {
			if in.job == j && in.state == instServing {
				in.cordoned = true
			}
		})
	}
	if f.p.Scale.Predictive {
		// Arm the replacement pre-warm one cold start before the drain;
		// the guard re-checks demand and pool room when it fires.
		lead := d.coldStart
		if lead > f.p.ServeWalltime {
			lead = f.p.ServeWalltime
		}
		f.k.Schedule(f.p.ServeWalltime-lead, func() { d.preWarmReplacement(j, in) })
	}
}

// onServed counts one request served and sends it on — into the fabric's
// relay lane (it is complete and observed only at the far end), or complete
// and observed now — and, while draining, watches for the batch to empty.
func (in *fedInstance) onServed(j *scheduler.Job, seq *serving.Sequence) {
	r := seq.Ctx.(*Req)
	d := in.d
	f := d.f
	d.c.stats.Served++
	d.servedTick++ // forecast sample: completions since the last scaler tick
	if f.first.wired() {
		f.first.relay.enqueue(r)
	} else {
		finish(f.k, r, f.done)
	}
	if in.state == instDraining && in.job == j {
		in.maybeFinishDrain(j)
	}
}

// maybeFinishDrain schedules the drain completion once the instance has
// nothing live: no queued or running work and no in-flight delivery (a miss
// on the latter would tear the job down with completions undelivered). Runs
// on a zero-delay event so every completion delivered by the current engine
// iteration reaches the client before the job is released.
func (in *fedInstance) maybeFinishDrain(j *scheduler.Job) {
	if in.drainDone || in.eng.Depth() != 0 || in.eng.DeliveryPending() {
		return
	}
	in.drainDone = true
	in.d.f.k.Schedule(0, func() { in.finishDrain(j) })
}

// beginDrain stops the instance accepting work: its engine-waiting requests
// are pulled back and migrated, and the running batch finishes before the
// job is released. Two callers share it: the serve-walltime expiring
// (scaleDown=false, with DrainGrace before the scheduler's walltime timer
// hard-kills the job) and the auto-scaler shrinking an underused pool
// (scaleDown=true — the same machinery, counted separately).
func (in *fedInstance) beginDrain(j *scheduler.Job, scaleDown bool) {
	if in.job != j || in.state != instServing {
		return
	}
	d := in.d
	in.state = instDraining
	if scaleDown {
		d.c.stats.ScaleDowns++
	} else {
		d.c.stats.Drains++
	}
	// Pull engine-waiting sequences back: collect first (Abort mutates the
	// ring), then tombstone, then re-route. With sibling instances still
	// serving, the ladder's active rung lands them right back on the pool.
	type waiting struct {
		id int64
		r  *Req
	}
	var ws []waiting
	in.eng.EachWaiting(func(s *serving.Sequence) {
		ws = append(ws, waiting{s.ID, s.Ctx.(*Req)})
	})
	for _, w := range ws {
		in.eng.Abort(w.id)
	}
	for _, w := range ws {
		d.c.migrateFrom(w.r)
	}
	in.maybeFinishDrain(j)
}

// finishDrain releases the drained job back to the scheduler (Completed).
func (in *fedInstance) finishDrain(j *scheduler.Job) {
	if in.job != j || in.state != instDraining {
		return
	}
	in.d.c.sched.Complete(j.ID)
}

// onJobEnd is the scheduler's terminal callback: graceful drain completion
// (Completed), an auto-scaler cancel of a still-queued incarnation
// (Cancelled), or the real walltime timer firing with a live batch
// (TimedOut). Either way the incarnation is harvested and leaves the pool;
// survivors migrate, and pending demand with no pool left re-routes (which
// cold-restarts the deployment if the ladder sends it back).
func (in *fedInstance) onJobEnd(j *scheduler.Job, terminal scheduler.State) {
	if in.job != j || in.state == instDead {
		return
	}
	d := in.d
	f := d.f
	spec := f.p.Models[d.model]
	// TimedOut is the walltime timer firing on a live batch; Failed is a
	// replayed kill event through scheduler.Fail. Both die hard: waiting,
	// running, and undelivered work is orphaned and must migrate.
	hardKill := terminal == scheduler.TimedOut || terminal == scheduler.Failed
	in.state = instDead
	in.job = nil
	var orphans []*Req
	if in.eng != nil {
		d.c.busyGPU += time.Duration(int64(in.eng.Stats().BusyTime) * int64(spec.TensorParallel))
		if hardKill {
			in.eng.EachWaiting(func(s *serving.Sequence) { orphans = append(orphans, s.Ctx.(*Req)) })
			in.eng.EachRunning(func(s *serving.Sequence) { orphans = append(orphans, s.Ctx.(*Req)) })
			// Completions of the iteration in flight at kill time never
			// finished on the dead node: they are live work too, invisible
			// to both iterators above (Step already removed them from the
			// batch, Halt will drop their delivery).
			in.eng.EachUndelivered(func(s *serving.Sequence) { orphans = append(orphans, s.Ctx.(*Req)) })
			d.c.stats.HardKills++
		}
		in.eng.Halt()
		// The halted sim's remaining events are no-ops that never touch the
		// inner engine, and every live sequence has been harvested above, so
		// the engine itself can go back to the arena pool for the next
		// incarnation instead of waiting for cell teardown.
		f.a.Reclaim(in.eng.eng)
		in.eng = nil
	}
	d.removeInstance(in)
	if len(d.insts) == 0 {
		pend := d.pending
		d.pending = nil
		for _, r := range pend {
			d.c.migrateFrom(r)
		}
	}
	for _, r := range orphans {
		d.c.migrateFrom(r)
	}
}

// removeInstance detaches a dead incarnation, preserving pool order (order
// is a tie-break input for instance selection, so it must be deterministic).
func (d *fedDep) removeInstance(in *fedInstance) {
	for i, x := range d.insts {
		if x == in {
			copy(d.insts[i:], d.insts[i+1:])
			d.insts[len(d.insts)-1] = nil
			d.insts = d.insts[:len(d.insts)-1]
			return
		}
	}
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
