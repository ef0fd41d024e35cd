package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

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

// pickServing is the one instance picker: the least-loaded serving instance
// (earliest pool member wins ties), or nil when nothing serves. A cordoned instance —
// one flagged ahead of its imminent walltime drain (CordonLead) — is
// passed over while any uncordoned sibling serves, and used only as the
// last resort: capacity that exists must never park a request. With no
// cordons (the zero-value config) the selection is unchanged.
// Allocation-free: this is the per-request instance-selection hot path.
//
//first:hotpath pinned by the scaler AllocsPerRun sweep (autoscale_test.go)
func (d *fedDep) pickServing() *fedInstance {
	switch d.f.p.First.Routing {
	// The ablations of least-loaded dispatch. Only a wired fabric hop sets
	// one, and its pools are hot instances (mustBeBuildable): all serve.
	case RouteRoundRobin:
		d.rrNext++
		return d.insts[(d.rrNext-1)%len(d.insts)]
	case RouteRandom:
		return d.insts[d.rng.Intn(len(d.insts))]
	}
	var best, cordoned *fedInstance
	for _, in := range d.insts {
		if in.state != instServing {
			continue
		}
		if in.cordoned {
			if cordoned == nil || in.eng.Depth() < cordoned.eng.Depth() {
				cordoned = in
			}
			continue
		}
		if best == nil || in.eng.Depth() < best.eng.Depth() {
			best = in
		}
	}
	if best != nil {
		return best
	}
	return cordoned
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
