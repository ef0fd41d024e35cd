package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
)

// fedInstance is one engine incarnation inside a deployment's pool: its own
// scheduler job (paying the real Queued→Starting→Running cold-start path),
// its own serve-walltime drain, and — when the auto-scaler shrinks the pool —
// a policy-driven early drain through the same machinery. Its lifecycle
// record is the embedded fabric.Member, moved only by the pool's guarded
// transitions, so a timer armed for an incarnation that has moved on finds
// its guard false.
type fedInstance struct {
	fabric.Member
	d *fedDep

	eng       *EngineSim
	drainDone bool // a zero-delay drain-completion event is queued
}

// fedDep is one (cluster, model) deployment: a fabric.Pool of 1..MaxInstances
// engine incarnations plus the requests parked while none of them serves.
// The pool answers every lifecycle question; fedDep carries the answers out
// as kernel events.
type fedDep struct {
	f     *Federation
	c     *fedCluster
	model int

	pool    fabric.Pool[*fedInstance]
	pending []*Req // parked until an instance serves
	// row is d's routing-ladder row in Federation.rows. Every lifecycle
	// transition re-reads it from the pool record (sync); in between only
	// its depth moves, by what the serving engines report and by each
	// request parked or flushed. route writes its FreeGPUs.
	row *federation.EndpointInfo

	// Auto-scaler hysteresis (autoscale.go) and the deepest the pool grew.
	scale    fabric.ScalerState
	peakPool int

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

// offer delivers a routed request: straight into the instance the pool
// picks when one serves, parked (cold-starting the pool's first instance if
// it is empty) otherwise.
func (d *fedDep) offer(r *Req) {
	d.arrivedTick++ // forecast sample: arrivals since the last scaler tick
	if in := d.pool.Pick(); in != nil {
		d.f.place(in, r)
		return
	}
	d.pending = append(d.pending, r)
	d.row.Depth++
	if d.pool.Len() == 0 {
		d.startInstance()
	}
}

// place is the one way a request enters an engine pool: onto the fabric's
// pickup pipe, the picked instance riding on it, or straight into the engine.
// A zero pickup (vLLM-Direct) is no hop: the engine takes the request in
// the event that routed it. A zero-delay pipe's event would be booked on the
// instant it fires, behind the engine's event for an iteration boundary
// there, so an arrival on that boundary would join the iteration starting
// there while the engine takes the quiet runs Step offers
// (serving.Engine.Settle) and miss it while it steps every iteration.
func (f *Federation) place(in *fedInstance, r *Req) {
	if f.first.wired() && f.p.First.EndpointPickup > 0 {
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
	in := &fedInstance{d: d}
	in.eng = f.a.EngineSimIn(f.p.Models[d.model], f.p.GPU, in.onServed)
	d.pool.AddHot(in, in.eng)
	in.eng.depthSink = &d.row.Depth
	d.sync()
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
	in := &fedInstance{d: d}
	d.pool.Add(in)
	d.sync()
	d.c.stats.ColdStarts++
	d.notePool()
	job, err := d.c.sched.Submit(scheduler.JobSpec{
		Name:     spec.Name,
		User:     "first-serve",
		GPUs:     spec.TensorParallel,
		Walltime: load + f.p.ServeWalltime + f.p.DrainGrace,
		// Granted nodes, the member reads as starting. A grant inside
		// Submit comes before in.Job is set, so the row is re-read after.
		OnStarting: func(*scheduler.Job) { d.sync() },
		OnRunning:  func(*scheduler.Job) { in.onJobRunning(load) },
		OnEnd:      func(_ *scheduler.Job, st scheduler.State) { in.onJobEnd(st) },
	})
	if err != nil {
		panic(err) // unreachable: GPUs > 0 and the scheduler is never closed
	}
	in.Job = job
	d.sync()
	d.c.noteQueued()
}

// onJobRunning fires when the scheduler grants nodes (Starting→Running):
// the instance boots and loads weights before it can serve.
func (in *fedInstance) onJobRunning(load time.Duration) {
	if in.Load() {
		in.d.sync()
		in.d.f.k.Schedule(load, in.onLoaded)
	}
}

// onLoaded opens the instance for traffic: the engine incarnation is
// created, parked requests flush into the pool, and the serve-walltime drain
// is armed.
func (in *fedInstance) onLoaded() {
	if in.State() != fabric.Loading {
		return
	}
	d := in.d
	f := d.f
	spec := f.p.Models[d.model]
	in.eng = f.a.EngineSimIn(spec, f.p.GPU, in.onServed).withoutEmitLog()
	in.Serve(in.eng)
	in.eng.depthSink = &d.row.Depth
	pend := d.pending
	d.pending = nil
	d.sync()
	for _, r := range pend {
		// Flush least-loaded across the pool: sibling instances may have
		// come up at the same instant.
		f.place(d.pool.Pick(), r)
	}
	drainAt := f.k.Now() + f.p.ServeWalltime
	f.k.Schedule(f.p.ServeWalltime, func() { in.beginDrain(false) })
	if lead := f.p.CordonLead; lead > 0 {
		// Cordon one lead ahead of the drain: selection and the routing
		// ladder stop sending new work here while the remaining walltime
		// is too short to be worth queueing behind.
		f.k.Schedule(f.p.ServeWalltime-lead, func() { in.cordon(drainAt) })
	}
	if f.p.Scale.Predictive {
		// Arm the replacement pre-warm one cold start before the drain;
		// the guard re-checks demand and pool room when it fires.
		lead := d.coldStart
		if lead > f.p.ServeWalltime {
			lead = f.p.ServeWalltime
		}
		f.k.Schedule(f.p.ServeWalltime-lead, func() { d.preWarmReplacement(in) })
	}
}

// cordon flags the instance one lead ahead of its drain at drainAt; the
// lead timer and tests cordon through it so the ladder row follows.
func (in *fedInstance) cordon(drainAt time.Duration) {
	if in.Cordon(drainAt) {
		in.d.sync()
	}
}

// onServed counts one request served and sends it on — into the fabric's
// relay (the hub's serialized relay and the return trip; it is complete and
// observed only at the far end), or complete and observed now — and, while
// draining, watches for the batch to empty.
func (in *fedInstance) onServed(seq *serving.Sequence) {
	r := seq.Ctx.(*Req)
	d := in.d
	f := d.f
	d.c.stats.Served++
	d.servedTick++ // forecast sample: completions since the last scaler tick
	if f.first.wired() {
		f.first.relay.push(r)
	} else {
		finish(f.k, r, f.done)
	}
	if in.State() == fabric.Draining {
		in.maybeFinishDrain()
	}
}
