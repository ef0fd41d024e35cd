package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/fabric"
)

// AutoScaleParams tune the Fig4-style auto-scaler: each (cluster, model)
// deployment is a pool of 1..MaxInstances engine incarnations, grown when
// sustained backlog exceeds a high-water mark and shrunk when the pool sits
// under a low-water mark — every growth step paying the scheduler's real
// Queued→Starting→Running cold-start path, every shrink step reusing the
// drain/migrate machinery (or cancelling an incarnation still queued at the
// scheduler, which is free).
//
// The decision is fabric.Decide over the embedded fabric.ScalePolicy, as in
// the live deployment's control loop: watermarks on queue depth per live
// instance, each held for HiSustain/LoSustain consecutive Interval ticks so
// a single bursty interval cannot thrash the pool. MaxInstances ≤ 1
// disables the scaler: pools are pinned at one demand-driven instance.
type AutoScaleParams struct {
	fabric.ScalePolicy
	// Interval is the policy evaluation cadence (one deterministic kernel
	// event per cluster per interval).
	Interval time.Duration
	// Predictive arms the forecast-driven pre-warm paths (doc.go
	// "Predictive scaling & drain-aware routing"): each deployment feeds a
	// Holt forecaster with per-tick arrival counts and hands Decide the
	// projected depth one cold start ahead — and pre-warms a replacement one
	// cold-start before a serving incarnation's walltime drain. False (the
	// zero value) keeps the purely reactive PR 5 policy byte-for-byte.
	Predictive bool
}

// DefaultAutoScaleParams are the autoscale experiment family's knobs: grow
// past 16 queued per instance held for 2 ticks, shrink under 2 per instance
// held for 4 ticks, evaluated every 10 s, up to 4 instances per model.
func DefaultAutoScaleParams() AutoScaleParams {
	return AutoScaleParams{
		ScalePolicy: fabric.ScalePolicy{MaxInstances: 4, HiWater: 16, HiSustain: 2, LoWater: 2, LoSustain: 4},
		Interval:    10 * time.Second,
	}
}

// withDefaults normalizes the policy: a zero value stays disabled
// (MaxInstances 1); an enabled scaler gets the default cadence and
// watermarks for any knob left unset.
func (s AutoScaleParams) withDefaults() AutoScaleParams {
	if s.MaxInstances <= 1 {
		s.MaxInstances = 1
		return s
	}
	d := DefaultAutoScaleParams()
	if s.Interval <= 0 {
		s.Interval = d.Interval
	}
	if s.HiWater <= 0 {
		s.HiWater = d.HiWater
	}
	if s.LoWater <= 0 {
		s.LoWater = d.LoWater
	}
	// Non-overlapping bands: scale-up lifts depth-per-instance from just
	// above HiWater at live to HiWater×(live-1)/live ≥ HiWater/2 at live+1,
	// so LoWater ≤ HiWater/2 guarantees a growth step can never satisfy the
	// shrink condition on the next tick. Overlapping bands livelock: the
	// randomized property sweep caught a pool cancelling every incarnation
	// before its prologue completed.
	if s.LoWater > s.HiWater/2 {
		s.LoWater = s.HiWater / 2
	}
	if s.HiSustain <= 0 {
		s.HiSustain = d.HiSustain
	}
	if s.LoSustain <= 0 {
		s.LoSustain = d.LoSustain
	}
	return s
}

// armScaler starts the cluster's periodic scale evaluation: one event per
// Interval visiting every deployment pool in slice order (deterministic,
// allocation-free at steady state). Like the background-job loop it
// self-schedules forever; drivers bound runs with Stop or Run(until).
func (c *fedCluster) armScaler() {
	interval := c.f.p.Scale.Interval
	var tick func()
	tick = func() {
		for _, d := range c.deps {
			d.scaleTick()
		}
		c.f.k.Schedule(interval, tick)
	}
	c.f.k.Schedule(interval, tick)
}

// notePool records pool growth against the per-dep and per-cluster peaks
// (the property suite's [1, MaxInstances] bound and the report's
// peak-instances column).
func (d *fedDep) notePool() {
	if n := d.pool.Len(); n > d.peakPool {
		d.peakPool = n
	}
	total := 0
	for _, dep := range d.c.deps {
		total += dep.pool.Len()
	}
	if total > d.c.stats.PeakInstances {
		d.c.stats.PeakInstances = total
	}
}

// scaleTick is one policy evaluation for this deployment pool: observe,
// fabric.Decide, apply. The pool's floor is one live instance. The decision
// path is allocation-free; only an actual scale-up allocates (the new
// incarnation and its scheduler job).
//
//first:hotpath pinned by the scaler AllocsPerRun sweep (autoscale_test.go)
func (d *fedDep) scaleTick() {
	p := &d.f.p.Scale
	v := d.pool.View(len(d.pending), 1)
	if p.Predictive {
		// One sample per tick: arrivals routed here and completions served
		// here since the previous evaluation.
		d.fcArrive.Observe(float64(d.arrivedTick))
		d.fcServe.Observe(float64(d.servedTick))
		d.arrivedTick, d.servedTick = 0, 0
		v.Projected = d.projectedDepth(float64(v.Depth))
	}
	switch fabric.Decide(&p.ScalePolicy, v, &d.scale) {
	case fabric.Up:
		d.c.stats.ScaleUps++
		d.startInstance()
	case fabric.Refused:
		d.c.stats.ScaleRefused++
	case fabric.PreWarm:
		// The forecast one cold start ahead crosses HiWater: start the
		// incarnation now so it is serving — not queued behind a prologue —
		// when the backlog lands.
		d.c.stats.PreWarms++
		d.startInstance()
	case fabric.Down:
		// The pool's victim: an incarnation still queued at the scheduler
		// is cancelled (free — no GPUs held, no work placed; Cancel ends the
		// job synchronously), else the emptiest serving one drains through
		// the regular drain/migrate machinery.
		in := d.pool.Victim()
		if in.State() == fabric.Queued {
			d.c.stats.ScaleDowns++
			d.c.sched.Cancel(in.Job.ID)
		} else {
			in.beginDrain(true)
		}
	}
}

// projectedDepth is the forecast queue depth one cold-start horizon ahead:
// today's depth, plus the arrivals the Holt forecaster expects during the
// horizon, minus the completions the service-rate EWMA expects the current
// pool to absorb. The horizon is the deployment's full cold-start duration
// (prologue + weights load) expressed in scaler ticks — exactly the lead
// time a scale-up decision needs to hide.
func (d *fedDep) projectedDepth(depth float64) float64 {
	h := int(d.coldStart / d.f.p.Scale.Interval)
	if h < 1 {
		h = 1
	}
	proj := depth + d.fcArrive.PredictSum(h) - d.fcServe.Level()*float64(h)
	if proj < 0 {
		return 0
	}
	return proj
}

// preWarmReplacement fires one cold-start duration before a serving
// incarnation's walltime drain: if the incarnation is still the one the
// timer was armed for and the pool has standing work and room, its
// replacement starts now — so when the drain fires, the pool hands over to
// a serving sibling instead of parking requests behind a fresh prologue.
// Unlike the watermark branch, a sibling already on the way up does NOT
// block this: in a churning pool that sibling is usually replacing a
// different dying incarnation, and this drain is certain (walltime), not
// speculative. Idle pools deliberately ride the drain down: pre-warming a
// replacement nobody needs would defeat scale-to-cold.
func (d *fedDep) preWarmReplacement(in *fedInstance) {
	if in.State() != fabric.Serving {
		return
	}
	if d.pool.View(len(d.pending), 1).Depth == 0 || d.pool.Len() >= d.f.p.Scale.MaxInstances {
		return
	}
	d.c.stats.PreWarms++
	d.startInstance()
}
