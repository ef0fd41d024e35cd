package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/scheduler"
)

// AutoScaleParams tune the Fig4-style auto-scaler: each (cluster, model)
// deployment is a pool of 1..MaxInstances engine incarnations, grown when
// sustained backlog exceeds a high-water mark and shrunk when the pool sits
// under a low-water mark — every growth step paying the scheduler's real
// Queued→Starting→Running cold-start path, every shrink step reusing the
// drain/migrate machinery (or cancelling an incarnation still queued at the
// scheduler, which is free).
//
// The watermarks are queue depth per live instance — the aggregate
// utilization proxy the routing layer already exposes: an instance pool with
// depth below LoWater×instances is mostly idle, one above HiWater×instances
// is falling behind. Both directions require the condition to hold for a
// sustained window (HiSustain/LoSustain consecutive Interval ticks) so a
// single bursty interval cannot thrash the pool.
type AutoScaleParams struct {
	// MaxInstances caps the pool (counting queued, loading, serving, and
	// draining incarnations). ≤ 1 disables the scaler: pools are pinned at
	// one demand-driven instance, the pre-autoscaler behaviour.
	MaxInstances int
	// Interval is the policy evaluation cadence (one deterministic kernel
	// event per cluster per interval).
	Interval time.Duration
	// HiWater is the queue depth per live instance above which the pool is
	// falling behind; LoWater the depth below which it is underused.
	// withDefaults clamps LoWater to HiWater/2: with the bands overlapping,
	// a scale-up's depth (> HiWater×live) could immediately satisfy the
	// scale-down condition at live+1 and the pool would oscillate forever,
	// cancelling every incarnation before its prologue completes — a
	// livelock the randomized property sweep actually caught.
	HiWater float64
	LoWater float64
	// HiSustain / LoSustain are how many consecutive ticks the condition
	// must hold before the scaler acts.
	HiSustain int
	LoSustain int

	// Predictive arms the forecast-driven pre-warm paths (doc.go
	// "Predictive scaling & drain-aware routing"): each deployment feeds a
	// Holt forecaster with per-tick arrival counts and starts an
	// incarnation early when the projection one cold-start ahead crosses
	// HiWater — and pre-warms a replacement one cold-start before a
	// serving incarnation's walltime drain. False (the zero value) keeps
	// the purely reactive PR 5 policy byte-for-byte.
	Predictive bool
	// ForecastAlpha / ForecastBeta are the Holt smoothing coefficients
	// (level / trend) for the arrival forecaster; zero values take the
	// forecast defaults. Only read when Predictive is set.
	ForecastAlpha float64
	ForecastBeta  float64
}

// DefaultAutoScaleParams are the autoscale experiment family's knobs: grow
// past 16 queued per instance held for 2 ticks, shrink under 2 per instance
// held for 4 ticks, evaluated every 10 s, up to 4 instances per model.
func DefaultAutoScaleParams() AutoScaleParams {
	return AutoScaleParams{
		MaxInstances: 4,
		Interval:     10 * time.Second,
		HiWater:      16,
		LoWater:      2,
		HiSustain:    2,
		LoSustain:    4,
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
	// shrink condition on the next tick.
	if s.LoWater > s.HiWater/2 {
		s.LoWater = s.HiWater / 2
	}
	if s.HiSustain <= 0 {
		s.HiSustain = d.HiSustain
	}
	if s.LoSustain <= 0 {
		s.LoSustain = d.LoSustain
	}
	if s.Predictive {
		if s.ForecastAlpha <= 0 || s.ForecastAlpha > 1 {
			s.ForecastAlpha = defaultForecastAlpha
		}
		if s.ForecastBeta <= 0 || s.ForecastBeta > 1 {
			s.ForecastBeta = defaultForecastBeta
		}
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

// liveCount is the pool's accepting-traffic membership: queued, loading, or
// serving incarnations. Draining ones are on their way out.
func (d *fedDep) liveCount() int {
	n := 0
	for _, in := range d.insts {
		if in.state != instDraining {
			n++
		}
	}
	return n
}

// notePool records pool growth against the per-dep and per-cluster peaks
// (the property suite's [1, MaxInstances] bound and the report's
// peak-instances column).
func (d *fedDep) notePool() {
	if n := len(d.insts); n > d.peakPool {
		d.peakPool = n
	}
	total := 0
	for _, dep := range d.c.deps {
		total += len(dep.insts)
	}
	if total > d.c.stats.PeakInstances {
		d.c.stats.PeakInstances = total
	}
}

// scaleTick is one policy evaluation for this deployment pool. The decision
// path is allocation-free; only an actual scale-up allocates (the new
// incarnation and its scheduler job).
//
//first:hotpath pinned by the scaler AllocsPerRun sweep (autoscale_test.go)
func (d *fedDep) scaleTick() {
	p := &d.f.p.Scale
	live := d.liveCount()
	if live != d.lastLive {
		// The pool changed size through any path since the last tick — a
		// drain-driven shrink, a hard kill, a demand-driven start. A streak
		// measured against the old size must not trigger an immediate
		// decision against the new one: both watermarks are per-instance,
		// so the condition has to re-prove itself at the new denominator.
		// The refusal latch deliberately survives this reset: a pool pinned
		// at MaxInstances under one standing backlog churns through walltime
		// drains and replacements without the episode ever ending, and each
		// churn re-counting the same refusal would inflate ScaleRefused in
		// proportion to churn rate rather than demand.
		d.hiStreak, d.loStreak = 0, 0
		d.lastLive = live
	}
	if p.Predictive {
		// One sample per tick: arrivals routed here and completions served
		// here since the previous evaluation. Observed before any early
		// return so the forecast state never gaps.
		d.fcArrive.Observe(float64(d.arrivedTick))
		d.fcServe.Observe(float64(d.servedTick))
		d.arrivedTick, d.servedTick = 0, 0
	}
	if live == 0 {
		// Nothing running and nothing on the way: demand-driven starts own
		// this regime; the scaler only resets its hysteresis.
		d.hiStreak, d.loStreak = 0, 0
		d.hiRefused, d.hiBreak = false, 0
		return
	}
	depth := float64(d.depth())
	if depth > p.HiWater*float64(live) {
		d.loStreak, d.hiBreak = 0, 0
		if d.hiStreak++; d.hiStreak >= p.HiSustain {
			d.hiStreak = 0
			if len(d.insts) < p.MaxInstances {
				// Deliberately not clearing hiRefused: a walltime drain can
				// dip a capped pool below MaxInstances mid-peak, and the
				// refill that follows is the same standing episode, not a
				// new one. Only the condition breaking ends the episode.
				d.c.stats.ScaleUps++
				d.startInstance()
			} else if !d.hiRefused {
				// One refusal per sustained episode: the pool is pinned at
				// MaxInstances and re-counting the same standing condition
				// every HiSustain window would inflate ScaleRefused without
				// carrying information. The latch clears only once the
				// condition has been gone for HiSustain ticks — neither
				// pool churn at the cap nor a one-tick flap of the
				// watermark ends the episode.
				d.hiRefused = true
				d.c.stats.ScaleRefused++
			}
		}
		return
	}
	d.hiStreak = 0
	if d.hiRefused {
		// Symmetric hysteresis on the way out: the episode only ends after
		// the hi condition stays absent as long as it had to stand to act.
		if d.hiBreak++; d.hiBreak >= p.HiSustain {
			d.hiRefused, d.hiBreak = false, 0
		}
	}
	if p.Predictive && len(d.insts) < p.MaxInstances && !d.hasUpcoming() &&
		d.projectedDepth(depth, live) > p.HiWater*float64(live) {
		// The reactive condition does not hold yet, but the forecast one
		// cold-start ahead says it will: start the incarnation now so it is
		// serving — not queued behind a prologue — when the backlog lands.
		d.loStreak = 0
		d.c.stats.PreWarms++
		d.startInstance()
		return
	}
	if live > 1 && depth < p.LoWater*float64(live) {
		if d.loStreak++; d.loStreak >= p.LoSustain {
			if d.tryScaleDown() {
				d.loStreak = 0
			} else {
				// No drainable candidate this tick (everything mid-load):
				// stay armed and retry next interval.
				d.loStreak = p.LoSustain
			}
		}
	} else {
		d.loStreak = 0
	}
}

// hasUpcoming reports whether an incarnation is already on its way up
// (queued at the scheduler or loading weights). The predictive paths
// refuse to stack a second cold start behind one in flight: the forecast
// cannot know how much of the projected backlog the upcoming instance
// will absorb until it serves.
func (d *fedDep) hasUpcoming() bool {
	for _, in := range d.insts {
		if in.state == instQueued || in.state == instLoading {
			return true
		}
	}
	return false
}

// projectedDepth is the forecast queue depth one cold-start horizon ahead:
// today's depth, plus the arrivals the Holt forecaster expects during the
// horizon, minus the completions the service-rate EWMA expects the current
// pool to absorb. The horizon is the deployment's full cold-start duration
// (prologue + weights load) expressed in scaler ticks — exactly the lead
// time a scale-up decision needs to hide.
func (d *fedDep) projectedDepth(depth float64, live int) float64 {
	p := &d.f.p.Scale
	h := int(d.coldStart / p.Interval)
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
func (d *fedDep) preWarmReplacement(j *scheduler.Job, in *fedInstance) {
	if in.job != j || in.state != instServing {
		return
	}
	if d.depth() == 0 || len(d.insts) >= d.f.p.Scale.MaxInstances {
		return
	}
	d.c.stats.PreWarms++
	d.startInstance()
}

// tryScaleDown shrinks the pool by one: it cancels an incarnation still
// queued at the scheduler when one exists (free — no GPUs held, no work
// placed), otherwise drains the emptiest serving instance through the
// regular drain/migrate machinery. It never targets the pool's only live
// instance — a model with waiting work keeps at least one incarnation.
func (d *fedDep) tryScaleDown() bool {
	if d.liveCount() <= 1 {
		return false
	}
	if len(d.pending) > 0 {
		// Parked demand means nothing serves yet: shrinking now would only
		// delay the incarnation that will absorb it.
		return false
	}
	for _, in := range d.insts {
		if in.state == instQueued && in.job.State() == scheduler.Queued {
			// Only jobs still waiting in the scheduler queue are cancelled;
			// one that reached Starting holds its allocation and is about to
			// serve — killing it would forfeit the prologue already paid
			// (and, under a thrashing config, could starve the model).
			d.c.stats.ScaleDowns++
			// Cancel ends the job synchronously: onJobEnd detaches the
			// incarnation before this returns.
			d.c.sched.Cancel(in.job.ID)
			return true
		}
	}
	var victim *fedInstance
	for _, in := range d.insts {
		if in.state == instServing && (victim == nil || in.eng.Depth() < victim.eng.Depth()) {
			victim = in
		}
	}
	if victim == nil {
		return false // every live instance is still loading; retry next tick
	}
	victim.beginDrain(victim.job, true)
	return true
}
