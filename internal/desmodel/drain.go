package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
)

// maybeFinishDrain schedules the drain completion once the instance has
// nothing live: no queued or running work and no in-flight delivery (a miss
// on the latter would tear the job down with completions undelivered). Runs
// on a zero-delay event so every completion delivered by the current engine
// iteration reaches the client before the job is released.
func (in *fedInstance) maybeFinishDrain() {
	if in.drainDone || in.eng.Depth() != 0 || in.eng.DeliveryPending() {
		return
	}
	in.drainDone = true
	in.d.f.k.Schedule(0, in.finishDrain)
}

// beginDrain stops the instance accepting work: its engine-waiting requests
// are pulled back and migrated, and the running batch finishes before the
// job is released. Two callers share it: the serve-walltime expiring
// (scaleDown=false, with DrainGrace before the scheduler's walltime timer
// hard-kills the job) and the auto-scaler shrinking an underused pool
// (scaleDown=true — the same machinery, counted separately).
func (in *fedInstance) beginDrain(scaleDown bool) {
	if !in.Drain() {
		return
	}
	d := in.d
	in.eng.depthSink = nil // a draining member counts in no depth
	d.sync()
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
	in.maybeFinishDrain()
}

// finishDrain releases the drained job back to the scheduler (Completed).
func (in *fedInstance) finishDrain() {
	if in.State() == fabric.Draining {
		in.d.c.sched.Complete(in.Job.ID)
	}
}

// onJobEnd is the scheduler's terminal callback: graceful drain completion
// (Completed), an auto-scaler cancel of a still-queued incarnation
// (Cancelled), or the real walltime timer firing with a live batch
// (TimedOut). Either way the incarnation is harvested and leaves the pool;
// survivors migrate, and pending demand with no pool left re-routes (which
// cold-restarts the deployment if the ladder sends it back).
func (in *fedInstance) onJobEnd(terminal scheduler.State) {
	d := in.d
	if !d.pool.Remove(in) {
		return
	}
	f := d.f
	spec := f.p.Models[d.model]
	// TimedOut is the walltime timer firing on a live batch; Failed is a
	// replayed kill event through scheduler.Fail. Both die hard: waiting,
	// running, and undelivered work is orphaned and must migrate.
	hardKill := terminal == scheduler.TimedOut || terminal == scheduler.Failed
	var orphans []*Req
	if in.eng != nil {
		in.eng.depthSink = nil
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
	var pend []*Req
	if d.pool.Len() == 0 {
		pend, d.pending = d.pending, nil
	}
	d.sync()
	for _, r := range pend {
		d.c.migrateFrom(r)
	}
	for _, r := range orphans {
		d.c.migrateFrom(r)
	}
}

// migrateFrom re-routes a request whose placement on this cluster died.
func (c *fedCluster) migrateFrom(r *Req) {
	r.Migrations++
	c.f.migrations++
	c.f.route(r)
}
