package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/sim"
)

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
