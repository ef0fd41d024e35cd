package desmodel

import (
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/perfmodel"
)

// route applies the real federation.Select priority ladder over live
// snapshots of every cluster's deployment and inventory state.
//
//first:hotpath pinned by TestFederationRouteZeroAlloc (federation_test.go)
func (f *Federation) route(r *Req) {
	if f.replay != nil {
		f.routeReplay(r)
		return
	}
	m := r.Model
	n := len(f.clusters)
	spec := &f.p.Models[m]
	infos := f.scratch
	for i := range infos {
		f.clusters[(m+i)%n].endpointInfo(&infos[i], m, spec)
	}
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

// endpointInfo writes one cluster's routing-ladder candidate row into e, read
// from the cluster's live state at the routing instant: the inventory's
// status and the deployment pool's record. Every field is written, so e
// needs no clearing between routings.
func (c *fedCluster) endpointInfo(e *federation.EndpointInfo, m int, spec *perfmodel.ModelSpec) {
	d := c.deps[m]
	var rec fabric.PoolRecord
	d.pool.Record(len(d.pending), &rec)
	e.ID = c.name
	e.ModelState = rec.State
	e.FreeGPUs = c.cl.Status().FreeGPUs
	e.NeededGPUs = spec.TensorParallel
	e.Depth = rec.Depth
	e.Instances, e.Cordoned = rec.Ready, rec.Cordoned
	e.DrainingAt = max(rec.DrainAt-c.f.k.Now(), 0)
}
