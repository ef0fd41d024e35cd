package desmodel

import (
	"fmt"

	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
)

// checkRows makes every routing compare each kept ladder row with a fresh
// build from its pool record and panic on a mismatch. Only tests set it.
var checkRows bool

// route applies the real federation.Select priority ladder to the model's
// rows. Each deployment keeps its row current as its state changes, so
// route writes only what moves without the pool seeing — the cluster's free
// GPUs, which background jobs take and release — and reads the rest.
//
//first:hotpath pinned by TestFederationRouteZeroAlloc (federation_test.go)
func (f *Federation) route(r *Req) {
	if f.replay != nil {
		f.routeReplay(r)
		return
	}
	rows, deps := f.ladder(r.Model)
	idx, reason, err := federation.Select(rows)
	if err != nil {
		panic(err) // unreachable: the candidate list is never empty
	}
	f.rungs.count(reason)
	target := &deps[idx]
	target.c.stats.Routed++
	target.offer(r)
}

// count tallies one routing decision on its rung.
func (g *FedRungs) count(reason federation.Reason) {
	switch reason {
	case federation.ReasonActive:
		g.Active++
	case federation.ReasonCapacity:
		g.Capacity++
	default:
		g.FirstConf++
	}
}

// ladder is model m's rows in configuration order, free GPUs read now, and
// the deployments behind them.
func (f *Federation) ladder(m int) ([]federation.EndpointInfo, []fedDep) {
	n := len(f.clusters)
	rows, deps := f.rows[m*n:(m+1)*n], f.deps[m*n:(m+1)*n]
	for i := range rows {
		rows[i].FreeGPUs = deps[i].c.cl.Status().FreeGPUs
	}
	if checkRows {
		mustMatchFresh(rows, deps)
	}
	return rows, deps
}

// sync re-reads d's ladder row from its pool record. Every lifecycle
// transition calls it before anything can route.
func (d *fedDep) sync() {
	var rec fabric.PoolRecord
	d.pool.Record(len(d.pending), &rec)
	d.row.ModelState, d.row.Depth = rec.State, rec.Depth
	d.row.Instances, d.row.Cordoned = rec.Ready, rec.Cordoned
}

// mustMatchFresh rebuilds every row from its pool record and panics with
// both when the kept one differs.
func mustMatchFresh(rows []federation.EndpointInfo, deps []fedDep) {
	for i := range rows {
		kept := rows[i]
		if deps[i].sync(); rows[i] != kept {
			panic(fmt.Sprintf("desmodel: ladder row at %v\n kept  %+v\n fresh %+v", deps[i].f.k.Now(), kept, rows[i]))
		}
	}
}
