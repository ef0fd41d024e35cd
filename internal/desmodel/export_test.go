package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
)

// SetIgnoreOffer flips the test-only hook that makes every EngineSim step
// once per iteration (see ignoreOffer); external tests use it to show whole
// experiment families do not depend on the offer being taken.
func SetIgnoreOffer(on bool) { ignoreOffer = on }

// routingView is what the routing ladder's row for d says of its capacity:
// the uncordoned serving count, whether all of it is cordoned, and how far
// away the soonest cordoned drain is.
func (d *fedDep) routingView() (serving int, cordoned bool, drainingAt time.Duration) {
	var e federation.EndpointInfo
	d.c.endpointInfo(&e, d.model, &d.f.p.Models[d.model])
	return e.Instances, e.Cordoned, e.DrainingAt
}

// record reads d's pool record as the router does.
func (d *fedDep) record() (r fabric.PoolRecord) {
	d.pool.Record(len(d.pending), &r)
	return r
}
