package desmodel

import (
	"os"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/fabric"
)

// TestMain runs every desmodel test with checkRows on: each routing checks
// every kept ladder row against a fresh build from its pool record.
func TestMain(m *testing.M) {
	checkRows = true
	os.Exit(m.Run())
}

// SetIgnoreOffer flips the test-only hook that makes every EngineSim step
// once per iteration (see ignoreOffer); external tests use it to show whole
// experiment families do not depend on the offer being taken.
func SetIgnoreOffer(on bool) { ignoreOffer = on }

// routingView is what the routing ladder's row for d says of its capacity
// (the uncordoned serving count and whether all of it is cordoned), and how
// far away the pool record's soonest cordoned drain is.
func (d *fedDep) routingView() (serving int, cordoned bool, drainingAt time.Duration) {
	return d.row.Instances, d.row.Cordoned, max(d.record().DrainAt-d.f.k.Now(), 0)
}

// record reads d's pool record as the router does.
func (d *fedDep) record() (r fabric.PoolRecord) {
	d.pool.Record(len(d.pending), &r)
	return r
}
