package fabric

import (
	"time"

	"github.com/argonne-first/first/internal/scheduler"
)

// State is a pool member's place in the §3.2.2 instance lifecycle.
type State uint8

const (
	Queued   State = iota // job submitted: waiting for nodes, or in the prologue
	Loading               // nodes granted, weights loading
	Serving               // accepting and serving work
	Draining              // takes no new work; its job ends once its engine is empty
	Dead                  // removed from the pool
)

// Engine is what a pool reads of a serving member's engine: its
// waiting+running depth.
type Engine interface{ Depth() int }

// Member is one instance's lifecycle record. A driver's instance type embeds
// it; only the guarded transitions below and Pool.Remove move its state, so a
// callback that fires after its instance moved on finds the guard false.
type Member struct {
	// Job is the instance's scheduler job: nil for a hot member, and on the
	// live side until Submit returns.
	Job *scheduler.Job

	state State
	// eng is the engine Serve opened the member on. Nil is an engine whose
	// load is not visible (an embedding engine): it reads as depth 0 and is
	// never a scale-down victim.
	eng      Engine
	cordoned bool
	drainAt  time.Duration
}

func (m *Member) member() *Member { return m }

// State returns the member's lifecycle position.
func (m *Member) State() State { return m.state }

// Load moves a queued member to Loading: the scheduler granted its nodes.
func (m *Member) Load() bool { return m.move(Queued, Loading) }

// Serve opens a loading member for work on eng.
func (m *Member) Serve(eng Engine) bool {
	if !m.move(Loading, Serving) {
		return false
	}
	m.eng = eng
	return true
}

// Cordon flags a serving member whose drain is due at drainAt (on the
// driver's clock): Pick passes it over while an uncordoned sibling serves,
// and the pool's record advertises only uncordoned capacity.
func (m *Member) Cordon(drainAt time.Duration) bool {
	if m.state != Serving {
		return false
	}
	m.cordoned, m.drainAt = true, drainAt
	return true
}

// Drain stops a serving member taking new work. The driver ends its job once
// the engine is empty.
func (m *Member) Drain() bool { return m.move(Serving, Draining) }

func (m *Member) move(from, to State) bool {
	if m.state != from {
		return false
	}
	m.state = to
	return true
}

func (m *Member) depth() int {
	if m.eng == nil {
		return 0
	}
	return m.eng.Depth()
}

// queuedAtScheduler reports a member whose job still waits in the scheduler
// queue: it holds no GPUs and no work, so releasing it costs nothing. One in
// the prologue holds its allocation and is about to serve.
func (m *Member) queuedAtScheduler() bool {
	return m.state == Queued && m.Job != nil && m.Job.State() == scheduler.Queued
}

// Instance is a driver's instance type: a pointer to a struct that embeds
// Member.
type Instance interface{ member() *Member }

// Pool is one deployment's members in launch order and every rule both
// drivers apply to them: the lifecycle states, the least-loaded pick, the
// record the router reads, the view Decide reads and the scale-down victim.
// It is a plain value with no clock, goroutine or lock: fabric.Deployment
// carries its answers out on goroutines under its own lock, desmodel's
// deployments as kernel events. Launch order breaks every tie, so both
// drivers choose the same member from the same pool.
type Pool[I Instance] struct {
	ms  []*Member
	ins []I // ins[i] embeds ms[i]
}

// Add appends a member that has just submitted its job.
func (p *Pool[I]) Add(in I) { p.add(in, Queued, nil) }

// AddHot appends a member serving on eng from the start, outside the
// scheduler (§3.2.2's hot nodes).
func (p *Pool[I]) AddHot(in I, eng Engine) { p.add(in, Serving, eng) }

func (p *Pool[I]) add(in I, s State, eng Engine) {
	m := in.member()
	m.state, m.eng = s, eng
	p.ms = append(p.ms, m)
	p.ins = append(p.ins, in)
}

// Remove marks a member Dead and detaches it, keeping launch order. It
// reports false for a member already removed.
func (p *Pool[I]) Remove(in I) bool {
	m := in.member()
	for i, x := range p.ms {
		if x == m {
			copy(p.ms[i:], p.ms[i+1:])
			copy(p.ins[i:], p.ins[i+1:])
			var zero I
			p.ms[len(p.ms)-1], p.ins[len(p.ins)-1] = nil, zero
			p.ms, p.ins = p.ms[:len(p.ms)-1], p.ins[:len(p.ins)-1]
			m.state = Dead
			return true
		}
	}
	return false
}

// Len counts the members, draining ones included.
func (p *Pool[I]) Len() int { return len(p.ms) }

// Members lists the members in launch order. The slice is the pool's own:
// read it before the next Add or Remove.
func (p *Pool[I]) Members() []I { return p.ins }

// Pick is the member a new request goes to: the least-loaded serving member,
// the earliest launched on a tie. A cordoned member is passed over while any
// uncordoned one serves and taken only as the last resort, since capacity
// that exists must never park a request. The zero I means nothing serves.
//
//first:hotpath pinned by TestPoolZeroAlloc (pool_test.go)
func (p *Pool[I]) Pick() I {
	best, cordoned := -1, -1
	var bestDepth, cordonedDepth int
	for i, m := range p.ms {
		if m.state != Serving {
			continue
		}
		d := m.depth()
		if m.cordoned {
			if cordoned < 0 || d < cordonedDepth {
				cordoned, cordonedDepth = i, d
			}
		} else if best < 0 || d < bestDepth {
			best, bestDepth = i, d
		}
	}
	if best < 0 {
		best = cordoned
	}
	if best < 0 {
		var none I
		return none
	}
	return p.ins[best]
}

// PoolRecord is what a pool tells the router (federation.EndpointInfo) and
// GET /jobs, read in one pass.
type PoolRecord struct {
	// State is the §4.3 roll-up: "running" if any member serves, else
	// "starting" if any loads or is in the scheduler's prologue, else
	// "queued" if any waits at the scheduler, else "cold".
	State string
	// Running, Starting and Queued count the members in each of those
	// states. A draining member counts in none: it must not attract work.
	Running, Starting, Queued int
	// Depth is the parked requests plus every serving member's
	// waiting+running load; a draining member's batch occupies no capacity
	// a new request could wait for.
	Depth int
	// Ready counts the uncordoned serving members: the capacity worth
	// advertising. A queued or loading member is minutes away from helping.
	Ready int
	// Cordoned says serving capacity exists and all of it is cordoned.
	Cordoned bool
	// DrainAt is the soonest cordoned member's drain time on the driver's
	// clock, zero when none is cordoned.
	DrainAt time.Duration
}

// Record reads the pool's record into r; parked is the demand waiting for a
// serving member. With no member cordoned it reduces to the drain-blind
// ladder inputs. The router's row is written on every routing, so the record
// is filled in place rather than returned.
//
//first:hotpath pinned by TestPoolZeroAlloc (pool_test.go)
func (p *Pool[I]) Record(parked int, r *PoolRecord) {
	*r = PoolRecord{Depth: parked}
	for _, m := range p.ms {
		switch m.state {
		case Queued:
			// The prologue counts as starting: the nodes are acquired.
			if m.Job != nil && m.Job.State() == scheduler.Starting {
				r.Starting++
			} else {
				r.Queued++
			}
		case Loading:
			r.Starting++
		case Serving:
			r.Running++
			r.Depth += m.depth()
			if !m.cordoned {
				r.Ready++
			} else if r.Running-r.Ready == 1 || m.drainAt < r.DrainAt {
				r.DrainAt = m.drainAt // the first cordoned member, or a sooner one
			}
		}
	}
	r.Cordoned = r.Running > 0 && r.Ready == 0
	switch {
	case r.Running > 0:
		r.State = "running"
	case r.Starting > 0:
		r.State = "starting"
	case r.Queued > 0:
		r.State = "queued"
	default:
		r.State = "cold"
	}
}

// View is what Decide reads of the pool. parked is the demand waiting for a
// serving member; floor is the fewest live members a release may leave
// (the live MinInstances; 1 in the DES). A release needs a victim, a pool
// above its floor and no parked demand: nothing serves that demand yet, so
// a shrink would only delay the member that will absorb it.
func (p *Pool[I]) View(parked, floor int) PoolView {
	v := PoolView{Members: len(p.ms), Depth: parked}
	victim := false
	for _, m := range p.ms {
		switch m.state {
		case Draining:
			continue
		case Queued, Loading:
			v.Upcoming = true
			victim = victim || m.queuedAtScheduler()
		case Serving:
			v.Depth += m.depth()
			victim = victim || m.eng != nil
		}
		v.Live++
	}
	v.Releasable = victim && v.Live > floor && parked == 0
	return v
}

// Victim is the member a scale-down releases: the earliest one still queued
// at the scheduler, which the driver cancels, else the emptiest serving
// member (the earliest launched on a tie), which it drains. A member whose
// engine load is not visible is never chosen. The zero I means none.
func (p *Pool[I]) Victim() I {
	for i, m := range p.ms {
		if m.queuedAtScheduler() {
			return p.ins[i]
		}
	}
	best, bestDepth := -1, 0
	for i, m := range p.ms {
		if m.state != Serving || m.eng == nil {
			continue
		}
		if d := m.eng.Depth(); best < 0 || d < bestDepth {
			best, bestDepth = i, d
		}
	}
	if best < 0 {
		var none I
		return none
	}
	return p.ins[best]
}
