package desmodel

// Schedule replay: the DES federation executing the *same* recorded churn
// schedule a live cell ran (ROADMAP's sim-vs-real calibration gap). Its time
// base is the request index: Federation.Arrive counts its arrivals, and
// before it takes arrival i it fires every schedule event due at i —
// deployment hard-kills and cold restarts through the real scheduler path,
// background GPU claims and releases — exactly when the live driver fired
// them before issuing request i. Fault windows need no events: each
// placement draws the same pure Windows.Faulty(seed, index, endpoint,
// attempt) function the live endpoints drew.
//
// Routing is the live gateway's own failover walk: federation.Walk over the
// model's ladder rows, filtered through a resilience.Set keyed by cluster
// name (the live gateway's breaker config, on the same logical
// one-second-per-request clock), so the twin trips, avoids and re-probes
// where the live breaker trace does. A drawn fault — or a dead pool, the
// live "endpoint does not host" error — votes into the breaker and fails
// the request over to the walk's next pick, so migrations-per-request is
// the twin of the gateway's failover-attempts-per-request. A request the
// walk sheds or exhausts fails, as the live gateway's 503 or typed 502
// does: it reaches done unserved, with Failed set.
//
// Under a replay every request reaches done through the hand-off pipe, in
// an event of its own. A closed-loop driver issues its next request from
// done, and that Arrive may fire a kill: inline, it would tear an engine
// down inside its own delivery, or recurse Arrive → done → Arrive through a
// run of failures.

import (
	"errors"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/scheduler"
)

// ReplayParams attach a recorded live churn schedule to a Federation.
type ReplayParams struct {
	// Schedule is the executed live plan (sorted events, fault windows).
	Schedule chaosnet.Schedule
	// Breaker mirrors the live gateway's per-endpoint breaker so the twin
	// trips, avoids, and re-probes on the same logical clock.
	Breaker resilience.BreakerConfig
	// MaxAttempts mirrors the live failover budget: after this many failed
	// placements the live gateway returns a typed error, and the twin fails
	// the request.
	MaxAttempts int
}

// replayEpoch anchors the logical breaker clock; the value is arbitrary,
// only deltas matter, but it matches the live harness for readable traces.
var replayEpoch = time.Unix(1_700_000_000, 0)

type replayKey struct{ idx, ep int }

// fedReplay is the per-run replay state.
type fedReplay struct {
	f        *Federation
	p        ReplayParams
	cur      *chaosnet.Cursor
	nowIdx   int
	breakers *resilience.Set // keyed by cluster name, the ladder rows' ID
	// bgJobs holds outstanding background claims per cluster, oldest first.
	bgJobs [][]*scheduler.Job
	// seen counts placement attempts per (request index, endpoint) so a
	// re-route re-draws, exactly like the live endpoint's attempt counter.
	seen map[replayKey]int

	// handoff takes every finished or failed request to the driver's done
	// in an event of its own.
	handoff pipe

	sheds     int64 // every untried candidate breaker-open: live 503s, twin failures
	exhausted int64 // budget spent or every candidate tried: live typed 502s, twin failures
}

func newFedReplay(f *Federation, p ReplayParams, done func(*Req)) *fedReplay {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if len(f.clusters) > federation.MaxEndpoints {
		// A Walk's tried set is one uint64: a shift past bit 63 would
		// silently avoid nothing.
		panic("desmodel: a replayed federation has more clusters than federation.MaxEndpoints")
	}
	rp := &fedReplay{
		f:        f,
		p:        p,
		cur:      p.Schedule.Cursor(),
		breakers: resilience.NewSet(p.Breaker),
		bgJobs:   make([][]*scheduler.Job, len(f.clusters)),
		seen:     make(map[replayKey]int),
	}
	if done == nil {
		done = func(*Req) {}
	}
	rp.handoff.init(f.k, 0, 0, done)
	return rp
}

// now is the logical breaker clock: one second per arrived request, the
// same tick the live harness advances per issued request.
func (rp *fedReplay) now() time.Time {
	return replayEpoch.Add(time.Duration(rp.nowIdx+1) * time.Second)
}

func (rp *fedReplay) attempt(idx, ep int) int {
	k := replayKey{idx, ep}
	a := rp.seen[k]
	rp.seen[k] = a + 1
	return a
}

// advance fires every scheduled churn event due at or before request index
// idx and advances the logical clock. Federation.Arrive calls it with its
// own arrival count before it stamps the request.
func (rp *fedReplay) advance(idx int) {
	rp.nowIdx = idx
	rp.cur.Advance(idx, rp.fire)
}

// Failures counts the requests a replay failed: sheds plus exhausted
// failover budgets. Zero without replay.
func (f *Federation) Failures() int64 {
	if f.replay == nil {
		return 0
	}
	return f.replay.sheds + f.replay.exhausted
}

// ReplayBreakerTrips sums breaker trips across clusters (calibration
// column against the live gateway's trip count). Zero without replay.
func (f *Federation) ReplayBreakerTrips() int64 {
	if f.replay == nil {
		return 0
	}
	return f.replay.breakers.Trips()
}

func (rp *fedReplay) fire(ev chaosnet.Event) {
	if ev.Endpoint < 0 || ev.Endpoint >= len(rp.f.clusters) {
		return
	}
	c := rp.f.clusters[ev.Endpoint]
	switch ev.Kind {
	case chaosnet.EventKill:
		// Tear down every incarnation through the scheduler's explicit
		// failure path: onJobEnd sees Failed, harvests orphans, and
		// migrates them — the twin of Endpoint.Undeploy killing in-flight
		// work on the live side.
		for _, d := range c.deps {
			for _, in := range append([]*fedInstance(nil), d.pool.Members()...) {
				if in.Job != nil {
					c.sched.Fail(in.Job.ID)
				}
			}
		}
	case chaosnet.EventRestart:
		// Cold-restart through the real scheduler path, like the live
		// Endpoint.Deploy → Submit → prologue → load.
		for _, d := range c.deps {
			if d.pool.Len() == 0 {
				d.startInstance()
			}
		}
	case chaosnet.EventBGClaim:
		if ev.GPUs <= 0 {
			return
		}
		job, err := c.sched.Submit(scheduler.JobSpec{
			Name: "science-batch", User: "bg", GPUs: ev.GPUs,
			// Held until the matching release event, not a walltime: the
			// schedule's index clock is the shared time base.
			Walltime: 0,
		})
		if err != nil {
			panic(err)
		}
		rp.bgJobs[ev.Endpoint] = append(rp.bgJobs[ev.Endpoint], job)
		c.noteQueued()
	case chaosnet.EventBGRelease:
		if q := rp.bgJobs[ev.Endpoint]; len(q) > 0 {
			job := q[0]
			rp.bgJobs[ev.Endpoint] = q[1:]
			c.sched.Cancel(job.ID)
		}
	}
}

// routeReplay is route() under the replayed storm: it drives a
// federation.Walk with the MaxAttempts budget. Each pick is one live
// gateway attempt: its rung is counted, and the shared fault schedule
// decides whether the placement sticks. A fault — or a dead pool, the live
// "endpoint does not host" error — votes into the breaker and fails the
// request over. A request the walk sheds or exhausts fails.
func (f *Federation) routeReplay(r *Req) {
	rp := f.replay
	idx := r.ID - 1
	m := r.Model
	n := len(f.clusters)
	rows, deps := f.ladder(m)
	now := rp.now()
	walk := federation.Walk{Budget: rp.p.MaxAttempts}
	for {
		i, reason, err := walk.Next(rows, rp.breakers, now)
		if errors.Is(err, federation.ErrNoCandidates) {
			// Tried everywhere: the live request comes back as the last
			// attempt's typed 502.
			rp.exhausted++
			break
		}
		if err != nil {
			// Every untried candidate is breaker-open: the live gateway
			// sheds with a 503 and counts no rung.
			rp.sheds++
			break
		}
		f.rungs.count(reason)
		ci := (m + i) % n
		d := &deps[i]
		attempt := rp.attempt(idx, ci)
		faulty := idx >= 0 &&
			rp.p.Schedule.Windows.Faulty(rp.p.Schedule.Seed, idx, ci, n, attempt)
		placed := d.pool.Len() > 0 && !faulty
		rp.breakers.Record(rows[i].ID, now, placed)
		if placed {
			d.c.stats.Routed++
			d.offer(r)
			return
		}
		if !walk.Fail() {
			// Retry budget spent: the live request comes back as a typed
			// 502.
			rp.exhausted++
			break
		}
		// The live gateway's failover re-route.
		r.Migrations++
		f.migrations++
	}
	r.Failed = true
	rp.handoff.push(r)
}
