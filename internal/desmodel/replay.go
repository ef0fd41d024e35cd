package desmodel

// Schedule replay: the DES federation executing the *same* recorded churn
// schedule a live cell ran (ROADMAP's sim-vs-real calibration gap). The
// contract is index time: the arrival driver calls ReplayAdvance(i) before
// arrival i, which fires every schedule event due at i — deployment
// hard-kills and cold restarts through the real scheduler path, background
// GPU claims and releases — exactly when the live driver fired them before
// issuing request i. Fault windows need no events: routing draws the same
// pure Windows.Faulty(seed, index, endpoint, attempt) function the live
// endpoints drew, and a real resilience.Breaker per cluster (the live
// gateway's config, on the same logical one-second-per-request clock)
// turns those draws into the same avoidance decisions the live breaker
// trace shows. A drawn fault migrates the request to the next ladder
// candidate the way a live failover re-routes it, so migrations-per-request
// is the twin of the gateway's failover-attempts-per-request.

import (
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/scheduler"
)

// ReplayParams attach a recorded live churn schedule to a Federation.
type ReplayParams struct {
	// Schedule is the executed live plan (sorted events, fault windows,
	// measured arrival rate).
	Schedule chaosnet.Schedule
	// Breaker mirrors the live gateway's per-endpoint breaker so the twin
	// trips, avoids, and re-probes on the same logical clock.
	Breaker resilience.BreakerConfig
	// MaxAttempts mirrors the live failover budget: after this many failed
	// placements the live gateway returns a typed error; the twin stops
	// routing the request the same way (it still completes — the DES
	// conserves requests — but counts no further rungs or migrations).
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
	breakers []*resilience.Breaker
	// bgJobs holds outstanding background claims per cluster, oldest first.
	bgJobs [][]*scheduler.Job
	// seen counts placement attempts per (request index, endpoint) so a
	// re-route re-draws, exactly like the live endpoint's attempt counter.
	seen map[replayKey]int

	sheds     int64 // all-breakers-open: live 503s, twin parks
	exhausted int64 // failover budget spent: live typed errors, twin parks
}

func newFedReplay(f *Federation, p ReplayParams) *fedReplay {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if len(f.clusters) > 64 {
		// routeReplay's avoided set is one uint64: a shift past bit 63
		// would silently avoid nothing.
		panic("desmodel: a replayed federation has at most 64 clusters")
	}
	rp := &fedReplay{
		f:      f,
		p:      p,
		cur:    p.Schedule.Cursor(),
		bgJobs: make([][]*scheduler.Job, len(f.clusters)),
		seen:   make(map[replayKey]int),
	}
	for range f.clusters {
		rp.breakers = append(rp.breakers, resilience.NewBreaker(p.Breaker))
	}
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

// ReplayAdvance fires every scheduled churn event due at or before request
// index idx and advances the logical clock. The open-loop driver calls it
// just before each arrival; it is a no-op without a replay schedule.
func (f *Federation) ReplayAdvance(idx int) {
	rp := f.replay
	if rp == nil {
		return
	}
	rp.nowIdx = idx
	rp.cur.Advance(idx, rp.fire)
}

// ReplayBreakerTrips sums breaker trips across clusters (calibration
// column against the live gateway's trip count). Zero without replay.
func (f *Federation) ReplayBreakerTrips() int64 {
	if f.replay == nil {
		return 0
	}
	var n int64
	for _, b := range f.replay.breakers {
		n += b.Trips()
	}
	return n
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
			insts := append([]*fedInstance(nil), d.insts...)
			for _, in := range insts {
				if in.job != nil {
					c.sched.Fail(in.job.ID)
				}
			}
		}
	case chaosnet.EventRestart:
		// Cold-restart through the real scheduler path, like the live
		// Endpoint.Deploy → Submit → prologue → load.
		for _, d := range c.deps {
			if len(d.insts) == 0 {
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

// routeReplay is route() under the replayed storm. Each placement attempt
// mirrors one live gateway attempt: candidates are filtered through the
// breakers (RouteAvoiding's CanAttempt scan), the chosen rung is counted,
// and the shared fault schedule decides whether the placement sticks. A
// fault — or a dead pool, the live "endpoint does not host" error — votes
// into the breaker and fails the request over to the next candidate.
func (f *Federation) routeReplay(r *Req) {
	rp := f.replay
	idx := r.ID - 1
	m := r.Model
	n := len(f.clusters)
	spec := &f.p.Models[m]
	now := rp.now()
	var avoided uint64
	attempts := 0
	order := make([]int, 0, n)
	for {
		infos := f.scratch[:0]
		order = order[:0]
		for i := 0; i < n; i++ {
			ci := (m + i) % n
			if avoided&(1<<uint(ci)) != 0 || !rp.breakers[ci].CanAttempt(now) {
				continue
			}
			infos = append(infos, f.clusters[ci].endpointInfo(m, spec))
			order = append(order, ci)
		}
		f.scratch = infos[:0]
		if len(infos) == 0 {
			// Every candidate is breaker-open or already failed this
			// request: the live gateway sheds with a 503 and counts no
			// rung. The twin conserves requests, so it parks the request
			// on the first-configured cluster to complete once that pool
			// revives — also without a rung count.
			rp.sheds++
			f.clusters[m%n].deps[m].offer(r)
			return
		}
		sel, reason, err := federation.Select(infos)
		if err != nil {
			panic(err) // unreachable: infos is non-empty
		}
		switch reason {
		case federation.ReasonActive:
			f.rungs.Active++
		case federation.ReasonCapacity:
			f.rungs.Capacity++
		default:
			f.rungs.FirstConf++
		}
		ci := order[sel]
		c := f.clusters[ci]
		if !rp.breakers[ci].Allow(now) {
			// Lost the half-open probe slot between scan and attempt
			// (cannot happen single-threaded, kept for safety).
			avoided |= 1 << uint(ci)
			continue
		}
		attempt := rp.attempt(idx, ci)
		faulty := idx >= 0 &&
			rp.p.Schedule.Windows.Faulty(rp.p.Schedule.Seed, idx, ci, n, attempt)
		placed := len(c.deps[m].insts) > 0 && !faulty
		rp.breakers[ci].Record(now, placed)
		if placed {
			c.stats.Routed++
			c.deps[m].offer(r)
			return
		}
		attempts++
		avoided |= 1 << uint(ci)
		if attempts >= rp.p.MaxAttempts {
			// Retry budget spent: the live request comes back as a typed
			// 502; the twin parks it on the last candidate (it completes
			// when the pool revives) and stops counting, like the live
			// census stops routing it.
			rp.exhausted++
			c.deps[m].offer(r)
			return
		}
		// The live gateway's failover re-route.
		r.Migrations++
		f.migrations++
	}
}
