package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// FirstParams are the calibrated overheads of the FIRST request path. The
// defaults reproduce the deployed system after all three §5.3.1
// optimizations; the ablation fields (AuthIntrospect, PollInterval,
// SyncWorkers) switch individual optimizations back off.
type FirstParams struct {
	// GatewayOverhead is the gateway's per-request processing cost.
	GatewayOverhead time.Duration
	// AuthIntrospect adds a per-request Globus Auth round trip
	// (Optimization 2 OFF). Zero means the token cache absorbs it.
	AuthIntrospect time.Duration
	// AuthRatePerSec caps introspections per second (service-side Globus
	// rate limiting observed before caching); excess requests queue on a
	// serialized limiter lane. 0 = unlimited.
	AuthRatePerSec float64
	// HubSubmit is the gateway→cloud submission round trip.
	HubSubmit time.Duration
	// HubDispatchCost is the hub's serialized per-task routing cost (the
	// fabric throughput ceiling the paper hits in Fig. 4).
	HubDispatchCost time.Duration
	// HubRelayCost is the hub's serialized per-result relay cost.
	HubRelayCost time.Duration
	// EndpointPickup is the endpoint's task-fetch delay.
	EndpointPickup time.Duration
	// ResultReturn is the endpoint→hub→gateway result latency.
	ResultReturn time.Duration
	// Window bounds concurrent in-flight requests at the gateway —
	// Gunicorn's cpu_count×2+1 workers × 4 threads ≈ 428 in the paper's
	// deployment (§5.2.2). SyncWorkers>0 overrides it with the legacy
	// synchronous pool (Optimization 3 OFF). <= 0 means unlimited.
	Window int
	// SyncWorkers, when > 0, replaces Window with the pre-async pool of
	// blocking workers ("only nine requests could be processed at a
	// time").
	SyncWorkers int
	// PollInterval, when > 0, makes results observable only on a polling
	// grid anchored at gateway admission (Optimization 1 OFF; the paper
	// polled every 2 s).
	PollInterval time.Duration
	// Routing selects the multi-instance dispatch policy (ablation of the
	// design choice): RouteLeastLoaded (default), RouteRoundRobin, or
	// RouteRandom.
	Routing RoutingPolicy
}

// RoutingPolicy selects how the fabric spreads tasks over instances.
type RoutingPolicy int

const (
	// RouteLeastLoaded dispatches to the instance with the smallest
	// waiting+running depth (the production policy).
	RouteLeastLoaded RoutingPolicy = iota
	// RouteRoundRobin cycles through instances.
	RouteRoundRobin
	// RouteRandom picks uniformly (seeded deterministically).
	RouteRandom
)

func (p RoutingPolicy) String() string {
	switch p {
	case RouteLeastLoaded:
		return "least-loaded"
	case RouteRoundRobin:
		return "round-robin"
	case RouteRandom:
		return "random"
	default:
		return "unknown"
	}
}

// DefaultFirstParams is the optimized deployment: ~6 s of pipelined fabric
// latency per request (Fig. 3's 9.2 s vs 3.0 s at 1 req/s) that does not
// limit throughput until the hub lanes saturate.
func DefaultFirstParams() FirstParams {
	return FirstParams{
		GatewayOverhead: 150 * time.Millisecond,
		HubSubmit:       1600 * time.Millisecond,
		HubDispatchCost: 25 * time.Millisecond,
		HubRelayCost:    18 * time.Millisecond,
		EndpointPickup:  2000 * time.Millisecond,
		ResultReturn:    2200 * time.Millisecond,
		Window:          428,
	}
}

func (p FirstParams) window() int {
	if p.SyncWorkers > 0 {
		return p.SyncWorkers
	}
	return p.Window
}

// FirstSystem is the FIRST path wired onto a kernel, as a chain of stages
// (stage.go) a request walks in order: worker window → [auth lane →] auth
// pipe → submit pipe → dispatch lane → pick → pickup pipe → engine → relay
// lane → return pipe → observe pipe.
type FirstSystem struct {
	k *sim.Kernel
	p FirstParams

	engines  []*EngineSim
	authLane *lane // nil unless AuthRatePerSec caps introspections
	auth     *pipe // AuthIntrospect
	submit   *pipe // GatewayOverhead + HubSubmit
	dispatch *lane
	pickup   *pipe // EndpointPickup
	relay    *lane
	ret      *pipe // ResultReturn
	observe  *pipe // zero delay: the client sees the result in its own event

	inFlight int
	backlog  reqRing
	done     func(*Req)

	maxBacklog int
	rrNext     int
	rng        *sim.RNG
}

// NewFirstSystem builds the path with `instances` engine instances of the
// model (Fig. 4's auto-scaled configurations are instances=1..4).
func NewFirstSystem(k *sim.Kernel, p FirstParams, model perfmodel.ModelSpec, gpu perfmodel.GPUSpec, instances int, done func(*Req)) *FirstSystem {
	if instances < 1 {
		instances = 1
	}
	s := newFirstSystemBase(k, p, done)
	for i := 0; i < instances; i++ {
		s.engines = append(s.engines, MustEngineSim(k, model, gpu, 0, s.onEngineComplete))
	}
	return s
}

// newFirstSystemBase wires every stage to the next but builds no engines
// (NewFirstSystem allocates them; NewFirstSystemIn draws them from an arena).
func newFirstSystemBase(k *sim.Kernel, p FirstParams, done func(*Req)) *FirstSystem {
	s := &FirstSystem{k: k, p: p, done: done, rng: sim.NewRNG(1)}
	s.observe = newPipe(k, 0, s.observed)
	s.ret = newPipe(k, p.ResultReturn, s.complete)
	s.relay = newLane(k, p.HubRelayCost, s.ret.push)
	s.pickup = newPipe(k, p.EndpointPickup, s.submitToEngine)
	s.dispatch = newLane(k, p.HubDispatchCost, s.dispatched)
	s.submit = newPipe(k, p.GatewayOverhead+p.HubSubmit, s.dispatch.enqueue)
	s.auth = newPipe(k, p.AuthIntrospect, s.submit.push)
	if p.AuthRatePerSec > 0 {
		s.authLane = newLane(k, time.Duration(float64(time.Second)/p.AuthRatePerSec), s.auth.push)
	}
	return s
}

// Arrive is the client attempting to send a request at the current virtual
// time. When the gateway's worker window is exhausted, the request waits in
// the client's connection pool; per the benchmark script's convention,
// end-to-end latency is measured from the actual send (ArrivalAt), while
// benchmark duration covers the whole run.
//
//first:hotpath pinned by TestSystemsCarryZeroAlloc (stage_test.go)
func (s *FirstSystem) Arrive(r *Req) {
	w := s.p.window()
	if w > 0 && s.inFlight >= w {
		s.backlog.push(r)
		if s.backlog.n > s.maxBacklog {
			s.maxBacklog = s.backlog.n
		}
		return
	}
	s.admit(r)
}

func (s *FirstSystem) admit(r *Req) {
	s.inFlight++
	r.ArrivalAt = s.k.Now()
	r.GatewayAt = r.ArrivalAt
	switch {
	case s.p.AuthIntrospect <= 0:
		s.submit.push(r)
	case s.authLane != nil:
		s.authLane.enqueue(r)
	default:
		s.auth.push(r)
	}
}

// dispatched is the hub routing a task: the instance chosen as it leaves the
// dispatch lane rides on the request until the endpoint has picked it up.
func (s *FirstSystem) dispatched(r *Req) {
	r.inst = s.pick()
	s.pickup.push(r)
}

func (s *FirstSystem) submitToEngine(r *Req) {
	r.EngineAt = s.k.Now()
	r.inst.Submit(r.PromptTok, r.OutputTok, r)
}

func (s *FirstSystem) pick() *EngineSim {
	switch s.p.Routing {
	case RouteRoundRobin:
		e := s.engines[s.rrNext%len(s.engines)]
		s.rrNext++
		return e
	case RouteRandom:
		return s.engines[s.rng.Intn(len(s.engines))]
	default:
		best := s.engines[0]
		for _, e := range s.engines[1:] {
			if e.Depth() < best.Depth() {
				best = e
			}
		}
		return best
	}
}

func (s *FirstSystem) onEngineComplete(seq *serving.Sequence) {
	s.relay.enqueue(seq.Ctx.(*Req))
}

func (s *FirstSystem) complete(r *Req) {
	r.CompletedAt = s.k.Now()
	r.ObservedAt = r.CompletedAt
	if s.p.PollInterval > 0 {
		// The poller anchored at gateway admission only notices the
		// result on the next grid point. Each request has its own grid,
		// so this wait is not FIFO and keeps a closure (Opt1-off only).
		elapsed := r.CompletedAt - r.GatewayAt
		ticks := elapsed/s.p.PollInterval + 1
		r.ObservedAt = r.GatewayAt + ticks*s.p.PollInterval
		s.k.At(r.ObservedAt, func() { s.observed(r) })
		return
	}
	s.observe.push(r)
}

// observed is the client seeing the result: the worker slot frees and the
// longest-waiting backlogged request takes it.
func (s *FirstSystem) observed(r *Req) {
	s.inFlight--
	if s.backlog.n > 0 {
		s.admit(s.backlog.pop())
	}
	if s.done != nil {
		s.done(r)
	}
}

// HubQueueDepth reports tasks queued at the hub's dispatch lane (the
// Artillery experiment's ">8000 tasks queued at Globus" observable).
func (s *FirstSystem) HubQueueDepth() int { return s.dispatch.Depth() }

// MaxBacklog reports the gateway backlog high-water mark.
func (s *FirstSystem) MaxBacklog() int { return s.maxBacklog }

// PeakBatch returns the largest running batch across instances.
func (s *FirstSystem) PeakBatch() int {
	peak := 0
	for _, e := range s.engines {
		if st := e.Stats(); st.PeakBatch > peak {
			peak = st.PeakBatch
		}
	}
	return peak
}

// InFlight reports current admitted requests.
func (s *FirstSystem) InFlight() int { return s.inFlight }

// EmittedTokensBy returns output tokens generated across all instances up
// to virtual time t (the streaming throughput view).
func (s *FirstSystem) EmittedTokensBy(t sim.Time) int64 {
	var sum int64
	for _, e := range s.engines {
		sum += e.EmittedBy(t)
	}
	return sum
}
