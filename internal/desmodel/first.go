package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
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
	// rate limiting observed before caching); excess requests queue for a
	// serialized limiter in front of the round trip. 0 = unlimited.
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

// VLLMDirectParams is Fig. 3's vLLM-Direct baseline as a FIRST path with no
// fabric hop: the benchmark client talks straight to vLLM's OpenAI-compatible
// server, whose API front-end historically processed requests on a single
// thread (§5.3.1, vLLM issue #12705), so admission serializes. That server is
// HubDispatchCost: 172 ms reproduces the 5.8 req/s cap the paper measured
// at saturation. ResultReturn is the pipelined response serialization. Every
// other stage is zero-delay and the window is unlimited.
func VLLMDirectParams() FirstParams {
	return FirstParams{
		HubDispatchCost: 172 * time.Millisecond,
		ResultReturn:    25 * time.Millisecond,
	}
}

func (p FirstParams) window() int {
	if p.SyncWorkers > 0 {
		return p.SyncWorkers
	}
	return p.Window
}

// FirstPathParams is the paper's own deployment as a Federation: one cluster
// serving one model on `instances` hot instances (Fig. 4 runs 1..4) behind the
// fabric hop p, with one idle Sophia node of inventory nothing asks for.
func FirstPathParams(p FirstParams, model perfmodel.ModelSpec, gpu perfmodel.GPUSpec, instances int) FederationParams {
	return FederationParams{
		Clusters: 1, NodesPerCluster: 1, GPUsPerNode: 8, GPU: gpu,
		Models: []perfmodel.ModelSpec{model},
		Hot:    max(instances, 1),
		First:  p,
	}
}

// firstPath is the fabric's half of the FIRST request path (§5.2.3): the
// stages (stage.go) on either side of the router and the engine pool, which
// belong to the Federation that wires it and hands served requests to relay —
//
//	worker window + backlog → [auth: limiter, introspection] → dispatch:
//	submit trip, hub routing → route → pickup → engine → relay: hub relay,
//	return trip → poll grid | observe → release the window → done
//
// Every stage books a request's departure as it enters, so a request costs
// the kernel one event per stage, and observe runs inside relay's hand-off
// when nothing else is due at that instant (complete).
type firstPath struct {
	k      *sim.Kernel
	window int
	poll   time.Duration // PollInterval

	enter    func(*Req) // auth.push when auth is wired, else dispatch.push
	auth     pipe       // AuthRatePerSec's limiter, then AuthIntrospect; unwired while the token cache absorbs it
	dispatch gate       // GatewayOverhead + HubSubmit, then HubDispatchCost; then route
	pickup   pipe       // EndpointPickup, then the engine Federation.place chose
	relay    pipe       // HubRelayCost, then ResultReturn
	observe  pipe       // zero delay: the client sees the result in its own event

	inFlight   int
	backlog    reqRing
	maxBacklog int
	done       func(*Req)
}

// wire builds every stage in place, last stage first.
func (fp *firstPath) wire(k *sim.Kernel, p FirstParams, route, done func(*Req)) {
	fp.k, fp.window, fp.poll, fp.done = k, p.window(), p.PollInterval, done
	fp.observe.init(k, 0, 0, fp.observed)
	fp.relay.init(k, p.HubRelayCost, p.ResultReturn, fp.complete)
	fp.pickup.init(k, 0, p.EndpointPickup, fp.toEngine)
	fp.dispatch.init(k, p.GatewayOverhead+p.HubSubmit, p.HubDispatchCost, route)
	fp.enter = fp.dispatch.push
	if p.AuthIntrospect > 0 {
		fp.auth.init(k, 0, p.AuthIntrospect, fp.dispatch.push)
		if p.AuthRatePerSec > 0 {
			fp.auth.cost = time.Duration(float64(time.Second) / p.AuthRatePerSec)
		}
		fp.enter = fp.auth.push
	}
}

func (fp *firstPath) wired() bool { return fp.k != nil }

// arrive is the client attempting to send a request at the current virtual
// time. When the gateway's worker window is exhausted, the request waits in
// the client's connection pool; per the benchmark script's convention,
// end-to-end latency is measured from the actual send (ArrivalAt), while
// benchmark duration covers the whole run.
//
//first:hotpath pinned by TestSystemsCarryZeroAlloc (stage_test.go)
func (fp *firstPath) arrive(r *Req) {
	if fp.window > 0 && fp.inFlight >= fp.window {
		fp.backlog.push(r)
		if fp.backlog.n > fp.maxBacklog {
			fp.maxBacklog = fp.backlog.n
		}
		return
	}
	fp.admit(r)
}

func (fp *firstPath) admit(r *Req) {
	fp.inFlight++
	r.ArrivalAt = fp.k.Now()
	r.GatewayAt = r.ArrivalAt
	fp.enter(r)
}

// toEngine is the endpoint picking the task up: the instance the pool chose
// as the task left the hub's dispatch rode on the request until now.
func (fp *firstPath) toEngine(r *Req) {
	r.EngineAt = fp.k.Now()
	r.inst.Submit(r.PromptTok, r.OutputTok, r)
}

// complete is the result back at the gateway. Nothing upstream stamps it: a
// request on the relay or return hop when a bounded run stops reads unobserved.
func (fp *firstPath) complete(r *Req) {
	r.CompletedAt = fp.k.Now()
	r.ObservedAt = r.CompletedAt
	if fp.poll > 0 {
		// The poller anchored at gateway admission only notices the
		// result on the next grid point. Each request has its own grid,
		// so this wait is not FIFO and keeps a closure (Opt1-off only).
		elapsed := r.CompletedAt - r.GatewayAt
		ticks := elapsed/fp.poll + 1
		r.ObservedAt = r.GatewayAt + ticks*fp.poll
		fp.k.At(r.ObservedAt, func() { fp.observed(r) })
		return
	}
	// The client sees the result in an event zero delay after this one,
	// which runs next when nothing else is queued at this instant: every
	// stage holding a request keeps its head's event queued (a gate books
	// its next after its own hand-off, which never reaches here). Then
	// observed runs here, the last thing the relay's hand-off does.
	if at, ok := fp.k.Peek(); ok && at == r.CompletedAt {
		fp.observe.push(r)
		return
	}
	fp.observed(r)
}

// observed is the client seeing the result: the worker slot frees and the
// longest-waiting backlogged request takes it.
func (fp *firstPath) observed(r *Req) {
	fp.inFlight--
	if fp.backlog.n > 0 {
		fp.admit(fp.backlog.pop())
	}
	if fp.done != nil {
		fp.done(r)
	}
}
