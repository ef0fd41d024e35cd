package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/metrics"
)

// Hub errors.
var (
	ErrBadCredentials   = errors.New("fabric: invalid confidential client credentials")
	ErrUnknownEndpoint  = errors.New("fabric: unknown endpoint")
	ErrUnknownFunction  = errors.New("fabric: function not registered on endpoint")
	ErrHubQueueFull     = errors.New("fabric: hub task queue full")
	ErrEndpointShutdown = errors.New("fabric: endpoint shut down")
	// ErrUnauthorized is an endpoint-side credential rejection (the
	// endpoint's own auth disagrees with the gateway's cached view); the
	// gateway reacts by rechecking its token cache, not by failing over.
	ErrUnauthorized = errors.New("fabric: endpoint rejected credentials")
)

// HubConfig models the cloud service's behaviour.
type HubConfig struct {
	// SubmitLatency is the client→hub round trip per task submission.
	SubmitLatency time.Duration
	// DispatchCost is the serialized per-task routing cost inside the hub
	// (this lane caps fabric throughput — the Fig. 4 ceiling).
	DispatchCost time.Duration
	// RelayCost is the serialized per-result relay cost back to clients.
	RelayCost time.Duration
	// ConnectLatency is the cost of establishing a client↔endpoint
	// channel, paid once per (client, endpoint) pair: the channel is
	// cached (Optimization 2's second half).
	ConnectLatency time.Duration
	// MaxQueuedTasks bounds tasks buffered at the hub (paper's Artillery
	// test observed >8000 queued; default 16384).
	MaxQueuedTasks int
}

// DefaultHubConfig returns the calibrated hub model.
func DefaultHubConfig() HubConfig {
	return HubConfig{
		SubmitLatency:  250 * time.Millisecond,
		DispatchCost:   20 * time.Millisecond,
		RelayCost:      15 * time.Millisecond,
		ConnectLatency: 900 * time.Millisecond,
		MaxQueuedTasks: 16384,
	}
}

// Hub is the cloud-hosted routing service. All traffic between gateway and
// endpoints flows through it; endpoints authenticate with the shared
// confidential client (§3.2.3), so users can never reach endpoints directly.
// Its dispatch and relay lanes are booked under mu (see the package comment).
type Hub struct {
	clk clock.Clock
	cfg HubConfig

	submitted, completed, failed *metrics.Counter

	clientID     string
	clientSecret string

	mu          sync.Mutex
	endpoints   map[string]*Endpoint
	connections map[connKey]bool // the (client, endpoint) connection cache
	dispatched  time.Time        // the newest task's dispatch departure D
	relayed     time.Time        // the newest result's relay departure S
	queued      []time.Time      // booked dispatch departures, in order; the first passed are past
	passed      int
	closed      bool
	free        *record // idle records Client.Run takes and gives back
}

// connKey names a cached client↔endpoint channel.
type connKey struct{ client, endpoint string }

// NewHub creates a hub bound to the administrators' confidential client.
func NewHub(clk clock.Clock, cfg HubConfig, clientID, clientSecret string, met *metrics.Registry) *Hub {
	if met == nil {
		met = metrics.NewRegistry()
	}
	return &Hub{
		clk: clk, cfg: cfg,
		clientID: clientID, clientSecret: clientSecret,
		submitted:   met.Counter("hub_tasks_submitted"),
		completed:   met.Counter("hub_tasks_completed"),
		failed:      met.Counter("hub_tasks_failed"),
		endpoints:   make(map[string]*Endpoint),
		connections: make(map[connKey]bool),
	}
}

// RegisterEndpoint attaches an endpoint (administrator action).
func (h *Hub) RegisterEndpoint(ep *Endpoint) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.endpoints[ep.ID()] = ep
}

// QueuedTasks reports tasks accepted but not yet past their dispatch
// departure D.
func (h *Hub) QueuedTasks() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.backlog(h.clk.Now())
}

// submit validates and accepts a task from a client SDK, books its
// dispatch departure and starts its goroutine in an idle record, from the
// free list when one is there. The payload is payload, or, when infer is
// not nil, a pointer to the record's copy of *infer (Client.Infer). The
// record's future resolves when the endpoint's result is relayed back; only
// Client.Run and Client.Infer give records back (recycle).
//
//first:hotpath reached through the Run pin
func (h *Hub) submit(creds Credentials, endpointID, function string, payload any, infer *InferRequest) (*record, error) {
	if creds.ClientID != h.clientID || creds.ClientSecret != h.clientSecret {
		return nil, ErrBadCredentials
	}
	h.mu.Lock()
	ep, ok := h.endpoints[endpointID]
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, endpointID) //firstlint:allow hotpath an unknown endpoint is an error path
	}
	if !ep.hasFunction(function) {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %s on %s", ErrUnknownFunction, function, endpointID) //firstlint:allow hotpath an unregistered function is an error path
	}
	now := h.clk.Now()
	if n := h.backlog(now); h.cfg.MaxQueuedTasks > 0 && n >= h.cfg.MaxQueuedTasks {
		h.mu.Unlock()
		return nil, ErrHubQueueFull
	}
	// D = max(now + SubmitLatency [+ ConnectLatency], previous D) +
	// DispatchCost: the round trip, and connection setup the first time a
	// pair meets, is latency ahead of the lane, not a throughput bottleneck.
	arrive := now.Add(max(h.cfg.SubmitLatency, 0))
	if conn := (connKey{creds.ClientID, endpointID}); !h.connections[conn] {
		arrive = arrive.Add(max(h.cfg.ConnectLatency, 0))
		h.connections[conn] = true
	}
	// The dispatch lane's per-task cost is the fabric-wide ceiling ("our
	// overall scaling is currently limited by the ability of Globus Compute
	// to scale and route requests", §5.3.2).
	h.dispatched = later(arrive, h.dispatched).Add(max(h.cfg.DispatchCost, 0))
	h.queued = append(h.queued, h.dispatched)
	dispatched := h.dispatched
	rec := h.free
	if rec != nil {
		h.free = rec.next
	}
	h.mu.Unlock()

	if rec == nil {
		rec = newRecord(h)
	}
	// The record is the submitter's alone until its goroutine starts.
	rec.ep = ep
	t := &rec.task
	t.Function, t.Payload = function, payload
	if infer != nil {
		t.infer = *infer
		t.Payload = &t.infer
	}
	t.pickupAt = dispatched.Add(max(ep.cfg.PickupLatency, 0))
	t.finishedAt = time.Time{} // relayedAt is written with the outcome
	h.submitted.Inc()
	go rec.runFn()
	return rec, nil
}

// recycle puts back a record whose Wait has returned its outcome: nothing
// else holds it any more.
//
//first:hotpath reached through the Run pin
func (h *Hub) recycle(rec *record) {
	t := &rec.task
	t.Payload, t.result, t.err = nil, nil, nil // keep no caller's values alive
	t.infer, t.inferred = InferRequest{}, InferResult{}
	h.mu.Lock()
	rec.next, h.free = h.free, rec
	h.mu.Unlock()
}

// run is a task's one goroutine: it sleeps to the endpoint's pickup instant
// P = D + PickupLatency unless it starts at or after P, runs the task there
// and relays the result.
//
//first:hotpath reached through the Run pin
func (rec *record) run() {
	h := rec.hub
	if d := rec.task.pickupAt.Sub(h.clk.Now()); d > 0 {
		h.clk.Sleep(d)
	}
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	result, err := any(nil), ErrEndpointShutdown
	if !closed {
		result, err = rec.ep.execute(&rec.task)
	}
	h.finish(&rec.fut, result, err)
}

// finish books the result's relay departure S = max(F, previous S) +
// RelayCost, where F is the instant the handler's engine finished (now, for a
// handler that reports none), and resolves the future with it; a result that
// finds the hub closed fails at once.
//
//first:hotpath reached through the Run pin
func (h *Hub) finish(fut *Future, result any, err error) {
	h.mu.Lock()
	now, closed := h.clk.Now(), h.closed
	if !closed {
		from := fut.task.finishedAt
		if from.IsZero() {
			from = now
		}
		h.relayed = later(from, h.relayed).Add(max(h.cfg.RelayCost, 0))
	}
	relayed := h.relayed
	h.mu.Unlock()
	switch {
	case closed:
		fut.resolve(nil, ErrEndpointShutdown, now)
		return
	case err != nil:
		h.failed.Inc()
	default:
		h.completed.Inc()
	}
	fut.resolve(result, err, relayed)
}

// Close shuts the hub: a task whose pickup instant passes after Close, or
// whose result comes back after it, fails with ErrEndpointShutdown.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// backlog drops the dispatch departures at or before now and counts those
// left; h.mu is held. Departures are booked in order, so the past ones lead,
// and compacting once they are half the slice keeps both steps amortised O(1).
func (h *Hub) backlog(now time.Time) int {
	for h.passed < len(h.queued) && !h.queued[h.passed].After(now) {
		h.passed++
	}
	if h.passed > len(h.queued)/2 {
		h.queued, h.passed = h.queued[:copy(h.queued, h.queued[h.passed:])], 0
	}
	return len(h.queued) - h.passed
}

// Credentials is the confidential client identity shared by the gateway SDK
// and the endpoints.
type Credentials struct {
	ClientID     string
	ClientSecret string
}
