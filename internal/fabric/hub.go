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
	// channel; cached per (client, endpoint) pair unless caching is
	// disabled (Optimization 2's second half).
	ConnectLatency time.Duration
	// CacheConnections enables connection reuse (default true via
	// DefaultHubConfig).
	CacheConnections bool
	// MaxQueuedTasks bounds tasks buffered at the hub (paper's Artillery
	// test observed >8000 queued; default 16384).
	MaxQueuedTasks int
}

// DefaultHubConfig returns the calibrated hub model.
func DefaultHubConfig() HubConfig {
	return HubConfig{
		SubmitLatency:    250 * time.Millisecond,
		DispatchCost:     20 * time.Millisecond,
		RelayCost:        15 * time.Millisecond,
		ConnectLatency:   900 * time.Millisecond,
		CacheConnections: true,
		MaxQueuedTasks:   16384,
	}
}

// Hub is the cloud-hosted routing service. All traffic between gateway and
// endpoints flows through it; endpoints authenticate with the shared
// confidential client (§3.2.3), so users can never reach endpoints directly.
type Hub struct {
	clk clock.Clock
	cfg HubConfig
	met *metrics.Registry

	clientID     string
	clientSecret string

	mu          sync.Mutex
	endpoints   map[string]*Endpoint
	connections map[string]bool // client+endpoint connection cache
	queued      int
	nextTaskID  int64

	dispatchCh chan *dispatchItem
	relayCh    chan *relayItem
	stop       chan struct{}
	stopOnce   sync.Once
}

type dispatchItem struct {
	task   *Task
	future *Future
	at     time.Time // arrival at the lane
}

type relayItem struct {
	future *Future
	result []byte
	err    error
	at     time.Time // arrival at the lane
}

// NewHub creates a hub bound to the administrators' confidential client.
func NewHub(clk clock.Clock, cfg HubConfig, clientID, clientSecret string, met *metrics.Registry) *Hub {
	if met == nil {
		met = metrics.NewRegistry()
	}
	h := &Hub{
		clk: clk, cfg: cfg, met: met,
		clientID: clientID, clientSecret: clientSecret,
		endpoints:   make(map[string]*Endpoint),
		connections: make(map[string]bool),
		dispatchCh:  make(chan *dispatchItem, maxInt(cfg.MaxQueuedTasks, 1024)),
		relayCh:     make(chan *relayItem, maxInt(cfg.MaxQueuedTasks, 1024)),
		stop:        make(chan struct{}),
	}
	go h.dispatchLoop()
	go h.relayLoop()
	return h
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RegisterEndpoint attaches an endpoint (administrator action).
func (h *Hub) RegisterEndpoint(ep *Endpoint) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.endpoints[ep.ID()] = ep
}

// Endpoints lists registered endpoint IDs.
func (h *Hub) Endpoints() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]string, 0, len(h.endpoints))
	for id := range h.endpoints {
		ids = append(ids, id)
	}
	return ids
}

// QueuedTasks reports tasks accepted but not yet handed to an endpoint.
func (h *Hub) QueuedTasks() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.queued
}

// submit validates and accepts a task from a client SDK. The returned
// future resolves when the endpoint's result is relayed back.
func (h *Hub) submit(creds Credentials, endpointID, function string, payload []byte) (*Future, error) {
	if creds.ClientID != h.clientID || creds.ClientSecret != h.clientSecret {
		return nil, ErrBadCredentials
	}
	h.mu.Lock()
	ep, ok := h.endpoints[endpointID]
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, endpointID)
	}
	if !ep.hasFunction(function) {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %s on %s", ErrUnknownFunction, function, endpointID)
	}
	if h.cfg.MaxQueuedTasks > 0 && h.queued >= h.cfg.MaxQueuedTasks {
		h.mu.Unlock()
		return nil, ErrHubQueueFull
	}
	needConnect := false
	connKey := creds.ClientID + "→" + endpointID
	if !h.cfg.CacheConnections || !h.connections[connKey] {
		needConnect = true
		if h.cfg.CacheConnections {
			h.connections[connKey] = true
		}
	}
	h.nextTaskID++
	task := &Task{
		ID:          h.nextTaskID,
		Function:    function,
		EndpointID:  endpointID,
		Payload:     payload,
		SubmittedAt: h.clk.Now(),
		status:      TaskPending,
	}
	h.queued++
	h.mu.Unlock()

	// Charge the submission round trip (and connection setup when not
	// cached) on the caller's goroutine — this is latency, not a
	// throughput bottleneck.
	if needConnect && h.cfg.ConnectLatency > 0 {
		h.clk.Sleep(h.cfg.ConnectLatency)
	}
	if h.cfg.SubmitLatency > 0 {
		h.clk.Sleep(h.cfg.SubmitLatency)
	}

	future := &Future{task: task, done: make(chan struct{})}
	h.met.Counter("hub_tasks_submitted").Inc()
	select {
	case h.dispatchCh <- &dispatchItem{task: task, future: future, at: h.clk.Now()}:
	default:
		h.mu.Lock()
		h.queued--
		h.mu.Unlock()
		return nil, ErrHubQueueFull
	}
	return future, nil
}

// dispatchLoop is the serialized routing lane: its per-task cost is the
// fabric-wide ceiling ("our overall scaling is currently limited by the
// ability of Globus Compute to scale and route requests", §5.3.2).
func (h *Hub) dispatchLoop() {
	var free time.Time
	for {
		select {
		case <-h.stop:
			return
		case item := <-h.dispatchCh:
			h.serve(&free, item.at, h.cfg.DispatchCost)
			h.mu.Lock()
			ep := h.endpoints[item.task.EndpointID]
			h.queued--
			h.mu.Unlock()
			item.task.setStatus(TaskDispatched)
			if ep == nil {
				h.finish(item.future, nil, ErrUnknownEndpoint)
				continue
			}
			task := item.task
			fut := item.future
			go ep.execute(task, func(result []byte, err error) {
				h.finish(fut, result, err)
			})
		}
	}
}

// serve charges one item's cost on a serialized lane. free is when the lane
// finishes the item before it; this one starts then, or on arrival if the
// lane stood idle, and the lane sleeps toward that absolute finish. A sleep
// that returns late therefore shortens the next one, and a backlogged lane
// drains at the 1/cost the model states rather than 1/(cost + overshoot).
func (h *Hub) serve(free *time.Time, arrived time.Time, cost time.Duration) {
	if cost <= 0 {
		return
	}
	if free.Before(arrived) {
		*free = arrived
	}
	*free = free.Add(cost)
	if wait := free.Sub(h.clk.Now()); wait > 0 {
		h.clk.Sleep(wait)
	}
}

// finish routes a result through the serialized relay lane.
func (h *Hub) finish(fut *Future, result []byte, err error) {
	select {
	case h.relayCh <- &relayItem{future: fut, result: result, err: err, at: h.clk.Now()}:
	case <-h.stop:
		fut.resolve(nil, ErrEndpointShutdown)
	}
}

func (h *Hub) relayLoop() {
	var free time.Time
	for {
		select {
		case <-h.stop:
			return
		case item := <-h.relayCh:
			h.serve(&free, item.at, h.cfg.RelayCost)
			if item.err != nil {
				h.met.Counter("hub_tasks_failed").Inc()
			} else {
				h.met.Counter("hub_tasks_completed").Inc()
			}
			item.future.resolve(item.result, item.err)
		}
	}
}

// Close stops the hub's routing lanes.
func (h *Hub) Close() {
	h.stopOnce.Do(func() { close(h.stop) })
}

// Credentials is the confidential client identity shared by the gateway SDK
// and the endpoints.
type Credentials struct {
	ClientID     string
	ClientSecret string
}
