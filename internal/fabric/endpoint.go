package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/metrics"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
)

// Handler executes one pre-registered function invocation on an endpoint.
// It is handed the Go value the caller submitted, and what it returns
// reaches the caller's Future unchanged: the hop's cost is the hub's
// constants, not host work the clock would multiply. A payload of a type it
// does not take is an error (ErrPayloadType), not a panic.
type Handler func(ctx context.Context, payload any) (any, error)

// ErrPayloadType reports a task whose payload is not the type its function
// takes.
var ErrPayloadType = errors.New("fabric: payload has the wrong type")

// EndpointConfig configures a Globus-Compute-style endpoint deployed on one
// cluster by facility administrators.
type EndpointConfig struct {
	ID        string
	Scheduler *scheduler.Scheduler
	// PickupLatency models the endpoint's task-fetch cadence from the hub
	// (workers poll the cloud queue). Zero means the 500 ms default; a
	// negative value is a zero pickup, a task runs at its dispatch.
	PickupLatency time.Duration
}

// Endpoint executes functions on an HPC cluster. Inference and embedding
// handlers are provided by Deployments; arbitrary additional functions can
// be pre-registered by administrators.
type Endpoint struct {
	cfg EndpointConfig
	clk clock.Clock

	tasks, taskFailures *metrics.Counter

	mu          sync.Mutex
	handlers    map[string]Handler
	deployments map[string]*Deployment // model name -> deployment
	closed      bool
}

// NewEndpoint creates an endpoint bound to a cluster's scheduler.
func NewEndpoint(cfg EndpointConfig, clk clock.Clock, met *metrics.Registry) (*Endpoint, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fabric: endpoint needs an ID")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("fabric: endpoint %s needs a scheduler", cfg.ID)
	}
	if cfg.PickupLatency == 0 {
		cfg.PickupLatency = 500 * time.Millisecond
	}
	if met == nil {
		met = metrics.NewRegistry()
	}
	ep := &Endpoint{
		cfg:          cfg,
		clk:          clk,
		tasks:        met.Counter("endpoint_tasks"),
		taskFailures: met.Counter("endpoint_task_failures"),
		handlers:     make(map[string]Handler),
		deployments:  make(map[string]*Deployment),
	}
	ep.handlers[FnInfer] = ep.handleInfer
	ep.handlers[FnEmbed] = ep.handleEmbed
	return ep, nil
}

// ID returns the endpoint identifier.
func (ep *Endpoint) ID() string { return ep.cfg.ID }

// ClusterName returns the backing cluster's name.
func (ep *Endpoint) ClusterName() string { return ep.cfg.Scheduler.Cluster().Name() }

// Scheduler exposes the endpoint's scheduler (for /jobs and federation).
func (ep *Endpoint) Scheduler() *scheduler.Scheduler { return ep.cfg.Scheduler }

// RegisterFunction pre-registers an administrator function.
func (ep *Endpoint) RegisterFunction(name string, h Handler) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handlers[name] = h
}

func (ep *Endpoint) hasFunction(name string) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	_, ok := ep.handlers[name]
	return ok
}

// Deploy creates (or returns the existing) deployment for a model on this
// endpoint.
func (ep *Endpoint) Deploy(cfg DeploymentConfig) (*Deployment, error) {
	ep.mu.Lock()
	if d, ok := ep.deployments[cfg.Model]; ok {
		ep.mu.Unlock()
		return d, nil
	}
	ep.mu.Unlock()

	spec, err := perfmodel.Default.Lookup(cfg.Model)
	if err != nil {
		return nil, err
	}
	d, err := newDeployment(ep, cfg, spec)
	if err != nil {
		return nil, err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		d.Close()
		return nil, ErrEndpointShutdown
	}
	ep.deployments[cfg.Model] = d
	return d, nil
}

// Deployment returns the deployment for a model, if any.
func (ep *Endpoint) Deployment(model string) (*Deployment, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	d, ok := ep.deployments[model]
	return d, ok
}

// Undeploy tears the model's deployment down — instances stop, queued work
// fails with ErrEndpointShutdown — and removes it from the endpoint, as when
// an endpoint process dies. A later Deploy of the same model starts from
// cold. Reports whether a deployment existed.
func (ep *Endpoint) Undeploy(model string) bool {
	ep.mu.Lock()
	d, ok := ep.deployments[model]
	delete(ep.deployments, model)
	ep.mu.Unlock()
	if ok {
		d.Close()
	}
	return ok
}

// Models lists deployed model names.
func (ep *Endpoint) Models() []string {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	names := make([]string, 0, len(ep.deployments))
	for m := range ep.deployments {
		names = append(names, m)
	}
	return names
}

// ModelStatuses reports per-model instance states for the /jobs endpoint.
func (ep *Endpoint) ModelStatuses() []ModelStatus {
	ep.mu.Lock()
	deployments := make([]*Deployment, 0, len(ep.deployments))
	for _, d := range ep.deployments {
		deployments = append(deployments, d)
	}
	ep.mu.Unlock()
	statuses := make([]ModelStatus, 0, len(deployments))
	for _, d := range deployments {
		statuses = append(statuses, d.Status())
	}
	return statuses
}

// execute runs a task on the task's own goroutine, at the pickup instant P
// the hub booked for it. The handler's context carries the task: a
// deployment reads P from it and records the engine's finish F on it.
//
//first:hotpath reached through the Run pin
func (ep *Endpoint) execute(task *Task) (any, error) {
	ep.mu.Lock()
	h, ok := ep.handlers[task.Function]
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return nil, ErrEndpointShutdown
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownFunction, task.Function) //firstlint:allow hotpath a function unregistered since submit is an error path
	}
	ep.tasks.Inc()
	result, err := h(task.ctx, task.Payload)
	if err != nil {
		ep.taskFailures.Inc()
	}
	return result, err
}

func (ep *Endpoint) handleInfer(ctx context.Context, payload any) (any, error) {
	req, err := InferPayload(payload)
	if err != nil {
		return nil, err
	}
	d, ok := ep.Deployment(req.Model)
	if !ok {
		return nil, fmt.Errorf("fabric: endpoint %s does not host %s", ep.cfg.ID, req.Model)
	}
	res, err := d.Generate(ctx, req)
	if err != nil {
		return nil, err
	}
	if t, _ := ctx.Value(taskKey{}).(*Task); t != nil && payload == any(&t.infer) {
		// Client.Infer's own task: the answer rides in the record too.
		t.inferred = res
		return &t.inferred, nil
	}
	return res, nil
}

func (ep *Endpoint) handleEmbed(ctx context.Context, payload any) (any, error) {
	req, ok := payload.(EmbedRequest)
	if !ok {
		return nil, fmt.Errorf("%w: %s takes an EmbedRequest, not %T", ErrPayloadType, FnEmbed, payload)
	}
	d, ok := ep.Deployment(req.Model)
	if !ok {
		return nil, fmt.Errorf("fabric: endpoint %s does not host %s", ep.cfg.ID, req.Model)
	}
	vectors, err := d.Embed(ctx, req.Inputs)
	if err != nil {
		return nil, err
	}
	return EmbedResult{Model: req.Model, Dim: d.spec.EmbedDim, Vectors: vectors}, nil
}

// Close shuts down all deployments.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	deployments := make([]*Deployment, 0, len(ep.deployments))
	for _, d := range ep.deployments {
		deployments = append(deployments, d)
	}
	ep.mu.Unlock()
	for _, d := range deployments {
		d.Close()
	}
}
