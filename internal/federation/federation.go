// Package federation implements the §4.5 federation layer: a cluster-
// agnostic routing decision that picks which endpoint should serve a
// request. The core logic is the paper's priority-based algorithm:
//
//  1. prefer an endpoint where the requested model is already running or
//     queued (low latency on active instances);
//  2. otherwise an endpoint whose cluster has enough free resources;
//  3. otherwise the first endpoint configured for the model, priority
//     being configuration registry order.
//
// The decision is a pure function over endpoint snapshots so the live
// gateway and the DES harness share it exactly.
package federation

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
)

// EndpointInfo is a snapshot of one candidate endpoint for a model.
type EndpointInfo struct {
	ID string
	// ModelState is the deployment state: "running", "starting",
	// "queued", or "cold".
	ModelState string
	// FreeGPUs is the cluster's publicly reported free GPU count.
	FreeGPUs int
	// NeededGPUs is the model's per-instance requirement on that cluster.
	NeededGPUs int
	// Depth is the current total queue depth for tie-breaking among
	// active endpoints.
	Depth int
	// Instances is how many live serving instances back the deployment
	// (auto-scaled pools). The active-rung tie-break compares depth per
	// instance, so a pool that scaled out advertises its extra capacity.
	// Zero is treated as one (single-instance endpoints predate the field).
	// Deployments that cordon ahead of drains advertise only their
	// uncordoned serving capacity here.
	Instances int
	// Cordoned reports that the deployment has serving capacity but all of
	// it is flagged for an imminent drain (serve-walltime expiry or
	// voluntary scale-down). Select demotes a cordoned endpoint below
	// every other viable candidate — new work routed there would only join
	// the migration the drain is about to trigger — but still prefers it
	// over a blind first-configured pick, so requests are never parked
	// while capacity exists. False (the zero value) keeps the ladder's
	// drain-blind behaviour exactly.
	Cordoned bool
}

// Reason explains a routing decision (logged and exposed on the dashboard).
type Reason string

// Routing reasons.
const (
	ReasonActive    Reason = "model-active"
	ReasonCapacity  Reason = "cluster-has-capacity"
	ReasonFirstConf Reason = "first-configured"
)

// Select applies the priority algorithm over candidates in configuration
// order. It returns the chosen endpoint's index and the reason.
func Select(candidates []EndpointInfo) (int, Reason, error) {
	if len(candidates) == 0 {
		return -1, "", fmt.Errorf("federation: no endpoints configured")
	}
	i, reason := selectAmong(candidates, 0)
	return i, reason, nil
}

// selectAmong is Select over the rows whose configuration position is not
// set in skip (a Walk's tried and breaker-refused rows); -1 when none is
// left.
//
//first:hotpath reached through the Router.Next pin (walk_test.go)
func selectAmong(rows []EndpointInfo, skip uint64) (int, Reason) {
	// 1) Running or queued instance — among those, least depth per live
	// instance wins (an auto-scaled pool spreads its queue over more
	// engines). Compared cross-multiplied so the tie-break stays integral.
	// Cordoned endpoints (active capacity, all of it about to drain) are
	// tracked separately: they lose to any uncordoned active endpoint and
	// to any capacity-rung pick, and win only over first-configured —
	// riding a known-dying instance still beats a blind cold start.
	best, bestCordoned, first := -1, -1, -1
	for i := range rows {
		if skip&(1<<uint(i)) != 0 {
			continue
		}
		if first == -1 {
			first = i
		}
		c := &rows[i]
		switch c.ModelState {
		case "running", "starting", "queued":
			if c.Cordoned {
				if bestCordoned == -1 || lessLoaded(c, &rows[bestCordoned]) {
					bestCordoned = i
				}
				continue
			}
			if best == -1 || lessLoaded(c, &rows[best]) {
				best = i
			}
		}
	}
	if best >= 0 {
		return best, ReasonActive
	}
	// 2) Cluster with available nodes.
	for i := range rows {
		if c := &rows[i]; skip&(1<<uint(i)) == 0 && c.FreeGPUs >= c.NeededGPUs && c.NeededGPUs > 0 {
			return i, ReasonCapacity
		}
	}
	// 2b) Every active endpoint is cordoned and nothing has capacity:
	// take the least-loaded cordoned one rather than a first-configured
	// guess with no instance at all.
	if bestCordoned >= 0 {
		return bestCordoned, ReasonActive
	}
	// 3) First configured (-1 when every row is skipped).
	return first, ReasonFirstConf
}

// lessLoaded reports whether a carries strictly less queue depth per live
// instance than b: a.Depth/a.Instances < b.Depth/b.Instances, evaluated as
// a cross-multiplication so equal per-instance loads tie exactly (and the
// earlier-configured endpoint keeps winning ties). Instance counts below
// one are normalized to one.
func lessLoaded(a, b *EndpointInfo) bool {
	ai, bi := a.Instances, b.Instances
	if ai < 1 {
		ai = 1
	}
	if bi < 1 {
		bi = 1
	}
	return a.Depth*bi < b.Depth*ai
}

// Router binds the pure policy to live fabric endpoints. It is the
// "development API URL that does not target any specific cluster" (§4.5).
type Router struct {
	mu sync.RWMutex
	// order[model] lists endpoints in configuration-registry order. Routes
	// are only ever appended, so a slice read under the lock stays valid
	// after it.
	order map[string][]*fabric.Endpoint

	// breakers, when set via UseBreakers, is the Set a Walk filters
	// candidates through; breakerNow supplies its time base.
	breakers   *resilience.Set
	breakerNow func() time.Time
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{order: make(map[string][]*fabric.Endpoint)}
}

// AddRoute appends an endpoint to a model's candidate list (registry order
// defines priority 3's "first configured"). Configuration loading bounds a
// model to MaxEndpoints routes; one more is a programming error.
func (r *Router) AddRoute(model string, ep *fabric.Endpoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order[model]) >= MaxEndpoints {
		panic(fmt.Sprintf("federation: model %q already has %d endpoints", model, MaxEndpoints))
	}
	r.order[model] = append(r.order[model], ep)
}

// Models lists models with at least one route, sorted so callers (status
// pages, reports) see a stable order regardless of registration history.
func (r *Router) Models() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.order))
	for m := range r.order {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Endpoints returns the candidate endpoints for a model in priority order.
func (r *Router) Endpoints(model string) []*fabric.Endpoint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*fabric.Endpoint(nil), r.order[model]...)
}

// Decision is the outcome of a routing query.
type Decision struct {
	Endpoint *fabric.Endpoint
	Reason   Reason
}

// UseBreakers wires a breaker set into routing: endpoints whose circuit is
// open at now() drop out of the candidate set, and when every candidate is
// open routing reports AllOpenError instead of picking a doomed endpoint.
// Passing a nil set detaches breakers (plain routing).
func (r *Router) UseBreakers(set *resilience.Set, now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breakers = set
	r.breakerNow = now
}

// Route picks the endpoint a fresh request would be sent to. It reserves
// nothing: a half-open probe stays free for the next real attempt, so a
// caller that reports no outcome (batch admission) cannot wedge a breaker
// half-open.
func (r *Router) Route(model string) (Decision, error) {
	w := Walk{peek: true}
	return r.Next(model, &w)
}

// Next snapshots each candidate's deployment state and cluster status into
// a row and asks walk w for its next attempt's endpoint, reserving a
// half-open probe there. The caller records the outcome in the Set passed
// to UseBreakers and calls w.Fail before failing over. 0 allocs/op on
// closed breakers.
//
//first:hotpath pinned by TestRouterNextZeroAlloc (walk_test.go)
func (r *Router) Next(model string, w *Walk) (Decision, error) {
	r.mu.RLock()
	eps, set, nowFn := r.order[model], r.breakers, r.breakerNow
	r.mu.RUnlock()
	if len(eps) == 0 {
		//firstlint:allow hotpath a model without routes is an error path
		return Decision{}, fmt.Errorf("federation: model %q has no configured endpoints", model)
	}
	spec, err := perfmodel.Default.Lookup(model)
	if err != nil {
		return Decision{}, err
	}
	var buf [8]EndpointInfo // a longer ladder grows onto the heap
	rows := buf[:0]
	for _, ep := range eps {
		row := EndpointInfo{ID: ep.ID(), ModelState: "cold", NeededGPUs: spec.TensorParallel}
		if d, ok := ep.Deployment(model); ok {
			// One read of the pool's record, under one lock: the state,
			// the depth and the advertised capacity are of one instant.
			rec := d.Record()
			row.ModelState, row.Depth = rec.State, rec.Depth
			row.Instances, row.Cordoned = rec.Ready, rec.Cordoned
		}
		row.FreeGPUs = ep.Scheduler().Cluster().Status().FreeGPUs
		rows = append(rows, row)
	}
	var now time.Time
	if set != nil && nowFn != nil {
		now = nowFn()
	}
	i, reason, err := w.Next(rows, set, now)
	if allOpen, ok := err.(*AllOpenError); ok {
		allOpen.Model = model
	}
	if err != nil {
		return Decision{}, err
	}
	return Decision{Endpoint: eps[i], Reason: reason}, nil
}
