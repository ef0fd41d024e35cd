// Package desmodel wires the serving engine and the calibrated overhead
// models into deterministic discrete-event scenarios that regenerate the
// paper's evaluation (Figures 3-5, Table 1, the batch-mode numbers, and the
// three optimization ablations) in virtual time.
//
// FIRST is one request path (§3, §4.5, §5.2.3) and one model, Federation:
// client → gateway (shard front-end; worker window, processing overhead,
// optional per-request auth introspection) → Globus-Compute hub (submit
// latency, serialized dispatch lane) → the real federation.Select ladder over
// N clusters → the chosen deployment's pool (instances started through a
// real scheduler, or hot) → endpoint pickup → least-loaded engine instance →
// result relay back (optionally observed on a polling grid — Optimization
// 1's ablation). FederationParams says which stages exist: the paper's own
// deployment (FirstPathParams — one cluster, hot instances, the fabric hop
// of first.go) and the federate/autoscale families (many clusters, churn, a
// scaler, no fabric hop yet) are configurations of it. Two other systems
// are modeled beside it:
//
//   - Direct: client → vLLM's own API front-end (single-threaded admission,
//     the §5.3.1 bottleneck) → engine.
//   - ExtAPI: client → rate/concurrency-limited external cloud API (Fig. 5).
//
// Every path is a chain of two FIFO stage kinds over *Req wired at
// construction (stage.go): a lane serializes, a pipe delays by a constant, a
// request's place in a stage's ring is all the state a hop keeps, and no hop
// allocates.
//
// All scenarios consume workload traces from internal/workload and report
// the paper's §5.1 metrics.
package desmodel

import (
	"sort"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// Req is one request flowing through a scenario.
type Req struct {
	ID        int
	PromptTok int
	OutputTok int
	// Session tags the closed-loop session that issued the request (drivers
	// previously tracked this in a side map, a per-request map churn on the
	// Table-1 hot path).
	Session int
	// Model indexes the requested model in a multi-model scenario's model
	// list (Federation); single-model scenarios leave it zero.
	Model int
	// Migrations counts how many times the federation layer re-routed the
	// request after its first placement died (drain or walltime hard-kill).
	Migrations int

	ArrivalAt   sim.Time // client send time
	GatewayAt   sim.Time // admitted into the gateway window
	EngineAt    sim.Time // submitted to an engine
	CompletedAt sim.Time // engine finished + results relayed
	ObservedAt  sim.Time // client saw the result (poll grid)

	Failed bool

	// due is when the pipe the request is riding hands it on, and inst the
	// engine instance the hub's dispatch lane chose for it (see stage.go,
	// first.go): per-request stage state lives on the request.
	due  sim.Time
	inst *EngineSim
}

// Latency returns the client-observed end-to-end latency.
func (r *Req) Latency() time.Duration { return r.ObservedAt - r.ArrivalAt }

// finish ends a path: r is complete, observed in the same instant, reported.
func finish(k *sim.Kernel, r *Req, done func(*Req)) {
	r.CompletedAt = k.Now()
	r.ObservedAt = r.CompletedAt
	if done != nil {
		done(r)
	}
}

// Metrics are the paper's §5.1 evaluation metrics for one run.
type Metrics struct {
	Requests     int
	Completed    int
	Failed       int
	DurationS    float64 // benchmark duration: first arrival → last observed
	ReqPerSec    float64 // request throughput
	TokPerSec    float64 // output token throughput
	MedianLatS   float64 // median end-to-end latency
	MeanLatS     float64
	P99LatS      float64
	OutputTokens int64
	// PeakObservedB is never written or read; it goes with the next PR allowed
	// to edit benchmark/, whose digests render Metrics with %+v, names and all.
	PeakObservedB int
}

// Collect computes metrics over finished requests.
func Collect(reqs []*Req) Metrics {
	var m Metrics
	m.Requests = len(reqs)
	latencies := make([]float64, 0, len(reqs))
	var last sim.Time
	var sumLat float64
	for _, r := range reqs {
		if r.Failed || r.ObservedAt == 0 {
			m.Failed++
			continue
		}
		m.Completed++
		m.OutputTokens += int64(r.OutputTok)
		lat := sim.Sec(r.Latency())
		latencies = append(latencies, lat)
		sumLat += lat
		if r.ObservedAt > last {
			last = r.ObservedAt
		}
	}
	if m.Completed == 0 {
		return m
	}
	m.DurationS = sim.Sec(last)
	if m.DurationS > 0 {
		m.ReqPerSec = float64(m.Completed) / m.DurationS
		m.TokPerSec = float64(m.OutputTokens) / m.DurationS
	}
	sort.Float64s(latencies)
	m.MedianLatS = latencies[len(latencies)/2]
	m.MeanLatS = sumLat / float64(len(latencies))
	p99 := int(0.99 * float64(len(latencies)))
	if p99 >= len(latencies) {
		p99 = len(latencies) - 1
	}
	m.P99LatS = latencies[p99]
	return m
}
