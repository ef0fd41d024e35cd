// Package desmodel wires the serving engine and the calibrated overhead
// models into deterministic discrete-event scenarios that regenerate the
// paper's evaluation (Figures 3-5, Table 1, the batch-mode numbers, and the
// three optimization ablations) in virtual time.
//
// FIRST is one request path (§3, §4.5, §5.2.3) and one model, Federation:
// client → gateway (shard front-end; worker window, processing overhead,
// optional per-request auth introspection) → Globus-Compute hub (submit
// latency, serialized dispatch) → the real federation.Select ladder over
// N clusters → the chosen deployment's fabric.Pool (instances started
// through a real scheduler, or hot; the lifecycle rules, the pick, the
// router's record and the scale-down victim are the live
// fabric.Deployment's own) → endpoint pickup → the pool's least-loaded
// engine instance → result relay back (optionally observed on a polling
// grid — Optimization 1's ablation). FederationParams says which stages
// exist: the paper's own deployment (FirstPathParams — one cluster, hot
// instances, the fabric hop of first.go), Fig. 3's vLLM-Direct baseline
// (VLLMDirectParams — the same hop with only the API server's
// single-threaded admission and the response serialization left, the
// §5.3.1 bottleneck) and the federate/autoscale families (many clusters,
// churn, a scaler, no fabric hop yet) are configurations of it. One other
// system is modeled beside it: ExtAPI (extapi.go), the rate/concurrency-
// limited external cloud API of Fig. 5, which has no engine for a pool to
// hold.
//
// Every path is a chain of FIFO stages over *Req wired at construction
// (stage.go, gatewayfe.go): a serialized server of constant cost with a
// constant delay after it (a pipe, the gateway's shard stage) or before it
// (a gate). Each computes a request's departure as it enters and keeps one
// kernel event queued, its head's; a request's place in a ring is all the
// state a hop keeps, and no hop allocates. Like the engine's quiet-run offer
// (serving.Engine) they have same-nanosecond rules: an event booked while a
// request waits, for its departure's exact nanosecond, may run after it.
//
// All scenarios consume workload traces from internal/workload and report
// the paper's §5.1 metrics.
package desmodel

import (
	"math/bits"
	"slices"
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
	GatewayAt   sim.Time // admitted into the gateway window (the shard stage books it at arrival)
	EngineAt    sim.Time // submitted to an engine
	CompletedAt sim.Time // engine finished + results relayed
	ObservedAt  sim.Time // client saw the result (poll grid)

	// Failed marks a request a replayed federation shed or gave up on after
	// its failover budget (replay.go): it reached done unserved.
	Failed bool

	// due is when the stage the request is riding hands it on, and inst the
	// engine instance the hub's dispatch chose for it (see stage.go,
	// gatewayfe.go, first.go): per-request stage state lives on the request.
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

// OpenLoop drives n open-loop arrivals (the vLLM benchmark's open-loop mode:
// a fixed request rate, or everything at t = 0) and returns the requests in
// index order, carved from one block. next fills request i and returns its
// arrival instant; it runs when request i−1 fires, before arrive hands that
// one on. The n sequence numbers are reserved here, where scheduling every
// arrival up front would have taken them, and each arrival queues the next
// under its number, so the arrivals fire in the (time, seq) order n
// scheduled events would — ahead of anything an arrival books for the same
// instant — while the kernel holds one of them. An instant before the
// previous one panics (sim.Kernel.AtSeq) when the run reaches it.
func OpenLoop(k *sim.Kernel, n int, arrive func(*Req), next func(i int, r *Req) sim.Time) []*Req {
	block := make([]Req, n)
	reqs := make([]*Req, n)
	for i := range block {
		reqs[i] = &block[i]
	}
	if n == 0 {
		return reqs
	}
	first := k.Reserve()
	for range n - 1 {
		k.Reserve()
	}
	// Arrival i runs under number first+i, which is how it knows its index.
	var send func()
	send = func() {
		i := int(k.RunningSeq() - first)
		if i+1 < n {
			k.AtSeq(next(i+1, reqs[i+1]), first+uint64(i+1), send)
		}
		arrive(reqs[i])
	}
	k.AtSeq(next(0, reqs[0]), first, send)
	return reqs
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

// Collect computes metrics over finished requests. The two order statistics
// are selected, not sorted: P99LatS over every latency, then MedianLatS
// among the values at or below it, at the indices a sort would read them
// from (len/2 and 0.99·len, clamped). The k-th smallest of a set of
// values is one value, whatever the algorithm that finds it, and latencies
// are never NaN, so both match sorting bit for bit.
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
	m.MeanLatS = sumLat / float64(len(latencies))
	p99 := int(0.99 * float64(len(latencies)))
	if p99 >= len(latencies) {
		p99 = len(latencies) - 1
	}
	selectNth(latencies, p99)
	m.P99LatS = latencies[p99]
	// latencies[:p99+1] now holds the p99+1 smallest values, and the
	// median's index is never above p99.
	selectNth(latencies[:p99+1], len(latencies)/2)
	m.MedianLatS = latencies[len(latencies)/2]
	return m
}

// selectNth reorders a so that a[k] holds the value sorting a would put
// there, nothing after it smaller and nothing before it larger. It is
// introselect: a median-of-three quickselect handing what is left to
// slices.Sort once it is small or after 2·log₂n rounds, so the worst case
// stays O(n log n). It reports whether the round budget ran out.
func selectNth(a []float64, k int) (exhausted bool) {
	lo, hi := 0, len(a)
	for rounds := 2 * bits.Len(uint(len(a))); hi-lo > 16; rounds-- {
		if rounds == 0 {
			exhausted = true
			break
		}
		lt, gt := partition(a, lo, hi)
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return false
		}
	}
	slices.Sort(a[lo:hi])
	return exhausted
}

// partition splits a[lo:hi], at least two values, around the median p of the
// values at pivotSlots: afterwards a[lo:lt] ≤ p, a[lt:gt] == p and a[gt:hi] ≥
// p, with lt < hi and gt > lo. Hoare's two scans swap only out-of-place pairs
// and stop on values equal to p, so a sorted or reversed range leaves sorted
// halves (whose middle is the next pivot) and a run of equal values is
// halved, not peeled.
func partition(a []float64, lo, hi int) (lt, gt int) {
	q1, mid, q3 := pivotSlots(lo, hi)
	x, y, z := a[q1], a[mid], a[q3]
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	p := max(x, y) // the median of the three
	// p is a value of the range, and every swap leaves a stopper behind
	// each scan, so neither scan leaves a[lo:hi].
	i, j := lo, hi-1
	for i <= j {
		for a[i] < p {
			i++
		}
		for a[j] > p {
			j--
		}
		if i <= j {
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
	}
	return j + 1, i
}

// pivotSlots are the quartiles and the middle of a[lo:hi]: in a sorted,
// reversed or organ-pipe range (latencies rising with a queue, and falling
// as it drains) their median is a middle value, where the first and last
// slots of a rising-then-falling range would offer its minimum.
func pivotSlots(lo, hi int) (q1, mid, q3 int) {
	n := hi - lo
	return lo + n/4, lo + n/2, hi - 1 - n/4
}
