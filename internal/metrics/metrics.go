// Package metrics implements the gateway's monitoring layer (§3.1.1): thread
// safe counters, gauges, and latency histograms with quantile estimation,
// grouped in registries whose snapshots feed the dashboard and the /metrics
// endpoint.
//
// Counters and histograms are sharded: counter increments scatter across
// cache-line-padded atomic stripes, and histogram observations scatter
// across independently locked slots, so the serving data plane never
// serializes (or false-shares) on a single hot metric. Every histogram
// shares one immutable package-level bucket bounds table instead of
// recomputing (and re-allocating) the exponential layout per instance.
// Reads merge the shards; they are monitoring-grade (each shard is
// internally consistent, the merge is not a global atomic snapshot).
package metrics

import (
	"fmt"
	"math"
	mrand "math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// counterStripes is the number of independently updated slots per counter.
// Power of two so slot selection is a mask.
const counterStripes = 8

// counterStripe pads each atomic onto its own cache line so concurrent
// Inc calls on different stripes never bounce the same line between cores.
type counterStripe struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing counter. Increments scatter across
// cache-line-padded stripes (the same scheme as Histogram's observation
// shards), so hot counters on parallel handler paths — http_requests,
// cache_hits — don't serialize every core on one contended line; reads sum
// the stripes.
type Counter struct {
	stripes [counterStripes]counterStripe
}

// Inc adds one.
//
//first:hotpath pinned by the stripe AllocsPerRun suite (stripe_test.go)
func (c *Counter) Inc() {
	c.stripes[mrand.Uint64()&(counterStripes-1)].v.Add(1)
}

// Add adds n (negative values are ignored to preserve monotonicity).
//
//first:hotpath pinned by the stripe AllocsPerRun suite (stripe_test.go)
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.stripes[mrand.Uint64()&(counterStripes-1)].v.Add(n)
	}
}

// Value returns the current count. Each stripe is read atomically; the sum
// is monitoring-grade (not a global atomic snapshot), like Histogram reads.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (may be negative).
//
//first:hotpath shares the Add pin with Counter.Add (stripe_test.go)
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// defaultBounds is the shared exponential bucket layout: 1 ms .. ~2.3 h with
// 10% resolution. It is computed once and never mutated; every histogram
// references it.
var defaultBounds = func() []float64 {
	var bounds []float64
	for b := 0.001; b < 10000; b *= 1.1 {
		bounds = append(bounds, b)
	}
	return bounds
}()

// histShards is the number of independently locked observation slots per
// histogram. Power of two so shard selection is a mask.
const histShards = 16

// histShard is one observation slot. The padding keeps concurrently locked
// shards off each other's cache lines.
type histShard struct {
	mu     sync.Mutex
	counts []int64 // len(bounds)+1, last is overflow; allocated on first use
	sum    float64
	n      int64
	min    float64
	max    float64
	_      [64]byte
}

// Histogram records duration observations in exponential buckets and
// estimates quantiles by linear interpolation within the matched bucket.
type Histogram struct {
	bounds []float64 // shared, immutable
	shards [histShards]histShard
}

// NewHistogram returns a histogram with the default exponential layout.
func NewHistogram() *Histogram {
	return &Histogram{bounds: defaultBounds}
}

// Observe records a duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveSeconds(d.Seconds()) }

// ObserveSeconds records a value in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	if s < 0 || math.IsNaN(s) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, s)
	// Scatter across shards: rand/v2's generator is per-thread state, so
	// concurrent observers land on different shards without sharing any
	// cache line, and the merge on read is shard-order independent.
	sh := &h.shards[mrand.Uint64N(histShards)]
	sh.mu.Lock()
	if sh.counts == nil {
		sh.counts = make([]int64, len(h.bounds)+1)
		sh.min = math.Inf(1)
		sh.max = math.Inf(-1)
	}
	sh.counts[idx]++
	sh.sum += s
	sh.n++
	if s < sh.min {
		sh.min = s
	}
	if s > sh.max {
		sh.max = s
	}
	sh.mu.Unlock()
}

// histData is a merged view of all shards.
type histData struct {
	counts []int64
	sum    float64
	n      int64
	min    float64
	max    float64
}

// merge folds every shard into one view (allocates; read path only).
func (h *Histogram) merge() histData {
	d := histData{min: math.Inf(1), max: math.Inf(-1)}
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		if sh.n > 0 {
			if d.counts == nil {
				d.counts = make([]int64, len(h.bounds)+1)
			}
			for j, c := range sh.counts {
				d.counts[j] += c
			}
			d.sum += sh.sum
			d.n += sh.n
			if sh.min < d.min {
				d.min = sh.min
			}
			if sh.max > d.max {
				d.max = sh.max
			}
		}
		sh.mu.Unlock()
	}
	return d
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// Mean returns the mean of observations in seconds (0 if empty).
func (h *Histogram) Mean() float64 {
	var sum float64
	var n int64
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		sum += sh.sum
		n += sh.n
		sh.mu.Unlock()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) in seconds.
func (h *Histogram) Quantile(q float64) float64 {
	return h.quantileOf(h.merge(), q)
}

func (h *Histogram) quantileOf(d histData, q float64) float64 {
	if d.n == 0 {
		return 0
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	rank := q * float64(d.n)
	var cum float64
	for i, c := range d.counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := d.max
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if hi > d.max {
				hi = d.max
			}
			if lo < d.min {
				lo = d.min
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return d.max
}

// Summary is a point-in-time view of a histogram.
type Summary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_s"`
	Min   float64 `json:"min_s"`
	Max   float64 `json:"max_s"`
	P50   float64 `json:"p50_s"`
	P90   float64 `json:"p90_s"`
	P99   float64 `json:"p99_s"`
}

// Snapshot returns a summary of the histogram.
func (h *Histogram) Snapshot() Summary {
	d := h.merge()
	s := Summary{Count: d.n}
	if d.n == 0 {
		return s
	}
	s.Mean = d.sum / float64(d.n)
	s.Min = d.min
	s.Max = d.max
	s.P50 = h.quantileOf(d, 0.50)
	s.P90 = h.quantileOf(d, 0.90)
	s.P99 = h.quantileOf(d, 0.99)
	return s
}

// Registry is a named collection of metrics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures all metrics for the dashboard / metrics endpoint.
type RegistrySnapshot struct {
	Counters   map[string]int64   `json:"counters"`
	Gauges     map[string]int64   `json:"gauges"`
	Histograms map[string]Summary `json:"histograms"`
}

// Snapshot returns a consistent copy of all metric values.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.Unlock()

	snap := RegistrySnapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]Summary, len(hists)),
	}
	for k, v := range counters {
		snap.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		snap.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		snap.Histograms[k] = v.Snapshot()
	}
	return snap
}

// Names returns sorted metric names by kind (useful for text exposition).
func (r *Registry) Names() (counters, gauges, histograms []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.counters {
		counters = append(counters, k)
	}
	for k := range r.gauges {
		gauges = append(gauges, k)
	}
	for k := range r.histograms {
		histograms = append(histograms, k)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(histograms)
	return
}

// Expose renders a Prometheus-flavoured text exposition of the registry,
// each name with every rune a Prometheus metric name does not allow mapped
// to '_' (the registry's own names, which Snapshot reads, keep theirs). It
// takes one snapshot up front — the registry lock is held once, not
// re-acquired per metric name — and builds the output in a single buffer.
func (r *Registry) Expose() string {
	snap := r.Snapshot()
	counters := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		counters = append(counters, name)
	}
	gauges := make([]string, 0, len(snap.Gauges))
	for name := range snap.Gauges {
		gauges = append(gauges, name)
	}
	hists := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)

	var b strings.Builder
	for _, name := range counters {
		fmt.Fprintf(&b, "first_%s_total %d\n", promName(name), snap.Counters[name])
	}
	for _, name := range gauges {
		fmt.Fprintf(&b, "first_%s %d\n", promName(name), snap.Gauges[name])
	}
	for _, name := range hists {
		s, pn := snap.Histograms[name], promName(name)
		fmt.Fprintf(&b, "first_%s_count %d\n", pn, s.Count)
		fmt.Fprintf(&b, "first_%s_mean_seconds %g\n", pn, s.Mean)
		fmt.Fprintf(&b, "first_%s_p50_seconds %g\n", pn, s.P50)
		fmt.Fprintf(&b, "first_%s_p90_seconds %g\n", pn, s.P90)
		fmt.Fprintf(&b, "first_%s_p99_seconds %g\n", pn, s.P99)
	}
	return b.String()
}

// promName maps every rune outside [a-zA-Z0-9_:] to '_'; a name that needs
// no change comes back without a copy.
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == ':' {
			return r
		}
		return '_'
	}, name)
}
