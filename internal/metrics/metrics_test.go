package metrics

import (
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored
	if c.Value() != 6 {
		t.Errorf("counter = %d, want 6", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Errorf("gauge = %d, want 6", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 50000 {
		t.Errorf("concurrent counter = %d, want 50000", c.Value())
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, s := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		h.ObserveSeconds(s)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-0.3) > 1e-9 {
		t.Errorf("mean = %v, want 0.3", m)
	}
	s := h.Snapshot()
	if s.Min > 0.1 || s.Max < 0.5 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 < 0.2 || s.P50 > 0.4 {
		t.Errorf("p50 = %v, want ≈0.3", s.P50)
	}
}

func TestHistogramIgnoresInvalid(t *testing.T) {
	h := NewHistogram()
	h.ObserveSeconds(-1)
	h.ObserveSeconds(math.NaN())
	if h.Count() != 0 {
		t.Errorf("invalid observations were recorded: %d", h.Count())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// Uniform 0..10s: quantiles should be ≈ q*10 within bucket resolution.
	for i := 1; i <= 10000; i++ {
		h.ObserveSeconds(float64(i) / 1000.0)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := q * 10
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("q%.2f = %.3f, want ≈%.3f", q, got, want)
		}
	}
}

func TestHistogramQuantilesMonotonicProperty(t *testing.T) {
	err := quick.Check(func(raw []uint32) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.ObserveSeconds(float64(v%100000) / 100.0)
		}
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		vals := make([]float64, len(qs))
		for i, q := range qs {
			vals[i] = h.Quantile(q)
		}
		return sort.Float64sAreSorted(vals)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileWithinMinMaxProperty(t *testing.T) {
	err := quick.Check(func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.ObserveSeconds(float64(v) / 50.0)
		}
		q := float64(qRaw) / 255.0
		got := h.Quantile(q)
		s := h.Snapshot()
		return got >= s.Min-1e-9 && got <= s.Max+1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.Observe(1500 * time.Millisecond)
	if math.Abs(h.Mean()-1.5) > 0.01 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestRegistryReusesInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	if r.Counter("a").Value() != 2 {
		t.Error("counter not reused")
	}
	r.Gauge("g").Set(7)
	if r.Gauge("g").Value() != 7 {
		t.Error("gauge not reused")
	}
	r.Histogram("h").ObserveSeconds(1)
	if r.Histogram("h").Count() != 1 {
		t.Error("histogram not reused")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(10)
	r.Gauge("depth").Set(3)
	r.Histogram("lat").ObserveSeconds(0.5)
	snap := r.Snapshot()
	if snap.Counters["reqs"] != 10 {
		t.Errorf("snapshot counter = %d", snap.Counters["reqs"])
	}
	if snap.Gauges["depth"] != 3 {
		t.Errorf("snapshot gauge = %d", snap.Gauges["depth"])
	}
	if snap.Histograms["lat"].Count != 1 {
		t.Errorf("snapshot hist count = %d", snap.Histograms["lat"].Count)
	}
}

func TestRegistryExposeFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("tasks").Add(4)
	r.Histogram("latency").ObserveSeconds(2)
	out := r.Expose()
	if !strings.Contains(out, "first_tasks_total 4") {
		t.Errorf("missing counter line:\n%s", out)
	}
	if !strings.Contains(out, "first_latency_count 1") {
		t.Errorf("missing histogram count line:\n%s", out)
	}
}

// Every exposed name is a valid Prometheus metric name, whatever runes the
// registry's names hold, and Snapshot still reads the registry's names.
func TestExposeNamesArePrometheusValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("route_model-active").Inc()
	r.Gauge("breaker.ep→a100").Set(1)
	r.Histogram("lat ms/req").ObserveSeconds(1)
	r.Counter("ok_name:sub").Inc()
	valid := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	out := r.Expose()
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if !valid.MatchString(name) {
			t.Errorf("exposed name %q is not a valid Prometheus metric name", name)
		}
	}
	for _, want := range []string{"first_route_model_active_total 1", "first_breaker_ep_a100 1", "first_lat_ms_req_count 1", "first_ok_name:sub_total 1"} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if snap := r.Snapshot(); snap.Counters["route_model-active"] != 1 {
		t.Errorf("Snapshot lost the registry name: %v", snap.Counters)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta")
	r.Counter("alpha")
	counters, _, _ := r.Names()
	if !sort.StringsAreSorted(counters) {
		t.Errorf("names not sorted: %v", counters)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestHistogramSharedBounds(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	if &a.bounds[0] != &b.bounds[0] {
		t.Error("histograms should share the package-level bounds table")
	}
}

func TestHistogramShardedMergeMatchesTotals(t *testing.T) {
	h := NewHistogram()
	var want float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := float64(i%500)/100 + 0.001
		want += v
		h.ObserveSeconds(v)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if got := h.Mean(); math.Abs(got-want/n) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want/n)
	}
	s := h.Snapshot()
	if s.Min != 0.001 || math.Abs(s.Max-4.991) > 1e-9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	// Quantiles must be insensitive to which shard each observation landed
	// in: the median of a uniform 0..5 sweep is ≈2.5.
	if s.P50 < 2.0 || s.P50 > 3.0 {
		t.Errorf("p50 = %v, want ≈2.5", s.P50)
	}
}

func TestHistogramConcurrentObservers(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 32, 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i%100+1) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Errorf("count = %d, want %d", h.Count(), goroutines*per)
	}
	s := h.Snapshot()
	if s.Min > 0.0011 || s.Max < 0.099 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}
