package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdersEventsByTime(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3*time.Second, func() { order = append(order, 3) })
	k.Schedule(1*time.Second, func() { order = append(order, 1) })
	k.Schedule(2*time.Second, func() { order = append(order, 2) })
	end := k.Run(0)
	if end != 3*time.Second {
		t.Errorf("end = %v, want 3s", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Second, func() { order = append(order, i) })
	}
	k.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Schedule(time.Second, func() {
		k.Schedule(2*time.Second, func() { fired = append(fired, k.Now()) })
	})
	k.Run(0)
	if len(fired) != 1 || fired[0] != 3*time.Second {
		t.Errorf("nested event at %v, want 3s", fired)
	}
}

func TestKernelRunUntilStopsAndResumes(t *testing.T) {
	k := NewKernel()
	var count int
	for i := 1; i <= 5; i++ {
		k.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	k.Run(2500 * time.Millisecond)
	if count != 2 {
		t.Fatalf("count after Run(2.5s) = %d, want 2", count)
	}
	if k.Now() != 2500*time.Millisecond {
		t.Fatalf("Now = %v, want 2.5s", k.Now())
	}
	k.Run(0)
	if count != 5 {
		t.Fatalf("count after full run = %d, want 5", count)
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	var count int
	for i := 1; i <= 5; i++ {
		k.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				k.Stop()
			}
		})
	}
	k.Run(0)
	if count != 2 {
		t.Errorf("count = %d, want 2 (stopped)", count)
	}
	if k.Pending() != 3 {
		t.Errorf("pending = %d, want 3", k.Pending())
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, func() {
		k.Schedule(-5*time.Second, func() {
			if k.Now() != time.Second {
				t.Errorf("negative delay ran at %v, want 1s", k.Now())
			}
		})
	})
	k.Run(0)
}

func TestKernelNilFuncIgnored(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, nil)
	if k.Pending() != 0 {
		t.Error("nil event should not be queued")
	}
}

func TestKernelAtAbsolute(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Schedule(time.Second, func() {
		k.At(5*time.Second, func() { at = k.Now() })
	})
	k.Run(0)
	if at != 5*time.Second {
		t.Errorf("At fired at %v, want 5s", at)
	}
}

func TestKernelEventBudgetPanics(t *testing.T) {
	k := NewKernel()
	k.MaxEvents = 10
	var loop func()
	loop = func() { k.Schedule(time.Second, loop) }
	k.Schedule(time.Second, loop)
	defer func() {
		if recover() == nil {
			t.Error("expected event-budget panic")
		}
	}()
	k.Run(0)
}

func TestSecondsConversions(t *testing.T) {
	if Seconds(1.5) != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Sec(2500*time.Millisecond) != 2.5 {
		t.Errorf("Sec = %v", Sec(2500*time.Millisecond))
	}
	if Seconds(math.Inf(1)) <= 0 {
		t.Error("Seconds(+inf) should be a large positive time")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(3.0)
	}
	mean := sum / n
	if mean < 2.8 || mean > 3.2 {
		t.Errorf("Exp mean = %.3f, want ≈3.0", mean)
	}
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Error("Exp with non-positive mean should be 0")
	}
}

func TestRNGLogNormalMeanCV(t *testing.T) {
	g := NewRNG(7)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.LogNormalMeanCV(100, 0.5)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	cv := math.Sqrt(variance) / mean
	if mean < 95 || mean > 105 {
		t.Errorf("mean = %.2f, want ≈100", mean)
	}
	if cv < 0.45 || cv > 0.55 {
		t.Errorf("cv = %.3f, want ≈0.5", cv)
	}
	if g.LogNormalMeanCV(100, 0) != 100 {
		t.Error("cv=0 should return the mean exactly")
	}
	if g.LogNormalMeanCV(0, 1) != 0 {
		t.Error("mean<=0 should return 0")
	}
}

func TestRNGParetoBounds(t *testing.T) {
	g := NewRNG(9)
	err := quick.Check(func(u uint8) bool {
		xm := 1.0 + float64(u%50)
		return g.Pareto(xm, 1.5) >= xm
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRNGBernoulliProbability(t *testing.T) {
	g := NewRNG(13)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.22 || p > 0.28 {
		t.Errorf("Bernoulli(0.25) hit rate %.3f", p)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(17)
	f := g.Fork()
	// The fork must not replay the parent's stream.
	gVals := []float64{g.Float64(), g.Float64(), g.Float64()}
	fVals := []float64{f.Float64(), f.Float64(), f.Float64()}
	same := 0
	for i := range gVals {
		if gVals[i] == fVals[i] {
			same++
		}
	}
	if same == len(gVals) {
		t.Error("fork replayed parent stream")
	}
}

// TestKernelHeapStressVsReference drives the 4-ary heap with random delays
// and checks full (time, seq) ordering against a sorted reference.
func TestKernelHeapStressVsReference(t *testing.T) {
	rng := NewRNG(12345)
	k := NewKernel()
	type stamp struct {
		at  Time
		seq int
	}
	var fired []stamp
	const n = 5000
	for i := 0; i < n; i++ {
		i := i
		d := time.Duration(rng.Intn(1000)) * time.Millisecond
		k.Schedule(d, func() { fired = append(fired, stamp{k.Now(), i}) })
	}
	// Nested scheduling from inside events exercises mid-run pushes.
	k.Schedule(500*time.Millisecond, func() {
		for j := 0; j < 100; j++ {
			j := j
			k.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				fired = append(fired, stamp{k.Now(), n + 1 + j})
			})
		}
	})
	k.Run(0)
	if len(fired) != n+100 {
		t.Fatalf("fired %d events, want %d", len(fired), n+100)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("event %d fired at %v after %v", i, fired[i].at, fired[i-1].at)
		}
	}
	// Same-instant events must preserve schedule (FIFO) order for the
	// initial batch, where schedule order equals loop order.
	byTime := map[Time][]int{}
	for _, f := range fired {
		if f.seq < n {
			byTime[f.at] = append(byTime[f.at], f.seq)
		}
	}
	for at, seqs := range byTime {
		if !sort.IntsAreSorted(seqs) {
			t.Fatalf("same-instant batch at %v not FIFO: %v", at, seqs)
		}
	}
	if k.Pending() != 0 {
		t.Errorf("pending = %d after exhaustion", k.Pending())
	}
}

// TestKernelScheduleRunZeroAlloc pins the steady-state Schedule/Run loop at
// zero allocations per event.
func TestKernelScheduleRunZeroAlloc(t *testing.T) {
	k := NewKernel()
	var fn func()
	remaining := 0
	fn = func() {
		remaining--
		if remaining > 0 {
			k.Schedule(time.Microsecond, fn)
		}
	}
	// Warm the heap's backing array.
	remaining = 1000
	k.Schedule(time.Microsecond, fn)
	k.Run(0)

	allocs := testing.AllocsPerRun(10, func() {
		remaining = 1000
		k.Schedule(time.Microsecond, fn)
		k.Run(0)
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule/Run allocs per 1000-event run = %v, want 0", allocs)
	}
}
