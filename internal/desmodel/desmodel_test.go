package desmodel

import (
	"math"
	"math/bits"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

func TestEngineSimSingleRequestTiming(t *testing.T) {
	k := sim.NewKernel()
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	var finished sim.Time
	e := MustEngineSim(k, model, perfmodel.A100_40, 0, func(seq *serving.Sequence) {
		finished = seq.FinishAt
	})
	e.Submit(220, 182, nil)
	k.Run(0)
	want := model.PrefillTime(220, perfmodel.A100_40) + 182*model.DecodeIter(1, perfmodel.A100_40)
	if d := finished - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("finish = %v, want %v", finished, want)
	}
}

func TestEngineSimEmissionLog(t *testing.T) {
	k := sim.NewKernel()
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	e := MustEngineSim(k, model, perfmodel.A100_40, 0, func(*serving.Sequence) {})
	e.Submit(10, 100, nil)
	e.Submit(10, 100, nil)
	k.Run(0)
	total := e.EmittedBy(k.Now())
	if total != 200 {
		t.Errorf("emitted = %d, want 200", total)
	}
	if e.EmittedBy(0) != 0 {
		t.Error("nothing should be emitted at t=0")
	}
	half := e.EmittedBy(k.Now() / 2)
	if half <= 0 || half >= 200 {
		t.Errorf("mid-run emissions = %d, want in (0,200)", half)
	}
}

func TestFirstPathLowLoadLatency(t *testing.T) {
	// A single request's end-to-end latency must be the engine cost plus
	// the calibrated pipelined overheads (Fig. 3's 9.2 s vs 3.0 s gap).
	a, k := testArena(sim.QueueCalendar)
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	p := DefaultFirstParams()
	var got *Req
	sys := NewFederationIn(a, FirstPathParams(p, model, perfmodel.A100_40, 1), func(r *Req) { got = r })
	r := &Req{ID: 1, PromptTok: 220, OutputTok: 182}
	k.Schedule(0, func() { sys.Arrive(r) })
	k.Run(0)
	if got == nil {
		t.Fatal("request never completed")
	}
	engine := model.PrefillTime(220, perfmodel.A100_40) + 182*model.DecodeIter(1, perfmodel.A100_40)
	overhead := p.GatewayOverhead + p.HubSubmit + p.HubDispatchCost + p.EndpointPickup + p.HubRelayCost + p.ResultReturn
	want := engine + overhead
	if d := got.Latency() - want; d < -50*time.Millisecond || d > 50*time.Millisecond {
		t.Errorf("latency = %v, want ≈%v", got.Latency(), want)
	}
	if got.Latency().Seconds() < 8.0 || got.Latency().Seconds() > 10.5 {
		t.Errorf("FIRST single-request latency = %.1fs, want ≈9s (Fig. 3)", got.Latency().Seconds())
	}
}

func TestFirstPathWindowBindsInFlight(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	p := DefaultFirstParams()
	p.Window = 10
	sys := NewFederationIn(a, FirstPathParams(p, model, perfmodel.A100_40, 1), nil)
	for i := 0; i < 50; i++ {
		r := &Req{ID: i, PromptTok: 10, OutputTok: 20}
		k.Schedule(0, func() { sys.Arrive(r) })
	}
	k.Schedule(time.Millisecond, func() {
		if sys.InFlight() > 10 {
			t.Errorf("in-flight %d exceeds window 10", sys.InFlight())
		}
		if sys.MaxBacklog() == 0 {
			t.Error("backlog never used")
		}
	})
	k.Run(0)
}

func TestFirstPathPollingGrid(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	p := DefaultFirstParams()
	p.PollInterval = 2 * time.Second
	var got *Req
	sys := NewFederationIn(a, FirstPathParams(p, model, perfmodel.A100_40, 1), func(r *Req) { got = r })
	r := &Req{ID: 1, PromptTok: 10, OutputTok: 20}
	k.Schedule(0, func() { sys.Arrive(r) })
	k.Run(0)
	if got.ObservedAt <= got.CompletedAt {
		t.Error("polling must delay observation")
	}
	offset := got.ObservedAt - got.GatewayAt
	if offset%(2*time.Second) != 0 {
		t.Errorf("observation offset %v not on the 2s grid", offset)
	}
}

func TestFirstPathSyncWorkersOverrideWindow(t *testing.T) {
	p := DefaultFirstParams()
	p.SyncWorkers = 9
	if p.window() != 9 {
		t.Errorf("window = %d, want 9", p.window())
	}
	p.SyncWorkers = 0
	if p.window() != 428 {
		t.Errorf("window = %d, want 428", p.window())
	}
}

func TestVLLMDirectAdmissionCap(t *testing.T) {
	// The single-threaded API server caps request throughput at
	// 1/HubDispatchCost regardless of engine capacity (§5.3.1).
	a, k := testArena(sim.QueueCalendar)
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B) // engine far faster than admission
	p := VLLMDirectParams()
	var done []*Req
	sys := NewFederationIn(a, FirstPathParams(p, model, perfmodel.A100_40, 1), func(r *Req) { done = append(done, r) })
	const n = 400
	for i := 0; i < n; i++ {
		r := &Req{ID: i, PromptTok: 10, OutputTok: 8}
		k.Schedule(0, func() { sys.Arrive(r) })
	}
	k.Run(0)
	if len(done) != n {
		t.Fatalf("completed %d/%d", len(done), n)
	}
	m := Collect(done)
	cap := 1.0 / p.HubDispatchCost.Seconds() // 5.8 req/s
	if m.ReqPerSec > cap*1.05 {
		t.Errorf("throughput %.2f exceeds admission cap %.2f", m.ReqPerSec, cap)
	}
	if m.ReqPerSec < cap*0.8 {
		t.Errorf("throughput %.2f far below admission cap %.2f", m.ReqPerSec, cap)
	}
}

func TestExtAPIConcurrencyAndRate(t *testing.T) {
	k := sim.NewKernel()
	m := serving.ExtAPIModel{
		BaseLatency:     time.Second,
		MaxConcurrent:   2,
		RatePerSec:      100, // effectively unbound; concurrency binds
		PerTokenLatency: 0,
	}
	var done []*Req
	sys := NewExtAPISystem(k, m, func(r *Req) { done = append(done, r) })
	for i := 0; i < 6; i++ {
		r := &Req{ID: i, PromptTok: 1, OutputTok: 1}
		k.Schedule(0, func() { sys.Arrive(r) })
	}
	k.Run(0)
	if len(done) != 6 {
		t.Fatalf("completed %d", len(done))
	}
	// 6 requests, concurrency 2, 1s service ⇒ ≈3s + admission gaps.
	if k.Now() < 3*time.Second {
		t.Errorf("run finished at %v, too fast for concurrency 2", k.Now())
	}
}

func TestCollectMetricsMath(t *testing.T) {
	reqs := []*Req{
		{OutputTok: 100, ArrivalAt: 0, ObservedAt: sim.Seconds(10)},
		{OutputTok: 200, ArrivalAt: 0, ObservedAt: sim.Seconds(20)},
		{OutputTok: 300, ArrivalAt: sim.Seconds(5), ObservedAt: sim.Seconds(20)},
		{Failed: true},
	}
	m := Collect(reqs)
	if m.Requests != 4 || m.Completed != 3 || m.Failed != 1 {
		t.Errorf("counts = %+v", m)
	}
	if m.DurationS != 20 {
		t.Errorf("duration = %v", m.DurationS)
	}
	if math.Abs(m.ReqPerSec-0.15) > 1e-9 {
		t.Errorf("req/s = %v", m.ReqPerSec)
	}
	if math.Abs(m.TokPerSec-30) > 1e-9 {
		t.Errorf("tok/s = %v", m.TokPerSec)
	}
	// Latencies: 10, 20, 15 → median 15.
	if math.Abs(m.MedianLatS-15) > 1e-9 {
		t.Errorf("median = %v", m.MedianLatS)
	}
	if math.Abs(m.MeanLatS-15) > 1e-9 {
		t.Errorf("mean = %v", m.MeanLatS)
	}
}

// TestCollectSelectsLikeSort holds Collect's selected order statistics to a
// sort.Float64s oracle bit for bit, over the input shapes that trouble a
// quickselect, and drives a median-of-three killer into the slices.Sort
// fallback.
func TestCollectSelectsLikeSort(t *testing.T) {
	rng := sim.NewRNG(25)
	ms := func(v int) time.Duration { return time.Duration(1+v) * time.Millisecond }
	shapes := []struct {
		name string
		lat  func(i, n int) time.Duration
	}{
		{"random", func(int, int) time.Duration { return 1 + time.Duration(rng.Int63()%int64(time.Second)) }},
		{"duplicates", func(int, int) time.Duration { return ms(rng.Intn(5)) }},
		{"sorted", func(i, _ int) time.Duration { return ms(i) }},
		{"reversed", func(i, n int) time.Duration { return ms(n - i) }},
		{"all-equal", func(int, int) time.Duration { return ms(7) }},
		{"organ-pipe", func(i, n int) time.Duration { return ms(min(i, n-1-i)) }},
		{"rotated", func(i, n int) time.Duration { return ms((i + 1) % n) }},
		{"sawtooth", func(i, _ int) time.Duration { return ms(i % 50) }},
	}
	check := func(name string, lats []time.Duration) {
		t.Helper()
		reqs := make([]*Req, len(lats))
		want := make([]float64, len(lats))
		for i, d := range lats {
			reqs[i] = &Req{ObservedAt: d}
			want[i] = sim.Sec(d)
		}
		sort.Float64s(want)
		p99 := min(int(0.99*float64(len(want))), len(want)-1)
		m := Collect(reqs)
		if math.Float64bits(m.MedianLatS) != math.Float64bits(want[len(want)/2]) || math.Float64bits(m.P99LatS) != math.Float64bits(want[p99]) {
			t.Fatalf("%s, n=%d: median %v, p99 %v; sorting gives %v, %v", name, len(lats), m.MedianLatS, m.P99LatS, want[len(want)/2], want[p99])
		}
	}
	shaped := func(lat func(i, n int) time.Duration, n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = lat(i, n)
		}
		return out
	}
	for _, s := range shapes {
		for n := 1; n <= 600; n++ {
			check(s.name, shaped(s.lat, n))
		}
	}
	check("random", shaped(shapes[0].lat, 250_000))
	// The fallback is for adversaries: no shape a run's latencies take —
	// rising with a queue, falling as it drains, reset, tied — spends the
	// budget.
	for _, s := range shapes {
		seen := make([]float64, 100_000)
		for i, d := range shaped(s.lat, len(seen)) {
			seen[i] = sim.Sec(d)
		}
		p99 := int(0.99 * float64(len(seen)))
		if selectNth(seen, p99) || selectNth(seen[:p99+1], len(seen)/2) {
			t.Errorf("%s, n=%d: a selection ran out of rounds and sorted", s.name, len(seen))
		}
	}

	const n = 600
	p99 := int(0.99 * n)
	killer := medianOfThreeKiller(t, n, p99)
	lats := make([]time.Duration, n)
	seen := make([]float64, n)
	for i, v := range killer {
		lats[i] = ms(int(v))
		seen[i] = sim.Sec(lats[i]) // what Collect hands selectNth
	}
	if !selectNth(seen, p99) {
		t.Fatal("the median-of-three killer did not exhaust selectNth's round budget")
	}
	check("median-of-three killer", lats)
}

// medianOfThreeKiller returns n values on which every partition round of a
// selection of index k, up to selectNth's round budget, takes the range's
// second-smallest value as its pivot and so strips two values: McIlroy's
// adversary, played against partition itself. An undecided value is held as
// n plus its starting index (larger than every value decided so far, and
// telling where it started); the values at two of a round's pivot slots are
// decided, smallest first, just before the round. The rounds compare values
// only with their pivot, so the values still undecided when the budget runs
// out may be any that exceed the decided ones: they are dealt in falling
// order of the slot each then holds, which leaves the range selectNth hands
// to its fallback sort reversed, and something other than the kth smallest
// at k.
func medianOfThreeKiller(t *testing.T, n, k int) []float64 {
	probe := make([]float64, n)
	for i := range probe {
		probe[i] = float64(n + i)
	}
	out := make([]float64, n)
	next := 0.0
	decide := func(slot int) {
		out[int(probe[slot])-n] = next
		probe[slot] = next
		next++
	}
	for lo, hi, rounds := 0, n, 2*bits.Len(uint(n)); rounds > 0 && hi-lo > 16 && k >= lo+2; rounds-- {
		q1, mid, _ := pivotSlots(lo, hi)
		decide(q1)
		decide(mid)
		if _, gt := partition(probe, lo, hi); gt != lo+2 {
			t.Fatalf("killer round at %d: partition left [%d, %d), want [%d, %d)", lo, gt, hi, lo+2, hi)
		}
		lo += 2
	}
	for slot, v := range probe {
		if v >= float64(n) {
			out[int(v)-n] = float64(2*n - slot)
		}
	}
	return out
}

func TestCollectEmpty(t *testing.T) {
	m := Collect(nil)
	if m.Completed != 0 || m.ReqPerSec != 0 {
		t.Errorf("empty = %+v", m)
	}
}

func TestLeastLoadedRouting(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	p := DefaultFirstParams()
	p.Window = 0
	sys := NewFederationIn(a, FirstPathParams(p, model, perfmodel.A100_40, 4), nil)
	for i := 0; i < 200; i++ {
		r := &Req{ID: i, PromptTok: 10, OutputTok: 400}
		k.Schedule(0, func() { sys.Arrive(r) })
	}
	// After dispatch settles, instances should hold balanced loads.
	k.Schedule(20*time.Second, func() {
		insts := sys.clusters[0].deps[0].pool.Members()
		depths := make([]int, len(insts))
		for i, in := range insts {
			depths[i] = in.eng.Depth()
		}
		min, max := depths[0], depths[0]
		for _, d := range depths {
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if max-min > 10 {
			t.Errorf("imbalanced routing: %v", depths)
		}
		k.Stop()
	})
	k.Run(0)
}

// TestOpenLoopAllocsIndependentOfN: the runner carves its requests from one
// block, so a run allocates as often for 100 000 arrivals as for 1 000. The
// collector stays off while it counts: its own bookkeeping after a large
// block would otherwise show up as a few stray allocations.
func TestOpenLoopAllocsIndependentOfN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	k := sim.NewKernel()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			k.Reset()
			OpenLoop(k, n, func(*Req) {}, func(i int, r *Req) sim.Time {
				r.ID = i + 1
				return k.Now() + sim.Time(i%3) // ties and gaps
			})
			k.Run(0)
		})
	}
	if small, large := allocs(1_000), allocs(100_000); small != large {
		t.Errorf("OpenLoop allocates %v times for 1 000 arrivals and %v for 100 000", small, large)
	}
}

// TestOpenLoopArrivalsPrecedeSameInstantBookings: arrivals at one instant
// all fire before anything an arrival books for that instant, as they would
// had every arrival been scheduled up front — the order the runner's
// reserved sequence numbers exist for.
func TestOpenLoopArrivalsPrecedeSameInstantBookings(t *testing.T) {
	for _, q := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
		k := sim.NewKernelWith(q)
		var order []int
		OpenLoop(k, 4, func(r *Req) {
			order = append(order, r.ID)
			k.Schedule(0, func() { order = append(order, -r.ID) })
		}, func(i int, r *Req) sim.Time {
			r.ID = i + 1
			return time.Second
		})
		k.Run(0)
		if want := []int{1, 2, 3, 4, -1, -2, -3, -4}; !slices.Equal(order, want) {
			t.Errorf("%v: arrivals and their same-instant bookings ran as %v, want %v", q, order, want)
		}
	}
}
