package desmodel

import (
	"math"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

func TestLaneSerializesAtCost(t *testing.T) {
	k := sim.NewKernel()
	var order []*Req
	var completions []sim.Time
	l := newLane(k, 100*time.Millisecond, func(r *Req) {
		order = append(order, r)
		completions = append(completions, k.Now())
	})
	reqs := make([]Req, 10)
	for i := range reqs {
		l.enqueue(&reqs[i])
	}
	k.Run(0)
	if len(completions) != 10 {
		t.Fatalf("completed %d", len(completions))
	}
	for i, at := range completions {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if at != want {
			t.Errorf("item %d at %v, want %v", i, at, want)
		}
		if order[i] != &reqs[i] {
			t.Errorf("item %d is not the %d-th request enqueued", i, i)
		}
	}
}

func TestLaneDepthTracking(t *testing.T) {
	k := sim.NewKernel()
	l := newLane(k, time.Second, func(*Req) {})
	reqs := make([]Req, 5)
	for i := range reqs {
		l.enqueue(&reqs[i])
	}
	if l.q.n != 5 { // service starts only when the kernel runs
		t.Errorf("depth = %d, want 5", l.q.n)
	}
	k.Run(500 * time.Millisecond) // first item mid-service
	if l.q.n != 4 {
		t.Errorf("depth mid-service = %d, want 4", l.q.n)
	}
	k.Run(0)
	if l.q.n != 0 {
		t.Errorf("depth after drain = %d", l.q.n)
	}
	if l.maxDepth != 5 {
		t.Errorf("maxDepth = %d, want 5", l.maxDepth)
	}
}

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

func TestFirstSystemLowLoadLatency(t *testing.T) {
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

func TestFirstSystemWindowBindsInFlight(t *testing.T) {
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

func TestFirstSystemPollingGrid(t *testing.T) {
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

func TestFirstSystemSyncWorkersOverrideWindow(t *testing.T) {
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

func TestDirectSystemAdmissionCap(t *testing.T) {
	// The single-threaded API server caps request throughput at
	// 1/APIOverhead regardless of engine capacity (§5.3.1).
	a, k := testArena(sim.QueueCalendar)
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B) // engine far faster than admission
	p := DefaultDirectParams()
	var done []*Req
	sys := NewDirectSystemIn(a, p, model, perfmodel.A100_40, func(r *Req) { done = append(done, r) })
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
	cap := 1.0 / p.APIOverhead.Seconds() // 5.8 req/s
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
		insts := sys.clusters[0].deps[0].insts
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
