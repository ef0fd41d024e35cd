package desmodel

// The FIRST request path is a Federation configuration (FirstPathParams):
// these tests hold what that configuration owes — a request is observed only
// at the gateway, every request is conserved and observed exactly once under
// any setting of the fabric's knobs, and the constructor refuses what the
// fabric hop cannot yet be combined with.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/sim"
)

// TestReturnHopIsNotObserved stops a bounded run while the one request is on
// its way back from the engine: the pool has completed it, the gateway still
// holds its worker slot, and it reads unobserved, so Collect counts it failed.
// Stamping CompletedAt/ObservedAt as the engine hands the request to the
// relay lane — what the no-fabric path does — fails the first block.
func TestReturnHopIsNotObserved(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	gpu := perfmodel.A100_40
	p := DefaultFirstParams()
	var done []*Req
	f := NewFederationIn(a, FirstPathParams(p, model, gpu, 1), func(r *Req) { done = append(done, r) })
	r := &Req{ID: 1, PromptTok: 10, OutputTok: 20}
	k.Schedule(0, func() { f.Arrive(r) })

	atEngine := p.GatewayOverhead + p.HubSubmit + p.HubDispatchCost + p.EndpointPickup
	served := atEngine + model.PrefillTime(10, gpu) + 20*model.DecodeIter(1, gpu)
	until := served + p.HubRelayCost + p.ResultReturn/2 // on the return pipe
	if end := k.Run(until); end != until {
		t.Fatalf("run ended at %v, want the stop at %v", end, until)
	}
	if f.Arrivals() != 1 || f.Completions() != 1 || f.InFlight() != 1 {
		t.Errorf("on the return hop: %d arrivals, %d completions, %d in flight, want 1/1/1", f.Arrivals(), f.Completions(), f.InFlight())
	}
	if r.EngineAt != atEngine || r.CompletedAt != 0 || r.ObservedAt != 0 || len(done) != 0 {
		t.Errorf("on the return hop: EngineAt %v (want %v) CompletedAt %v ObservedAt %v, %d reported: nothing upstream of the gateway may observe it",
			r.EngineAt, atEngine, r.CompletedAt, r.ObservedAt, len(done))
	}
	if m := Collect([]*Req{r}); m.Completed != 0 || m.Failed != 1 {
		t.Errorf("Collect on the return hop = %d completed, %d failed, want 0/1", m.Completed, m.Failed)
	}

	k.Run(0)
	if f.InFlight() != 0 || len(done) != 1 || r.ObservedAt <= until || r.ObservedAt != r.CompletedAt {
		t.Errorf("after the hop: %d in flight, %d reported, CompletedAt %v ObservedAt %v", f.InFlight(), len(done), r.CompletedAt, r.ObservedAt)
	}
	if m := Collect([]*Req{r}); m.Completed != 1 || m.Failed != 0 {
		t.Errorf("Collect after the hop = %d completed, %d failed, want 1/0", m.Completed, m.Failed)
	}
}

// firstTrial is one random setting of every FirstParams knob that changes
// the path a request takes, a hot-instance count and an arrival trace.
type firstTrial struct {
	p    FirstParams
	hot  int
	gaps []sim.Time
	reqs []Req
}

func makeFirstTrial(seed int64) firstTrial {
	rng := sim.NewRNG(seed)
	tr := firstTrial{p: DefaultFirstParams(), hot: 1 + rng.Intn(4)}
	tr.p.Window = []int{0, 3, 40, 428}[rng.Intn(4)]
	if rng.Intn(3) == 0 {
		tr.p.SyncWorkers = 1 + rng.Intn(9)
	}
	if rng.Intn(2) == 0 {
		tr.p.AuthIntrospect = time.Duration(1+rng.Intn(2000)) * time.Millisecond
		if rng.Intn(2) == 0 {
			tr.p.AuthRatePerSec = float64(1 + rng.Intn(50))
		}
	}
	if rng.Intn(2) == 0 {
		tr.p.PollInterval = time.Duration(1+rng.Intn(4)) * 500 * time.Millisecond
	}
	tr.p.Routing = RoutingPolicy(rng.Intn(3))
	n := 150 + rng.Intn(250)
	burst := rng.Intn(3) == 0 // the benchmark script's infinite rate: everything at t = 0
	for i := 0; i < n; i++ {
		gap := sim.Time(rng.Exp(float64(40 * time.Millisecond)))
		if burst {
			gap = 0
		}
		tr.gaps = append(tr.gaps, gap)
		tr.reqs = append(tr.reqs, Req{ID: i + 1, PromptTok: 16 + rng.Intn(200), OutputTok: 4 + rng.Intn(300)})
	}
	return tr
}

// runFirstTrial runs the trial to exhaustion on queue kind q, checks
// conservation, exactly-once and the window bound, and returns every
// request's stamps for the cross-queue comparison.
func runFirstTrial(t *testing.T, tr firstTrial, q sim.QueueKind) string {
	n := len(tr.reqs)
	reqs := make([]Req, n)
	copy(reqs, tr.reqs)
	seen := make([]int, n+1)
	a, k := testArena(q)
	k.MaxEvents = 20_000_000
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	window := tr.p.window()
	var f *Federation
	f = NewFederationIn(a, FirstPathParams(tr.p, model, perfmodel.A100_40, tr.hot), func(r *Req) {
		seen[r.ID]++
		if window > 0 && f.InFlight() > window {
			t.Fatalf("%d in flight through a window of %d", f.InFlight(), window)
		}
	})
	var at sim.Time
	for i := range reqs {
		at += tr.gaps[i]
		r := &reqs[i]
		k.At(at, func() { f.Arrive(r) })
	}
	k.Run(0)

	if f.Arrivals() != int64(n) || f.Completions() != int64(n) || f.InFlight() != 0 {
		t.Fatalf("%d requests: %d arrivals, %d completions, %d in flight", n, f.Arrivals(), f.Completions(), f.InFlight())
	}
	if room := max(n-window, 0); f.MaxBacklog() > room || (window <= 0 && f.MaxBacklog() != 0) {
		t.Fatalf("backlog peaked at %d with %d requests and a window of %d", f.MaxBacklog(), n, window)
	}
	var sb strings.Builder
	for i := range reqs {
		r := &reqs[i]
		if seen[r.ID] != 1 {
			t.Fatalf("request %d observed %d times, want exactly once", r.ID, seen[r.ID])
		}
		if r.EngineAt < r.GatewayAt || r.CompletedAt <= r.EngineAt || r.ObservedAt < r.CompletedAt {
			t.Fatalf("request %d walked the path out of order: %+v", r.ID, *r)
		}
		fmt.Fprintf(&sb, "%d %d %d %d %d\n", r.ID, r.GatewayAt, r.EngineAt, r.CompletedAt, r.ObservedAt)
	}
	return sb.String()
}

// TestFirstPathConservationSweep is the FIRST configuration's property
// suite: 25 random settings of window, sync workers, auth introspection and
// its rate cap, poll grid, routing policy and 1-4 hot instances, on both
// queue kinds.
func TestFirstPathConservationSweep(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		tr := makeFirstTrial(7000 + seed*104729)
		cal := runFirstTrial(t, tr, sim.QueueCalendar)
		if heap := runFirstTrial(t, tr, sim.QueueHeap); heap != cal {
			t.Fatalf("seed %d (%+v, %d hot): stamps diverge between calendar and heap queues", seed, tr.p, tr.hot)
		}
	}
}

// TestFirstPathConstructorGuard: until ROADMAP 2(ii) says what becomes of a
// request on the pickup pipe when its instance drains or dies, the fabric
// hop is refused without hot instances and beside a scaler or a replay.
func TestFirstPathConstructorGuard(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	cases := []struct {
		name   string
		mutate func(*FederationParams)
		panics bool
	}{
		{"the paper's deployment", func(*FederationParams) {}, false},
		{"First with Hot == 0", func(p *FederationParams) { p.Hot = 0 }, true},
		{"First with a scaler", func(p *FederationParams) { p.Scale = AutoScaleParams{MaxInstances: 2} }, true},
		{"First with a replay", func(p *FederationParams) { p.Replay = &ReplayParams{} }, true},
		{"Hot with a scaler, no fabric", func(p *FederationParams) {
			p.First, p.Scale = FirstParams{}, AutoScaleParams{MaxInstances: 2}
		}, true},
		{"Hot alone, no fabric", func(p *FederationParams) { p.First = FirstParams{} }, false},
	}
	for _, c := range cases {
		p := FirstPathParams(DefaultFirstParams(), model, perfmodel.A100_40, 2)
		c.mutate(&p)
		func() {
			defer func() {
				if r := recover(); (r != nil) != c.panics {
					t.Errorf("%s: recovered %v, want a panic: %v", c.name, r, c.panics)
				}
			}()
			a, _ := testArena(sim.QueueCalendar)
			NewFederationIn(a, p, nil)
		}()
	}
}
