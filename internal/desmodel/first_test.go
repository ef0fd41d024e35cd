package desmodel

// The FIRST request path is a Federation configuration (FirstPathParams):
// these tests hold what that configuration owes — a request is observed only
// at the gateway, and the constructor refuses what the fabric hop cannot yet
// be combined with. Conservation and exactly-once under any setting of the
// fabric's knobs are the property harness's (property_test.go).

import (
	"testing"

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
		{"First with a scaler", func(p *FederationParams) { p.Scale.MaxInstances = 2 }, true},
		{"First with a replay", func(p *FederationParams) { p.Replay = &ReplayParams{} }, true},
		{"Hot with a scaler, no fabric", func(p *FederationParams) {
			p.First, p.Scale.MaxInstances = FirstParams{}, 2
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
