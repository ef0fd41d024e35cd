package federation

import (
	"errors"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
)

// walkBreakers trips after two failures and reopens 5 s later.
var walkBreakers = resilience.BreakerConfig{
	Window: 10 * time.Second, MinSamples: 2, FailureRate: 0.5, OpenFor: 5 * time.Second,
}

// TestRouteRetryAfterIsTheModels: a shed's Retry-After comes from the
// model's own refused endpoints, not from whichever breaker in the set
// reopens first.
func TestRouteRetryAfterIsTheModels(t *testing.T) {
	clk := clock.NewScaled(20000)
	r := NewRouter()
	r.AddRoute(perfmodel.Llama8B, newEndpoint(t, "a", 2, 8, clk))
	r.AddRoute(perfmodel.Llama70B, newEndpoint(t, "b", 2, 8, clk))
	set := resilience.NewSet(walkBreakers)
	now := time.Unix(1000, 0)
	r.UseBreakers(set, func() time.Time { return now })

	// ep-a (8B) reopens in 4 s, ep-b (70B) in 1 s.
	set.Record("ep-a", now.Add(-time.Second), false)
	set.Record("ep-a", now.Add(-time.Second), false)
	set.Record("ep-b", now.Add(-4*time.Second), false)
	set.Record("ep-b", now.Add(-4*time.Second), false)

	_, err := r.Route(perfmodel.Llama8B)
	var allOpen *AllOpenError
	if !errors.As(err, &allOpen) {
		t.Fatalf("err = %v, want AllOpenError", err)
	}
	if allOpen.RetryAfter != 4*time.Second {
		t.Errorf("RetryAfter = %v, want 4s (ep-a's reopening, not ep-b's)", allOpen.RetryAfter)
	}
}

// TestRouteReservesNoProbe: Route only peeks, so however often batch
// admission routes to a half-open endpoint, its probe is still free for the
// next real attempt — which takes it, and then nothing else gets in.
func TestRouteReservesNoProbe(t *testing.T) {
	clk := clock.NewScaled(20000)
	r := NewRouter()
	r.AddRoute(perfmodel.Llama8B, newEndpoint(t, "a", 2, 8, clk))
	set := resilience.NewSet(walkBreakers)
	base := time.Unix(1000, 0)
	now := base
	r.UseBreakers(set, func() time.Time { return now })
	set.Record("ep-a", now, false)
	set.Record("ep-a", now, false)

	now = base.Add(6 * time.Second) // past OpenFor: one probe is due
	for i := 0; i < 10; i++ {
		if d, err := r.Route(perfmodel.Llama8B); err != nil || d.Endpoint.ID() != "ep-a" {
			t.Fatalf("Route %d = %v/%v, want ep-a", i, d, err)
		}
	}
	w := Walk{Budget: 1}
	if d, err := r.Next(perfmodel.Llama8B, &w); err != nil || d.Endpoint.ID() != "ep-a" {
		t.Fatalf("attempt after Route calls = %v/%v, want ep-a's probe", d, err)
	}
	if _, err := r.Route(perfmodel.Llama8B); err == nil {
		t.Error("Route admitted while the only probe is out")
	}
	set.Record("ep-a", now, true)
	if _, err := r.Route(perfmodel.Llama8B); err != nil {
		t.Errorf("Route after the probe succeeded = %v", err)
	}
}

// TestRouterNextZeroAlloc pins the live walk at 0 allocs/op on closed
// breakers: rows built on the stack, no survivors slice, no error.
func TestRouterNextZeroAlloc(t *testing.T) {
	clk := clock.NewScaled(20000)
	r := NewRouter()
	for _, name := range []string{"a", "b", "c"} {
		ep := newEndpoint(t, name, 2, 8, clk)
		if name == "b" {
			if _, err := ep.Deploy(fabric.DeploymentConfig{Model: perfmodel.Llama8B}); err != nil {
				t.Fatal(err)
			}
		}
		r.AddRoute(perfmodel.Llama8B, ep)
	}
	set := resilience.NewSet(walkBreakers)
	now := time.Unix(1000, 0)
	r.UseBreakers(set, func() time.Time { return now })
	for _, id := range []string{"ep-a", "ep-b", "ep-c"} {
		set.Record(id, now, true)
	}
	var w Walk
	if n := testing.AllocsPerRun(200, func() {
		w = Walk{Budget: 3}
		r.Next(perfmodel.Llama8B, &w)
	}); n != 0 {
		t.Errorf("Router.Next allocates %v/op, want 0", n)
	}
	rows := []EndpointInfo{{ID: "ep-a", ModelState: "cold"}, {ID: "ep-b", ModelState: "running"}}
	if n := testing.AllocsPerRun(200, func() {
		w = Walk{Budget: 3}
		w.Next(rows, set, now)
	}); n != 0 {
		t.Errorf("Walk.Next allocates %v/op, want 0", n)
	}
}

// TestAddRoutePastMaxEndpointsPanics: a model's routes are bounded by the
// walk's tried set; configuration loading rejects more, so one more here
// is an internal error.
func TestAddRoutePastMaxEndpointsPanics(t *testing.T) {
	r := NewRouter()
	ep := newEndpoint(t, "a", 1, 8, clock.NewScaled(20000))
	for range MaxEndpoints {
		r.AddRoute(perfmodel.Llama8B, ep)
	}
	defer func() {
		if recover() == nil {
			t.Error("route past MaxEndpoints accepted")
		}
	}()
	r.AddRoute(perfmodel.Llama8B, ep)
}
