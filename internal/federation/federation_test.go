package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/metrics"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/scheduler"
)

func TestSelectPriorityRules(t *testing.T) {
	cases := []struct {
		name       string
		candidates []EndpointInfo
		wantIdx    int
		wantReason Reason
	}{
		{
			name: "active instance beats capacity",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", FreeGPUs: 100, NeededGPUs: 8},
				{ID: "b", ModelState: "running", FreeGPUs: 0, NeededGPUs: 8},
			},
			wantIdx: 1, wantReason: ReasonActive,
		},
		{
			name: "queued counts as active (paper: running or queued)",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", FreeGPUs: 100, NeededGPUs: 8},
				{ID: "b", ModelState: "queued", FreeGPUs: 0, NeededGPUs: 8},
			},
			wantIdx: 1, wantReason: ReasonActive,
		},
		{
			name: "least depth among active endpoints",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 50},
				{ID: "b", ModelState: "running", Depth: 5},
			},
			wantIdx: 1, wantReason: ReasonActive,
		},
		{
			name: "capacity fallback in configuration order",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", FreeGPUs: 4, NeededGPUs: 8},
				{ID: "b", ModelState: "cold", FreeGPUs: 16, NeededGPUs: 8},
			},
			wantIdx: 1, wantReason: ReasonCapacity,
		},
		{
			name: "first configured when nothing fits",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", FreeGPUs: 0, NeededGPUs: 8},
				{ID: "b", ModelState: "cold", FreeGPUs: 0, NeededGPUs: 8},
			},
			wantIdx: 0, wantReason: ReasonFirstConf,
		},
		{
			name: "starting treated as active",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "starting"},
				{ID: "b", ModelState: "cold", FreeGPUs: 64, NeededGPUs: 8},
			},
			wantIdx: 0, wantReason: ReasonActive,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			idx, reason, err := Select(c.candidates)
			if err != nil {
				t.Fatal(err)
			}
			if idx != c.wantIdx || reason != c.wantReason {
				t.Errorf("Select = (%d, %s), want (%d, %s)", idx, reason, c.wantIdx, c.wantReason)
			}
		})
	}
}

func TestSelectEmpty(t *testing.T) {
	if idx, _, err := Select(nil); err == nil || idx != -1 {
		t.Errorf("empty candidate list: idx=%d err=%v, want -1 and an error", idx, err)
	}
	if idx, _, err := Select([]EndpointInfo{}); err == nil || idx != -1 {
		t.Errorf("zero-length candidate slice: idx=%d err=%v, want -1 and an error", idx, err)
	}
}

// TestSelectAllColdRegistry covers a registry where every endpoint is cold:
// capacity decides when some cluster fits, and endpoints advertising
// NeededGPUs=0 (no catalog entry for the cluster's GPU shape) must never win
// the capacity rung on a vacuous 0≥0 comparison.
func TestSelectAllColdRegistry(t *testing.T) {
	cases := []struct {
		name       string
		candidates []EndpointInfo
		wantIdx    int
		wantReason Reason
	}{
		{
			name: "first fitting cluster wins capacity",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", FreeGPUs: 7, NeededGPUs: 8},
				{ID: "b", ModelState: "cold", FreeGPUs: 8, NeededGPUs: 8},
				{ID: "c", ModelState: "cold", FreeGPUs: 64, NeededGPUs: 8},
			},
			wantIdx: 1, wantReason: ReasonCapacity,
		},
		{
			name: "zero-need endpoints cannot win capacity",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", FreeGPUs: 0, NeededGPUs: 0},
				{ID: "b", ModelState: "cold", FreeGPUs: 0, NeededGPUs: 8},
			},
			wantIdx: 0, wantReason: ReasonFirstConf,
		},
		{
			name: "exhausted registry falls to first configured",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", FreeGPUs: 3, NeededGPUs: 4},
				{ID: "b", ModelState: "cold", FreeGPUs: 2, NeededGPUs: 4},
				{ID: "c", ModelState: "cold", FreeGPUs: 0, NeededGPUs: 4},
			},
			wantIdx: 0, wantReason: ReasonFirstConf,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			idx, reason, err := Select(c.candidates)
			if err != nil {
				t.Fatal(err)
			}
			if idx != c.wantIdx || reason != c.wantReason {
				t.Errorf("Select = (%d, %s), want (%d, %s)", idx, reason, c.wantIdx, c.wantReason)
			}
		})
	}
}

// TestSelectDepthTieBreaks pins the tie semantics among active endpoints:
// strictly smaller depth wins, equal depth keeps the earliest-configured
// endpoint, and cold endpoints never join the depth comparison.
func TestSelectDepthTieBreaks(t *testing.T) {
	cases := []struct {
		name       string
		candidates []EndpointInfo
		wantIdx    int
	}{
		{
			name: "equal depths keep configuration order",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 7},
				{ID: "b", ModelState: "running", Depth: 7},
				{ID: "c", ModelState: "running", Depth: 7},
			},
			wantIdx: 0,
		},
		{
			name: "later shallower endpoint wins strictly",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 7},
				{ID: "b", ModelState: "queued", Depth: 6},
				{ID: "c", ModelState: "starting", Depth: 6},
			},
			wantIdx: 1,
		},
		{
			name: "cold endpoint depth is ignored",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", Depth: 0, FreeGPUs: 64, NeededGPUs: 8},
				{ID: "b", ModelState: "running", Depth: 1000},
			},
			wantIdx: 1,
		},
		{
			name: "mixed active states tie on depth",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "queued", Depth: 3},
				{ID: "b", ModelState: "running", Depth: 3},
			},
			wantIdx: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			idx, reason, err := Select(c.candidates)
			if err != nil {
				t.Fatal(err)
			}
			if idx != c.wantIdx || reason != ReasonActive {
				t.Errorf("Select = (%d, %s), want (%d, %s)", idx, reason, c.wantIdx, ReasonActive)
			}
		})
	}
}

// TestSelectInstanceAwareDepth pins the auto-scaled tie-break: among active
// endpoints the comparison is depth per live instance, so a pool that scaled
// out advertises its extra engines; zero instances means one (the field
// postdates single-instance endpoints), and exact per-instance ties keep the
// earliest-configured endpoint.
func TestSelectInstanceAwareDepth(t *testing.T) {
	cases := []struct {
		name       string
		candidates []EndpointInfo
		wantIdx    int
	}{
		{
			name: "scaled-out pool beats a shallower single instance",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 8, Instances: 1},
				{ID: "b", ModelState: "running", Depth: 12, Instances: 3}, // 4 per instance
			},
			wantIdx: 1,
		},
		{
			name: "zero instances normalizes to one",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 6},
				{ID: "b", ModelState: "running", Depth: 5, Instances: 0},
			},
			wantIdx: 1,
		},
		{
			name: "equal per-instance depth keeps configuration order",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 4, Instances: 2},
				{ID: "b", ModelState: "running", Depth: 6, Instances: 3},
			},
			wantIdx: 0,
		},
		{
			name: "deep pool still loses to an idle single instance",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 9, Instances: 4},
				{ID: "b", ModelState: "starting", Depth: 0, Instances: 1},
			},
			wantIdx: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			idx, reason, err := Select(c.candidates)
			if err != nil {
				t.Fatal(err)
			}
			if idx != c.wantIdx || reason != ReasonActive {
				t.Errorf("Select = (%d, %s), want (%d, %s)", idx, reason, c.wantIdx, ReasonActive)
			}
		})
	}
}

// TestSelectStableUnderCopies is the property test: Select is a pure
// function of the candidate values — a deep copy of the slice yields the
// same decision, and the input is never mutated. The DES federation model
// snapshots candidates into a reused scratch slice, so both properties are
// load-bearing.
func TestSelectStableUnderCopies(t *testing.T) {
	states := []string{"running", "starting", "queued", "cold"}
	rng := rand.New(rand.NewSource(20251015))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		candidates := make([]EndpointInfo, n)
		for i := range candidates {
			candidates[i] = EndpointInfo{
				ID:         fmt.Sprintf("ep-%d", i),
				ModelState: states[rng.Intn(len(states))],
				FreeGPUs:   rng.Intn(16),
				NeededGPUs: rng.Intn(9),
				Depth:      rng.Intn(4),
				Instances:  rng.Intn(5),
			}
		}
		orig := append([]EndpointInfo(nil), candidates...)
		idx1, reason1, err1 := Select(candidates)
		if !reflect.DeepEqual(candidates, orig) {
			t.Fatalf("trial %d: Select mutated its input:\nbefore %+v\nafter  %+v", trial, orig, candidates)
		}
		clone := append([]EndpointInfo(nil), candidates...)
		idx2, reason2, err2 := Select(clone)
		if idx1 != idx2 || reason1 != reason2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: decision unstable under slice copy: (%d,%s,%v) vs (%d,%s,%v) on %+v",
				trial, idx1, reason1, err1, idx2, reason2, err2, candidates)
		}
		if idx1 < 0 || idx1 >= n {
			t.Fatalf("trial %d: index %d out of range [0,%d)", trial, idx1, n)
		}
	}
}

func newEndpoint(t *testing.T, name string, nodes, gpusPerNode int, clk clock.Clock) *fabric.Endpoint {
	t.Helper()
	cl := cluster.New(name, nodes, gpusPerNode, perfmodel.A100_40)
	sched := scheduler.New(cl, clk, scheduler.Config{Prologue: 2 * time.Second})
	ep, err := fabric.NewEndpoint(fabric.EndpointConfig{ID: "ep-" + name, Scheduler: sched}, clk, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close(); sched.Close() })
	return ep
}

func TestRouterAgainstLiveEndpoints(t *testing.T) {
	clk := clock.NewScaled(20000)
	big := newEndpoint(t, "big", 4, 8, clk)
	small := newEndpoint(t, "small", 1, 4, clk)

	r := NewRouter()
	// Registry order: small first (priority for first-configured).
	r.AddRoute(perfmodel.Llama70B, small)
	r.AddRoute(perfmodel.Llama70B, big)

	// 70B needs 8 GPUs: small (4-GPU nodes, 1 node) can never host it, so
	// capacity routing must pick big.
	d, err := r.Route(perfmodel.Llama70B)
	if err != nil {
		t.Fatal(err)
	}
	if d.Endpoint.ID() != "ep-big" || d.Reason != ReasonCapacity {
		t.Errorf("decision = %s/%s, want ep-big/capacity", d.Endpoint.ID(), d.Reason)
	}

	// Deploy on big and warm it: routing should switch to active.
	dep, err := big.Deploy(fabric.DeploymentConfig{Model: perfmodel.Llama70B, MinInstances: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for dep.ReadyCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("instance never ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	d, err = r.Route(perfmodel.Llama70B)
	if err != nil {
		t.Fatal(err)
	}
	if d.Endpoint.ID() != "ep-big" || d.Reason != ReasonActive {
		t.Errorf("decision = %s/%s, want ep-big/active", d.Endpoint.ID(), d.Reason)
	}
}

func TestRouterUnknownModel(t *testing.T) {
	r := NewRouter()
	if _, err := r.Route("unrouted/model"); err == nil {
		t.Error("unrouted model accepted")
	}
	clk := clock.NewScaled(1000)
	ep := newEndpoint(t, "x", 1, 8, clk)
	r.AddRoute("not-in-catalog", ep)
	if _, err := r.Route("not-in-catalog"); err == nil {
		t.Error("model missing from catalog accepted")
	}
}

func TestRouterModelsList(t *testing.T) {
	clk := clock.NewScaled(1000)
	ep := newEndpoint(t, "y", 1, 8, clk)
	r := NewRouter()
	r.AddRoute(perfmodel.Llama8B, ep)
	r.AddRoute(perfmodel.Llama70B, ep)
	if got := len(r.Models()); got != 2 {
		t.Errorf("models = %d", got)
	}
	if got := len(r.Endpoints(perfmodel.Llama8B)); got != 1 {
		t.Errorf("endpoints = %d", got)
	}
}

// TestRouterBreakerAwareRouting pins the resilience wiring: tripped
// endpoints fall out of the candidate set, a walk's failed endpoints send
// its next attempt to the next-best cluster, and an all-open model reports
// AllOpenError with a Retry-After derived from the soonest half-open probe.
func TestRouterBreakerAwareRouting(t *testing.T) {
	clk := clock.NewScaled(20000)
	a := newEndpoint(t, "a", 2, 8, clk)
	b := newEndpoint(t, "b", 2, 8, clk)

	r := NewRouter()
	r.AddRoute(perfmodel.Llama8B, a)
	r.AddRoute(perfmodel.Llama8B, b)

	set := resilience.NewSet(resilience.BreakerConfig{
		Window: 10 * time.Second, MinSamples: 2, FailureRate: 0.5, OpenFor: 5 * time.Second,
	})
	base := time.Unix(1000, 0)
	now := base
	r.UseBreakers(set, func() time.Time { return now })

	// Both healthy: registry order picks ep-a (capacity rung; nothing
	// deployed).
	d, err := r.Route(perfmodel.Llama8B)
	if err != nil {
		t.Fatal(err)
	}
	if d.Endpoint.ID() != "ep-a" {
		t.Fatalf("healthy route = %s, want ep-a", d.Endpoint.ID())
	}

	// A walk that has failed on every endpoint is ErrNoCandidates —
	// distinct from breaker-driven unavailability. (Its attempts record
	// successes so no breaker trips.)
	w := Walk{Budget: 3}
	for i := 0; i < 2; i++ {
		d, err := r.Next(perfmodel.Llama8B, &w)
		if err != nil {
			t.Fatal(err)
		}
		set.Record(d.Endpoint.ID(), now, true)
		if !w.Fail() {
			t.Fatal("budget of 3 spent after", i+1, "attempts")
		}
	}
	if _, err := r.Next(perfmodel.Llama8B, &w); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("tried everywhere: err = %v, want ErrNoCandidates", err)
	}

	// Trip ep-a: routing must shift to ep-b on a fresh walk.
	set.Record("ep-a", now, false)
	set.Record("ep-a", now, false)
	d, err = r.Route(perfmodel.Llama8B)
	if err != nil {
		t.Fatal(err)
	}
	if d.Endpoint.ID() != "ep-b" {
		t.Errorf("route with ep-a open = %s, want ep-b", d.Endpoint.ID())
	}

	// Failing on the last healthy endpoint while the other is open still
	// reports the breaker horizon (the client gets a Retry-After, not a
	// blind failure).
	w = Walk{Budget: 3}
	if d, err = r.Next(perfmodel.Llama8B, &w); err != nil || d.Endpoint.ID() != "ep-b" {
		t.Fatalf("walk with ep-a open = %v/%v, want ep-b", d, err)
	}
	set.Record("ep-b", now, true)
	w.Fail()
	if _, err := r.Next(perfmodel.Llama8B, &w); err == nil {
		t.Error("failing over from the last healthy endpoint succeeded")
	} else {
		var ao *AllOpenError
		if !errors.As(err, &ao) || ao.Model != perfmodel.Llama8B {
			t.Errorf("err = %v, want AllOpenError for the model", err)
		}
	}

	// Trip ep-b too: all open → AllOpenError carrying the soonest probe.
	set.Record("ep-b", now.Add(time.Second), false)
	set.Record("ep-b", now.Add(time.Second), false)
	now = base.Add(2 * time.Second)
	_, err = r.Route(perfmodel.Llama8B)
	var allOpen *AllOpenError
	if !errors.As(err, &allOpen) {
		t.Fatalf("all-open route err = %v, want AllOpenError", err)
	}
	// ep-a reopens at base+5s → 3s from now (sooner than ep-b's base+6s).
	if allOpen.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %v, want 3s", allOpen.RetryAfter)
	}

	// Past OpenFor, the probe-admitting endpoint is routable again.
	now = base.Add(6 * time.Second)
	d, err = r.Route(perfmodel.Llama8B)
	if err != nil {
		t.Fatal(err)
	}
	if d.Endpoint.ID() != "ep-a" {
		t.Errorf("post-expiry route = %s, want ep-a probe", d.Endpoint.ID())
	}

	// Detaching the set restores plain routing even while breakers are open.
	r.UseBreakers(nil, nil)
	now = base
	if d, err = r.Route(perfmodel.Llama8B); err != nil || d.Endpoint.ID() != "ep-a" {
		t.Errorf("detached route = %v/%v, want ep-a", d, err)
	}
}

// TestSelectCordonedDemotion pins the drain-aware rung order: a cordoned
// active endpoint loses to any uncordoned active endpoint and to any
// capacity-rung pick, but still beats a blind first-configured guess —
// and the zero value (Cordoned false) leaves every pre-existing decision
// untouched.
func TestSelectCordonedDemotion(t *testing.T) {
	cases := []struct {
		name       string
		candidates []EndpointInfo
		wantIdx    int
		wantReason Reason
	}{
		{
			name: "uncordoned active beats cordoned active with less depth",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 0, Cordoned: true},
				{ID: "b", ModelState: "running", Depth: 50},
			},
			wantIdx: 1, wantReason: ReasonActive,
		},
		{
			name: "capacity beats cordoned active",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 0, Cordoned: true},
				{ID: "b", ModelState: "cold", FreeGPUs: 16, NeededGPUs: 8},
			},
			wantIdx: 1, wantReason: ReasonCapacity,
		},
		{
			name: "cordoned active beats first-configured",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "cold", FreeGPUs: 0, NeededGPUs: 8},
				{ID: "b", ModelState: "running", Depth: 9, Cordoned: true},
			},
			wantIdx: 1, wantReason: ReasonActive,
		},
		{
			name: "least loaded among all-cordoned candidates",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 50, Cordoned: true},
				{ID: "b", ModelState: "running", Depth: 5, Cordoned: true},
			},
			wantIdx: 1, wantReason: ReasonActive,
		},
		{
			name: "zero value keeps the drain-blind decision",
			candidates: []EndpointInfo{
				{ID: "a", ModelState: "running", Depth: 50},
				{ID: "b", ModelState: "running", Depth: 5},
			},
			wantIdx: 1, wantReason: ReasonActive,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx, reason, err := Select(tc.candidates)
			if err != nil {
				t.Fatal(err)
			}
			if idx != tc.wantIdx || reason != tc.wantReason {
				t.Fatalf("Select = (%d, %s), want (%d, %s)", idx, reason, tc.wantIdx, tc.wantReason)
			}
		})
	}
}
