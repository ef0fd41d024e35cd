package fabric

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/metrics"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
)

type testFabric struct {
	clk   clock.Clock
	hub   *Hub
	ep    *Endpoint
	sched *scheduler.Scheduler
	cl    *cluster.Cluster
}

func newTestFabric(t *testing.T, hubCfg HubConfig, nodes int) *testFabric {
	return newTestFabricScaled(t, hubCfg, nodes, 20000)
}

// newTestFabricScaled lets timing-sensitive tests pick a slower clock:
// at 20000× a few wall milliseconds of goroutine scheduling skew (e.g.
// under -race) becomes minutes of virtual time, which can drain a queue
// the test needs to observe deep.
func newTestFabricScaled(t *testing.T, hubCfg HubConfig, nodes int, factor int64) *testFabric {
	t.Helper()
	clk := clock.NewScaled(factor)
	cl := cluster.New("testcl", nodes, 8, perfmodel.A100_40)
	sched := scheduler.New(cl, clk, scheduler.Config{Prologue: 5 * time.Second})
	ep, err := NewEndpoint(EndpointConfig{
		ID:            "ep-test",
		Scheduler:     sched,
		PickupLatency: 100 * time.Millisecond,
	}, clk, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if hubCfg == (HubConfig{}) {
		hubCfg = HubConfig{
			SubmitLatency: time.Millisecond, DispatchCost: time.Millisecond,
			RelayCost: time.Millisecond, MaxQueuedTasks: 1024,
		}
	}
	hub := NewHub(clk, hubCfg, "client-id", "client-secret", metrics.NewRegistry())
	hub.RegisterEndpoint(ep)
	t.Cleanup(func() {
		ep.Close()
		hub.Close()
		sched.Close()
	})
	return &testFabric{clk: clk, hub: hub, ep: ep, sched: sched, cl: cl}
}

func (f *testFabric) client() *Client {
	return NewClient(f.hub, ClientConfig{
		Credentials: Credentials{ClientID: "client-id", ClientSecret: "client-secret"},
	})
}

func (f *testFabric) deploy(t *testing.T, cfg DeploymentConfig) *Deployment {
	t.Helper()
	d, err := f.ep.Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestHubCredentialValidation(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	bad := NewClient(f.hub, ClientConfig{Credentials: Credentials{ClientID: "x", ClientSecret: "y"}})
	_, err := bad.Submit("ep-test", FnInfer, nil)
	if !errors.Is(err, ErrBadCredentials) {
		t.Errorf("err = %v, want bad credentials (§3.2.3: users cannot reach endpoints directly)", err)
	}
}

func TestHubUnknownEndpointAndFunction(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	c := f.client()
	if _, err := c.Submit("ep-nowhere", FnInfer, nil); !errors.Is(err, ErrUnknownEndpoint) {
		t.Errorf("err = %v", err)
	}
	if _, err := c.Submit("ep-test", "rm -rf /", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("unregistered function err = %v (§3.2.2 security)", err)
	}
}

func TestInferThroughFabric(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 1})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.Infer(ctx, "ep-test", InferRequest{
		Model: perfmodel.Llama8B, PromptTok: 100, OutputTok: 32, WantText: true, Prompt: "hello fabric",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputTok != 32 || res.Model != perfmodel.Llama8B {
		t.Errorf("result = %+v", res)
	}
	if res.Text == "" {
		t.Error("WantText ignored")
	}
	if res.ServeTime <= 0 {
		t.Error("serve time missing")
	}
}

func TestRegisteredAdminFunction(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	f.ep.RegisterFunction("admin.echo", func(_ context.Context, payload any) (any, error) {
		return payload, nil
	})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := c.Run(ctx, "ep-test", "admin.echo", "ping")
	if err != nil {
		t.Fatal(err)
	}
	if out != "ping" {
		t.Errorf("echo = %v", out)
	}
}

func TestColdStartOnDemand(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	d := f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 0, MaxInstances: 1})
	if d.InstanceCount() != 0 {
		t.Fatalf("scaled-to-zero deployment has %d instances", d.InstanceCount())
	}
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 10, OutputTok: 8}); err != nil {
		t.Fatal(err)
	}
	if d.Stats().ColdStarts == 0 {
		t.Error("cold start not counted")
	}
	if d.ReadyCount() != 1 {
		t.Errorf("ready = %d after cold start", d.ReadyCount())
	}
}

// TestHotNodeIdleRelease: an instance left idle is held for HotIdleTimeout's
// worth of control steps and released on the next, its GPUs freed. The
// periods are thousands of hours, so the loop never ticks on its own and
// the test runs each step itself.
func TestHotNodeIdleRelease(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	d := f.deploy(t, DeploymentConfig{
		Model:           perfmodel.Llama8B,
		MinInstances:    0,
		MaxInstances:    1,
		HotIdleTimeout:  6000 * time.Hour, // LoSustain = 6 steps
		AutoScalePeriod: 1000 * time.Hour,
	})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 10, OutputTok: 8}); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 5; step++ {
		d.controlStep()
		if n := d.InstanceCount(); n != 1 {
			t.Fatalf("after %d idle steps: %d instances, want the hot one held", step, n)
		}
	}
	d.controlStep()
	if n := d.InstanceCount(); n != 0 {
		t.Fatalf("after 6 idle steps: %d instances, want it released", n)
	}
	if st := d.Stats(); st.ScaleDowns != 1 {
		t.Errorf("scale-downs = %d, want 1", st.ScaleDowns)
	}
	if free := f.cl.Status().FreeGPUs; free != 16 {
		t.Errorf("GPUs not returned: %d free, want 16", free)
	}
}

func TestAutoScaleUpUnderLoad(t *testing.T) {
	// 200× clock (not the usual 20000×): the test needs the 200 requests to
	// land while earlier ones still run, so wall-clock goroutine-spawn skew
	// (heavy under -race) must not turn into queue-draining virtual hours.
	f := newTestFabricScaled(t, HubConfig{}, 4, 200)
	d := f.deploy(t, DeploymentConfig{
		Model:           perfmodel.Llama8B,
		MinInstances:    1,
		MaxInstances:    3,
		ScaleUpDepth:    20,
		AutoScalePeriod: 2 * time.Second,
	})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 1200*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 50, OutputTok: 1500})
		}()
	}
	wg.Wait()
	if d.Stats().ScaleUps == 0 {
		t.Errorf("no scale-ups under saturation: %+v", d.Stats())
	}
	if d.InstanceCount() < 2 {
		t.Errorf("instances = %d, want ≥ 2", d.InstanceCount())
	}
}

func TestMinInstancesRestartAfterFailure(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	d := f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 1, MaxInstances: 1})
	waitReady(d, 1)
	// The failure's OnEnd runs inside InjectFailure and removes the instance,
	// so the next ready instance is the restart.
	if !d.InjectFailure() {
		t.Fatal("InjectFailure found nothing")
	}
	waitReady(d, 1)
	if d.Stats().Restarts == 0 {
		t.Error("restart not counted")
	}
}

// TestInjectFailureKillsEarliest pins the pick's tie order on the live side:
// with two idle ready instances, the one launched first is the one
// InjectFailure kills, on every fresh deployment.
func TestInjectFailureKillsEarliest(t *testing.T) {
	for i := 0; i < 20; i++ {
		f := newTestFabric(t, HubConfig{}, 2)
		d := f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 2, MaxInstances: 2})
		waitReady(d, 2)
		d.mu.Lock()
		first := d.pool.Members()[0].Job
		d.mu.Unlock()
		if !d.InjectFailure() {
			t.Fatal("InjectFailure found nothing")
		}
		if st := first.State(); st != scheduler.Failed {
			t.Fatalf("deployment %d: the first-launched instance's job is %v, want failed", i, st)
		}
	}
}

// TestScaleDownDrainsInFlight drives a voluntary scale-down of a
// two-instance pool while the victim has requests in flight: the victim takes
// no new work, every request completes where it runs, with no retry, and the
// victim's job completes only once its last request has returned.
func TestScaleDownDrainsInFlight(t *testing.T) {
	f := newTestFabricScaled(t, HubConfig{}, 2, 200) // 200×: requests stay in flight for wall milliseconds
	d := f.deploy(t, DeploymentConfig{
		Model: perfmodel.Llama8B, MinInstances: 1, MaxInstances: 2,
		AutoScalePeriod: 1000 * time.Hour, // the test runs the control step itself
	})
	if err := d.launchInstance(); err != nil {
		t.Fatal(err)
	}
	waitReady(d, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	const n = 8
	results := make([]InferResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = d.Generate(ctx, InferRequest{Model: perfmodel.Llama8B, PromptTok: 50, OutputTok: 4000})
		}(i)
	}
	busy := func() bool { // every request taken, and both instances hold some
		d.mu.Lock()
		defer d.mu.Unlock()
		taken := 0
		for _, in := range d.pool.Members() {
			if in.live.Depth() == 0 {
				return false
			}
			taken += in.calls
		}
		return taken == n
	}
	deadline := time.Now().Add(20 * time.Second)
	for !busy() {
		if time.Now().After(deadline) {
			t.Fatal("requests never spread over both instances")
		}
		time.Sleep(100 * time.Microsecond)
	}

	d.mu.Lock()
	d.policy.LoWater, d.policy.LoSustain = 1e9, 1 // always underused: the next tick releases
	d.mu.Unlock()
	d.controlStep()
	d.mu.Lock()
	var victim *instance
	for _, in := range d.pool.Members() {
		if in.State() == Draining {
			victim = in
		}
	}
	calls := 0
	if victim != nil {
		calls = victim.calls
	}
	d.mu.Unlock()
	if victim == nil || calls == 0 {
		t.Fatalf("no instance draining with requests in flight after the scale-down (%+v)", d.Stats())
	}
	if st := victim.Job.State(); st != scheduler.Running {
		t.Fatalf("victim's job is %v while its requests run, want running", st)
	}

	wg.Wait()
	served := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if results[i].InstanceID == victim.id {
			served++
		}
	}
	if served == 0 {
		t.Fatal("the victim served none of the requests")
	}
	if st := d.Stats(); st.Retries != 0 || st.ScaleDowns != 1 {
		t.Errorf("stats = %+v, want no retry and one scale-down", st)
	}
	if st := victim.Job.State(); st != scheduler.Completed {
		t.Errorf("victim's job ended %v, want completed", st)
	}
	if got := d.InstanceCount(); got != 1 {
		t.Errorf("instances = %d after the drain, want 1", got)
	}
}

func TestDeploymentStatusStates(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	d := f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 0, MaxInstances: 1})
	if st := d.Status(); st.State != "cold" {
		t.Errorf("initial state = %s", st.State)
	}
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 5, OutputTok: 5})
	if st := d.Status(); st.State != "running" || st.Running != 1 {
		t.Errorf("warm state = %+v", st)
	}
	sts := f.ep.ModelStatuses()
	if len(sts) != 1 || sts[0].Endpoint != "ep-test" || sts[0].Cluster != "testcl" {
		t.Errorf("endpoint statuses = %+v", sts)
	}
}

func TestEndpointCloseFailsTasks(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 1})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Warm it up, then close the endpoint and submit again.
	c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 5, OutputTok: 5})
	f.ep.Close()
	_, err := c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 5, OutputTok: 5})
	if err == nil {
		t.Error("closed endpoint served a request")
	}
}

func TestDeployUnknownModel(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	if _, err := f.ep.Deploy(DeploymentConfig{Model: "no/such"}); err == nil {
		t.Error("unknown model deployed")
	}
}

func TestDeployIdempotent(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	d1 := f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 0})
	d2 := f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 0})
	if d1 != d2 {
		t.Error("re-deploying the same model should return the existing deployment")
	}
	models := f.ep.Models()
	if len(models) != 1 {
		t.Errorf("models = %v", models)
	}
}

func TestEmbedThroughFabric(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	f.deploy(t, DeploymentConfig{Model: perfmodel.NVEmbed, MinInstances: 1})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.Embed(ctx, "ep-test", EmbedRequest{Model: perfmodel.NVEmbed, Inputs: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vectors) != 3 || res.Dim != 4096 {
		t.Errorf("embed result shape %dx%d", len(res.Vectors), res.Dim)
	}
}

// TestPayloadRoundtrip: the value a caller hands Client.Run is the value
// its handler receives, and the handler's result is the value Run returns —
// the hub neither encodes nor copies what it carries.
func TestPayloadRoundtrip(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	in := &InferRequest{Model: "m", PromptTok: 5, OutputTok: 6, Prompt: "p", WantText: true}
	want := *in
	back := &InferResult{Model: "m", Text: "t"}
	f.ep.RegisterFunction("admin.swap", func(_ context.Context, payload any) (any, error) {
		if payload != any(in) || *in != want {
			t.Errorf("handler got %#v, want the caller's %p unchanged", payload, in)
		}
		return back, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := f.client().Run(ctx, "ep-test", "admin.swap", in)
	if err != nil {
		t.Fatal(err)
	}
	if out != any(back) || *back != (InferResult{Model: "m", Text: "t"}) {
		t.Errorf("Run = %#v, want the handler's %p unchanged", out, back)
	}
}

// TestPayloadTypeMismatch: a built-in handler given a payload of another type
// (an InferRequest by value or by pointer is FnInfer's own) fails the task
// with ErrPayloadType instead of panicking, and Infer fails the same way when
// its function hands back something other than an InferResult.
func TestPayloadTypeMismatch(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 0})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, payload := range []any{nil, []byte(`{"model":"m"}`), (*InferRequest)(nil), EmbedRequest{Model: perfmodel.Llama8B}} {
		if _, err := c.Run(ctx, "ep-test", FnInfer, payload); !errors.Is(err, ErrPayloadType) {
			t.Errorf("FnInfer given %T: err = %v, want ErrPayloadType", payload, err)
		}
	}
	if _, err := c.Run(ctx, "ep-test", FnEmbed, InferRequest{Model: perfmodel.Llama8B}); !errors.Is(err, ErrPayloadType) {
		t.Errorf("FnEmbed given an InferRequest: err = %v, want ErrPayloadType", err)
	}
	f.ep.RegisterFunction(FnInfer, f.ep.handleEmbed)
	if _, err := c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B}); !errors.Is(err, ErrPayloadType) {
		t.Errorf("Infer through a handler that takes an EmbedRequest: err = %v, want ErrPayloadType", err)
	}
	f.ep.RegisterFunction(FnInfer, func(context.Context, any) (any, error) { return []byte("{}"), nil })
	if _, err := c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B}); !errors.Is(err, ErrPayloadType) {
		t.Errorf("Infer answered with bytes: err = %v, want ErrPayloadType", err)
	}
}

// manualHub is a hub with two endpoints, "ep-m" and "ep-n" (one node of 8
// GPUs each, the same pickup latency), on a manual clock. The endpoints
// deploy nothing unless a test does (manualModel), so the only waiters on
// the clock are the hub's tasks and their futures; their "admin.stamp"
// function reports the instant each task runs at on the returned channel.
func manualHub(t *testing.T, cfg HubConfig, pickup time.Duration) (*clock.Manual, *Client, <-chan time.Time) {
	t.Helper()
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	hub := NewHub(clk, cfg, "id", "secret", nil)
	ran := make(chan time.Time, 64)
	for _, id := range []string{"ep-m", "ep-n"} {
		sched := scheduler.New(cluster.New("cl-"+id, 1, 8, perfmodel.A100_40), clk, scheduler.Config{})
		ep, err := NewEndpoint(EndpointConfig{ID: id, Scheduler: sched, PickupLatency: pickup}, clk, nil)
		if err != nil {
			t.Fatal(err)
		}
		ep.RegisterFunction("admin.stamp", func(context.Context, any) (any, error) {
			ran <- clk.Now()
			return "ok", nil
		})
		hub.RegisterEndpoint(ep)
		t.Cleanup(func() {
			ep.Close()
			sched.Close()
		})
	}
	t.Cleanup(hub.Close) // first: cleanups run last-registered first
	return clk, NewClient(hub, ClientConfig{Credentials: Credentials{ClientID: "id", ClientSecret: "secret"}}), ran
}

func manualSubmit(t *testing.T, c *Client) *Future {
	t.Helper()
	f, err := c.Submit("ep-m", "admin.stamp", nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// resolved blocks until the task's outcome is in, relayed or not.
func resolved(t *testing.T, f *Future) {
	t.Helper()
	select {
	case <-f.wake:
		f.wake <- struct{}{} // leave the token for the test's Wait
	case <-time.After(10 * time.Second):
		t.Fatal("the task's outcome never came in")
	}
}

// booked is the hub's booking in plain arithmetic, for tasks one client
// submits at offsets sub[i], in order, to endpoints ep[i]: each leaves the
// dispatch lane at D_i = max(sub_i + SubmitLatency [+ ConnectLatency on the
// first task to an endpoint], D_{i-1}) + DispatchCost, is picked up at
// P_i = D_i + pickup, and, its engine finishing serve later, is relayed at
// S_i = max(P_i + serve, S_{i-1}) + RelayCost.
func booked(cfg HubConfig, pickup time.Duration, sub []time.Duration, ep []string, serve time.Duration) (d, p, s []time.Duration) {
	met := map[string]bool{}
	var dl, sl time.Duration
	for i, at := range sub {
		if !met[ep[i]] {
			at += cfg.ConnectLatency
			met[ep[i]] = true
		}
		dl = max(at+cfg.SubmitLatency, dl) + cfg.DispatchCost
		sl = max(dl+pickup+serve, sl) + cfg.RelayCost
		d, p, s = append(d, dl), append(p, dl+pickup), append(s, sl)
	}
	return d, p, s
}

// bookedSubmit is one submit of a booking case: its offset, its endpoint,
// and whether it is refused because MaxQueuedTasks tasks are before their D.
type bookedSubmit struct {
	at   time.Duration
	ep   string
	full bool
}

// hubCosts are the fabric stage costs the booking cases run with.
var hubCosts = HubConfig{SubmitLatency: 250 * time.Millisecond, DispatchCost: 20 * time.Millisecond, RelayCost: 15 * time.Millisecond}

// burstAt is n submits to "ep-m" at offset at.
func burstAt(at time.Duration, n int) (subs []bookedSubmit) {
	for ; n > 0; n-- {
		subs = append(subs, bookedSubmit{at, "ep-m", false})
	}
	return subs
}

// checkBooking holds the hub to its booking (booked) on a manual clock.
// The case's tasks are submitted at their offsets; the clock then steps to
// every submit, D, P and S instant, stopping a nanosecond before each. At
// every stop QueuedTasks counts the tasks still before D — the count the
// queue bound refuses at — no task has run before its P and no Wait has
// returned before its S. Each task runs at its P and each Wait returns at
// its S.
func checkBooking(t *testing.T, cfg HubConfig, subs []bookedSubmit) {
	t.Helper()
	const pickup = 100 * time.Millisecond
	clk, cl, ran := manualHub(t, cfg, pickup)
	var at []time.Duration
	var eps []string
	for _, sb := range subs {
		if !sb.full {
			at, eps = append(at, sb.at), append(eps, sb.ep)
		}
	}
	d, p, s := booked(cfg, pickup, at, eps, 0)
	walk := slices.Concat(at, d, p, s)
	slices.Sort(walk)
	t0 := clk.Now()
	var futs []*Future
	returned, gotAt := make(chan int, len(at)), make([]time.Time, len(at)) // a task's Wait is back, at gotAt
	check := func(now time.Duration) {
		queued := 0
		for i := range futs {
			if now < d[i] {
				queued++
			}
		}
		if got := cl.QueuedTasks(); got != queued || len(ran)+len(returned) > 0 {
			t.Fatalf("at t0+%v: %d tasks queued, want %d; %d ran before P, %d Waits back before S", now, got, queued, len(ran), len(returned))
		}
	}
	now := time.Duration(0)
	for _, x := range slices.Compact(walk) {
		if x > now {
			parked := 0 // sleeping to P, or waiting for S
			for i := range futs {
				if s[i] > now {
					parked++
				}
			}
			settled := make(chan struct{})
			go func() {
				clk.BlockUntil(parked)
				close(settled)
			}()
			select { // a sleeper that never parks fails here, not at the test's deadline
			case <-settled:
			case got := <-ran:
				t.Fatalf("at t0+%v: a task ran at t0+%v, before its P", now, got.Sub(t0))
			case i := <-returned:
				t.Fatalf("at t0+%v: task %d's Wait returned before S = t0+%v", now, i, s[i])
			}
			clk.Advance(x - now - 1)
			check(x - 1)
			clk.Advance(1)
			now = x
		}
		for i, f := range futs {
			if p[i] == x {
				if got := <-ran; !got.Equal(t0.Add(x)) {
					t.Fatalf("task %d ran at t0+%v, want P = t0+%v", i, got.Sub(t0), x)
				}
				resolved(t, f)
				go func() {
					if out, err := f.Wait(context.Background()); err != nil || out != "ok" {
						t.Errorf("task %d: Wait = %v, %v", i, out, err)
					}
					gotAt[i] = clk.Now()
					returned <- i
				}()
			}
		}
		for i := range futs {
			if s[i] == x {
				if j := <-returned; j != i || !gotAt[j].Equal(t0.Add(x)) {
					t.Fatalf("task %d's Wait returned at t0+%v, where task %d's S = t0+%v", j, gotAt[j].Sub(t0), i, x)
				}
			}
		}
		for _, sb := range subs {
			if sb.at != x {
				continue
			}
			f, err := cl.Submit(sb.ep, "admin.stamp", nil)
			if sb.full != errors.Is(err, ErrHubQueueFull) || err != nil && !sb.full {
				t.Fatalf("submit at t0+%v: err = %v, want queue full: %v", x, err, sb.full)
			}
			if i := len(futs); f != nil {
				if !f.task.pickupAt.Equal(t0.Add(p[i])) {
					t.Fatalf("task %d booked P = t0+%v, want t0+%v", i, f.task.pickupAt.Sub(t0), p[i])
				}
				futs = append(futs, f)
			}
		}
		check(x)
	}
}

// TestHubBooksDispatchDepartures: a burst leaves the serialized dispatch lane
// at its ceiling, one DispatchCost apart, each task run at its P and not a
// nanosecond before.
func TestHubBooksDispatchDepartures(t *testing.T) {
	checkBooking(t, hubCosts, burstAt(0, 6))
}

// TestFutureReportsAtRelayDeparture: with a relay slower than dispatch the
// results queue for the relay, and each future's Wait returns at its relay
// departure S, not at its pickup.
func TestFutureReportsAtRelayDeparture(t *testing.T) {
	cfg := hubCosts
	cfg.RelayCost = 45 * time.Millisecond
	checkBooking(t, cfg, burstAt(0, 4))
}

// TestHubConnectLatencyPerPair: ConnectLatency is paid once per client and
// endpoint, on the first task to each.
func TestHubConnectLatencyPerPair(t *testing.T) {
	cfg := hubCosts
	cfg.ConnectLatency = 900 * time.Millisecond
	checkBooking(t, cfg, []bookedSubmit{{0, "ep-m", false}, {2 * time.Second, "ep-m", false}, {4 * time.Second, "ep-n", false},
		{6 * time.Second, "ep-n", false}, {8 * time.Second, "ep-m", false}})
}

// TestHubQueuedTasksDropsAtDispatch: QueuedTasks counts a task until its D,
// so the bound refuses a submit while MaxQueuedTasks tasks are before their
// D and accepts one as soon as a D passes.
func TestHubQueuedTasksDropsAtDispatch(t *testing.T) {
	cfg := hubCosts
	cfg.MaxQueuedTasks = 2
	checkBooking(t, cfg, []bookedSubmit{{0, "ep-m", false}, {0, "ep-m", false}, {0, "ep-m", true},
		{270 * time.Millisecond, "ep-m", false}, {270 * time.Millisecond, "ep-m", true}})
}

// TestHubQueueFull: a jammed dispatch lane refuses every submit past
// MaxQueuedTasks undispatched tasks.
func TestHubQueueFull(t *testing.T) {
	cfg := hubCosts
	cfg.DispatchCost, cfg.MaxQueuedTasks = time.Hour, 4
	subs := burstAt(0, 4)
	for i := 0; i < 4; i++ {
		subs = append(subs, bookedSubmit{0, "ep-m", true})
	}
	checkBooking(t, cfg, subs)
}

// TestTaskStatusProgression: a lone task is queued until its D, runs at its
// P and its Wait returns its result at its S.
func TestTaskStatusProgression(t *testing.T) {
	checkBooking(t, hubCosts, burstAt(0, 1))
}

// TestFabricLatencyCoversEveryStage: a request alone spends exactly submit +
// dispatch + pickup + relay in the fabric, and one in a burst that plus its
// queueing at the dispatch lane and the relay.
func TestFabricLatencyCoversEveryStage(t *testing.T) {
	subs := []bookedSubmit{{0, "ep-m", false}, {time.Second, "ep-m", false}}
	checkBooking(t, hubCosts, append(subs, burstAt(2*time.Second, 5)...))
}

// TestInferHandsOffAtBookedInstants lets an inference task's goroutine wake
// well after its P: the engine still takes it at P, its ServeTime is an idle
// engine's own, it is relayed at P + ServeTime + RelayCost (booked), and the
// result is in with nothing left waiting on the clock but the deployment's
// control loop.
func TestInferHandsOffAtBookedInstants(t *testing.T) {
	const pickup = 100 * time.Millisecond
	clk, cl, _ := manualHub(t, hubCosts, pickup)
	d := manualModel(t, clk, cl, 1)
	serve := engineLatency(t, d, 3, 16)
	t0, f := clk.Now(), inferManual(t, cl)
	_, p, s := booked(hubCosts, pickup, []time.Duration{0}, []string{"ep-m"}, serve)
	clk.BlockUntil(2) // the control loop and the task's pickup
	clk.Advance(p[0] + 10*time.Second)
	if res := waitInfer(t, f); res.ServeTime != serve || !f.task.relayedAt.Equal(t0.Add(s[0])) || clk.PendingWaiters() != 1 {
		t.Errorf("ServeTime %v (an idle engine's %v), S = P + %v (want P + %v), %d waiters left (want the control loop's)",
			res.ServeTime, serve, f.task.relayedAt.Sub(t0.Add(p[0])), s[0]-p[0], clk.PendingWaiters())
	}
}

// A task booked before Close whose pickup instant passes after it fails with
// ErrEndpointShutdown, without running, rather than never resolving.
func TestHubCloseResolvesBookedTasks(t *testing.T) {
	clk, c, ran := manualHub(t, HubConfig{SubmitLatency: time.Second, DispatchCost: time.Second}, time.Second)
	f := manualSubmit(t, c)
	c.hub.Close()
	clk.BlockUntil(1)
	clk.Advance(3 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, ErrEndpointShutdown) {
		t.Fatalf("Wait = %v, want %v", err, ErrEndpointShutdown)
	}
	select {
	case <-ran:
		t.Error("the task ran on a closed hub")
	default:
	}
}

// countingClock counts the Sleeps asked of its manual clock, as a wrapping
// clock that measures sleeps does.
type countingClock struct {
	*clock.Manual
	sleeps atomic.Int64
}

func (c *countingClock) Sleep(d time.Duration) {
	c.sleeps.Add(1)
	c.Manual.Sleep(d)
}

// A task whose goroutine starts at or after its pickup instant P asks its
// clock for no Sleep; one whose P lies ahead sleeps once. The first row's
// pickup is zero (a negative PickupLatency; zero means the 500 ms default),
// so P is the submit instant and no goroutine can start before it.
func TestHubSleepsOnlyToPickupAhead(t *testing.T) {
	for _, pickup := range []time.Duration{-1, time.Millisecond} {
		clk := &countingClock{Manual: clock.NewManual(time.Unix(1_000_000, 0))}
		sched := scheduler.New(cluster.New("cl", 1, 8, perfmodel.A100_40), clk, scheduler.Config{})
		ep, err := NewEndpoint(EndpointConfig{ID: "ep", Scheduler: sched, PickupLatency: pickup}, clk, nil)
		if err != nil {
			t.Fatal(err)
		}
		ep.RegisterFunction("admin.echo", func(_ context.Context, payload any) (any, error) { return payload, nil })
		hub := NewHub(clk, HubConfig{}, "id", "secret", nil) // D = the submit instant
		hub.RegisterEndpoint(ep)
		rec, err := hub.submit(Credentials{ClientID: "id", ClientSecret: "secret"}, "ep", "admin.echo", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := &rec.fut
		if pickup > 0 {
			clk.BlockUntil(1)
		}
		clk.Advance(time.Second) // P is behind the clock, whether or not the goroutine has started
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := clk.sleeps.Load(), int64(pickup/time.Millisecond); got != want {
			t.Errorf("pickup %v: %d Sleeps, want %d", pickup, got, want)
		}
		hub.Close()
		ep.Close()
		sched.Close()
	}
}

// A waiter whose context ends while it sleeps out the relay gets ctx.Err().
func TestFutureWaitCancelledDuringRelay(t *testing.T) {
	clk, c, ran := manualHub(t, HubConfig{RelayCost: time.Second}, time.Millisecond)
	f := manualSubmit(t, c)
	clk.BlockUntil(1)
	clk.Advance(time.Millisecond)
	<-ran
	resolved(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.Wait(ctx)
		errc <- err
	}()
	clk.BlockUntil(1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want %v", err, context.Canceled)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait ignored its cancelled context")
	}
}

// TestFutureMultiWaitSharesOutcome: several goroutines Wait on one Submit
// future. The wake token passes from Wait to Wait, and it alone orders their
// reads of the outcome the task's goroutine wrote: each returns the task's
// result at its relay departure S and none a nanosecond before, a Wait
// cancelled while it sleeps out the relay leaves the others' outcome
// intact, and a Wait made after S returns it at once.
func TestFutureMultiWaitSharesOutcome(t *testing.T) {
	const waiters = 4
	const pickup = time.Millisecond
	cfg := HubConfig{SubmitLatency: time.Millisecond, RelayCost: time.Second}
	clk, c, ran := manualHub(t, cfg, pickup)
	t0, f := clk.Now(), manualSubmit(t, c)
	_, p, s := booked(cfg, pickup, []time.Duration{0}, []string{"ep-m"}, 0)
	type back struct {
		i   int
		at  time.Time
		out any
		err error
	}
	returned := make(chan back, waiters)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < waiters; i++ {
		wctx := context.Background()
		if i == 0 {
			wctx = ctx
		}
		go func() {
			out, err := f.Wait(wctx)
			returned <- back{i, clk.Now(), out, err}
		}()
	}
	clk.BlockUntil(1) // the task, sleeping to P
	clk.Advance(p[0])
	if got := <-ran; !got.Equal(t0.Add(p[0])) {
		t.Fatalf("the task ran at t0+%v, want P = t0+%v", got.Sub(t0), p[0])
	}
	settled := make(chan struct{}) // every Wait has taken the token and sleeps to S
	go func() {
		clk.BlockUntil(waiters)
		close(settled)
	}()
	// A Wait that returns before S fails here at once; one that never takes
	// the token fails after 10 s.
	select {
	case <-settled:
	case b := <-returned:
		t.Fatalf("Wait %d returned %v, %v at t0+%v, before S = t0+%v", b.i, b.out, b.err, b.at.Sub(t0), s[0])
	case <-time.After(10 * time.Second):
		t.Fatal("the Waits never all took the token")
	}
	cancel()
	if b := <-returned; b.i != 0 || !errors.Is(b.err, context.Canceled) {
		t.Fatalf("Wait %d returned %v, %v first; want Wait 0 cancelled", b.i, b.out, b.err)
	}
	clk.Advance(s[0] - p[0] - 1)
	if n := clk.PendingWaiters(); n != waiters || len(returned) > 0 {
		t.Fatalf("a nanosecond before S: %d Waits still sleep (want %d), %d returned", n, waiters, len(returned))
	}
	clk.Advance(1)
	for range waiters - 1 {
		b := <-returned
		if b.i == 0 || b.out != "ok" || b.err != nil || !b.at.Equal(t0.Add(s[0])) {
			t.Errorf("Wait %d returned %v, %v at t0+%v; want ok at S = t0+%v", b.i, b.out, b.err, b.at.Sub(t0), s[0])
		}
	}
	if out, err := f.Wait(context.Background()); out != "ok" || err != nil || clk.PendingWaiters() != 0 {
		t.Errorf("a Wait after S returned %v, %v and left %d waiters on the clock", out, err, clk.PendingWaiters())
	}
}

// manualModel deploys Llama-8B on manualHub's endpoint with n instances and
// advances the clock until they serve; its control loop ticks an hour apart,
// so it holds one waiter on the clock and never runs.
func manualModel(t *testing.T, clk *clock.Manual, c *Client, n int) *Deployment {
	t.Helper()
	d, err := c.hub.endpoints["ep-m"].Deploy(DeploymentConfig{
		Model: perfmodel.Llama8B, MinInstances: n, MaxInstances: n, AutoScalePeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		bootInstances(t, clk, d, n, 1)
	}
	return d
}

// bootInstances advances the clock through the scheduler prologue and the
// weight load of n instances launched together, while others more goroutines
// wait on the clock, and returns the instant the instances serve.
func bootInstances(t *testing.T, clk *clock.Manual, d *Deployment, n, others int) time.Time {
	t.Helper()
	clk.BlockUntil(others + n)
	clk.Advance(30 * time.Second) // the scheduler's default prologue
	clk.BlockUntil(others + n)
	clk.Advance(d.spec.LoadTime(perfmodel.A100_40))
	waitReady(d, n)
	return clk.Now()
}

// waitReady blocks until exactly n of d's instances serve, woken by the
// channel the deployment closes whenever an instance comes up or goes — the
// one its callers wait for an instance on — not by polling.
func waitReady(d *Deployment, n int) {
	for {
		d.mu.Lock()
		var r PoolRecord
		if d.pool.Record(d.waiting, &r); r.Running == n {
			d.mu.Unlock()
			return
		}
		if d.readyWait == nil {
			d.readyWait = make(chan struct{})
		}
		ch := d.readyWait
		d.mu.Unlock()
		<-ch
	}
}

// engineLatency is what an idle engine of d's takes for one request alone.
func engineLatency(t *testing.T, d *Deployment, promptTok, outputTok int) time.Duration {
	t.Helper()
	eng, err := serving.NewEngine(serving.Config{Model: d.spec, GPU: perfmodel.A100_40})
	if err != nil {
		t.Fatal(err)
	}
	seq := eng.Submit(0, promptTok, outputTok, nil)
	for eng.Depth() > 0 {
		eng.Step(eng.Now())
	}
	return seq.Latency()
}

// inferManual submits an 8B request of 3 prompt and 16 output tokens, the
// livefed shape, to manualHub's endpoint.
func inferManual(t *testing.T, c *Client) *Future {
	t.Helper()
	f, err := c.Submit("ep-m", FnInfer, InferRequest{Model: perfmodel.Llama8B, PromptTok: 3, OutputTok: 16})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitInfer waits, with no further Advance, for the task's result.
func waitInfer(t *testing.T, f *Future) InferResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := f.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait = %v", err)
	}
	return out.(InferResult)
}

// A task that waits for its instance — a cold start on a MinInstances 0
// deployment — has the engine take it when the instance serves, never at its
// earlier pickup instant.
func TestColdStartEngineTakesTaskWhenReady(t *testing.T) {
	clk, c, _ := manualHub(t, HubConfig{SubmitLatency: time.Millisecond}, time.Millisecond)
	d := manualModel(t, clk, c, 0)
	f := inferManual(t, c)
	clk.BlockUntil(2) // the control loop and the task's pickup
	clk.Advance(f.task.pickupAt.Sub(clk.Now()))
	ready := bootInstances(t, clk, d, 1, 1)
	clk.BlockUntil(2) // the control loop and the engine's first iteration
	clk.Advance(10 * time.Second)
	res := waitInfer(t, f)
	if submit := f.task.finishedAt.Add(-res.ServeTime); submit.Before(ready) {
		t.Errorf("the engine took the task at ready%v, before its instance served", submit.Sub(ready))
	}
	if d.Stats().ColdStarts != 1 {
		t.Errorf("cold starts = %d, want 1", d.Stats().ColdStarts)
	}
}

// A task that retries after its instance dies mid-request has the other
// instance take it at the retry, not at its pickup instant: the first
// attempt's engine time is not served twice over.
func TestRetryEngineTakesTaskAtRetry(t *testing.T) {
	clk, c, _ := manualHub(t, HubConfig{SubmitLatency: time.Millisecond}, time.Millisecond)
	d := manualModel(t, clk, c, 2)
	f := inferManual(t, c)
	clk.BlockUntil(2) // the control loop and the task's pickup
	clk.Advance(f.task.pickupAt.Sub(clk.Now()))
	clk.BlockUntil(2) // the control loop and the first engine's iteration
	clk.Advance(time.Millisecond)
	killed := clk.Now()
	d.mu.Lock()
	var job *scheduler.Job
	for _, in := range d.pool.Members() {
		if in.calls > 0 {
			job = in.Job
		}
	}
	d.mu.Unlock()
	if job == nil || !d.ep.cfg.Scheduler.Fail(job.ID) {
		t.Fatal("no instance holds the task")
	}
	clk.BlockUntil(4) // the control loop, the dead engine's iteration, the retry's, and the replacement's prologue
	clk.Advance(10 * time.Second)
	res := waitInfer(t, f)
	if submit := f.task.finishedAt.Add(-res.ServeTime); submit.Before(killed) {
		t.Errorf("the retry's engine took the task at kill%v, before the retry", submit.Sub(killed))
	}
	if d.Stats().Retries != 1 {
		t.Errorf("retries = %d, want 1", d.Stats().Retries)
	}
}

// runFabric is a hub on the live stack's 20000× scaled clock with one
// endpoint, "ep-r", and no modelled cost but the endpoint's default pickup
// (500 ms, 25 µs of wall): a Run sleeps once, to P, and its relay departure
// S has passed by the time its outcome is in.
func runFabric(t *testing.T, fn string, h Handler) *Client {
	t.Helper()
	clk := clock.NewScaled(20000)
	sched := scheduler.New(cluster.New("cl-r", 1, 8, perfmodel.A100_40), clk, scheduler.Config{})
	ep, err := NewEndpoint(EndpointConfig{ID: "ep-r", Scheduler: sched}, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.RegisterFunction(fn, h)
	hub := NewHub(clk, HubConfig{}, "id", "secret", nil)
	hub.RegisterEndpoint(ep)
	t.Cleanup(func() {
		hub.Close()
		ep.Close()
		sched.Close()
	})
	return NewClient(hub, ClientConfig{Credentials: Credentials{ClientID: "id", ClientSecret: "secret"}})
}

// A Run with a pointer payload whose handler answers with a pointer
// allocates nothing: its task, future, wake channel, handler context and
// bound goroutine body are a record from the hub's free list, and the
// clock's sleep to P recycles its own waiter.
func TestClientRunZeroAlloc(t *testing.T) {
	in, back := &InferRequest{Model: "m"}, &InferResult{Model: "m"}
	c := runFabric(t, "admin.swap", func(_ context.Context, payload any) (any, error) {
		if payload != any(in) {
			return nil, ErrPayloadType
		}
		return back, nil
	})
	ctx := context.Background()
	got := testing.AllocsPerRun(500, func() {
		if out, err := c.Run(ctx, "ep-r", "admin.swap", in); err != nil || out != any(back) {
			t.Fatalf("Run = %v, %v; want the handler's %p", out, err, back)
		}
	})
	if got != 0 {
		t.Errorf("Client.Run allocates %.1f/op, want 0", got)
	}
}

// An Infer through the built-in handler and a warm instance allocates
// nothing: the request and the answer ride in the task's record, and the
// serving engine recycles its own. A Run given the same request by value
// gets an InferResult value back, never a pointer into a record that goes
// back to the free list.
func TestClientInferZeroAlloc(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 1)
	waitReady(f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 1}), 1)
	c := f.client()
	ctx := context.Background()
	req := InferRequest{Model: perfmodel.Llama8B, PromptTok: 3, OutputTok: 16}
	check := func(res InferResult, err error) {
		if err != nil || res.Model != perfmodel.Llama8B || res.OutputTok != 16 || res.ServeTime <= 0 {
			t.Fatalf("Infer = %+v, %v", res, err)
		}
	}
	check(c.Infer(ctx, "ep-test", req))
	got := testing.AllocsPerRun(200, func() { check(c.Infer(ctx, "ep-test", req)) })
	if got != 0 {
		t.Errorf("Client.Infer allocates %.1f/op, want 0", got)
	}
	out, err := c.Run(ctx, "ep-test", FnInfer, req)
	res, ok := out.(InferResult)
	if !ok {
		t.Fatalf("Run(FnInfer) answered %T, want an InferResult value", out)
	}
	check(res, err)
}

// Concurrent Runs each get their own payload's answer, whichever records
// they were handed, and Runs whose contexts end mid-flight drop their
// records without disturbing the others. Run it as go test -race -count=20.
func TestClientRunRecyclesUnderConcurrency(t *testing.T) {
	c := runFabric(t, "admin.double", func(_ context.Context, payload any) (any, error) {
		n, ok := payload.(*int)
		if !ok {
			return nil, ErrPayloadType
		}
		out := 2 * *n
		return &out, nil
	})
	const workers, calls = 8, 200
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				n := w*calls + i
				ctx, cancel := context.WithCancel(context.Background())
				if i%5 == 4 {
					// Ends while the task sleeps to P or runs: either answer is
					// fine, but an answer must be this call's.
					go cancel()
				}
				out, err := c.Run(ctx, "ep-r", "admin.double", &n)
				cancel()
				switch {
				case errors.Is(err, context.Canceled):
				case err != nil:
					t.Errorf("Run(%d): %v", n, err)
					return
				default:
					if got, ok := out.(*int); !ok || *got != 2*n {
						t.Errorf("Run(%d) = %v, want %d", n, out, 2*n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Concurrent Infers through the built-in handler each get their own
// request's answer out of whichever record carried it, and Infers whose
// contexts end mid-flight leave their records without disturbing the
// others. Run it as go test -race -count=20.
func TestClientInferRecyclesUnderConcurrency(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 1)
	waitReady(f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 1}), 1)
	c := f.client()
	const workers, calls = 8, 200
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				n := 1 + w*calls + i
				ctx, cancel := context.WithCancel(context.Background())
				if i%5 == 4 {
					go cancel()
				}
				res, err := c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: n, OutputTok: 1 + n%7})
				cancel()
				switch {
				case errors.Is(err, context.Canceled):
				case err != nil:
					t.Errorf("Infer(%d): %v", n, err)
					return
				case res.PromptTok != n || res.OutputTok != 1+n%7:
					t.Errorf("Infer(%d) = %+v, want its own token counts", n, res)
					return
				}
			}
		}()
	}
	wg.Wait()
}
