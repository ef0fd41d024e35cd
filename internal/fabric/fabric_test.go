package fabric

import (
	"context"
	"errors"
	"sync"
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

func TestHotNodeIdleRelease(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	d := f.deploy(t, DeploymentConfig{
		Model:           perfmodel.Llama8B,
		MinInstances:    0,
		MaxInstances:    1,
		HotIdleTimeout:  30 * time.Second, // virtual
		AutoScalePeriod: 5 * time.Second,
	})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := c.Infer(ctx, "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 10, OutputTok: 8}); err != nil {
		t.Fatal(err)
	}
	// Wait (in scaled wall time) for the idle timeout to release the node.
	deadline := time.Now().Add(10 * time.Second)
	for d.InstanceCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hot node never released; instances=%d", d.InstanceCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d.Stats().ScaleDowns == 0 {
		t.Error("scale-down not counted")
	}
	if f.cl.Status().FreeGPUs != 16 {
		t.Errorf("GPUs not returned: %d", f.cl.Status().FreeGPUs)
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
	deadline := time.Now().Add(10 * time.Second)
	for d.ReadyCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("initial instance never ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !d.InjectFailure() {
		t.Fatal("InjectFailure found nothing")
	}
	deadline = time.Now().Add(10 * time.Second)
	for d.ReadyCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("instance not restarted")
		}
		time.Sleep(2 * time.Millisecond)
	}
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
		deadline := time.Now().Add(10 * time.Second)
		for d.ReadyCount() < 2 {
			if time.Now().After(deadline) {
				t.Fatal("instances never ready")
			}
			time.Sleep(time.Millisecond)
		}
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
	deadline := time.Now().Add(20 * time.Second)
	for d.ReadyCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("instances never ready")
		}
		time.Sleep(time.Millisecond)
	}
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

func TestHubQueueFull(t *testing.T) {
	f := newTestFabric(t, HubConfig{
		SubmitLatency: 0, DispatchCost: time.Hour, // dispatch lane jammed (virtual)
		RelayCost: time.Millisecond, MaxQueuedTasks: 4,
	}, 2)
	f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 1})
	c := f.client()
	var full int
	for i := 0; i < 20; i++ {
		if _, err := c.Submit("ep-test", FnInfer, InferRequest{Model: perfmodel.Llama8B}); errors.Is(err, ErrHubQueueFull) {
			full++
		}
	}
	if full == 0 {
		t.Error("hub queue bound never enforced")
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

func TestTaskStatusProgression(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 1})
	c := f.client()
	fut, err := c.Submit("ep-test", FnInfer, InferRequest{Model: perfmodel.Llama8B, PromptTok: 5, OutputTok: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := fut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !fut.Done() {
		t.Error("future not done after Wait")
	}
	if st := fut.Task().Status(); st != TaskSuccess {
		t.Errorf("status = %v", st)
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
// fails the task with ErrPayloadType instead of panicking, and Infer fails
// the same way when its function hands back something other than an
// InferResult.
func TestPayloadTypeMismatch(t *testing.T) {
	f := newTestFabric(t, HubConfig{}, 2)
	f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 0})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, payload := range []any{nil, []byte(`{"model":"m"}`), &InferRequest{Model: perfmodel.Llama8B}, EmbedRequest{Model: perfmodel.Llama8B}} {
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

// manualHub is a hub with one endpoint ("ep-m", one node of 8 GPUs) on a
// manual clock. The endpoint deploys nothing unless a test does
// (manualModel), so the only waiters on the clock are the hub's tasks and
// their futures; its "admin.stamp" function reports the instant each task
// runs at on the returned channel.
func manualHub(t *testing.T, cfg HubConfig, pickup time.Duration) (*clock.Manual, *Client, <-chan time.Time) {
	t.Helper()
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	sched := scheduler.New(cluster.New("mcl", 1, 8, perfmodel.A100_40), clk, scheduler.Config{})
	ep, err := NewEndpoint(EndpointConfig{ID: "ep-m", Scheduler: sched, PickupLatency: pickup}, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan time.Time, 64)
	ep.RegisterFunction("admin.stamp", func(context.Context, any) (any, error) {
		ran <- clk.Now()
		return "ok", nil
	})
	hub := NewHub(clk, cfg, "id", "secret", nil)
	hub.RegisterEndpoint(ep)
	t.Cleanup(func() {
		hub.Close()
		ep.Close()
		sched.Close()
	})
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
	case <-f.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the task's outcome never came in")
	}
}

// Tasks submitted at one instant leave the dispatch lane at
// D_i = max(t + SubmitLatency, D_{i-1}) + DispatchCost, the Fig. 4 ceiling,
// and each runs at D_i + PickupLatency: not a nanosecond before.
func TestHubBooksDispatchDepartures(t *testing.T) {
	const n = 6
	const submit, cost, pickup = 250 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond
	clk, c, ran := manualHub(t, HubConfig{SubmitLatency: submit, DispatchCost: cost}, pickup)
	t0 := clk.Now()
	futs := make([]*Future, n)
	var d time.Time
	for i := range futs {
		futs[i] = manualSubmit(t, c)
		d = later(t0.Add(submit), d).Add(cost)
		if got := futs[i].task.dispatchedAt; !got.Equal(d) {
			t.Fatalf("task %d leaves the dispatch lane at t0+%v, want t0+%v", i, got.Sub(t0), d.Sub(t0))
		}
	}
	clk.BlockUntil(n)
	for i, f := range futs {
		at := f.task.dispatchedAt.Add(pickup)
		clk.Advance(at.Sub(clk.Now()) - 1)
		if got := clk.PendingWaiters(); got != n-i {
			t.Fatalf("task %d released before its pickup instant: %d waiters left, want %d", i, got, n-i)
		}
		clk.Advance(1)
		if got := <-ran; !got.Equal(at) {
			t.Fatalf("task %d ran at t0+%v, want t0+%v", i, got.Sub(t0), at.Sub(t0))
		}
	}
}

// QueuedTasks counts a task until its dispatch departure D, not until its
// pickup, and the queue bound reads the same count.
func TestHubQueuedTasksDropsAtDispatch(t *testing.T) {
	const submit, cost = 250 * time.Millisecond, 20 * time.Millisecond
	clk, c, _ := manualHub(t, HubConfig{SubmitLatency: submit, DispatchCost: cost, MaxQueuedTasks: 2}, time.Hour)
	first, second := manualSubmit(t, c), manualSubmit(t, c)
	if _, err := c.Submit("ep-m", "admin.stamp", nil); !errors.Is(err, ErrHubQueueFull) {
		t.Fatalf("third submit into a 2-task hub: err = %v, want queue full", err)
	}
	for _, step := range []struct {
		to   time.Time
		want int
	}{
		{first.task.dispatchedAt.Add(-1), 2},
		{first.task.dispatchedAt, 1},
		{second.task.dispatchedAt.Add(-1), 1},
		{second.task.dispatchedAt, 0},
	} {
		clk.Advance(step.to.Sub(clk.Now()))
		if got := c.QueuedTasks(); got != step.want {
			t.Fatalf("at t0+%v: %d queued, want %d", step.to.Sub(first.task.SubmittedAt), got, step.want)
		}
	}
	if st := first.Task().Status(); st != TaskDispatched {
		t.Errorf("status past D, before pickup = %v, want dispatched", st)
	}
	manualSubmit(t, c)
	if got := c.QueuedTasks(); got != 1 {
		t.Errorf("%d queued after a submit into the drained hub, want 1", got)
	}
}

// ConnectLatency is paid ahead of the dispatch lane by the first task of a
// (client, endpoint) pair and not by the next one for that pair; a task for
// another endpoint pays it again. Each task enters an empty lane, so its
// departure shows what it paid.
func TestHubConnectLatencyPerPair(t *testing.T) {
	const submit, cost, connect = 250 * time.Millisecond, 20 * time.Millisecond, 900 * time.Millisecond
	clk, c, _ := manualHub(t, HubConfig{SubmitLatency: submit, DispatchCost: cost, ConnectLatency: connect}, time.Hour)
	sched := scheduler.New(cluster.New("mcl-n", 1, 8, perfmodel.A100_40), clk, scheduler.Config{})
	other, err := NewEndpoint(EndpointConfig{ID: "ep-n", Scheduler: sched, PickupLatency: time.Hour}, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	other.RegisterFunction("admin.stamp", func(context.Context, any) (any, error) { return "ok", nil })
	c.hub.RegisterEndpoint(other)
	t.Cleanup(func() {
		other.Close()
		sched.Close()
	})
	for i, step := range []struct {
		endpoint string
		pays     bool
	}{
		{"ep-m", true},
		{"ep-m", false},
		{"ep-n", true},
		{"ep-n", false},
		{"ep-m", false},
	} {
		now := clk.Now()
		f, err := c.Submit(step.endpoint, "admin.stamp", nil)
		if err != nil {
			t.Fatal(err)
		}
		want := now.Add(submit + cost)
		if step.pays {
			want = want.Add(connect)
		}
		if got := f.task.dispatchedAt; !got.Equal(want) {
			t.Errorf("task %d to %s leaves the dispatch lane at now+%v, want now+%v",
				i, step.endpoint, got.Sub(now), want.Sub(now))
		}
		clk.Advance(2 * time.Second) // past the departure, an hour before the pickup
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

// The outcome comes in at the task's finish, its relay departure S is
// RelayCost later: Done, Status and Wait show it at S and not before.
func TestFutureReportsAtRelayDeparture(t *testing.T) {
	const relay = 15 * time.Millisecond
	clk, c, ran := manualHub(t, HubConfig{RelayCost: relay}, time.Millisecond)
	f := manualSubmit(t, c)
	clk.BlockUntil(1)
	clk.Advance(time.Millisecond)
	<-ran
	resolved(t, f)
	if f.Done() || f.Task().Status() != TaskRunning {
		t.Fatalf("before S: Done = %v, status %v; want false, running", f.Done(), f.Task().Status())
	}
	got := make(chan time.Time, 1)
	go func() {
		if out, err := f.Wait(context.Background()); err != nil || out != "ok" {
			t.Errorf("Wait = %v, %v", out, err)
		}
		got <- clk.Now()
	}()
	clk.BlockUntil(1)
	clk.Advance(relay - 1)
	if f.Done() || f.Task().Status() != TaskRunning || clk.PendingWaiters() != 1 {
		t.Fatalf("1 ns before S: Done = %v, status %v, %d waiters", f.Done(), f.Task().Status(), clk.PendingWaiters())
	}
	clk.Advance(1)
	if at := <-got; !at.Equal(f.task.relayedAt) {
		t.Errorf("Wait returned at %v, want S = %v", at, f.task.relayedAt)
	}
	if !f.Done() || f.Task().Status() != TaskSuccess {
		t.Errorf("at S: Done = %v, status %v; want true, success", f.Done(), f.Task().Status())
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
	deadline := time.Now().Add(10 * time.Second)
	for d.ReadyCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d instances serve, want %d", d.ReadyCount(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return clk.Now()
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

// A task whose goroutine wakes long after its pickup instant P still has the
// engine take it at P, and the hub relays it from the engine's finish F: its
// ServeTime is the engine's own latency, S = P + ServeTime + RelayCost, and
// the result is in when the goroutine is done, so neither the engine nor
// Wait waits on the clock.
func TestInferHandsOffAtBookedInstants(t *testing.T) {
	const relay = 15 * time.Millisecond
	clk, c, _ := manualHub(t, HubConfig{SubmitLatency: 250 * time.Millisecond, DispatchCost: 20 * time.Millisecond,
		RelayCost: relay}, 100*time.Millisecond)
	d := manualModel(t, clk, c, 1)
	f := inferManual(t, c)
	clk.BlockUntil(2) // the control loop and the task's pickup
	p := f.task.pickupAt
	clk.Advance(p.Sub(clk.Now()) + 10*time.Second)
	res := waitInfer(t, f)
	if want := engineLatency(t, d, 3, 16); res.ServeTime != want {
		t.Errorf("ServeTime = %v, want the engine's own %v", res.ServeTime, want)
	}
	if want := p.Add(res.ServeTime + relay); !f.task.relayedAt.Equal(want) {
		t.Errorf("S = P + %v, want P + ServeTime + RelayCost = P + %v", f.task.relayedAt.Sub(p), want.Sub(p))
	}
	if n := clk.PendingWaiters(); n != 1 {
		t.Errorf("%d waiters on the clock after Wait, want only the control loop's", n)
	}
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

// On the scaled clock every request spends at least submit + dispatch +
// pickup + relay of virtual time in the fabric, alone or in a burst, and an
// inference request its own ServeTime on top.
func TestFabricLatencyCoversEveryStage(t *testing.T) {
	cfg := HubConfig{
		SubmitLatency: 250 * time.Millisecond, DispatchCost: 20 * time.Millisecond,
		RelayCost: 15 * time.Millisecond, MaxQueuedTasks: 1024,
	}
	f := newTestFabric(t, cfg, 1)
	f.ep.RegisterFunction("admin.echo", func(_ context.Context, payload any) (any, error) {
		return payload, nil
	})
	c := f.client()
	floor := cfg.SubmitLatency + cfg.DispatchCost + f.ep.cfg.PickupLatency + cfg.RelayCost
	run := func() time.Duration {
		start := f.clk.Now()
		if _, err := c.Run(context.Background(), "ep-test", "admin.echo", nil); err != nil {
			t.Error(err)
		}
		return f.clk.Since(start)
	}
	for i := 0; i < 20; i++ {
		if got := run(); got < floor {
			t.Fatalf("request %d spent %v in the fabric, below the modelled %v", i, got, floor)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := run(); got < floor {
				t.Errorf("request in a burst spent %v in the fabric, below the modelled %v", got, floor)
			}
		}()
	}
	wg.Wait()

	f.deploy(t, DeploymentConfig{Model: perfmodel.Llama8B, MinInstances: 1})
	infer := func() (time.Duration, time.Duration) {
		start := f.clk.Now()
		res, err := c.Infer(context.Background(), "ep-test", InferRequest{Model: perfmodel.Llama8B, PromptTok: 3, OutputTok: 16})
		if err != nil {
			t.Error(err)
		}
		return f.clk.Since(start), floor + res.ServeTime
	}
	for i := 0; i < 20; i++ {
		if got, want := infer(); got < want {
			t.Fatalf("inference %d spent %v in the fabric, below the modelled %v", i, got, want)
		}
	}
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, want := infer(); got < want {
				t.Errorf("inference in a burst spent %v in the fabric, below the modelled %v", got, want)
			}
		}()
	}
	wg.Wait()
}
