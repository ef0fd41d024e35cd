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
			RelayCost: time.Millisecond, CacheConnections: true, MaxQueuedTasks: 1024,
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
	f.ep.RegisterFunction("admin.echo", func(_ context.Context, payload []byte) ([]byte, error) {
		return payload, nil
	})
	c := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := c.Run(ctx, "ep-test", "admin.echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ping" {
		t.Errorf("echo = %q", out)
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
		if _, err := c.Submit("ep-test", FnInfer, MarshalPayload(InferRequest{Model: perfmodel.Llama8B})); errors.Is(err, ErrHubQueueFull) {
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
	fut, err := c.Submit("ep-test", FnInfer, MarshalPayload(InferRequest{Model: perfmodel.Llama8B, PromptTok: 5, OutputTok: 5}))
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

func TestPayloadRoundtrip(t *testing.T) {
	in := InferRequest{Model: "m", PromptTok: 5, OutputTok: 6, Prompt: "p", WantText: true}
	raw := MarshalPayload(in)
	var out InferRequest
	if err := UnmarshalPayload(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("roundtrip: %+v != %+v", out, in)
	}
	if err := UnmarshalPayload([]byte("{broken"), &out); err == nil {
		t.Error("broken payload accepted")
	}
}

// A backlogged lane drains at 1/DispatchCost, the Fig. 4 ceiling, not at
// 1/(DispatchCost + what a sleep overshoots by): 400 tasks queued behind a
// 20 ms lane leave it 8 s later. At 20000× that is 400 µs of wall with 40 µs
// of tolerance, which a shared host's hiccups (and the packages go test runs
// beside this one) exceed now and then — the lane has to hit it once in a
// few spaced tries; it may never run ahead of the model.
func TestDispatchLanePacesAgainstAbsoluteDeadline(t *testing.T) {
	const tasks, cost = 400, 20 * time.Millisecond
	// 20 ms is 1 µs of wall per task. Where the lane's own work per task
	// takes longer than that (the race detector), there is no pacing to test.
	if cpu := min(drainDispatchLane(tasks, 0), drainDispatchLane(tasks, 0), drainDispatchLane(tasks, 0)); cpu >= tasks*cost {
		t.Skipf("handling %d tasks takes %v of virtual time without any lane cost", tasks, cpu)
	}
	var got time.Duration
	for try := 0; try < 20; try++ {
		time.Sleep(time.Duration(try) * time.Millisecond)
		got = drainDispatchLane(tasks, cost)
		t.Logf("try %d: drained in %v", try, got)
		if got < tasks*cost {
			t.Fatalf("%d tasks left a %v lane after %v, before the model's %v", tasks, cost, got, tasks*cost)
		}
		if got <= tasks*cost*11/10 {
			return
		}
	}
	t.Errorf("%d tasks left a %v lane after %v, want %v + at most 10 %%", tasks, cost, got, tasks*cost)
}

// drainDispatchLane queues n tasks on a fresh hub at one instant and reports
// the virtual time until the last has left the dispatch lane. The tasks name
// no registered endpoint, so the lane fails each straight into the (free)
// relay lane and nothing else competes for the processor.
func drainDispatchLane(n int, cost time.Duration) time.Duration {
	clk := clock.NewScaled(20000)
	hub := NewHub(clk, HubConfig{DispatchCost: cost}, "id", "secret", nil)
	defer hub.Close()
	items := make([]*dispatchItem, n)
	for i := range items {
		task := &Task{ID: int64(i), EndpointID: "ep-nowhere"}
		items[i] = &dispatchItem{task: task, future: &Future{task: task, done: make(chan struct{})}}
	}
	hub.mu.Lock()
	hub.queued = n
	hub.mu.Unlock()
	start := clk.Now()
	for _, it := range items {
		it.at = start
		hub.dispatchCh <- it
	}
	<-items[n-1].future.done
	return clk.Since(start)
}
