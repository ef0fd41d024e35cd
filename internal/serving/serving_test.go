package serving

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/workload"
)

func TestLiveEngineGenerate(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	clk := clock.NewScaled(10000)
	live := NewLiveEngine(eng, clk)
	defer live.Close()

	wallStart := time.Now()
	comp := live.Generate(context.Background(), 100, 64)
	if comp.Err != nil {
		t.Fatalf("Generate: %v", comp.Err)
	}
	if comp.OutputTok != 64 {
		t.Errorf("output = %d, want 64", comp.OutputTok)
	}
	// The engine-timeline latency is exact; wall time must be far shorter
	// than the virtual cost thanks to the scaled clock.
	want := eng.Model().PrefillTime(100, perfmodel.A100_40) + 64*eng.Model().DecodeIter(1, perfmodel.A100_40)
	if diff := comp.Latency - want; diff < -want/10 || diff > want/10 {
		t.Errorf("engine-timeline latency %v vs analytic %v", comp.Latency, want)
	}
	if wall := time.Since(wallStart); wall > want/10 {
		t.Errorf("wall time %v not compressed vs virtual %v", wall, want)
	}
	_ = clk
}

func TestLiveEngineConcurrentClients(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	live := NewLiveEngine(eng, clock.NewScaled(20000))
	defer live.Close()

	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := live.Generate(context.Background(), 50, 30)
			errs <- c.Err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent generate: %v", err)
		}
	}
	if st := live.Stats(); st.Completed != n {
		t.Errorf("completed = %d, want %d", st.Completed, n)
	}
}

func TestLiveEngineContextCancel(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama70B, 1)
	live := NewLiveEngine(eng, clock.NewScaled(100)) // slow: 70B takes ~3s virtual / 30ms wall each
	defer live.Close()

	// Fill the single batch slot, then cancel a queued request.
	go live.Generate(context.Background(), 200, 500)
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	comp := live.Generate(ctx, 200, 500)
	if comp.Err == nil {
		t.Fatal("expected context cancellation")
	}
}

func TestLiveEngineCloseUnblocksWaiters(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama70B, 1)
	live := NewLiveEngine(eng, clock.NewScaled(10))

	done := make(chan Completion, 1)
	go func() { done <- live.Generate(context.Background(), 200, 5000) }()
	time.Sleep(10 * time.Millisecond)
	live.Close()
	select {
	case c := <-done:
		if c.Err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", c.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not released on Close")
	}
	if c := live.Generate(context.Background(), 1, 1); c.Err != ErrClosed {
		t.Errorf("post-close generate err = %v", c.Err)
	}
}

// soloLatency is what an idle engine like eng takes for one request alone.
func soloLatency(t *testing.T, eng *Engine, promptTok, outputTok int) time.Duration {
	t.Helper()
	solo, err := NewEngine(eng.Config())
	if err != nil {
		t.Fatal(err)
	}
	seq := solo.Submit(0, promptTok, outputTok, nil)
	for solo.Depth() > 0 {
		solo.Step(solo.Now())
	}
	return seq.Latency()
}

// generateAt runs GenerateAt on its own goroutine and fails the test unless
// it returns with no further Advance of the manual clock.
func generateAt(t *testing.T, live *LiveEngine, at time.Time) Completion {
	t.Helper()
	done := make(chan Completion, 1)
	go func() { done <- live.GenerateAt(context.Background(), at, 3, 16) }()
	select {
	case c := <-done:
		if c.Err != nil {
			t.Fatalf("GenerateAt: %v", c.Err)
		}
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("GenerateAt waited on the clock")
		return Completion{}
	}
}

// GenerateAt takes a request at min(at, now), counting an instant before the
// engine started from its start, and reports the finish instant F: a request
// whose work lies inside time that has already passed returns without a wait.
func TestLiveEngineGenerateAtTakesBookedInstant(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	want := soloLatency(t, eng, 3, 16)
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	start := clk.Now()
	live := NewLiveEngine(eng, clk)
	defer live.Close()
	clk.Advance(time.Minute)

	for _, tc := range []struct {
		name     string
		at, took time.Time
	}{
		{"before the engine started", start.Add(-time.Hour), start},
		{"in the past", start.Add(10 * time.Second), start.Add(10 * time.Second)},
	} {
		c := generateAt(t, live, tc.at)
		if c.Latency != want || !c.Finish.Equal(tc.took.Add(want)) {
			t.Errorf("%s: latency %v, finish start+%v; want %v, start+%v",
				tc.name, c.Latency, c.Finish.Sub(start), want, tc.took.Add(want).Sub(start))
		}
	}

	// An instant ahead of the clock is taken now, and the engine sleeps out
	// its work.
	now := clk.Now()
	done := make(chan Completion, 1)
	go func() { done <- live.GenerateAt(context.Background(), now.Add(time.Hour), 3, 16) }()
	clk.BlockUntil(1)
	clk.Advance(time.Minute)
	if c := <-done; c.Err != nil || !c.Finish.Equal(now.Add(want)) {
		t.Errorf("future instant: finish now+%v, err %v; want now+%v", c.Finish.Sub(now), c.Err, want)
	}
}

// A caller that gives up while its sequence runs gets ctx.Err() at once; the
// sequence runs on, its delivery to the dropped record blocks nothing, and
// the engine serves the next request.
func TestLiveEngineCancelWhileRunning(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	live := NewLiveEngine(newTestEngine(t, perfmodel.Llama8B, 0), clk)
	defer live.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- live.GenerateAt(ctx, clk.Now(), 3, 16).Err }()
	clk.BlockUntil(1) // the first iteration has the sequence running
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled GenerateAt = %v, want %v", err, context.Canceled)
	}
	clk.Advance(time.Minute)
	generateAt(t, live, clk.Now().Add(-time.Second))
	if st := live.Stats(); st.Completed != 2 {
		t.Errorf("completed = %d, want 2", st.Completed)
	}
}

// TestLiveEngineGenerateAtZeroAlloc: at steady state a request allocates
// nothing — its record and wake channel come from the free list, and a
// driver, the caller or the loop, links the records it finished through
// their own next fields.
func TestLiveEngineGenerateAtZeroAlloc(t *testing.T) {
	clk := clock.NewScaled(20000)
	live := NewLiveEngine(newTestEngine(t, perfmodel.Llama8B, 0), clk)
	defer live.Close()
	ctx := context.Background()
	// A method value: the hotpath analyzer matches a pin's callees by bare
	// name, and Engine.Now is not on this path.
	now := clk.Now
	generate := func() {
		if c := live.GenerateAt(ctx, now(), 3, 16); c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	for i := 0; i < 20; i++ {
		generate() // warm the free lists, the deliveries slice and the clock
	}
	if allocs := testing.AllocsPerRun(100, generate); allocs != 0 {
		t.Errorf("steady-state GenerateAt allocs = %v, want 0", allocs)
	}
}

func TestRunOfflineBatchCalibration(t *testing.T) {
	// The §5.3.1 anchor: 1000 long-form requests on 70B ⇒ ≈2117 tok/s
	// overall including cold start, ≈409 s total.
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	trace := workload.Generate(1000, workload.BatchGen(), workload.Infinite(), 99)
	res, err := RunOffline(OfflineConfig{Model: model, GPU: perfmodel.A100_40, MaxBatch: 512}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1000 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.OverallTokPS < 1700 || res.OverallTokPS > 2500 {
		t.Errorf("overall = %.0f tok/s, want ≈2117 band", res.OverallTokPS)
	}
	if res.TotalTime.Seconds() < 330 || res.TotalTime.Seconds() > 520 {
		t.Errorf("total = %.0fs, want ≈409 band", res.TotalTime.Seconds())
	}
	if res.GenerateTokPS <= res.OverallTokPS {
		t.Error("generation-only throughput must exceed overall (cold start included)")
	}
}

func TestRunOfflineSkipLoad(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	trace := workload.Generate(50, workload.BatchGen(), workload.Infinite(), 1)
	warm, err := RunOffline(OfflineConfig{Model: model, GPU: perfmodel.A100_40, SkipLoad: true}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if warm.LoadTime != 0 {
		t.Errorf("warm run load time = %v", warm.LoadTime)
	}
	cold, _ := RunOffline(OfflineConfig{Model: model, GPU: perfmodel.A100_40}, trace)
	if cold.TotalTime <= warm.TotalTime {
		t.Error("cold run should take longer")
	}
}

func TestRunOfflineAmortization(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	small, _ := RunOffline(OfflineConfig{Model: model, GPU: perfmodel.A100_40},
		workload.Generate(10, workload.BatchGen(), workload.Infinite(), 2))
	large, _ := RunOffline(OfflineConfig{Model: model, GPU: perfmodel.A100_40},
		workload.Generate(2000, workload.BatchGen(), workload.Infinite(), 2))
	if small.OverallTokPS >= large.OverallTokPS {
		t.Errorf("amortization inverted: %0.f vs %.0f tok/s", small.OverallTokPS, large.OverallTokPS)
	}
	loadShareSmall := small.LoadTime.Seconds() / small.TotalTime.Seconds()
	if loadShareSmall < 0.3 {
		t.Errorf("load share for 10 requests = %.2f, should dominate", loadShareSmall)
	}
}

func TestEmbedEngine(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.NVEmbed)
	emb, err := NewEmbedEngine(model, perfmodel.A100_40, clock.NewScaled(10000))
	if err != nil {
		t.Fatal(err)
	}
	vecs, err := emb.Embed(context.Background(), []string{"plasma turbulence", "genome assembly"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 2 || len(vecs[0]) != 4096 {
		t.Fatalf("shape = %dx%d", len(vecs), len(vecs[0]))
	}
	if emb.Dim() != 4096 {
		t.Errorf("dim = %d", emb.Dim())
	}
	if st := emb.Stats(); st.Completed != 2 {
		t.Errorf("stats completed = %d", st.Completed)
	}
}

func TestEmbedEngineRejectsChatModel(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	if _, err := NewEmbedEngine(model, perfmodel.A100_40, clock.NewReal()); err == nil {
		t.Error("chat model should be rejected")
	}
}

func TestPseudoEmbeddingProperties(t *testing.T) {
	a := PseudoEmbedding("qsub walltime queue scheduler", 256)
	b := PseudoEmbedding("qsub walltime queue scheduler", 256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
	var norm float64
	for _, v := range a {
		norm += float64(v) * float64(v)
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-3 {
		t.Errorf("norm = %v, want ≈1", math.Sqrt(norm))
	}
	// Overlapping vocabulary ⇒ higher similarity than disjoint text.
	related := PseudoEmbedding("qsub walltime queue limits", 256)
	unrelated := PseudoEmbedding("tokamak plasma neutron flux", 256)
	simRelated := dot(a, related)
	simUnrelated := dot(a, unrelated)
	if simRelated <= simUnrelated {
		t.Errorf("related sim %.3f <= unrelated %.3f", simRelated, simUnrelated)
	}
}

func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func TestPseudoEmbeddingEmptyText(t *testing.T) {
	v := PseudoEmbedding("", 64)
	if len(v) != 64 {
		t.Fatalf("dim = %d", len(v))
	}
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if norm == 0 {
		t.Error("empty text should still produce a unit vector")
	}
}

func TestExtAPIModel(t *testing.T) {
	m := DefaultOpenAI()
	if m.AdmissionGap() <= 0 {
		t.Error("default model should be rate limited")
	}
	if m.ServiceTime(200) <= m.ServiceTime(10) {
		t.Error("service time should grow with output length")
	}
	unlimited := ExtAPIModel{}
	if unlimited.AdmissionGap() != 0 {
		t.Error("no rate limit should mean zero gap")
	}
	if got := m.ScaledOutput(100); got != 135 {
		t.Errorf("scaled output = %d, want 135", got)
	}
	if got := (ExtAPIModel{}).ScaledOutput(100); got != 100 {
		t.Errorf("unscaled output = %d, want 100", got)
	}
}
