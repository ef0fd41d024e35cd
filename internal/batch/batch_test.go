package batch

import (
	"strings"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/metrics"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/store"
)

func validLine(id string) openaiapi.BatchRequestLine {
	return openaiapi.BatchRequestLine{
		CustomID: id,
		Method:   "POST",
		URL:      "/v1/chat/completions",
		Body: openaiapi.ChatCompletionRequest{
			Model:     perfmodel.Llama8B,
			Messages:  []openaiapi.Message{{Role: "user", Content: "generate a sample"}},
			MaxTokens: 16,
		},
	}
}

func TestValidateLines(t *testing.T) {
	if err := ValidateLines(nil); err == nil {
		t.Error("empty batch accepted")
	}
	good := []openaiapi.BatchRequestLine{validLine("a"), validLine("b")}
	if err := ValidateLines(good); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	dup := []openaiapi.BatchRequestLine{validLine("a"), validLine("a")}
	if err := ValidateLines(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate custom_id: %v", err)
	}
	noID := []openaiapi.BatchRequestLine{{Body: validLine("x").Body}}
	if err := ValidateLines(noID); err == nil {
		t.Error("missing custom_id accepted")
	}
	badMethod := []openaiapi.BatchRequestLine{validLine("a")}
	badMethod[0].Method = "DELETE"
	if err := ValidateLines(badMethod); err == nil {
		t.Error("bad method accepted")
	}
	badURL := []openaiapi.BatchRequestLine{validLine("a")}
	badURL[0].URL = "/v1/images"
	if err := ValidateLines(badURL); err == nil {
		t.Error("bad url accepted")
	}
	badBody := []openaiapi.BatchRequestLine{validLine("a")}
	badBody[0].Body.Messages = nil
	if err := ValidateLines(badBody); err == nil {
		t.Error("invalid body accepted")
	}
}

func TestLineToRequestTokenRules(t *testing.T) {
	line := validLine("x")
	line.Body.MaxTokens = 99
	r := LineToRequest(3, &line)
	if r.ID != 3 || r.OutputTok != 99 {
		t.Errorf("request = %+v", r)
	}
	if r.PromptTok != 3 { // "generate a sample"
		t.Errorf("prompt tokens = %d, want 3", r.PromptTok)
	}
	line.Body.MaxTokens = 0
	r = LineToRequest(0, &line)
	if r.OutputTok < 64 || r.OutputTok >= 256 {
		t.Errorf("default output = %d, want [64,256)", r.OutputTok)
	}
}

func TestDefaultOutputTokensDeterministic(t *testing.T) {
	if DefaultOutputTokens("abc") != DefaultOutputTokens("abc") {
		t.Error("not deterministic")
	}
	spread := map[int]bool{}
	for _, s := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		spread[DefaultOutputTokens(s)] = true
	}
	if len(spread) < 4 {
		t.Errorf("insufficient spread: %v", spread)
	}
}

type batchEnv struct {
	runner *Runner
	st     *store.Store
	ep     *fabric.Endpoint
}

func newBatchEnv(t *testing.T) *batchEnv {
	t.Helper()
	clk := clock.NewScaled(50000)
	cl := cluster.New("bt", 2, 8, perfmodel.A100_40)
	sched := scheduler.New(cl, clk, scheduler.Config{Prologue: 5 * time.Second})
	ep, err := fabric.NewEndpoint(fabric.EndpointConfig{ID: "ep-bt", Scheduler: sched}, clk, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0)
	t.Cleanup(func() { ep.Close(); sched.Close() })
	return &batchEnv{runner: NewRunner(clk, st), st: st, ep: ep}
}

func waitBatch(t *testing.T, st *store.Store, id string, want store.BatchState) store.Batch {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		b, ok := st.GetBatch(id)
		if ok && b.State == want {
			return b
		}
		if ok && b.State == store.BatchFailed && want != store.BatchFailed {
			t.Fatalf("batch failed: %s", b.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck in %s, want %s", b.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBatchRunsToCompletion(t *testing.T) {
	env := newBatchEnv(t)
	lines := make([]openaiapi.BatchRequestLine, 30)
	for i := range lines {
		lines[i] = validLine(strings.Repeat("x", i+1))
	}
	id, err := env.runner.Submit("alice", perfmodel.Llama8B, lines, env.ep)
	if err != nil {
		t.Fatal(err)
	}
	b := waitBatch(t, env.st, id, store.BatchCompleted)
	if b.Completed != 30 || b.OutputTokens != 30*16 {
		t.Errorf("batch = %+v", b)
	}
	results, ok := env.runner.Results(id)
	if !ok || len(results) != 30 {
		t.Fatalf("results = %d, ok=%v", len(results), ok)
	}
	for _, line := range results {
		if line.Status != 200 || line.Body == nil || line.Body.Usage.CompletionTokens != 16 {
			t.Errorf("result line %s = %+v", line.CustomID, line)
		}
	}
	// The dedicated job must have released its nodes.
	if free := env.ep.Scheduler().Cluster().Status().FreeGPUs; free != 16 {
		t.Errorf("GPUs leaked: %d free", free)
	}
	// Request logged as batch kind.
	if tot := env.st.Totals(); tot.ByKind["batch"] != 1 {
		t.Errorf("batch request not logged: %+v", tot.ByKind)
	}
}

func TestBatchRejectsInvalid(t *testing.T) {
	env := newBatchEnv(t)
	if _, err := env.runner.Submit("a", "no/such-model", []openaiapi.BatchRequestLine{validLine("x")}, env.ep); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := env.runner.Submit("a", perfmodel.NVEmbed, []openaiapi.BatchRequestLine{validLine("x")}, env.ep); err == nil {
		t.Error("embedding model accepted for batch")
	}
	if _, err := env.runner.Submit("a", perfmodel.Llama8B, nil, env.ep); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestBatchCancel(t *testing.T) {
	env := newBatchEnv(t)
	// Occupy the whole cluster so the batch job stays queued.
	blocker, err := env.ep.Scheduler().Submit(scheduler.JobSpec{Name: "blocker", GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	lines := []openaiapi.BatchRequestLine{validLine("a")}
	id, err := env.runner.Submit("alice", perfmodel.Llama8B, lines, env.ep)
	if err != nil {
		t.Fatal(err)
	}
	if !env.runner.Cancel(id) {
		t.Fatal("cancel failed")
	}
	waitBatch(t, env.st, id, store.BatchCancelled)
	if env.runner.Cancel(id) {
		t.Error("double cancel succeeded")
	}
	if env.runner.Cancel("batch_999999") {
		t.Error("cancelling unknown batch succeeded")
	}
	_ = blocker
}
