package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/client"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
)

// newTestSystem boots the default testbed on a heavily time-dilated clock
// and returns a connected client for user "alice".
func newTestSystem(t *testing.T) (*System, *client.Client) {
	t.Helper()
	sys, err := DefaultTestbed(clock.NewScaled(20000))
	if err != nil {
		t.Fatalf("DefaultTestbed: %v", err)
	}
	t.Cleanup(sys.Close)
	if err := sys.RegisterUser("alice", "alice@anl.gov"); err != nil {
		t.Fatalf("RegisterUser: %v", err)
	}
	grant, err := sys.Login("alice")
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	c := client.New("", grant.AccessToken, client.WithHandler(sys.Gateway))
	return sys, c
}

func TestSystemChatCompletion(t *testing.T) {
	_, c := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resp, err := c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model: perfmodel.Llama8B,
		Messages: []openaiapi.Message{
			{Role: "system", Content: "You are an HPC assistant."},
			{Role: "user", Content: "Summarize the plasma turbulence results."},
		},
		MaxTokens: 64,
	})
	if err != nil {
		t.Fatalf("ChatCompletion: %v", err)
	}
	if resp.Usage.CompletionTokens != 64 {
		t.Errorf("completion tokens = %d, want 64", resp.Usage.CompletionTokens)
	}
	if len(resp.Choices) != 1 || resp.Choices[0].Message == nil {
		t.Fatalf("malformed choices: %+v", resp.Choices)
	}
	if resp.Choices[0].Message.Content == "" {
		t.Error("empty completion text")
	}
	if resp.Choices[0].FinishReason != "stop" {
		t.Errorf("finish reason = %q", resp.Choices[0].FinishReason)
	}
}

func TestSystemModelsAndJobs(t *testing.T) {
	_, c := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatalf("Models: %v", err)
	}
	if len(models.Data) != 3 {
		t.Fatalf("models = %d, want 3 (70B, 8B, NV-Embed)", len(models.Data))
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	// 70B on sophia, 8B on sophia+polaris, embed on sophia = 4 rows.
	if len(jobs.Models) != 4 {
		t.Fatalf("jobs rows = %d, want 4: %+v", len(jobs.Models), jobs.Models)
	}
	for _, m := range jobs.Models {
		switch m.State {
		case "running", "starting", "queued", "cold":
		default:
			t.Errorf("model %s: unexpected state %q", m.Model, m.State)
		}
	}
}

func TestSystemEmbeddings(t *testing.T) {
	_, c := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resp, err := c.Embeddings(ctx, openaiapi.EmbeddingRequest{
		Model: perfmodel.NVEmbed,
		Input: []string{"tokamak plasma control", "genome variant calling"},
	})
	if err != nil {
		t.Fatalf("Embeddings: %v", err)
	}
	if len(resp.Data) != 2 {
		t.Fatalf("embeddings = %d, want 2", len(resp.Data))
	}
	if len(resp.Data[0].Embedding) != 4096 {
		t.Errorf("dim = %d, want 4096", len(resp.Data[0].Embedding))
	}
}

func TestSystemStreaming(t *testing.T) {
	_, c := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var deltas int
	text, err := c.ChatCompletionStream(ctx, openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama8B,
		Messages:  []openaiapi.Message{{Role: "user", Content: "stream tokens about lattice qcd"}},
		MaxTokens: 80,
	}, func(string) { deltas++ })
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if deltas < 2 {
		t.Errorf("expected multiple SSE deltas, got %d", deltas)
	}
	if got := len(strings.Fields(text)); got != 80 {
		t.Errorf("streamed tokens = %d, want 80", got)
	}
}

func TestSystemAuthRejectsBadToken(t *testing.T) {
	sys, _ := newTestSystem(t)
	c := client.New("", "fa_bogus.deadbeef", client.WithHandler(sys.Gateway))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := c.Models(ctx)
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.StatusCode != 401 {
		t.Errorf("status = %d, want 401", apiErr.StatusCode)
	}
}

func TestSystemPolicyRestriction(t *testing.T) {
	sys, c := newTestSystem(t)
	sys.Policy.Restrict(perfmodel.Llama70B, "sensitive-project")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model:    perfmodel.Llama70B,
		Messages: []openaiapi.Message{{Role: "user", Content: "secret"}},
	})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != 403 {
		t.Fatalf("want 403, got %v", err)
	}
	// Group membership unlocks it.
	sys.Auth.AddToGroup("sensitive-project", "alice")
	grant, _ := sys.Login("alice")
	c2 := client.New("", grant.AccessToken, client.WithHandler(sys.Gateway))
	if _, err := c2.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama70B,
		Messages:  []openaiapi.Message{{Role: "user", Content: "secret"}},
		MaxTokens: 8,
	}); err != nil {
		t.Fatalf("group member should pass: %v", err)
	}
}

func TestSystemBatchLifecycle(t *testing.T) {
	_, c := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	lines := make([]openaiapi.BatchRequestLine, 20)
	for i := range lines {
		lines[i] = openaiapi.BatchRequestLine{
			CustomID: "req-" + string(rune('a'+i)),
			Body: openaiapi.ChatCompletionRequest{
				Model:     perfmodel.Llama8B,
				Messages:  []openaiapi.Message{{Role: "user", Content: "describe gene cluster"}},
				MaxTokens: 32,
			},
		}
	}
	b, err := c.CreateBatch(ctx, openaiapi.CreateBatchRequest{Model: perfmodel.Llama8B, InputLines: lines})
	if err != nil {
		t.Fatalf("CreateBatch: %v", err)
	}
	if b.Total != 20 {
		t.Errorf("total = %d, want 20", b.Total)
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		got, err := c.GetBatch(ctx, b.ID)
		if err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		if got.Status == "completed" {
			if got.Completed != 20 {
				t.Errorf("completed = %d, want 20", got.Completed)
			}
			if got.OutputTokens != 20*32 {
				t.Errorf("output tokens = %d, want %d", got.OutputTokens, 20*32)
			}
			break
		}
		if got.Status == "failed" || got.Status == "cancelled" {
			t.Fatalf("batch ended %s: %s", got.Status, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck in %s", got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	results, err := c.BatchResults(ctx, b.ID)
	if err != nil {
		t.Fatalf("BatchResults: %v", err)
	}
	if len(results) != 20 {
		t.Fatalf("results = %d, want 20", len(results))
	}
	for _, line := range results {
		if line.Status != 200 || line.Body == nil {
			t.Errorf("line %s: status=%d", line.CustomID, line.Status)
		}
	}
}

func TestSystemFaultToleranceRestart(t *testing.T) {
	sys, c := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Warm up the 8B deployment on sophia.
	if _, err := c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama8B,
		Messages:  []openaiapi.Message{{Role: "user", Content: "warmup"}},
		MaxTokens: 8,
	}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	ep := sys.Endpoints["ep-sophia"]
	d, ok := ep.Deployment(perfmodel.Llama8B)
	if !ok {
		t.Fatal("no 8B deployment on sophia")
	}
	if !d.InjectFailure() {
		t.Fatal("InjectFailure found no ready instance")
	}
	// The manager must restart the instance (MinInstances=1) and requests
	// must keep succeeding.
	deadline := time.Now().Add(60 * time.Second)
	for d.ReadyCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("instance was not restarted after failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama8B,
		Messages:  []openaiapi.Message{{Role: "user", Content: "after restart"}},
		MaxTokens: 8,
	}); err != nil {
		t.Fatalf("post-restart request: %v", err)
	}
	if d.Stats().Restarts == 0 {
		t.Error("restart was not counted")
	}
}

// TestNewSystemRejectsModelOnTooManyClusters: one failover walk tracks at
// most federation.MaxEndpoints endpoints per model, and a ladder row per
// (model, cluster) pair, so NewSystem refuses a model deployed on more
// clusters, or on one cluster twice — across all of its deployment entries —
// before it builds anything.
func TestNewSystemRejectsModelOnTooManyClusters(t *testing.T) {
	var clusters []ClusterSpec
	var names []string
	for i := 0; i <= federation.MaxEndpoints; i++ {
		name := fmt.Sprintf("c%d", i)
		clusters = append(clusters, ClusterSpec{Name: name, Nodes: 1, GPUsPerNode: 1})
		names = append(names, name)
	}
	for _, c := range []struct {
		deps []DeploymentSpec
		want string
	}{
		{[]DeploymentSpec{{Model: perfmodel.Llama8B, Clusters: names[:2]}, {Model: perfmodel.Llama8B, Clusters: names[2:]}}, "more than"},
		{[]DeploymentSpec{{Model: perfmodel.Llama8B, Clusters: []string{"c0", "c0"}}}, "twice"},
		{[]DeploymentSpec{{Model: perfmodel.Llama8B, Clusters: names[:2]}, {Model: perfmodel.Llama8B, Clusters: names[1:2]}}, "twice"},
	} {
		sys, err := NewSystem(Config{Clusters: clusters, Deployments: c.deps})
		if err == nil {
			sys.Close()
			t.Fatalf("NewSystem accepted %+v", c.deps)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("deployments %+v: err = %v, want the %q route error", c.deps, err, c.want)
		}
	}
}
