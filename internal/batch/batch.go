// Package batch implements FIRST's high-throughput batch processing mode
// (§4.4): users submit a JSON-lines file of inference requests; each batch
// executes as a dedicated HPC job that loads the model solely for that task
// and processes every request with offline continuous batching, bypassing
// the shared online serving path entirely.
package batch

import (
	"fmt"
	"strings"
	"sync"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/store"
	"github.com/argonne-first/first/internal/workload"
)

// Runner executes batch jobs against endpoints' schedulers.
type Runner struct {
	clk clock.Clock
	st  *store.Store

	mu      sync.Mutex
	nextID  int64
	results map[string][]openaiapi.BatchResponseLine
	jobs    map[string]batchJob
}

type batchJob struct {
	job   *scheduler.Job
	sched *scheduler.Scheduler
}

// NewRunner returns a batch runner logging into st.
func NewRunner(clk clock.Clock, st *store.Store) *Runner {
	return &Runner{
		clk:     clk,
		st:      st,
		results: make(map[string][]openaiapi.BatchResponseLine),
		jobs:    make(map[string]batchJob),
	}
}

// ValidateLines checks a batch input file's lines (§3.1.1: the gateway
// validates incoming data before spending any compute).
func ValidateLines(lines []openaiapi.BatchRequestLine) error {
	if len(lines) == 0 {
		return fmt.Errorf("batch: input file is empty")
	}
	seen := make(map[string]bool, len(lines))
	for i := range lines {
		l := &lines[i]
		if l.CustomID == "" {
			return fmt.Errorf("batch: line %d: custom_id is required", i)
		}
		if seen[l.CustomID] {
			return fmt.Errorf("batch: line %d: duplicate custom_id %q", i, l.CustomID)
		}
		seen[l.CustomID] = true
		if l.Method != "" && l.Method != "POST" {
			return fmt.Errorf("batch: line %d: unsupported method %q", i, l.Method)
		}
		if l.URL != "" && l.URL != "/v1/chat/completions" && l.URL != "/v1/completions" {
			return fmt.Errorf("batch: line %d: unsupported url %q", i, l.URL)
		}
		if err := l.Body.Validate(); err != nil {
			return fmt.Errorf("batch: line %d: %v", i, err)
		}
	}
	return nil
}

// Submit validates and launches a batch as a dedicated job on the
// endpoint's scheduler, returning the batch ID immediately (the job runs
// asynchronously; poll via the store).
func (r *Runner) Submit(user, model string, lines []openaiapi.BatchRequestLine, ep *fabric.Endpoint) (string, error) {
	spec, err := perfmodel.Default.Lookup(model)
	if err != nil {
		return "", err
	}
	if spec.Kind == perfmodel.KindEmbedding {
		return "", fmt.Errorf("batch: %s is an embedding model", model)
	}
	if err := ValidateLines(lines); err != nil {
		return "", err
	}

	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("batch_%06d", r.nextID)
	r.mu.Unlock()

	now := r.clk.Now()
	r.st.PutBatch(store.Batch{
		ID:        id,
		User:      user,
		Model:     model,
		Endpoint:  ep.ID(),
		State:     store.BatchQueued,
		Total:     len(lines),
		CreatedAt: now,
	})

	job, err := ep.Scheduler().Submit(scheduler.JobSpec{
		Name: "batch:" + id,
		User: user,
		GPUs: spec.TensorParallel,
		OnRunning: func(j *scheduler.Job) {
			r.execute(id, spec, ep, lines, j)
		},
		OnEnd: func(j *scheduler.Job, st scheduler.State) {
			if st != scheduler.Completed {
				r.st.UpdateBatch(id, func(b *store.Batch) {
					if b.State != store.BatchCompleted && b.State != store.BatchFailed {
						b.State = store.BatchCancelled
						b.Error = "job ended: " + st.String()
						b.FinishedAt = r.clk.Now()
					}
				})
			}
		},
	})
	if err != nil {
		r.st.UpdateBatch(id, func(b *store.Batch) {
			b.State = store.BatchFailed
			b.Error = err.Error()
		})
		return "", err
	}
	r.mu.Lock()
	r.jobs[id] = batchJob{job: job, sched: ep.Scheduler()}
	r.mu.Unlock()
	return id, nil
}

// execute runs on the scheduler's OnRunning goroutine once nodes are
// acquired: it computes the offline run on virtual time, sleeps it out on
// the runner's clock, then records results.
func (r *Runner) execute(id string, spec perfmodel.ModelSpec, ep *fabric.Endpoint, lines []openaiapi.BatchRequestLine, job *scheduler.Job) {
	r.st.UpdateBatch(id, func(b *store.Batch) {
		b.State = store.BatchInProgress
		b.StartedAt = r.clk.Now()
	})

	reqs := make([]workload.Request, len(lines))
	for i := range lines {
		reqs[i] = LineToRequest(i, &lines[i])
	}
	gpu := ep.Scheduler().Cluster().GPU()
	res, err := serving.RunOffline(serving.OfflineConfig{Model: spec, GPU: gpu, MaxBatch: 2 * spec.MaxBatch}, reqs)
	if err != nil {
		r.st.UpdateBatch(id, func(b *store.Batch) {
			b.State = store.BatchFailed
			b.Error = err.Error()
			b.FinishedAt = r.clk.Now()
		})
		ep.Scheduler().Fail(job.ID)
		return
	}
	// The dedicated job occupies its allocation for the full cold-start +
	// generation span.
	r.clk.Sleep(res.TotalTime)

	out := make([]openaiapi.BatchResponseLine, len(lines))
	var outputTokens int64
	for i := range lines {
		body := &openaiapi.ChatCompletionResponse{
			ID:      fmt.Sprintf("%s-line-%d", id, i),
			Object:  "chat.completion",
			Created: r.clk.Now().Unix(),
			Model:   spec.Name,
			Choices: []openaiapi.Choice{{
				Index:        0,
				Message:      &openaiapi.Message{Role: "assistant", Content: synthBatchText(&lines[i], reqs[i].OutputTok)},
				FinishReason: "stop",
			}},
			Usage: openaiapi.Usage{
				PromptTokens:     reqs[i].PromptTok,
				CompletionTokens: reqs[i].OutputTok,
				TotalTokens:      reqs[i].PromptTok + reqs[i].OutputTok,
			},
		}
		out[i] = openaiapi.BatchResponseLine{CustomID: lines[i].CustomID, Status: 200, Body: body}
		outputTokens += int64(reqs[i].OutputTok)
	}
	r.mu.Lock()
	r.results[id] = out
	r.mu.Unlock()

	r.st.UpdateBatch(id, func(b *store.Batch) {
		b.State = store.BatchCompleted
		b.Completed = len(lines)
		b.OutputTokens = outputTokens
		b.FinishedAt = r.clk.Now()
	})
	r.st.LogRequest(store.RequestLog{
		User:      "", // attributed per-batch in the batches table
		Model:     spec.Name,
		Endpoint:  ep.ID(),
		Cluster:   ep.ClusterName(),
		Kind:      store.KindBatch,
		PromptTok: 0,
		OutputTok: int(outputTokens),
		Latency:   res.TotalTime,
		Status:    "ok",
		CreatedAt: r.clk.Now(),
	})
	ep.Scheduler().Complete(job.ID)
}

// Cancel cancels a batch's job if it has not finished; the scheduler's
// OnEnd callback marks the batch record cancelled.
func (r *Runner) Cancel(id string) bool {
	r.mu.Lock()
	bj, ok := r.jobs[id]
	if ok {
		delete(r.jobs, id)
	}
	r.mu.Unlock()
	if !ok || bj.job.State().Terminal() {
		return false
	}
	return bj.sched.Cancel(bj.job.ID)
}

// Results returns the output lines of a completed batch.
func (r *Runner) Results(id string) ([]openaiapi.BatchResponseLine, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lines, ok := r.results[id]
	return lines, ok
}

// LineToRequest converts a batch input line to a workload request using the
// gateway's token-estimation rules.
func LineToRequest(i int, l *openaiapi.BatchRequestLine) workload.Request {
	var promptTok int
	for _, m := range l.Body.Messages {
		promptTok += workload.EstimateTokens(m.Content)
	}
	if promptTok < 1 {
		promptTok = 1
	}
	outputTok := l.Body.MaxTokens
	if outputTok <= 0 {
		outputTok = DefaultOutputTokens(l.CustomID)
	}
	return workload.Request{ID: i, PromptTok: promptTok, OutputTok: outputTok}
}

// DefaultOutputTokens deterministically picks a target output length for
// requests without max_tokens (real serving stops at EOS; the simulation
// needs a concrete target).
func DefaultOutputTokens(seed string) int {
	var h uint32 = 2166136261
	for i := 0; i < len(seed); i++ {
		h ^= uint32(seed[i])
		h *= 16777619
	}
	return 64 + int(h%192)
}

func synthBatchText(l *openaiapi.BatchRequestLine, n int) string {
	var prompt string
	if len(l.Body.Messages) > 0 {
		prompt = l.Body.Messages[len(l.Body.Messages)-1].Content
	}
	words := strings.Fields(prompt)
	if len(words) == 0 {
		words = []string{"result"}
	}
	var b strings.Builder
	b.Grow(n * 8)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[i%len(words)])
	}
	return b.String()
}
