// Package fabric is the Globus Compute substitute (§3.2): a
// Function-as-a-Service layer with a cloud-style Hub that validates and
// routes tasks, Endpoints deployed per cluster that execute pre-registered
// functions, and a client SDK returning futures. Endpoints acquire compute
// through the PBS-like scheduler, keep model instances hot, auto-scale, and
// restart failed instances — the §3.2.2 feature set.
package fabric

import (
	"context"
	"sync"
	"time"
)

// Status is a task lifecycle state.
type Status int

const (
	TaskPending Status = iota
	TaskDispatched
	TaskRunning
	TaskSuccess
	TaskFailed
)

func (s Status) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskDispatched:
		return "dispatched"
	case TaskRunning:
		return "running"
	case TaskSuccess:
		return "success"
	case TaskFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Task is one function invocation traveling through the fabric.
type Task struct {
	ID         int64
	Function   string
	EndpointID string
	Payload    []byte

	SubmittedAt time.Time

	mu     sync.Mutex
	status Status
	result []byte
	err    error
}

// Status returns the task's current status.
func (t *Task) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

func (t *Task) setStatus(s Status) {
	t.mu.Lock()
	t.status = s
	t.mu.Unlock()
}

// Future resolves to a task result: the paper's Optimization 1 replaced
// 2-second status polling with futures, so a waiter learns of the result as
// soon as the hub relays it.
type Future struct {
	task *Task
	done chan struct{}
}

// Wait blocks for the result.
func (f *Future) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	f.task.mu.Lock()
	defer f.task.mu.Unlock()
	if f.task.err != nil {
		return nil, f.task.err
	}
	return f.task.result, nil
}

// Done reports (non-blocking) whether the result landed.
func (f *Future) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Task exposes the underlying task (status inspection, tests).
func (f *Future) Task() *Task { return f.task }

func (f *Future) resolve(result []byte, err error) {
	f.task.mu.Lock()
	f.task.result = result
	f.task.err = err
	if err != nil {
		f.task.status = TaskFailed
	} else {
		f.task.status = TaskSuccess
	}
	f.task.mu.Unlock()
	close(f.done)
}
