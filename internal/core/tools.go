package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/scheduler"
)

// Tool exposure implements the §7 future-work direction: the same gateway
// that serves inference also runs pre-registered custom codes and
// traditional HPC simulations as tool calls.

// ExposeTool pre-registers a function on a cluster's endpoint and routes it
// through the gateway at POST /v1/tools/{name}, optionally gated by a
// Globus group. A tool's handler is given the call's JSON payload as []byte
// and answers with []byte.
func (s *System) ExposeTool(name, clusterName, group string, handler fabric.Handler) error {
	ep, ok := s.Endpoints["ep-"+clusterName]
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", clusterName)
	}
	ep.RegisterFunction(name, handler)
	s.Gateway.RegisterTool(gateway.ToolRoute{Name: name, Endpoint: ep, Group: group})
	return nil
}

// SimulateRequest is the payload of the built-in "hpc.simulate" tool: a
// stencil-style simulation sized by grid cells and time steps.
type SimulateRequest struct {
	Name      string `json:"name"`
	GridCells int    `json:"grid_cells"`
	Steps     int    `json:"steps"`
	GPUs      int    `json:"gpus"`
}

// SimulateResult reports the completed simulation job.
type SimulateResult struct {
	Name       string  `json:"name"`
	JobID      int64   `json:"job_id"`
	GPUs       int     `json:"gpus"`
	QueueWaitS float64 `json:"queue_wait_s"`
	RuntimeS   float64 `json:"runtime_s"`
	// Residual is a deterministic convergence figure for the run.
	Residual float64 `json:"residual"`
}

// cellUpdatesPerGPUPerSec calibrates the simulation tool's compute model.
const cellUpdatesPerGPUPerSec = 2e9

// RegisterHPCSimulationTool exposes "hpc.simulate" on the named cluster:
// each call submits a dedicated scheduler job, holds the allocation for the
// modeled compute time, and returns job statistics — a traditional HPC
// workload driven through the inference API.
func (s *System) RegisterHPCSimulationTool(clusterName, group string) error {
	sched, ok := s.Schedulers[clusterName]
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", clusterName)
	}
	handler := func(ctx context.Context, payload any) (any, error) {
		raw, ok := payload.([]byte)
		if !ok {
			return nil, fmt.Errorf("%w: hpc.simulate takes JSON bytes, not %T", fabric.ErrPayloadType, payload)
		}
		var req SimulateRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf("hpc.simulate: %w", err)
		}
		if req.GridCells <= 0 || req.Steps <= 0 {
			return nil, fmt.Errorf("hpc.simulate: grid_cells and steps must be positive")
		}
		if req.GPUs <= 0 {
			req.GPUs = 1
		}
		compute := time.Duration(float64(req.GridCells) * float64(req.Steps) /
			(cellUpdatesPerGPUPerSec * float64(req.GPUs)) * float64(time.Second))

		done := make(chan SimulateResult, 1)
		fail := make(chan error, 1)
		job, err := sched.Submit(scheduler.JobSpec{
			Name: "sim:" + req.Name,
			User: "tool:hpc.simulate",
			GPUs: req.GPUs,
			OnRunning: func(j *scheduler.Job) {
				s.Clock.Sleep(compute)
				res := SimulateResult{
					Name:       req.Name,
					JobID:      j.ID,
					GPUs:       req.GPUs,
					QueueWaitS: j.QueueWait().Seconds(),
					RuntimeS:   compute.Seconds(),
					Residual:   1.0 / math.Sqrt(float64(req.Steps)),
				}
				sched.Complete(j.ID)
				done <- res
			},
			OnEnd: func(j *scheduler.Job, st scheduler.State) {
				if st != scheduler.Completed {
					select {
					case fail <- fmt.Errorf("hpc.simulate: job ended %s", st):
					default:
					}
				}
			},
		})
		if err != nil {
			return nil, err
		}
		_ = job
		select {
		case res := <-done:
			return json.Marshal(res)
		case err := <-fail:
			return nil, err
		case <-ctx.Done():
			sched.Cancel(job.ID)
			return nil, ctx.Err()
		}
	}
	return s.ExposeTool("hpc.simulate", clusterName, group, handler)
}
