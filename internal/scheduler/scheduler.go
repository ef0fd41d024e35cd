// Package scheduler implements a PBS-like batch scheduler for a cluster:
// jobs queue FIFO (with optional backfill), acquire GPU allocations, pass
// through a Starting (prologue) phase, run until completed, cancelled, or
// walltime-expired, and are observable through a qstat-style view that backs
// the gateway's /jobs endpoint (§4.3: models "running", "starting",
// "queued").
package scheduler

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/cluster"
)

// State is a job lifecycle state.
type State int

const (
	Queued State = iota
	Starting
	Running
	Completed
	Cancelled
	TimedOut
	Failed
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Starting:
		return "starting"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Cancelled:
		return "cancelled"
	case TimedOut:
		return "timedout"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= Completed }

// JobSpec describes a resource request.
type JobSpec struct {
	Name     string
	User     string
	GPUs     int
	Walltime time.Duration // 0 = unlimited
	// OnStarting fires (outside the scheduler's lock) when the job is
	// granted nodes and enters its prologue, before OnRunning.
	OnStarting func(*Job)
	// OnRunning fires (on a scheduler goroutine) when the job enters
	// Running with its allocation live.
	OnRunning func(*Job)
	// OnEnd fires once when the job reaches a terminal state.
	OnEnd func(*Job, State)
}

// Job is a scheduled unit of work.
type Job struct {
	ID   int64
	Spec JobSpec

	mu sync.Mutex
	// state is a State, written under mu and read without it: the
	// federation routers read every candidate's job state per request.
	state       atomic.Int64
	submittedAt time.Time
	startedAt   time.Time
	endedAt     time.Time
	alloc       *cluster.Allocation
	gen         uint64 // guards stale timers after requeue/cancel
}

// State returns the job's current state.
func (j *Job) State() State { return State(j.state.Load()) }

// Allocation returns the job's allocation (nil unless Starting/Running).
func (j *Job) Allocation() *cluster.Allocation {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.alloc
}

// QueueWait returns time spent queued (zero until started).
func (j *Job) QueueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.startedAt.IsZero() {
		return 0
	}
	return j.startedAt.Sub(j.submittedAt)
}

// View is a qstat row.
type View struct {
	ID        int64         `json:"id"`
	Name      string        `json:"name"`
	User      string        `json:"user"`
	GPUs      int           `json:"gpus"`
	State     string        `json:"state"`
	QueueWait time.Duration `json:"queue_wait"`
	Runtime   time.Duration `json:"runtime"`
}

// Config tunes the scheduler.
type Config struct {
	// Prologue is the node-acquisition/boot time between allocation and
	// Running (job launch, container start, environment setup).
	Prologue time.Duration
	// Backfill lets later queued jobs start when the head job cannot fit
	// but they can (conservative backfill without reservations).
	Backfill bool
	// Timer, when set, schedules the scheduler's delayed transitions
	// (prologue completion, walltime expiry) instead of the default
	// goroutine-sleeping-on-the-clock. The DES harness points it at the
	// event kernel so the real scheduler lifecycle runs deterministically
	// on virtual time; live deployments leave it nil.
	Timer func(d time.Duration, fn func())
}

// Scheduler binds a job queue to a cluster.
type Scheduler struct {
	clk clock.Clock
	cl  *cluster.Cluster
	cfg Config

	mu      sync.Mutex
	nextID  int64
	queue   []*Job
	active  map[int64]*Job // Starting or Running
	history []*Job
	closed  bool
}

// New returns a scheduler for the cluster.
func New(cl *cluster.Cluster, clk clock.Clock, cfg Config) *Scheduler {
	if cfg.Prologue <= 0 {
		cfg.Prologue = 30 * time.Second
	}
	return &Scheduler{clk: clk, cl: cl, cfg: cfg, active: make(map[int64]*Job)}
}

// Cluster returns the underlying cluster.
func (s *Scheduler) Cluster() *cluster.Cluster { return s.cl }

// Submit enqueues a job and immediately attempts placement.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if spec.GPUs <= 0 {
		return nil, fmt.Errorf("scheduler: job %q requests %d GPUs", spec.Name, spec.GPUs)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("scheduler: closed")
	}
	s.nextID++
	job := &Job{ID: s.nextID, Spec: spec, submittedAt: s.clk.Now()} // Queued
	s.queue = append(s.queue, job)
	s.mu.Unlock()
	s.trySchedule()
	return job, nil
}

// Cancel removes a queued job or terminates an active one.
func (s *Scheduler) Cancel(id int64) bool {
	return s.finish(id, Cancelled)
}

// Complete marks a running job as voluntarily finished (endpoint released
// the node, batch job drained).
func (s *Scheduler) Complete(id int64) bool {
	return s.finish(id, Completed)
}

// Fail marks a running job as failed (serving process crash); the fabric's
// fault-tolerance path resubmits.
func (s *Scheduler) Fail(id int64) bool {
	return s.finish(id, Failed)
}

func (s *Scheduler) finish(id int64, terminal State) bool {
	s.mu.Lock()
	// Queued?
	for i, j := range s.queue {
		if j.ID == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.endLocked(j, terminal)
			s.mu.Unlock()
			s.notifyEnd(j, terminal)
			return true
		}
	}
	j, ok := s.active[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.active, id)
	s.releaseForEnd(j, terminal)
	s.history = append(s.history, j)
	s.mu.Unlock()
	s.notifyEnd(j, terminal)
	s.trySchedule()
	return true
}

func (s *Scheduler) endLocked(j *Job, terminal State) {
	j.mu.Lock()
	j.state.Store(int64(terminal))
	j.endedAt = s.clk.Now()
	j.gen++
	j.mu.Unlock()
	s.history = append(s.history, j)
}

// releaseForEnd gives a started job's GPUs back before it stores the
// terminal state, so a caller that sees the state finds them free.
func (s *Scheduler) releaseForEnd(j *Job, terminal State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.alloc != nil {
		s.cl.Release(j.alloc)
		j.alloc = nil
	}
	j.state.Store(int64(terminal))
	j.gen++
}

func (s *Scheduler) notifyEnd(j *Job, terminal State) {
	if j.Spec.OnEnd != nil {
		j.Spec.OnEnd(j, terminal)
	}
}

// trySchedule places queued jobs in order; with backfill enabled, jobs that
// fit may jump a blocked head.
func (s *Scheduler) trySchedule() {
	for {
		s.mu.Lock()
		if s.closed || len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		var job *Job
		var idx int
		for i, cand := range s.queue {
			alloc, err := s.cl.Allocate(cand.Spec.GPUs)
			if err == nil {
				job = cand
				idx = i
				job.mu.Lock()
				job.alloc = alloc
				job.state.Store(int64(Starting))
				job.startedAt = s.clk.Now()
				gen := job.gen
				job.mu.Unlock()
				s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
				s.active[job.ID] = job
				s.mu.Unlock()
				s.launch(job, gen)
				break
			}
			if !s.cfg.Backfill {
				s.mu.Unlock()
				return
			}
		}
		if job == nil {
			s.mu.Unlock()
			return
		}
	}
}

// launch announces the Starting state, runs the Starting→Running transition
// and arms the walltime timer.
func (s *Scheduler) launch(job *Job, gen uint64) {
	if job.Spec.OnStarting != nil {
		job.Spec.OnStarting(job)
	}
	s.after(s.cfg.Prologue, func() {
		job.mu.Lock()
		if job.gen != gen || job.State() != Starting {
			job.mu.Unlock()
			return
		}
		job.state.Store(int64(Running))
		job.mu.Unlock()
		if job.Spec.OnRunning != nil {
			job.Spec.OnRunning(job)
		}
		if job.Spec.Walltime > 0 {
			s.after(job.Spec.Walltime, func() {
				job.mu.Lock()
				stale := job.gen != gen || job.State() != Running
				job.mu.Unlock()
				if !stale {
					s.finish(job.ID, TimedOut)
				}
			})
		}
	})
}

// after defers fn by d through the configured Timer (deterministic,
// DES-driven) or, by default, a goroutine sleeping on the clock.
func (s *Scheduler) after(d time.Duration, fn func()) {
	if s.cfg.Timer != nil {
		s.cfg.Timer(d, fn)
		return
	}
	//firstlint:allow det default wall-clock timer for live mode; DES harnesses inject cfg.Timer and never reach this goroutine
	go func() {
		s.clk.Sleep(d)
		fn()
	}()
}

// Qstat returns all non-terminal jobs plus recent history, newest last.
func (s *Scheduler) Qstat() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	var views []View
	add := func(j *Job) {
		j.mu.Lock()
		v := View{ID: j.ID, Name: j.Spec.Name, User: j.Spec.User, GPUs: j.Spec.GPUs, State: j.State().String()}
		if !j.startedAt.IsZero() {
			v.QueueWait = j.startedAt.Sub(j.submittedAt)
			if j.endedAt.IsZero() {
				v.Runtime = now.Sub(j.startedAt)
			} else {
				v.Runtime = j.endedAt.Sub(j.startedAt)
			}
		} else if j.State() == Queued {
			v.QueueWait = now.Sub(j.submittedAt)
		}
		j.mu.Unlock()
		views = append(views, v)
	}
	for _, j := range s.queue {
		add(j)
	}
	ids := make([]int64, 0, len(s.active))
	for id := range s.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	for _, id := range ids {
		add(s.active[id])
	}
	return views
}

// QueuedCount returns the number of queued jobs (federation input).
func (s *Scheduler) QueuedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Close cancels all queued jobs and stops accepting new ones; active jobs
// are terminated and their allocations released.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	queued := s.queue
	s.queue = nil
	var activeIDs []int64
	for id := range s.active {
		activeIDs = append(activeIDs, id)
	}
	// Terminate in submission (ID) order: finish fires completion
	// callbacks, and map order must not leak into their sequence.
	sort.Slice(activeIDs, func(i, j int) bool { return activeIDs[i] < activeIDs[j] })
	s.mu.Unlock()
	for _, j := range queued {
		s.endLockedPublic(j)
	}
	for _, id := range activeIDs {
		s.finish(id, Cancelled)
	}
}

func (s *Scheduler) endLockedPublic(j *Job) {
	s.mu.Lock()
	s.endLocked(j, Cancelled)
	s.mu.Unlock()
	s.notifyEnd(j, Cancelled)
}
