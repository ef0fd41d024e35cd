package scheduler

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/sim"
)

func newTestScheduler(t *testing.T, nodes, gpus int, cfg Config) (*Scheduler, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New("test", nodes, gpus, perfmodel.A100_40)
	if cfg.Prologue == 0 {
		cfg.Prologue = 10 * time.Second
	}
	s := New(cl, clock.NewScaled(20000), cfg)
	t.Cleanup(s.Close)
	return s, cl
}

// waitState polls until the job reaches state or the deadline passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %v, want %v", j.ID, j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	s, cl := newTestScheduler(t, 2, 8, Config{})
	var mu sync.Mutex
	var events []string
	job, err := s.Submit(JobSpec{
		Name: "serve", User: "alice", GPUs: 8,
		OnRunning: func(j *Job) { mu.Lock(); events = append(events, "running"); mu.Unlock() },
		OnEnd:     func(j *Job, st State) { mu.Lock(); events = append(events, "end:"+st.String()); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, Running)
	if job.Allocation() == nil || job.Allocation().GPUs() != 8 {
		t.Error("running job should hold its allocation")
	}
	if !s.Complete(job.ID) {
		t.Error("Complete failed")
	}
	waitState(t, job, Completed)
	if cl.Status().FreeGPUs != 16 {
		t.Errorf("GPUs not released: %d free", cl.Status().FreeGPUs)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != "running" || events[1] != "end:completed" {
		t.Errorf("events = %v", events)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	s, _ := newTestScheduler(t, 1, 8, Config{})
	j1, _ := s.Submit(JobSpec{Name: "a", GPUs: 8})
	j2, _ := s.Submit(JobSpec{Name: "b", GPUs: 8})
	waitState(t, j1, Running)
	if j2.State() != Queued {
		t.Fatalf("j2 = %v, want queued", j2.State())
	}
	if s.QueuedCount() != 1 {
		t.Errorf("queued = %d", s.QueuedCount())
	}
	s.Complete(j1.ID)
	waitState(t, j2, Running)
	if j2.QueueWait() <= 0 {
		t.Error("queued job should record queue wait")
	}
}

func TestFIFOWithoutBackfill(t *testing.T) {
	s, _ := newTestScheduler(t, 1, 8, Config{})
	j1, _ := s.Submit(JobSpec{Name: "big1", GPUs: 8})
	j2, _ := s.Submit(JobSpec{Name: "big2", GPUs: 8}) // blocks the head
	j3, _ := s.Submit(JobSpec{Name: "small", GPUs: 1})
	waitState(t, j1, Running)
	time.Sleep(20 * time.Millisecond)
	if j3.State() != Queued {
		t.Errorf("FIFO scheduler let a small job jump the queue: %v", j3.State())
	}
	_ = j2
}

func TestBackfillLetsSmallJobsRun(t *testing.T) {
	s, _ := newTestScheduler(t, 1, 8, Config{Backfill: true})
	j1, _ := s.Submit(JobSpec{Name: "big1", GPUs: 6})
	j2, _ := s.Submit(JobSpec{Name: "big2", GPUs: 6}) // cannot fit beside j1
	j3, _ := s.Submit(JobSpec{Name: "small", GPUs: 2})
	waitState(t, j1, Running)
	waitState(t, j3, Running) // backfilled around j2
	if j2.State() != Queued {
		t.Errorf("j2 = %v, want still queued", j2.State())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, _ := newTestScheduler(t, 1, 8, Config{})
	j1, _ := s.Submit(JobSpec{Name: "a", GPUs: 8})
	j2, _ := s.Submit(JobSpec{Name: "b", GPUs: 8})
	waitState(t, j1, Running)
	if !s.Cancel(j2.ID) {
		t.Fatal("cancel queued failed")
	}
	if j2.State() != Cancelled {
		t.Errorf("j2 = %v", j2.State())
	}
	if s.Cancel(99999) {
		t.Error("cancelling unknown job should fail")
	}
}

func TestCancelRunningReleasesNodes(t *testing.T) {
	s, cl := newTestScheduler(t, 1, 8, Config{})
	j, _ := s.Submit(JobSpec{Name: "a", GPUs: 8})
	waitState(t, j, Running)
	s.Cancel(j.ID)
	waitState(t, j, Cancelled)
	if cl.Status().FreeGPUs != 8 {
		t.Errorf("GPUs leaked: %d free", cl.Status().FreeGPUs)
	}
}

func TestWalltimeTimeout(t *testing.T) {
	s, cl := newTestScheduler(t, 1, 8, Config{})
	// Long enough at 20000× (15 ms) for waitState's millisecond poll to see
	// the job running before the walltime ends it.
	j, _ := s.Submit(JobSpec{Name: "w", GPUs: 4, Walltime: 5 * time.Minute})
	waitState(t, j, Running)
	waitState(t, j, TimedOut)
	if cl.Status().FreeGPUs != 8 {
		t.Errorf("GPUs leaked after walltime: %d", cl.Status().FreeGPUs)
	}
}

func TestFailTriggersOnEnd(t *testing.T) {
	s, _ := newTestScheduler(t, 1, 8, Config{})
	ended := make(chan State, 1)
	j, _ := s.Submit(JobSpec{
		Name: "f", GPUs: 4,
		OnEnd: func(_ *Job, st State) { ended <- st },
	})
	waitState(t, j, Running)
	s.Fail(j.ID)
	select {
	case st := <-ended:
		if st != Failed {
			t.Errorf("end state = %v", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnEnd never fired")
	}
}

// TestTerminalStateFollowsRelease: a job's GPUs are back in the cluster by
// the time its terminal state is visible. The test spins on State while
// another goroutine fails the running job, then reads the cluster at once;
// a release that followed the state store would show held GPUs here on
// nearly every round under the race detector, which widens that window.
func TestTerminalStateFollowsRelease(t *testing.T) {
	s, cl := newTestScheduler(t, 1, 8, Config{})
	for i := 0; i < 100; i++ {
		j, _ := s.Submit(JobSpec{Name: "f", GPUs: 4})
		waitState(t, j, Running)
		done := make(chan struct{})
		go func() { s.Fail(j.ID); close(done) }()
		for j.State() != Failed {
		}
		if free := cl.Status().FreeGPUs; free != 8 {
			t.Fatalf("round %d: %d GPUs free once the job reads failed, want 8", i, free)
		}
		<-done
	}
}

func TestQstatView(t *testing.T) {
	s, _ := newTestScheduler(t, 1, 8, Config{})
	j1, _ := s.Submit(JobSpec{Name: "run", User: "u1", GPUs: 8})
	s.Submit(JobSpec{Name: "wait", User: "u2", GPUs: 8})
	waitState(t, j1, Running)
	views := s.Qstat()
	if len(views) != 2 {
		t.Fatalf("qstat rows = %d", len(views))
	}
	byName := map[string]View{}
	for _, v := range views {
		byName[v.Name] = v
	}
	if byName["run"].State != "running" {
		t.Errorf("run state = %s", byName["run"].State)
	}
	if byName["wait"].State != "queued" {
		t.Errorf("wait state = %s", byName["wait"].State)
	}
	if byName["run"].Runtime <= 0 {
		t.Error("running job should report runtime")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := newTestScheduler(t, 1, 8, Config{})
	if _, err := s.Submit(JobSpec{Name: "bad", GPUs: 0}); err == nil {
		t.Error("zero-GPU job should be rejected")
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	s, cl := newTestScheduler(t, 1, 8, Config{})
	j1, _ := s.Submit(JobSpec{Name: "a", GPUs: 8})
	j2, _ := s.Submit(JobSpec{Name: "b", GPUs: 8})
	waitState(t, j1, Running)
	s.Close()
	if !j1.State().Terminal() || !j2.State().Terminal() {
		t.Errorf("states after close: %v %v", j1.State(), j2.State())
	}
	if cl.Status().FreeGPUs != 8 {
		t.Errorf("GPUs leaked on close: %d", cl.Status().FreeGPUs)
	}
	if _, err := s.Submit(JobSpec{Name: "late", GPUs: 1}); err == nil {
		t.Error("closed scheduler accepted a job")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Queued: "queued", Starting: "starting", Running: "running",
		Completed: "completed", Cancelled: "cancelled", TimedOut: "timedout", Failed: "failed",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
	if Queued.Terminal() || Running.Terminal() {
		t.Error("non-terminal states misreported")
	}
	if !Completed.Terminal() || !Failed.Terminal() {
		t.Error("terminal states misreported")
	}
}

// kernelTestClock mirrors the DES harness's kernel-backed clock: Now reads
// virtual time; the scheduler must never Sleep when a Timer is configured.
type kernelTestClock struct{ k *sim.Kernel }

func (c kernelTestClock) Now() time.Time                  { return time.Unix(0, 0).UTC().Add(c.k.Now()) }
func (c kernelTestClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c kernelTestClock) Sleep(time.Duration)             { panic("Sleep with Timer configured") }
func (c kernelTestClock) After(time.Duration) <-chan time.Time {
	panic("After with Timer configured")
}

// TestDeterministicTimerLifecycle drives the full Queued→Starting→Running→
// TimedOut lifecycle on a DES kernel through Config.Timer: every transition
// lands at an exact virtual time, with no goroutines and no polling.
func TestDeterministicTimerLifecycle(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New("des", 1, 8, perfmodel.A100_40)
	s := New(cl, kernelTestClock{k}, Config{
		Prologue: 30 * time.Second,
		Timer:    k.Schedule,
	})
	var runningAt, endAt time.Duration
	var endState State
	job, err := s.Submit(JobSpec{
		Name: "serve", User: "des", GPUs: 8,
		Walltime:  2 * time.Minute,
		OnRunning: func(*Job) { runningAt = k.Now() },
		OnEnd:     func(_ *Job, st State) { endAt, endState = k.Now(), st },
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.State() != Starting {
		t.Fatalf("job state after submit = %v, want Starting (placed synchronously)", job.State())
	}
	k.Run(0)
	if runningAt != 30*time.Second {
		t.Errorf("Running at %v, want exactly 30s (prologue)", runningAt)
	}
	if endState != TimedOut || endAt != 150*time.Second {
		t.Errorf("end = %v at %v, want TimedOut at exactly 150s", endState, endAt)
	}
	if job.QueueWait() != 0 {
		t.Errorf("queue wait = %v, want 0", job.QueueWait())
	}
	if cl.Status().FreeGPUs != 8 {
		t.Errorf("GPUs not released after timeout: %d free", cl.Status().FreeGPUs)
	}
}

// TestDeterministicTimerCompleteBeatsWalltime completes a job before its
// walltime on the kernel: the stale walltime timer must not re-finish it.
func TestDeterministicTimerCompleteBeatsWalltime(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New("des", 1, 8, perfmodel.A100_40)
	s := New(cl, kernelTestClock{k}, Config{Prologue: 10 * time.Second, Timer: k.Schedule})
	ends := 0
	job, err := s.Submit(JobSpec{
		Name: "serve", GPUs: 4,
		Walltime: time.Minute,
		OnEnd:    func(*Job, State) { ends++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(30*time.Second, func() { s.Complete(job.ID) })
	k.Run(0)
	if job.State() != Completed {
		t.Errorf("state = %v, want Completed", job.State())
	}
	if ends != 1 {
		t.Errorf("OnEnd fired %d times, want once (walltime timer must go stale)", ends)
	}
}

// TestOnStarting pins the Starting callback on the kernel: it fires once per
// job, at the instant the job is granted nodes (inside Submit for a job that
// fits, at the release that lets a queued one in), always before OnRunning,
// never for a job cancelled while still queued, and outside the scheduler's
// lock, so a callback may read the queue.
func TestOnStarting(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New("des", 1, 8, perfmodel.A100_40)
	s := New(cl, kernelTestClock{k}, Config{Prologue: 10 * time.Second, Timer: k.Schedule})
	var events []string
	starts := map[string]int{}
	submit := func(name string) *Job {
		job, err := s.Submit(JobSpec{
			Name: name, GPUs: 8,
			OnStarting: func(j *Job) {
				if j.State() != Starting {
					t.Errorf("%s: OnStarting saw %v, want Starting", name, j.State())
				}
				if !s.mu.TryLock() {
					t.Fatalf("%s: OnStarting runs under the scheduler's lock", name)
				}
				s.mu.Unlock()
				starts[name]++
				events = append(events, fmt.Sprintf("start %s @%v queued=%d", name, k.Now(), s.QueuedCount()))
			},
			OnRunning: func(*Job) { events = append(events, fmt.Sprintf("run %s @%v", name, k.Now())) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	a := submit("a")
	if starts["a"] != 1 {
		t.Fatalf("a fits the cluster: OnStarting fired %d times inside Submit, want 1", starts["a"])
	}
	submit("b")
	c := submit("c")
	k.Schedule(20*time.Second, func() { s.Cancel(c.ID) })
	k.Schedule(30*time.Second, func() { s.Complete(a.ID) })
	k.Run(0)
	want := []string{
		"start a @0s queued=0",
		"run a @10s",
		"start b @30s queued=0",
		"run b @40s",
	}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("events = %q, want %q", events, want)
	}
	if starts["a"] != 1 || starts["b"] != 1 || starts["c"] != 0 {
		t.Errorf("OnStarting counts = %v, want a:1 b:1 and none for the cancelled c", starts)
	}
}
