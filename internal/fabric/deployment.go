package fabric

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
)

// DeploymentConfig describes how an endpoint hosts one model (§3.2.2):
// bounds on auto-scaling, the hot-node idle timeout, and the batch-scheduler
// walltime for serving jobs.
type DeploymentConfig struct {
	Model string
	// MinInstances instances are kept alive at all times (0 = fully
	// on-demand with cold starts).
	MinInstances int
	// MaxInstances caps auto-scaling ("the maximum number of nodes an LLM
	// can scale up to"). Default 1.
	MaxInstances int
	// ScaleUpDepth is the policy's HiWater (Decide): a control tick scales up
	// when waiting+running depth exceeds it per live instance — every
	// instance not stopping, loading ones included, so cold starts do not
	// stack behind one that is loading. Default 300 (instance saturated
	// past its batch).
	ScaleUpDepth int
	// HotIdleTimeout releases the least-loaded ready instance once the pool
	// has stayed under one request per live instance for this long (§3.2.2:
	// "currently 2 hours"), never below MinInstances live instances.
	// Default 2 h.
	HotIdleTimeout time.Duration
	// Walltime for serving jobs (0 = unlimited).
	Walltime time.Duration
	// AutoScalePeriod is the manager's control-loop cadence. Default 5 s.
	AutoScalePeriod time.Duration
	// MaxBatch overrides the engine's max_num_seqs.
	MaxBatch int
}

func (c *DeploymentConfig) applyDefaults() {
	if c.MaxInstances <= 0 {
		c.MaxInstances = 1
	}
	if c.MinInstances > c.MaxInstances {
		c.MinInstances = c.MaxInstances
	}
	if c.ScaleUpDepth <= 0 {
		c.ScaleUpDepth = 300
	}
	if c.HotIdleTimeout <= 0 {
		c.HotIdleTimeout = 2 * time.Hour
	}
	if c.AutoScalePeriod <= 0 {
		c.AutoScalePeriod = 5 * time.Second
	}
}

type instState int

const (
	instQueued instState = iota // job submitted, nodes not yet acquired
	instLoading
	instReady
	instDead
)

type instance struct {
	id       int
	state    instState
	stopping bool // voluntary scale-down in progress
	job      *scheduler.Job
	live     *serving.LiveEngine
	embed    *serving.EmbedEngine
}

// DeploymentStats counts manager activity.
type DeploymentStats struct {
	ColdStarts int64
	ScaleUps   int64
	ScaleDowns int64
	Restarts   int64
	Retries    int64
}

// ModelStatus is the /jobs view of one model on one endpoint (§4.3).
type ModelStatus struct {
	Model    string `json:"model"`
	Endpoint string `json:"endpoint"`
	Cluster  string `json:"cluster"`
	Running  int    `json:"running"`
	Starting int    `json:"starting"`
	Queued   int    `json:"queued"`
	// State summarizes: running > starting > queued > cold.
	State string `json:"state"`
}

// Deployment manages the instances serving one model on one endpoint.
type Deployment struct {
	ep   *Endpoint
	cfg  DeploymentConfig
	spec perfmodel.ModelSpec

	mu        sync.Mutex
	instances map[int]*instance
	nextID    int
	readyWait chan struct{}
	waiting   int // callers blocked in acquire
	closed    bool
	stats     DeploymentStats
	policy    ScalePolicy
	scale     ScalerState

	stop     chan struct{}
	stopOnce sync.Once
}

func newDeployment(ep *Endpoint, cfg DeploymentConfig, spec perfmodel.ModelSpec) (*Deployment, error) {
	cfg.applyDefaults()
	d := &Deployment{
		ep:        ep,
		cfg:       cfg,
		spec:      spec,
		instances: make(map[int]*instance),
		stop:      make(chan struct{}),
		// §3.2.2 as a parameter set: grow on the first saturated tick, release
		// after HotIdleTimeout's worth of ticks under one request per instance.
		policy: ScalePolicy{MaxInstances: cfg.MaxInstances, HiWater: float64(cfg.ScaleUpDepth), HiSustain: 1,
			LoWater: 1, LoSustain: int((cfg.HotIdleTimeout + cfg.AutoScalePeriod - 1) / cfg.AutoScalePeriod)},
	}
	for i := 0; i < cfg.MinInstances; i++ {
		if err := d.launchInstance(); err != nil {
			d.Close()
			return nil, err
		}
	}
	go d.autoscaleLoop()
	return d, nil
}

// Model returns the served model name.
func (d *Deployment) Model() string { return d.cfg.Model }

// Stats returns a copy of the manager counters.
func (d *Deployment) Stats() DeploymentStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// InstanceCount returns live (non-dead) instances.
func (d *Deployment) InstanceCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.instances)
}

// ReadyCount returns instances currently serving.
func (d *Deployment) ReadyCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, in := range d.instances {
		if in.state == instReady {
			n++
		}
	}
	return n
}

// CordonInfo splits the ready count for drain-aware routing: ready is the
// instances accepting new work, stopping the ones flagged for a voluntary
// scale-down that are finishing their current load. A deployment whose
// ready capacity is entirely stopping advertises Cordoned through
// federation.EndpointInfo so the ladder steers new requests elsewhere
// before the stop lands, instead of after.
func (d *Deployment) CordonInfo() (ready, stopping int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, in := range d.instances {
		if in.state != instReady {
			continue
		}
		if in.stopping {
			stopping++
		} else {
			ready++
		}
	}
	return ready, stopping
}

// Depth returns total waiting+running sequences across ready instances.
func (d *Deployment) Depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	depth := 0
	for _, in := range d.instances {
		if in.state == instReady && in.live != nil {
			depth += in.live.Depth()
		}
	}
	return depth + d.waiting
}

// Status reports the /jobs view.
func (d *Deployment) Status() ModelStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := ModelStatus{
		Model:    d.cfg.Model,
		Endpoint: d.ep.ID(),
		Cluster:  d.ep.ClusterName(),
	}
	for _, in := range d.instances {
		switch in.state {
		case instReady:
			st.Running++
		case instLoading:
			st.Starting++
		case instQueued:
			// The scheduler's prologue phase counts as "starting"
			// (nodes acquired); a queued job is "queued".
			if in.job != nil && in.job.State() == scheduler.Starting {
				st.Starting++
			} else {
				st.Queued++
			}
		}
	}
	switch {
	case st.Running > 0:
		st.State = "running"
	case st.Starting > 0:
		st.State = "starting"
	case st.Queued > 0:
		st.State = "queued"
	default:
		st.State = "cold"
	}
	return st
}

// launchInstance submits a serving job for one more instance.
func (d *Deployment) launchInstance() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrEndpointShutdown
	}
	if len(d.instances) >= d.cfg.MaxInstances {
		d.mu.Unlock()
		return fmt.Errorf("fabric: %s at max instances (%d)", d.cfg.Model, d.cfg.MaxInstances)
	}
	d.nextID++
	in := &instance{id: d.nextID, state: instQueued}
	d.instances[in.id] = in
	d.mu.Unlock()

	job, err := d.ep.cfg.Scheduler.Submit(scheduler.JobSpec{
		Name:     "serve:" + shortName(d.cfg.Model),
		User:     "first-svc",
		GPUs:     d.spec.TensorParallel,
		Walltime: d.cfg.Walltime,
		OnRunning: func(j *scheduler.Job) {
			d.onJobRunning(in)
		},
		OnEnd: func(j *scheduler.Job, st scheduler.State) {
			d.onJobEnd(in, st)
		},
	})
	if err != nil {
		d.mu.Lock()
		delete(d.instances, in.id)
		d.mu.Unlock()
		return err
	}
	d.mu.Lock()
	in.job = job
	d.mu.Unlock()
	return nil
}

func shortName(model string) string {
	if i := strings.LastIndexByte(model, '/'); i >= 0 {
		return model[i+1:]
	}
	return model
}

// onJobRunning loads weights and brings the instance into service.
func (d *Deployment) onJobRunning(in *instance) {
	d.mu.Lock()
	if d.closed || in.state == instDead {
		d.mu.Unlock()
		return
	}
	in.state = instLoading
	d.mu.Unlock()

	gpu := d.ep.cfg.Scheduler.Cluster().GPU()
	d.ep.clk.Sleep(d.spec.LoadTime(gpu)) // weight loading dominates cold start (§4.3)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || in.state == instDead {
		return
	}
	if d.spec.Kind == perfmodel.KindEmbedding {
		emb, err := serving.NewEmbedEngine(d.spec, gpu, d.ep.clk)
		if err != nil {
			d.mu.Unlock()
			d.failInstance(in)
			d.mu.Lock()
			return
		}
		in.embed = emb
	} else {
		eng, err := serving.NewEngine(serving.Config{Model: d.spec, GPU: gpu, MaxBatch: d.cfg.MaxBatch})
		if err != nil {
			d.mu.Unlock()
			d.failInstance(in)
			d.mu.Lock()
			return
		}
		in.live = serving.NewLiveEngine(eng, d.ep.clk)
	}
	in.state = instReady
	d.broadcastLocked()
}

func (d *Deployment) failInstance(in *instance) {
	if in.job != nil {
		d.ep.cfg.Scheduler.Fail(in.job.ID)
	}
}

// onJobEnd removes the instance when its scheduler job terminates for any
// reason (voluntary release, walltime, failure).
func (d *Deployment) onJobEnd(in *instance, st scheduler.State) {
	d.mu.Lock()
	wasStopping := in.stopping
	in.state = instDead
	live := in.live
	delete(d.instances, in.id)
	if st == scheduler.Failed && !d.closed {
		d.stats.Restarts++
	}
	closed := d.closed
	d.broadcastLocked() // wake waiters so they re-evaluate
	d.mu.Unlock()
	if live != nil {
		live.Close()
	}
	// Fault tolerance (§3.2.2): involuntary loss below MinInstances is
	// replaced immediately rather than waiting for the control loop.
	if !closed && !wasStopping {
		go d.ensureMin()
	}
}

func (d *Deployment) ensureMin() {
	for {
		d.mu.Lock()
		deficit := d.cfg.MinInstances - len(d.instances)
		closed := d.closed
		d.mu.Unlock()
		if closed || deficit <= 0 {
			return
		}
		if err := d.launchInstance(); err != nil {
			return
		}
	}
}

func (d *Deployment) broadcastLocked() {
	if d.readyWait != nil {
		close(d.readyWait)
		d.readyWait = nil
	}
}

// acquire returns the least-loaded ready instance, cold-starting one when
// the deployment is scaled to zero.
func (d *Deployment) acquire(ctx context.Context) (*instance, error) {
	registered := false
	defer func() {
		if registered {
			d.mu.Lock()
			d.waiting--
			d.mu.Unlock()
		}
	}()
	for {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return nil, ErrEndpointShutdown
		}
		var best *instance
		bestDepth := 0
		for _, in := range d.instances {
			if in.state != instReady || in.stopping {
				continue
			}
			depth := 0
			if in.live != nil {
				depth = in.live.Depth()
			}
			if best == nil || depth < bestDepth {
				best = in
				bestDepth = depth
			}
		}
		if best != nil {
			d.mu.Unlock()
			return best, nil
		}
		pending := false
		for _, in := range d.instances {
			if in.state == instQueued || in.state == instLoading {
				pending = true
				break
			}
		}
		if !registered {
			registered = true
			d.waiting++
		}
		needLaunch := !pending && len(d.instances) < d.cfg.MaxInstances
		if needLaunch {
			d.stats.ColdStarts++
		}
		if d.readyWait == nil {
			d.readyWait = make(chan struct{})
		}
		ch := d.readyWait
		d.mu.Unlock()

		if needLaunch {
			if err := d.launchInstance(); err != nil {
				return nil, err
			}
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Generate serves one inference request, retrying on instance loss.
func (d *Deployment) Generate(ctx context.Context, req InferRequest) (InferResult, error) {
	if d.spec.Kind == perfmodel.KindEmbedding {
		return InferResult{}, fmt.Errorf("fabric: %s is an embedding model", d.cfg.Model)
	}
	out := req.OutputTok
	if out <= 0 {
		out = 128
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		in, err := d.acquire(ctx)
		if err != nil {
			return InferResult{}, err
		}
		comp := in.live.Generate(ctx, req.PromptTok, out)
		if comp.Err == nil {
			res := InferResult{
				Model:      d.cfg.Model,
				PromptTok:  comp.PromptTok,
				OutputTok:  comp.OutputTok,
				QueueWait:  comp.QueueWait,
				ServeTime:  comp.Latency,
				InstanceID: in.id,
			}
			if req.WantText {
				res.Text = synthesizeText(req.Prompt, comp.OutputTok)
			}
			return res, nil
		}
		if comp.Err == serving.ErrClosed {
			// Instance died mid-request: fault-tolerant retry elsewhere.
			d.mu.Lock()
			d.stats.Retries++
			d.mu.Unlock()
			lastErr = comp.Err
			continue
		}
		return InferResult{}, comp.Err
	}
	return InferResult{}, fmt.Errorf("fabric: %s: retries exhausted: %w", d.cfg.Model, lastErr)
}

// Embed serves an embedding request.
func (d *Deployment) Embed(ctx context.Context, inputs []string) ([][]float32, error) {
	if d.spec.Kind != perfmodel.KindEmbedding {
		return nil, fmt.Errorf("fabric: %s is not an embedding model", d.cfg.Model)
	}
	in, err := d.acquire(ctx)
	if err != nil {
		return nil, err
	}
	return in.embed.Embed(ctx, inputs)
}

// autoscaleLoop is the §3.2.2 control loop: each tick observes the pool,
// applies Decide's action, and keeps MinInstances alive.
func (d *Deployment) autoscaleLoop() {
	for {
		select {
		case <-d.stop:
			return
		case <-d.ep.clk.After(d.cfg.AutoScalePeriod):
		}
		d.controlStep()
	}
}

func (d *Deployment) controlStep() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	v := PoolView{Members: len(d.instances), Depth: d.waiting}
	var victim *instance // the least-loaded ready instance
	victimDepth := 0
	for _, in := range d.instances {
		if in.stopping {
			continue
		}
		v.Live++
		if in.state != instReady || in.live == nil {
			continue // an embedding engine's load is not visible here: never a victim
		}
		depth := in.live.Depth()
		v.Depth += depth
		if victim == nil || depth < victimDepth {
			victim, victimDepth = in, depth
		}
	}
	v.Releasable = victim != nil && v.Live > d.cfg.MinInstances
	action := Decide(&d.policy, v, &d.scale)
	switch action {
	case Up:
		d.stats.ScaleUps++
	case Down:
		victim.stopping = true
		d.stats.ScaleDowns++
	}
	belowMin := v.Members < d.cfg.MinInstances
	d.mu.Unlock()

	if action == Up {
		if err := d.launchInstance(); err != nil {
			d.mu.Lock()
			d.stats.ScaleUps--
			d.mu.Unlock()
		}
	}
	if action == Down && victim.job != nil {
		d.ep.cfg.Scheduler.Complete(victim.job.ID)
	}
	if belowMin {
		d.ensureMin()
	}
}

// InjectFailure kills an arbitrary ready instance's job (test/failure
// injection hook exercising the restart path). Returns false if no ready
// instance exists.
func (d *Deployment) InjectFailure() bool {
	d.mu.Lock()
	var victim *instance
	for _, in := range d.instances {
		if in.state == instReady && !in.stopping {
			victim = in
			break
		}
	}
	d.mu.Unlock()
	if victim == nil || victim.job == nil {
		return false
	}
	return d.ep.cfg.Scheduler.Fail(victim.job.ID)
}

// Close releases all instances and stops the control loop.
func (d *Deployment) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	instances := make([]*instance, 0, len(d.instances))
	for _, in := range d.instances {
		in.stopping = true
		instances = append(instances, in)
	}
	d.broadcastLocked()
	d.mu.Unlock()
	for _, in := range instances {
		if in.job != nil {
			d.ep.cfg.Scheduler.Cancel(in.job.ID)
		}
	}
}

// synthesizeText produces deterministic response text of n tokens.
func synthesizeText(prompt string, n int) string {
	if n <= 0 {
		return ""
	}
	seedWords := strings.Fields(prompt)
	if len(seedWords) == 0 {
		seedWords = []string{"analysis"}
	}
	var b strings.Builder
	b.Grow(n * 8)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(seedWords[i%len(seedWords)])
	}
	return b.String()
}
