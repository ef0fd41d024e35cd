package fabric

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/workload"
)

// DeploymentConfig describes how an endpoint hosts one model (§3.2.2):
// bounds on auto-scaling, the scale-up depth, the hot-node idle timeout and
// the control loop's cadence. Serving jobs hold their nodes with no walltime
// and run the model's own max_num_seqs. The instances form a Pool, whose
// rules the DES federation's deployments share; where the two differed, the
// DES rule holds:
//   - a release drains: the victim takes no new work, and its job completes
//     once its last request has returned (requests no longer retry elsewhere);
//   - the victim is a job still queued at the scheduler, cancelled, before
//     the emptiest serving instance;
//   - ties, in the pick and the victim, go to the earliest-launched instance;
//   - callers waiting for an instance block a release;
//   - a draining instance counts in no depth, state or /jobs count.
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
	// instance not draining, loading ones included, so cold starts do not
	// stack behind one that is loading. Default 300 (instance saturated
	// past its batch).
	ScaleUpDepth int
	// HotIdleTimeout releases one instance (Pool.Victim) once the pool
	// has stayed under one request per live instance for this long (§3.2.2:
	// "currently 2 hours"), never below MinInstances live instances.
	// Default 2 h.
	HotIdleTimeout time.Duration
	// AutoScalePeriod is the manager's control-loop cadence. Default 5 s.
	AutoScalePeriod time.Duration
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

// instance is one serving instance: its pool record, its engine, and the
// requests it has taken and not yet answered.
type instance struct {
	Member
	id    int
	live  *serving.LiveEngine
	embed *serving.EmbedEngine
	calls int
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

// Deployment manages the instances serving one model on one endpoint. Its
// Pool holds the instances and answers every lifecycle question; the
// Deployment carries the answers out on goroutines, the clock and the
// scheduler, under its lock.
type Deployment struct {
	ep   *Endpoint
	cfg  DeploymentConfig
	spec perfmodel.ModelSpec

	mu        sync.Mutex
	pool      Pool[*instance]
	nextID    int
	readyWait chan struct{}
	waiting   int // callers blocked in acquire: the pool's parked demand
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
		ep:   ep,
		cfg:  cfg,
		spec: spec,
		stop: make(chan struct{}),
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

// InstanceCount returns the instances holding a job, draining ones included.
func (d *Deployment) InstanceCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pool.Len()
}

// ReadyCount returns instances currently serving.
func (d *Deployment) ReadyCount() int {
	return d.Record().Running
}

// Record reads the pool's record under one lock: what the router tells
// federation.Select and what GET /jobs prints, all from one instant.
func (d *Deployment) Record() (r PoolRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pool.Record(d.waiting, &r)
	return r
}

// Status reports the /jobs view.
func (d *Deployment) Status() ModelStatus {
	r := d.Record()
	return ModelStatus{
		Model:    d.cfg.Model,
		Endpoint: d.ep.ID(),
		Cluster:  d.ep.ClusterName(),
		Running:  r.Running,
		Starting: r.Starting,
		Queued:   r.Queued,
		State:    r.State,
	}
}

// launchInstance submits a serving job for one more instance.
func (d *Deployment) launchInstance() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrEndpointShutdown
	}
	if d.pool.Len() >= d.cfg.MaxInstances {
		d.mu.Unlock()
		return fmt.Errorf("fabric: %s at max instances (%d)", d.cfg.Model, d.cfg.MaxInstances)
	}
	d.nextID++
	in := &instance{id: d.nextID}
	d.pool.Add(in)
	d.mu.Unlock()

	job, err := d.ep.cfg.Scheduler.Submit(scheduler.JobSpec{
		Name: "serve:" + shortName(d.cfg.Model),
		User: "first-svc",
		GPUs: d.spec.TensorParallel,
		OnRunning: func(j *scheduler.Job) {
			d.onJobRunning(in)
		},
		OnEnd: func(j *scheduler.Job, st scheduler.State) {
			d.onJobEnd(in, st)
		},
	})
	d.mu.Lock()
	if err != nil {
		d.pool.Remove(in)
		d.mu.Unlock()
		return err
	}
	in.Job = job
	closed := d.closed
	d.mu.Unlock()
	if closed {
		d.ep.cfg.Scheduler.Cancel(job.ID)
	}
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
	if d.closed || !in.Load() {
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()

	gpu := d.ep.cfg.Scheduler.Cluster().GPU()
	d.ep.clk.Sleep(d.spec.LoadTime(gpu)) // weight loading dominates cold start (§4.3)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || in.State() != Loading {
		return
	}
	var err error
	if d.spec.Kind == perfmodel.KindEmbedding {
		if in.embed, err = serving.NewEmbedEngine(d.spec, gpu, d.ep.clk); err == nil {
			in.Serve(nil) // an embedding engine's load is not visible to the pool
		}
	} else {
		var eng *serving.Engine
		if eng, err = serving.NewEngine(serving.Config{Model: d.spec, GPU: gpu}); err == nil {
			in.live = serving.NewLiveEngine(eng, d.ep.clk)
			in.Serve(in.live)
		}
	}
	if err != nil {
		if job := in.Job; job != nil {
			d.mu.Unlock()
			d.ep.cfg.Scheduler.Fail(job.ID)
			d.mu.Lock()
		}
		return
	}
	d.broadcastLocked()
}

// onJobEnd removes the instance when its scheduler job terminates for any
// reason (drained, cancelled while queued, walltime, failure).
func (d *Deployment) onJobEnd(in *instance, st scheduler.State) {
	d.mu.Lock()
	drained := in.State() == Draining
	d.pool.Remove(in)
	if st == scheduler.Failed && !d.closed {
		d.stats.Restarts++
	}
	closed := d.closed
	d.broadcastLocked() // wake waiters so they re-evaluate
	d.mu.Unlock()
	if in.live != nil {
		in.live.Close()
	}
	// Fault tolerance (§3.2.2): involuntary loss below MinInstances is
	// replaced immediately rather than waiting for the control loop.
	if !closed && !drained {
		go d.ensureMin()
	}
}

func (d *Deployment) ensureMin() {
	for {
		d.mu.Lock()
		deficit := d.cfg.MinInstances - d.pool.Len()
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

// acquire takes the instance the pool picks for one request, cold-starting
// one when nothing serves or is on its way; release gives it back.
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
		if in := d.pool.Pick(); in != nil {
			in.calls++
			d.mu.Unlock()
			return in, nil
		}
		if !registered {
			registered = true
			d.waiting++
		}
		needLaunch := !d.pool.View(0, 0).Upcoming && d.pool.Len() < d.cfg.MaxInstances
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

// release ends one request's hold on in. A draining instance's job
// completes with its last request.
func (d *Deployment) release(in *instance) {
	d.mu.Lock()
	in.calls--
	drained := in.State() == Draining && in.calls == 0
	d.mu.Unlock()
	if drained {
		d.ep.cfg.Scheduler.Complete(in.Job.ID)
	}
}

// DefaultOutputTokens is the output length of a request that sets none.
const DefaultOutputTokens = 128

// Generate serves one inference request, retrying on instance loss. Run as
// a fabric task, the engine takes the request at the task's pickup instant
// P, and the task records the engine's finish F for the hub's relay. No
// engine takes it before the task got its instance: an engine counts an
// instant before its own start from that start, which is when a task that
// waited for a cold start or a restart got it, and a retry after an instance
// loss is taken from the instant of the loss.
func (d *Deployment) Generate(ctx context.Context, req InferRequest) (InferResult, error) {
	if d.spec.Kind == perfmodel.KindEmbedding {
		return InferResult{}, fmt.Errorf("fabric: %s is an embedding model", d.cfg.Model)
	}
	out := req.OutputTok
	if out <= 0 {
		out = DefaultOutputTokens
	}
	task, _ := ctx.Value(taskKey{}).(*Task)
	at := d.ep.clk.Now()
	if task != nil {
		at = task.pickupAt
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		in, err := d.acquire(ctx)
		if err != nil {
			return InferResult{}, err
		}
		comp := in.live.GenerateAt(ctx, at, req.PromptTok, out)
		d.release(in)
		if comp.Err == nil {
			if task != nil {
				task.finishedAt = comp.Finish
			}
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
			at = d.ep.clk.Now()
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
	defer d.release(in)
	return in.embed.Embed(ctx, inputs)
}

// autoscaleLoop is the §3.2.2 control loop: each tick observes the pool,
// applies Decide's action, and keeps MinInstances alive. It sleeps from tick
// to tick, which on a scaled clock recycles the clock's own waiter, so a
// tick allocates nothing; Close ends the loop at the first tick after it,
// at most one AutoScalePeriod later (250 µs of wall at 20000×), and
// controlStep does nothing once the deployment is closed.
func (d *Deployment) autoscaleLoop() {
	for {
		d.ep.clk.Sleep(d.cfg.AutoScalePeriod)
		select {
		case <-d.stop:
			return
		default:
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
	v := d.pool.View(d.waiting, d.cfg.MinInstances)
	var cancel, complete *scheduler.Job
	action := Decide(&d.policy, v, &d.scale)
	switch action {
	case Up:
		d.stats.ScaleUps++
	case Down:
		// The pool's victim: a job still queued at the scheduler is
		// cancelled; a serving instance drains, and its job completes with
		// its last request.
		in := d.pool.Victim()
		d.stats.ScaleDowns++
		switch {
		case !in.Drain():
			cancel = in.Job // still queued at the scheduler
		case in.calls == 0:
			complete = in.Job // nothing in flight to wait for
		}
	}
	d.mu.Unlock()

	if action == Up {
		if err := d.launchInstance(); err != nil {
			d.mu.Lock()
			d.stats.ScaleUps--
			d.mu.Unlock()
		}
	}
	if cancel != nil {
		d.ep.cfg.Scheduler.Cancel(cancel.ID)
	}
	if complete != nil {
		d.ep.cfg.Scheduler.Complete(complete.ID)
	}
	if v.Members < d.cfg.MinInstances {
		d.ensureMin()
	}
}

// InjectFailure kills the instance the pool would pick next (test/failure
// injection hook exercising the restart path): on an idle pool, the earliest
// launched. Returns false if nothing serves.
func (d *Deployment) InjectFailure() bool {
	d.mu.Lock()
	var job *scheduler.Job
	if in := d.pool.Pick(); in != nil {
		job = in.Job
	}
	d.mu.Unlock()
	return job != nil && d.ep.cfg.Scheduler.Fail(job.ID)
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
	var jobs []*scheduler.Job
	for _, in := range d.pool.Members() {
		if in.Job != nil {
			jobs = append(jobs, in.Job)
		}
	}
	d.broadcastLocked()
	d.mu.Unlock()
	// An instance whose Submit has not returned yet is cancelled by
	// launchInstance once it has its job.
	for _, j := range jobs {
		d.ep.cfg.Scheduler.Cancel(j.ID)
	}
}

// synthesizeText produces deterministic response text of n tokens: the
// prompt's words (as strings.Fields splits it; "analysis" for a prompt with
// none) repeated in turn, one space apart. When the prompt opens with n
// words one space apart, that opening is the text, and it allocates
// nothing; otherwise buildText makes it.
//
//first:hotpath for a text that opens the prompt: pinned by TestSynthesizeTextExactOrNoAllocation (synth_test.go)
func synthesizeText(prompt string, n int) string {
	if n <= 0 {
		return ""
	}
	if text, ok := leadingWords(prompt, n); ok {
		return text
	}
	return buildText(prompt, n)
}

// buildText makes synthesizeText's text of n > 0 words in one allocation,
// sized exactly from the words' lengths. A prompt of printable ASCII words
// one space apart, with no space at either end, is its own rounds: the text
// is whole copies of it, one space apart, and then the opening of as many
// words as are left over. Any other prompt is walked a word at a time.
func buildText(prompt string, n int) string {
	if w := plainWords(prompt); w > 0 {
		rounds, pieces := n/w, (n+w-1)/w
		lead, _ := leadingWords(prompt, n%w) // "" when no words are left over
		var b strings.Builder
		b.Grow(rounds*len(prompt) + len(lead) + pieces - 1)
		for k := 0; k < pieces; k++ {
			if k > 0 {
				b.WriteByte(' ')
			}
			if k < rounds {
				b.WriteString(prompt)
			} else {
				b.WriteString(lead)
			}
		}
		return b.String()
	}
	words, total := 0, 0 // the prompt's words and their summed length
	for i := 0; ; {
		start, end := workload.NextField(prompt, i)
		if start == end {
			break
		}
		words, total, i = words+1, total+end-start, end
	}
	src := prompt
	if words == 0 {
		src, words, total = "analysis", 1, len("analysis")
	}
	size := n/words*total + n - 1 // whole rounds, and the spaces between words
	for i, k := 0, 0; k < n%words; k++ {
		start, end := workload.NextField(src, i)
		size, i = size+end-start, end
	}
	var b strings.Builder
	b.Grow(size)
	for k, i := 0, 0; k < n; k++ {
		start, end := workload.NextField(src, i)
		if start == end { // past the last word: start the next round
			start, end = workload.NextField(src, 0)
		}
		if k > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(src[start:end])
		i = end
	}
	return b.String()
}

// plainWords returns the number of words in prompt when it is printable
// ASCII words one space apart, with no space at either end, and 0
// otherwise.
func plainWords(prompt string) int {
	words := 0
	for i := 0; i < len(prompt); i++ {
		switch c := prompt[i]; {
		case c == ' ':
			if i == 0 || prompt[i-1] == ' ' {
				return 0
			}
		case c < '!' || c > '~':
			return 0
		case i == 0 || prompt[i-1] == ' ':
			words++
		}
	}
	if words == 0 || prompt[len(prompt)-1] == ' ' {
		return 0
	}
	return words
}

// leadingWords returns prompt up to the end of its n-th word when its first
// n words open it one space apart, with nothing before the first; ok is
// false when the prompt has fewer words, or any other space before the n-th
// word ends. ASCII is tested a byte at a time, and a rune is decoded only
// at a byte of a multi-byte sequence.
//
//first:hotpath pinned by TestSynthesizeTextExactOrNoAllocation (synth_test.go)
func leadingWords(prompt string, n int) (text string, ok bool) {
	words, inWord := 0, false
	for i := 0; i < len(prompt); {
		c := prompt[i]
		if ' ' < c && c < utf8.RuneSelf { // the common byte: ASCII inside a word
			inWord = true
			i++
			continue
		}
		size, space := 1, c == ' ' || '\t' <= c && c <= '\r'
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(prompt[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space:
			inWord = true
		case !inWord: // a leading space, or a second one in a row
			return "", false
		case words+1 == n:
			return prompt[:i], true
		case c != ' ':
			return "", false
		default:
			words, inWord = words+1, false
		}
		i += size
	}
	if inWord && words+1 == n {
		return prompt, true
	}
	return "", false
}
