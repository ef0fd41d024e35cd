package desmodel

import (
	"sort"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// EngineSim steps a serving.Engine on the event kernel, one event per
// iteration that can change something: it takes the quiet runs Step offers
// (serving.StepResult.Quiet), scheduling its one delivery event at the run's
// end, and keeps the engine's Settle contract, so at any instant the engine
// reads as if every iteration had been an event. When a Submit or Abort cuts
// a run, delivery is re-scheduled at the boundary Settle names; the event it
// supersedes fires later, finds it is not the one awaited, and returns.
//
// The iteration loop runs on two closures bound once at construction
// (stepFn, deliverFn) with the pending StepResult parked on the struct, so
// a saturated engine schedules no fresh closure per iteration — the
// batched-dispatch path in the kernel then sees stable, allocation-free
// events.
type EngineSim struct {
	k          *sim.Kernel
	eng        *serving.Engine
	running    bool
	halted     bool
	onComplete func(*serving.Sequence)

	pending serving.StepResult // iteration awaiting delivery
	// deliverPending is true from the moment an iteration's end event is
	// scheduled until deliver consumes it; EachUndelivered/DeliveryPending
	// let drivers see the completions trapped in that window. deliverAt is
	// when that event fires: one firing at any other instant is superseded.
	deliverPending bool
	deliverAt      sim.Time
	stepFn         func()
	deliverFn      func()

	emitLog   []emitRun // one record per delivery event, unless noEmitLog
	noEmitLog bool
}

// emitRun is the emissions one delivery event stands for: count iterations
// of tokens each, the first ending at first and the others every each after
// it; cumBefore tokens were emitted before the run.
type emitRun struct {
	first     sim.Time
	each      time.Duration
	count     int64
	tokens    int64
	cumBefore int64
}

// ignoreOffer makes every EngineSim step once per iteration, as if Step never
// offered a quiet run. Only tests set it, to show the offer changes no result.
var ignoreOffer bool

// NewEngineSim builds a kernel-driven engine instance.
func NewEngineSim(k *sim.Kernel, cfg serving.Config, onComplete func(*serving.Sequence)) (*EngineSim, error) {
	eng, err := serving.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	e := &EngineSim{k: k, eng: eng, onComplete: onComplete}
	e.bind()
	return e, nil
}

// bind populates the reusable iteration closures.
func (e *EngineSim) bind() {
	e.stepFn = e.step
	e.deliverFn = e.deliver
}

// MustEngineSim panics on config errors (experiment setup with static
// catalog entries).
func MustEngineSim(k *sim.Kernel, model perfmodel.ModelSpec, gpu perfmodel.GPUSpec, maxBatch int, onComplete func(*serving.Sequence)) *EngineSim {
	e, err := NewEngineSim(k, serving.Config{Model: model, GPU: gpu, MaxBatch: maxBatch}, onComplete)
	if err != nil {
		panic(err)
	}
	return e
}

// withoutEmitLog turns the emission log off, for callers that never ask EmittedBy.
func (e *EngineSim) withoutEmitLog() *EngineSim {
	e.noEmitLog = true
	return e
}

// Submit enqueues a sequence and kicks the iteration loop if idle.
//
//first:hotpath pinned by TestEngineSimOfferZeroAlloc (offer_test.go)
func (e *EngineSim) Submit(promptTok, outputTok int, ctx interface{}) {
	now := e.k.Now()
	e.eng.Settle(now)
	e.eng.Submit(now, promptTok, outputTok, ctx)
	if !e.running {
		e.running = true
		e.k.Schedule(0, e.stepFn)
		return
	}
	e.resync()
}

// resync moves the delivery event up to the boundary the engine names when
// the Submit or Abort just made cut the promised run short.
func (e *EngineSim) resync() {
	now := e.k.Now()
	if due := e.eng.Settle(now); e.deliverPending && due < e.deliverAt {
		e.deliverAt = due
		e.k.Schedule(due-now, e.deliverFn)
		e.trimEmitLog(due)
	}
}

// Depth reports waiting+running load for least-loaded routing.
func (e *EngineSim) Depth() int { return e.eng.Depth() }

// Stats exposes the wrapped engine's counters.
func (e *EngineSim) Stats() serving.Stats {
	e.eng.Settle(e.k.Now())
	return e.eng.Stats()
}

// EachRunning visits the running batch (see serving.Engine.EachRunning).
func (e *EngineSim) EachRunning(f func(*serving.Sequence)) { e.eng.EachRunning(f) }

// EachWaiting visits live waiting sequences (see serving.Engine.EachWaiting).
func (e *EngineSim) EachWaiting(f func(*serving.Sequence)) { e.eng.EachWaiting(f) }

// Abort tombstones a waiting sequence by ID (drain: unadmitted work is
// pulled back and migrated rather than served on a dying instance).
func (e *EngineSim) Abort(id int64) bool {
	e.eng.Settle(e.k.Now())
	ok := e.eng.Abort(id)
	e.resync()
	return ok
}

// DeliveryPending reports whether an iteration has stepped but not yet
// delivered: its completions are out of the engine's running batch (so
// Depth misses them) but have not reached the driver either.
func (e *EngineSim) DeliveryPending() bool { return e.deliverPending }

// EachUndelivered visits sequences that finished in the currently in-flight
// iteration (stepped, not yet delivered). A driver harvesting a hard-killed
// instance must treat them as live work: on the dead node that iteration
// never completed, so they are neither in EachRunning nor EachWaiting yet
// their requests still need a home.
func (e *EngineSim) EachUndelivered(f func(*serving.Sequence)) {
	if !e.deliverPending {
		return
	}
	for _, s := range e.pending.Completed {
		f(s)
	}
}

// Halt permanently idles the instance: pending iteration events become
// no-ops and no further steps are scheduled. Drivers call it when a walltime
// hard-kill tears the instance down with a batch still in flight — the
// wrapped engine is abandoned to its arena (reclaimed and reset at the next
// cell) or to the GC.
func (e *EngineSim) Halt() {
	e.halted = true
	if e.deliverPending {
		e.trimEmitLog(e.k.Now() - 1) // what the dead node had not yet emitted, it never will
	}
}

func (e *EngineSim) step() {
	if e.halted {
		return
	}
	now := e.k.Now()
	e.eng.Settle(now)
	res := e.eng.Step(now)
	if !res.Busy {
		e.running = false
		return
	}
	if ignoreOffer {
		res.Quiet = 0
	}
	// Park the result for deliverFn: this engine is stepped only by its own
	// loop, so pending (and the engine scratch its Completed aliases) is
	// consumed before the next Step can overwrite either.
	e.pending = res
	e.deliverPending = true
	wait := res.Duration + time.Duration(res.Quiet)*res.Each
	e.deliverAt = now + wait
	e.k.Schedule(wait, e.deliverFn)
	if !e.noEmitLog {
		// each is at least 1 so a single iteration needs no case in countBy.
		run := emitRun{first: now + res.Duration, each: max(res.Each, 1), count: int64(res.Quiet) + 1, tokens: int64(res.EmittedTokens)}
		if n := len(e.emitLog); n > 0 {
			run.cumBefore = e.emitLog[n-1].cumBefore + e.emitLog[n-1].count*e.emitLog[n-1].tokens
		}
		e.emitLog = append(e.emitLog, run)
	}
}

// deliver ends the iteration (or quiet run) parked in pending: completions
// handed to the driver, sequences recycled, the next iteration stepped.
func (e *EngineSim) deliver() {
	if e.halted || !e.deliverPending || e.k.Now() != e.deliverAt {
		return // halted, or superseded by a cut
	}
	e.deliverPending = false
	res := e.pending
	for _, seq := range res.Completed {
		e.onComplete(seq)
	}
	// onComplete must consume the sequence synchronously (all drivers
	// pull Ctx and the timing fields and move on); the objects then go
	// back to the engine's free list for the next Submit.
	e.eng.Release(res.Completed...)
	e.step()
}

// trimEmitLog drops from the newest record the emissions due after end: the
// run was cut there, or the instance died.
func (e *EngineSim) trimEmitLog(end sim.Time) {
	if n := len(e.emitLog); n > 0 {
		e.emitLog[n-1].count = e.emitLog[n-1].countBy(end)
	}
}

// countBy is how many of the run's emissions happen at or before t.
func (r *emitRun) countBy(t sim.Time) int64 {
	if t < r.first {
		return 0
	}
	return min(r.count, int64((t-r.first)/r.each)+1)
}

// EmittedBy returns cumulative output tokens generated up to time t —
// the streaming view of throughput (a WebUI session sees tokens as they
// stream, not at request completion).
func (e *EngineSim) EmittedBy(t sim.Time) int64 {
	// The last record whose first emission is at or before t.
	i := sort.Search(len(e.emitLog), func(i int) bool { return e.emitLog[i].first > t })
	if i == 0 {
		return 0
	}
	r := &e.emitLog[i-1]
	return r.cumBefore + r.countBy(t)*r.tokens
}
