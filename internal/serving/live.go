package serving

import (
	"context"
	"sync"
	"time"

	"github.com/argonne-first/first/internal/clock"
)

// Completion is what a live caller receives when its request finishes.
type Completion struct {
	PromptTok int
	OutputTok int
	QueueWait time.Duration
	Latency   time.Duration
	// Finish is the instant, on the engine's clock, of the iteration that
	// emitted the last token: F. Zero with an error.
	Finish time.Time
	Err    error
}

// LiveEngine drives an Engine in real (or scaled) time, signalling each
// caller when its sequence finishes. This is the component a fabric endpoint
// launches per model instance — the stand-in for "vLLM serve".
//
// Who drives, when: the engine has at most one driver at a time, marked by
// driving under mu. A GenerateAt caller that finds nobody driving drives the
// engine itself, on its own goroutine and inside the lock hold that submits
// its sequence: it steps while each iteration ends at or before the clock,
// settling at once a quiet run (StepResult.Quiet) whose every iteration began
// before the clock, and stops when the engine idles or its own sequence is
// out. Only the loop goroutine sleeps: an iteration (or a settled run) that
// ends ahead of the clock goes to it with its result, and so does an engine
// still busy with other callers' sequences once the driver's own is out. The
// loop sleeps to the end of what it was handed, delivers it and drives on the
// same way until the engine idles, while callers that arrive meanwhile only
// submit. So a request whose work lies before the clock — a fabric task
// picked up late — is answered on its caller's goroutine with no hand-off,
// no caller sleeps on the clock, and a caller waits only on its record and
// its context, which keeps cancellation and Close as they were. No quiet run
// is left half taken when mu is released, so the engine's Settle contract
// needs no other call site; a run that reaches past the clock is stepped an
// iteration at a time.
//
// A caller's record (its completion and wake channel) is recycled through a
// free list, as clock.Scaled recycles its waiters, and a driver links the
// records it finished through their next fields, so a request allocates
// nothing at steady state.
type LiveEngine struct {
	clk   clock.Clock
	epoch time.Time

	mu      sync.Mutex
	eng     *Engine
	pending waiter  // sentinel of the ring of callers whose sequence is in the engine
	free    *waiter // recycled records, linked through next
	closed  bool
	driving bool // a caller or the loop is responsible for stepping eng
	// carry is what a driver handed the loop: an iteration's result whose
	// completions the loop delivers once the clock reaches due.
	carry StepResult
	due   time.Duration
	wake  chan struct{} // hands the engine to the loop
	done  chan struct{}

	// steps counts Step calls and wakes hand-offs to the loop; tests read
	// them.
	steps, wakes int
}

// waiter is one GenerateAt call's record. It rides on its sequence's Ctx, so
// a driver finds it without a lookup.
type waiter struct {
	c    Completion
	wake chan struct{} // one value per delivery; lives with the record
	// prev and next link the record into LiveEngine.pending while its
	// sequence is in the engine (prev != nil); next alone links the free
	// list, or a driver's finished records until it signals them.
	prev, next *waiter
}

// NewLiveEngine wraps eng (which must not be used elsewhere) and starts the
// loop goroutine on clk.
func NewLiveEngine(eng *Engine, clk clock.Clock) *LiveEngine {
	l := &LiveEngine{
		clk:   clk,
		epoch: clk.Now(),
		eng:   eng,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	l.pending.prev, l.pending.next = &l.pending, &l.pending
	//firstlint:allow det LiveEngine is the wall-clock wrapper around the deterministic engine; the serving loop goroutine is the live-mode contract
	go l.loop()
	return l
}

// vnow converts the clock's wall reading into the engine's virtual timeline.
func (l *LiveEngine) vnow() time.Duration { return l.clk.Since(l.epoch) }

// Generate submits a request now and blocks until completion or ctx
// cancellation.
func (l *LiveEngine) Generate(ctx context.Context, promptTok, outputTok int) Completion {
	return l.GenerateAt(ctx, l.clk.Now(), promptTok, outputTok)
}

// GenerateAt submits a request that reached the engine at instant at and
// blocks until completion or ctx cancellation. The engine takes it at
// min(at, now): a driver that booked the arrival before its goroutine got to
// run hands that instant over, and the engine's work lands inside the wait
// the driver already paid. An instant before the engine started counts from
// its start, and one before the engine's own clock is taken at its next
// iteration boundary (Engine.Submit); no modelled delay gets shorter, and no
// completion is delivered before the finish instant it reports. A caller
// whose ctx is already done submits but does not drive.
//
//first:hotpath pinned by TestLiveEngineGenerateAtZeroAlloc (serving_test.go)
func (l *LiveEngine) GenerateAt(ctx context.Context, at time.Time, promptTok, outputTok int) Completion {
	w, id, ok := l.submit(at, promptTok, outputTok, ctx.Err() == nil)
	if !ok {
		return Completion{Err: ErrClosed}
	}
	return l.await(ctx, w, id)
}

// submit puts a request in the engine under a record from the free list and,
// when drive is set and nobody drives, drives the engine (see LiveEngine).
// It returns the record and the sequence's ID, captured under the lock:
// once the completion is delivered the engine may recycle the sequence for
// a new request. ok is false on a closed engine.
//
//first:hotpath pinned by TestLiveEngineGenerateAtZeroAlloc (serving_test.go)
func (l *LiveEngine) submit(at time.Time, promptTok, outputTok int, drive bool) (w *waiter, id int64, ok bool) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, 0, false
	}
	w = l.free
	if w != nil {
		l.free = w.next
	} else {
		w = &waiter{wake: make(chan struct{}, 1)} //firstlint:allow hotpath first touch; records are recycled through l.free
	}
	now := l.vnow()
	id = l.eng.Submit(min(at.Sub(l.epoch), now), promptTok, outputTok, w).ID
	w.prev, w.next = l.pending.prev, &l.pending
	w.prev.next, l.pending.prev = w, w
	var ready *waiter
	handOff := false
	if drive && !l.driving {
		l.driving = true
		if ready, handOff = l.drive(now, w, nil); handOff {
			l.wakes++
		}
	}
	l.mu.Unlock()
	signal(ready)
	if handOff {
		l.wake <- struct{}{} // the loop had no wake pending: the engine had no driver
	}
	return w, id, true
}

// await waits for w's delivery, or gives up on ctx.
//
//first:hotpath pinned by TestLiveEngineGenerateAtZeroAlloc (serving_test.go)
func (l *LiveEngine) await(ctx context.Context, w *waiter, id int64) Completion {
	select {
	case <-w.wake:
		c := w.c
		l.mu.Lock()
		w.next, l.free = l.free, w
		l.mu.Unlock()
		return c
	case <-ctx.Done():
	}
	l.mu.Lock()
	if w.prev != nil && l.eng.Abort(id) {
		unlink(w)
		w.next, l.free = l.free, w
	}
	// Otherwise the sequence runs on, and the record is left to the
	// collector: the one signal it still gets lands in its buffer.
	l.mu.Unlock()
	return Completion{Err: ctx.Err()}
}

// drive steps the engine, l.mu held and l.driving set, while each iteration
// ends at or before now. It takes a quiet run only when every iteration of
// it began before now, and settles it then and there. It stops when the
// engine idles, clearing l.driving, or when own (nil for the loop) is out
// or an iteration or a settled run ends ahead of now: then it leaves in
// l.carry and l.due what the loop is to sleep out and deliver, and reports
// true. It returns the records it finished pushed onto ready, for the
// driver to signal once it has unlocked.
//
//first:hotpath pinned by TestLiveEngineGenerateAtZeroAlloc (serving_test.go)
func (l *LiveEngine) drive(now time.Duration, own, ready *waiter) (*waiter, bool) {
	for {
		res := l.eng.Step(l.eng.Now())
		l.steps++
		if !res.Busy {
			l.driving = false
			return ready, false
		}
		end := l.eng.Now()
		if end > now {
			l.carry, l.due = res, end
			return ready, true
		}
		ready = l.finish(res.Completed, ready)
		if own != nil && own.prev == nil {
			if l.eng.Depth() == 0 {
				l.driving = false
				return ready, false
			}
			l.carry, l.due = StepResult{}, end
			return ready, true
		}
		if res.Quiet > 0 && end+time.Duration(res.Quiet-1)*res.Each < now {
			if due := l.eng.Settle(now); due > now {
				l.carry, l.due = StepResult{}, due
				return ready, true
			}
		}
	}
}

// finish copies what each completed sequence's caller needs into its
// record, takes the record off the pending ring and pushes it onto ready,
// then gives the sequences back to the engine.
//
//first:hotpath pinned by TestLiveEngineGenerateAtZeroAlloc (serving_test.go)
func (l *LiveEngine) finish(done []*Sequence, ready *waiter) *waiter {
	for _, seq := range done {
		w := seq.Ctx.(*waiter)
		unlink(w)
		w.c = Completion{
			PromptTok: seq.PromptTok,
			OutputTok: seq.Emitted,
			QueueWait: seq.QueueWait(),
			Latency:   seq.Latency(),
			Finish:    l.epoch.Add(seq.FinishAt),
		}
		w.next, ready = ready, w
	}
	l.eng.Release(done...)
	return ready
}

// signal wakes the caller of each record on ready. It reads a record's link
// before the wake that hands the record back to its caller.
//
//first:hotpath pinned by TestLiveEngineGenerateAtZeroAlloc (serving_test.go)
func signal(ready *waiter) {
	for ready != nil {
		w := ready
		ready, w.next = w.next, nil
		w.wake <- struct{}{}
	}
}

// unlink takes w out of the pending ring; l.mu is held.
func unlink(w *waiter) {
	w.prev.next, w.next.prev = w.next, w.prev
	w.prev, w.next = nil, nil
}

// Depth reports waiting+running load for routing decisions.
//
//first:hotpath shares the Depth pin with Engine.Depth (engine_test.go)
func (l *LiveEngine) Depth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eng.Depth()
}

// Stats returns a snapshot of the wrapped engine's stats.
func (l *LiveEngine) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eng.Stats()
}

// Close stops the loop; pending requests complete with ErrClosed.
func (l *LiveEngine) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	var answer []*waiter
	for w := l.pending.next; w != &l.pending; {
		next := w.next
		unlink(w)
		w.c = Completion{Err: ErrClosed}
		answer = append(answer, w)
		w = next
	}
	l.mu.Unlock()
	close(l.done)
	for _, w := range answer {
		w.wake <- struct{}{}
	}
}

// loop is the one driver that sleeps. Handed the engine, it sleeps to the
// end of the iteration or run it was handed, delivers that iteration's
// completions, and drives on (LiveEngine.drive) from the clock's reading,
// sleeping again whenever drive hands it something ahead, until the engine
// idles; then it waits for the next hand-off.
func (l *LiveEngine) loop() {
	for {
		select {
		case <-l.wake:
		case <-l.done:
			return
		}
		for busy := true; busy; {
			// The driver that handed the engine over wrote these before its
			// wake; the loop itself wrote them on every later round.
			res, due := l.carry, l.due
			// The iteration conceptually spans up to the engine's virtual
			// time; sleep toward that absolute deadline so timer-granularity
			// error never accumulates (critical under heavy time dilation).
			if wait := due - l.vnow(); wait > 0 {
				l.clk.Sleep(wait)
			}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock() // Close has answered every pending caller
				return
			}
			var ready *waiter
			ready, busy = l.drive(l.vnow(), nil, l.finish(res.Completed, nil))
			l.mu.Unlock()
			signal(ready)
		}
	}
}
