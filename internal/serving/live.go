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

// LiveEngine drives an Engine in real (or scaled) time: a background
// goroutine runs the continuous-batching loop, sleeping for each iteration's
// duration on the configured clock and signalling each caller when its
// sequence finishes. This is the component a fabric endpoint launches per
// model instance — the stand-in for "vLLM serve".
//
// A caller's record (its completion and wake channel) is recycled through a
// free list, as clock.Scaled recycles its waiters, and the loop reuses one
// deliveries slice, so a request allocates nothing at steady state.
type LiveEngine struct {
	clk   clock.Clock
	epoch time.Time

	mu      sync.Mutex
	eng     *Engine
	pending waiter  // sentinel of the ring of callers whose sequence is in the engine
	free    *waiter // recycled records, linked through next
	closed  bool
	wake    chan struct{}
	done    chan struct{}

	// deliveries is the loop goroutine's scratch: the callers one iteration
	// finished, signalled once the lock is released.
	deliveries []*waiter
}

// waiter is one GenerateAt call's record. It rides on its sequence's Ctx, so
// the loop finds it without a lookup.
type waiter struct {
	c    Completion
	wake chan struct{} // one value per delivery; lives with the record
	// prev and next link the record into LiveEngine.pending while its
	// sequence is in the engine (prev != nil); next alone links the free list.
	prev, next *waiter
}

// NewLiveEngine wraps eng (which must not be used elsewhere) and starts the
// serving loop on clk.
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
// iteration boundary (Engine.Submit); no modelled delay gets shorter, and the
// loop still delivers no earlier than the finish instant it reports.
//
//first:hotpath pinned by TestLiveEngineGenerateAtZeroAlloc (serving_test.go)
func (l *LiveEngine) GenerateAt(ctx context.Context, at time.Time, promptTok, outputTok int) Completion {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Completion{Err: ErrClosed}
	}
	w := l.free
	if w != nil {
		l.free = w.next
	} else {
		w = &waiter{wake: make(chan struct{}, 1)} //firstlint:allow hotpath first touch; records are recycled through l.free
	}
	// Capture the ID while holding the lock: once the completion is
	// delivered the engine may recycle seq for a new request, so the
	// pointer must not be dereferenced after unlock.
	id := l.eng.Submit(min(at.Sub(l.epoch), l.vnow()), promptTok, outputTok, w).ID
	w.prev, w.next = l.pending.prev, &l.pending
	w.prev.next, l.pending.prev = w, w
	l.mu.Unlock()

	select {
	case l.wake <- struct{}{}:
	default:
	}

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

func (l *LiveEngine) loop() {
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		// Step on the engine's own timeline (Submit fast-forwards it when
		// idle); wall-derived time never perturbs iteration pacing.
		res := l.eng.Step(l.eng.Now())
		target := l.eng.Now()
		l.mu.Unlock()

		if !res.Busy {
			select {
			case <-l.wake:
				continue
			case <-l.done:
				return
			}
		}

		// The iteration conceptually spans up to the engine's new virtual
		// time; sleep toward that absolute deadline so timer-granularity
		// error never accumulates (critical under heavy time dilation).
		if wait := target - l.vnow(); wait > 0 {
			l.clk.Sleep(wait)
		}

		if len(res.Completed) == 0 {
			continue
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock() // Close has answered every pending caller
			return
		}
		for _, seq := range res.Completed {
			w := seq.Ctx.(*waiter)
			unlink(w)
			w.c = Completion{
				PromptTok: seq.PromptTok,
				OutputTok: seq.Emitted,
				QueueWait: seq.QueueWait(),
				Latency:   seq.Latency(),
				Finish:    l.epoch.Add(seq.FinishAt),
			}
			l.deliveries = append(l.deliveries, w)
		}
		// Everything a caller needs is copied into its record; the finished
		// sequences can go back to the engine's free list.
		l.eng.Release(res.Completed...)
		l.mu.Unlock()
		for i, w := range l.deliveries {
			w.wake <- struct{}{}
			l.deliveries[i] = nil
		}
		l.deliveries = l.deliveries[:0]
	}
}
