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
	Err       error
}

// LiveEngine drives an Engine in real (or scaled) time: a background
// goroutine runs the continuous-batching loop, sleeping for each iteration's
// duration on the configured clock and delivering completions to the
// channel each Generate call registered. This is the component a fabric
// endpoint launches per model instance — the stand-in for "vLLM serve".
type LiveEngine struct {
	clk   clock.Clock
	epoch time.Time

	mu      sync.Mutex
	eng     *Engine
	waiters map[int64]chan Completion
	closed  bool
	wake    chan struct{}
	done    chan struct{}
}

// NewLiveEngine wraps eng (which must not be used elsewhere) and starts the
// serving loop on clk.
func NewLiveEngine(eng *Engine, clk clock.Clock) *LiveEngine {
	l := &LiveEngine{
		clk:     clk,
		epoch:   clk.Now(),
		eng:     eng,
		waiters: make(map[int64]chan Completion),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	//firstlint:allow det LiveEngine is the wall-clock wrapper around the deterministic engine; the serving loop goroutine is the live-mode contract
	go l.loop()
	return l
}

// vnow converts the clock's wall reading into the engine's virtual timeline.
func (l *LiveEngine) vnow() time.Duration { return l.clk.Since(l.epoch) }

// Generate submits a request and blocks until completion or ctx cancellation.
func (l *LiveEngine) Generate(ctx context.Context, promptTok, outputTok int) Completion {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Completion{Err: ErrClosed}
	}
	seq := l.eng.Submit(l.vnow(), promptTok, outputTok, nil)
	// Capture the ID while holding the lock: once the completion is
	// delivered the engine may recycle seq for a new request, so the
	// pointer must not be dereferenced after unlock.
	id := seq.ID
	ch := make(chan Completion, 1)
	l.waiters[id] = ch
	l.mu.Unlock()

	select {
	case l.wake <- struct{}{}:
	default:
	}

	select {
	case c := <-ch:
		return c
	case <-ctx.Done():
		l.mu.Lock()
		if l.eng.Abort(id) {
			delete(l.waiters, id)
		}
		l.mu.Unlock()
		return Completion{Err: ctx.Err()}
	}
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
	pending := l.waiters
	l.waiters = make(map[int64]chan Completion)
	l.mu.Unlock()
	close(l.done)
	//firstlint:allow det every pending waiter gets the same ErrClosed on its own buffered channel; delivery order is unobservable
	for _, ch := range pending {
		ch <- Completion{Err: ErrClosed}
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
		type delivery struct {
			ch chan Completion
			c  Completion
		}
		deliveries := make([]delivery, 0, len(res.Completed))
		for _, seq := range res.Completed {
			ch, ok := l.waiters[seq.ID]
			if !ok {
				continue
			}
			delete(l.waiters, seq.ID)
			deliveries = append(deliveries, delivery{ch, Completion{
				PromptTok: seq.PromptTok,
				OutputTok: seq.Emitted,
				QueueWait: seq.QueueWait(),
				Latency:   seq.Latency(),
			}})
		}
		// Everything a waiter needs is copied into deliveries; the finished
		// sequences can go back to the engine's free list.
		l.eng.Release(res.Completed...)
		l.mu.Unlock()
		for _, d := range deliveries {
			d.ch <- d.c
		}
	}
}
