// Package clock abstracts time so the FIRST stack can run against the real
// wall clock, a scaled (time-dilated) clock for fast examples and tests, or a
// manually stepped clock for deterministic unit tests.
//
// All long-running components in the live stack (serving engines, schedulers,
// endpoint managers, hot-node reapers) take a Clock rather than calling the
// time package directly. The discrete-event simulation in internal/sim keeps
// its own virtual timeline and does not use this package.
//
// # Precision of the scaled clock
//
// A modelled delay must cost what it says, or the live stack measures the
// host's timer floor instead of the model: on Linux a time.Sleep of anything
// between ~1 µs and 1 ms returns after ≈ 1.1 ms on an idle process, and at
// 20000× the hub's 250 ms submit latency is 12.5 µs. Scaled therefore keeps
// its own deadline queue, and its contract is that a Sleep or After never
// returns early and returns at most its slack (56 µs, below) late, plus the
// microsecond or so the pump takes to react; the tests hold the median wait
// to max(64 µs, 10 %) of d/factor.
//
// What is spun, and for how long: one goroutine per Scaled clock, the pump,
// fires every waiter. While the nearest deadline is more than 1.2 ms away —
// the timer granularity plus margin — the pump waits on a runtime timer set
// that much short of it; inside the last 1.2 ms it polls the wall clock,
// yielding its processor whenever it has woken somebody and otherwise every
// 20 µs, so that a runnable goroutine waits for the pump at most that long.
// It exits when the queue is empty, so a clock nobody waits on has no
// goroutine and uses no CPU, and a single wait spins for at most 1.2 ms.
// Waits that compress to 10 ms or more, of which a millisecond is at most a
// tenth, stay on the plain runtime timer and never enter the queue.
//
// Slack: deadlines are rounded up to the next multiple of 56 µs on the
// clock's own wall timeline, as the kernel rounds a timer to its slack. Two
// things come of that. Waiters due close together fire in one pass of the
// pump and one yield. And the tens of microseconds of CPU the stack spends
// between two waits, whose length follows the host's speed of the moment,
// stop adding up along a request: every wait ends on the grid, so a request
// takes a whole number of slack periods for as long as each stretch of code
// between two waits stays inside the periods it takes now. With exact
// deadlines the live stack at 20000× is CPU-bound and its wall time per
// request follows a shared host's speed drift one to one; that made the
// live benchmark's rate unrepeatable (see CHANGES.md, PR 14, for the runs).
// The width is set by the longest such stretch on the request path — some
// 80 µs of client and gateway code around the hub's 12.5 µs submit wait,
// two periods with a fifth to spare; at 48 µs that stretch sat 4 µs from
// its boundary and the rate still followed the host. The price is a mean
// 28 µs per wait.
//
// Why one spinner per clock: letting each sleeper yield-spin for itself is
// marginally more precise, but puts as many spinners on the run queue as
// there are sleepers (hundreds under the gateway stress tests) and leaves
// After needing a goroutine per call. With one pump the cost is bounded at
// one core whatever the number of waiters, After is a buffered channel with
// nothing running behind it, and a waiter costs no allocation: records and
// their wake channels are recycled through a free list.
//
// What it looks like from outside: a process whose clock always has a
// sub-millisecond waiter pending (a deployment control loop at 20000×)
// shows one core busy polling. That is an otherwise idle core, not work.
package clock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal time source used by live components.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for at least d (subject to the clock's scaling).
	Sleep(d time.Duration)
	// After returns a channel that delivers the then-current time after d.
	After(d time.Duration) <-chan time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Real is the wall clock.
type Real struct{}

// NewReal returns the wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Scaled is a clock that runs faster than real time by an integer factor.
// A Scaled clock with Factor 100 makes a component that "sleeps 2 s" sleep
// 20 ms of wall time while reporting virtual timestamps that advanced by the
// full 2 s. It lets the live stack (HTTP gateway included) exercise
// HPC-scale timings in milliseconds.
//
// Sleep and After share one deadline queue (see the package comment for the
// precision contract): a waiter is a pooled record in a min-heap keyed by
// absolute wall deadline on the slack grid, and at most one goroutine per
// clock, the pump, fires them.
type Scaled struct {
	factor int64
	epoch  time.Time // wall time at construction
	origin time.Time // virtual time at construction

	mu      sync.Mutex
	heap    []*waiter     // min-heap on deadline
	free    *waiter       // fired records awaiting reuse
	pumping bool          // a pump goroutine exists
	nearest atomic.Int64  // heap[0].deadline, written under mu; the spinning pump polls it without
	kick    chan struct{} // cap 1: a new nearest deadline cuts the pump's timer wait short
	timer   *time.Timer   // the pump's, reused across its incarnations
	pumpFn  func()        // s.pump, bound once so that starting the pump allocates nothing
}

// waiter is one pending Sleep or After.
type waiter struct {
	deadline int64          // wall nanoseconds since the clock's epoch
	wake     chan struct{}  // Sleep parks here; cap 1, made once per record
	after    chan time.Time // After's result channel; nil for Sleep
	next     *waiter        // free list
}

const (
	// spinWindow is the host's timer granularity with margin: a runtime
	// timer due at T fires anywhere up to ~1.1 ms after T on Linux (the
	// scheduler's epoll wait counts whole milliseconds, rounding a
	// sub-millisecond remainder up), so the pump stops trusting its timer
	// this far ahead of a deadline and polls the rest.
	spinWindow = 1200 * time.Microsecond
	// coarseWait is the compressed length from which that millisecond is at
	// most a tenth of the wait; such waits stay on the plain runtime timer.
	coarseWait = 10 * time.Millisecond
	// slack is the grid, in wall time since the clock's epoch, that queued
	// deadlines are rounded up to (see the package comment).
	slack = 56 * time.Microsecond
	// yieldEvery is the longest the spinning pump polls without yielding
	// its processor to whatever else became runnable on it.
	yieldEvery = 20 * time.Microsecond
)

// NewScaled returns a clock running factor× faster than wall time.
// factor must be >= 1.
func NewScaled(factor int64) *Scaled {
	if factor < 1 {
		factor = 1
	}
	now := time.Now()
	s := &Scaled{factor: factor, epoch: now, origin: now, kick: make(chan struct{}, 1)}
	s.pumpFn = s.pump
	return s
}

// Factor reports the speed-up factor.
func (s *Scaled) Factor() int64 { return s.factor }

// Now implements Clock; virtual time advances factor× wall time.
func (s *Scaled) Now() time.Time { return s.virtual(time.Since(s.epoch)) }

func (s *Scaled) virtual(wall time.Duration) time.Time {
	return s.origin.Add(wall * time.Duration(s.factor))
}

// Sleep implements Clock: a virtual duration d costs d/factor wall time, to
// the slack.
//
//first:hotpath pinned by TestScaledSleepZeroAlloc (clock_test.go)
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c := s.compress(d)
	if c >= coarseWait {
		time.Sleep(c)
		return
	}
	w := s.arm(c, nil)
	<-w.wake
	s.mu.Lock()
	w.next, s.free = s.free, w
	s.mu.Unlock()
}

// After implements Clock. The channel is buffered and no goroutine stands
// behind it, so a receiver that gives up first leaves nothing running.
func (s *Scaled) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c := s.compress(d)
	if c >= coarseWait {
		time.AfterFunc(c, func() { ch <- s.Now() })
		return ch
	}
	s.arm(c, ch)
	return ch
}

// Since implements Clock.
func (s *Scaled) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

func (s *Scaled) compress(d time.Duration) time.Duration {
	c := d / time.Duration(s.factor)
	if c <= 0 && d > 0 {
		c = time.Nanosecond
	}
	return c
}

// arm queues a waiter due c of wall time from now, rounded up to the slack
// grid, and makes sure a pump will fire it: the pump sends on after when that
// is set, on the record's wake channel otherwise.
//
//first:hotpath reached through the Sleep pin
func (s *Scaled) arm(c time.Duration, after chan time.Time) *waiter {
	deadline := int64((time.Since(s.epoch) + c + slack - 1) / slack * slack)
	s.mu.Lock()
	w := s.free
	if w != nil {
		s.free = w.next
	} else {
		w = new(waiter) //firstlint:allow hotpath first touch; records are recycled through s.free
	}
	if after == nil && w.wake == nil {
		w.wake = make(chan struct{}, 1) // first touch; the channel lives with its record
	}
	w.deadline, w.after = deadline, after
	s.push(w)
	switch {
	case !s.pumping:
		s.pumping = true
		go s.pumpFn()
	case s.heap[0] == w:
		s.nearest.Store(deadline)
		// A token the spinning pump has no use for only makes its next
		// timer wait return at once, and the loop re-reads the heap.
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
	return w
}

// pump fires waiters in deadline order until none is left, then exits. While
// the nearest deadline is further off than spinWindow it waits on a runtime
// timer (cut short by arm when an earlier deadline arrives); inside the
// window it polls the wall clock without taking the lock, and yields the
// processor before each stretch of polling: right after it has woken
// somebody, and every yieldEvery while nothing is due.
func (s *Scaled) pump() {
	for {
		s.mu.Lock()
		now := time.Since(s.epoch)
		for len(s.heap) > 0 && s.heap[0].deadline <= int64(now) {
			w := s.pop()
			// Neither send blocks: both channels hold one value and get
			// one per arming.
			if w.after != nil {
				w.after <- s.virtual(now)
				w.after = nil
				w.next, s.free = s.free, w
			} else {
				w.wake <- struct{}{} // the sleeper recycles the record
			}
		}
		if len(s.heap) == 0 {
			s.pumping = false
			s.mu.Unlock()
			return
		}
		nearest := s.heap[0].deadline
		s.nearest.Store(nearest)
		s.mu.Unlock()
		far := time.Duration(nearest) - now - spinWindow
		if far <= 0 {
			runtime.Gosched()
			for start := time.Since(s.epoch); ; {
				n := time.Since(s.epoch)
				if int64(n) >= s.nearest.Load() || n-start >= yieldEvery {
					break
				}
			}
			continue
		}
		if s.timer == nil {
			s.timer = time.NewTimer(far)
		} else {
			s.timer.Reset(far)
		}
		select {
		case <-s.timer.C:
		case <-s.kick:
			// A tick that slips past this drain is as harmless as a stale
			// kick.
			if !s.timer.Stop() {
				select {
				case <-s.timer.C:
				default:
				}
			}
		}
	}
}

// push and pop keep s.heap a binary min-heap on deadline; s.mu is held.
//
//first:hotpath reached through the Sleep pin
func (s *Scaled) push(w *waiter) {
	s.heap = append(s.heap, w) // grows to the peak number of concurrent waiters, then stays
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].deadline <= w.deadline {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = w
}

func (s *Scaled) pop() *waiter {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	w := h[n]
	h[n] = nil
	s.heap = h[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].deadline < h[c].deadline {
			c++
		}
		if w.deadline <= h[c].deadline {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = w
	return top
}

// SleepCtx sleeps for d on the wall clock or until ctx is done, whichever
// comes first, returning ctx.Err when the context won. It is the one
// context-aware wall wait in the module: firstlint's clockonly analyzer
// forbids raw time.Sleep/After/NewTimer outside this package, so callers
// that need an interruptible sleep (retry backoff, poll loops) route here
// — and harnesses that must not wall-wait at all (a 1 s Retry-After is 77
// simulated hours at 20000×) inject their own sleeper instead.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Manual is a test clock that only advances when Advance is called. Sleepers
// block until the clock passes their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewManual returns a manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep implements Clock; it blocks until Advance moves past the deadline.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{deadline: m.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- m.now
		return w.ch
	}
	m.waiters = append(m.waiters, w)
	return w.ch
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Advance moves the clock forward by d, releasing any waiters whose deadline
// has been reached.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	var remaining []*manualWaiter
	var fired []*manualWaiter
	for _, w := range m.waiters {
		if !w.deadline.After(now) {
			fired = append(fired, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()
	for _, w := range fired {
		w.ch <- now
	}
}

// PendingWaiters reports how many sleepers are blocked (useful in tests).
func (m *Manual) PendingWaiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

var (
	_ Clock = Real{}
	_ Clock = (*Scaled)(nil)
	_ Clock = (*Manual)(nil)
)
