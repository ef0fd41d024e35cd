package clock

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real.Now too far in the past: %v", now)
	}
	start := c.Now()
	c.Sleep(5 * time.Millisecond)
	if c.Since(start) < 4*time.Millisecond {
		t.Errorf("Sleep(5ms) returned after %v", c.Since(start))
	}
}

func TestScaledFactorClamped(t *testing.T) {
	if f := NewScaled(0).Factor(); f != 1 {
		t.Errorf("factor 0 should clamp to 1, got %d", f)
	}
	if f := NewScaled(-5).Factor(); f != 1 {
		t.Errorf("negative factor should clamp to 1, got %d", f)
	}
	if f := NewScaled(100).Factor(); f != 100 {
		t.Errorf("factor = %d, want 100", f)
	}
}

func TestScaledVirtualTimeAdvancesFaster(t *testing.T) {
	c := NewScaled(1000)
	start := c.Now()
	time.Sleep(10 * time.Millisecond)
	virtual := c.Since(start)
	if virtual < 5*time.Second {
		t.Errorf("1000x clock advanced only %v over ~10ms wall", virtual)
	}
}

func TestScaledSleepCompresses(t *testing.T) {
	c := NewScaled(1000)
	wallStart := time.Now()
	c.Sleep(2 * time.Second) // should cost ~2ms wall
	wall := time.Since(wallStart)
	if wall > 500*time.Millisecond {
		t.Errorf("scaled sleep of 2s virtual took %v wall", wall)
	}
}

func TestScaledSleepZeroAndNegative(t *testing.T) {
	c := NewScaled(10)
	done := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep(<=0) blocked")
	}
}

func TestScaledAfterDelivers(t *testing.T) {
	c := NewScaled(1000)
	select {
	case <-c.After(3 * time.Second):
	case <-time.After(2 * time.Second):
		t.Fatal("After(3s virtual) did not fire within 2s wall at 1000x")
	}
}

// TestScaledWaitPrecision is the precision contract: a modelled delay costs
// what it says, give or take the pump's reaction. The rows are the live
// stack's own waits — hub submit and dispatch and the deployment control
// period at the benchmark's 20000×, the pump's timer-then-spin path at the
// gateway's 1000×. The 24 µs bound is one yieldEvery of polling plus a few
// microseconds for the woken goroutine to run, under the race detector.
func TestScaledWaitPrecision(t *testing.T) {
	cases := []struct {
		factor int64
		d      time.Duration
	}{
		{20000, 250 * time.Millisecond},
		{20000, 20 * time.Millisecond},
		{20000, 5 * time.Second},
		{1000, 2 * time.Second},
	}
	waits := []struct {
		name string
		wait func(*Scaled, time.Duration)
	}{
		{"Sleep", func(c *Scaled, d time.Duration) { c.Sleep(d) }},
		{"After", func(c *Scaled, d time.Duration) { <-c.After(d) }},
	}
	for _, tc := range cases {
		for _, w := range waits {
			name := w.name
			c := NewScaled(tc.factor)
			ideal := tc.d / time.Duration(tc.factor)
			over := make([]time.Duration, 200)
			for i := range over {
				start := time.Now()
				w.wait(c, tc.d)
				over[i] = time.Since(start) - ideal
			}
			sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
			if over[0] < 0 {
				t.Errorf("%s(%v) at %d×: returned %v early", name, tc.d, tc.factor, -over[0])
			}
			bound := max(24*time.Microsecond, ideal/10)
			med := over[len(over)/2]
			t.Logf("%s(%v) at %d×: %v wall, median overshoot %v, p95 %v", name, tc.d, tc.factor, ideal, med, over[len(over)*95/100])
			if med > bound {
				t.Errorf("%s(%v) at %d×: median overshoot %v of %v wall, want ≤ %v", name, tc.d, tc.factor, med, ideal, bound)
			}
		}
	}
}

// A queued deadline is the wall instant the wait was armed plus d/factor:
// never before it, and not rounded to any grid.
func TestScaledDeadlineIsArmPlusCompressed(t *testing.T) {
	c := NewScaled(20000)
	for _, d := range []time.Duration{20*time.Millisecond + 7, 250 * time.Millisecond, 5*time.Second + 13} {
		before := time.Since(c.epoch)
		w := c.arm(c.compress(d), make(chan time.Time, 1))
		after := time.Since(c.epoch)
		got := time.Duration(w.deadline)
		if lo, hi := before+c.compress(d), after+c.compress(d); got < lo || got > hi {
			t.Errorf("deadline of a %v wait armed between %v and %v is %v, want within [%v, %v]", d, before, after, got, lo, hi)
		}
	}
	waitPumpGone(t, c)
}

// A waiter armed later but due earlier is fired first: the pump, parked on
// its timer for the far deadline, has to be kicked. The order read is the
// pump's — the virtual time it stamps on each After — not the order in which
// the host got round to running three woken goroutines. A pump descheduled
// past two deadlines fires both in one pass under one stamp, so the stamps
// are non-decreasing, not strictly increasing.
func TestScaledFiresInDeadlineOrder(t *testing.T) {
	c := NewScaled(1000)
	start := c.Now()
	late := c.After(9 * time.Second)
	waitArmed(t, c, 1)
	mid := c.After(6 * time.Second)
	early := c.After(3 * time.Second)
	at := []time.Duration{(<-early).Sub(start), (<-mid).Sub(start), (<-late).Sub(start)}
	for i, want := range []time.Duration{3 * time.Second, 6 * time.Second, 9 * time.Second} {
		if at[i] < want {
			t.Errorf("After(%v) fired at %v", want, at[i])
		}
	}
	if at[0] > at[1] || at[1] > at[2] {
		t.Errorf("fired at %v, want the 3 s, 6 s and 9 s waits in that order", at)
	}
}

// waitArmed returns once n waiters are queued on c.
func waitArmed(t *testing.T, c *Scaled, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; runtime.Gosched() {
		c.mu.Lock()
		armed := len(c.heap)
		c.mu.Unlock()
		if armed >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters armed", armed, n)
		}
	}
}

// waitPumpGone returns once c has no waiter and no pump goroutine.
func waitPumpGone(t *testing.T, c *Scaled) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		c.mu.Lock()
		pumping := c.pumping
		c.mu.Unlock()
		if !pumping {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pump still running")
		}
	}
}

func TestScaledSleepZeroAlloc(t *testing.T) {
	c := NewScaled(20000)
	c.Sleep(250 * time.Millisecond) // first touch: the record, its channel, the heap's backing array
	if n := testing.AllocsPerRun(200, func() { c.Sleep(250 * time.Millisecond) }); n != 0 {
		t.Errorf("Scaled.Sleep allocates %v per call, want 0", n)
	}
}

// An After whose receiver gives up first must leave nothing behind: no
// goroutine while it is pending, and no pump once the queue has drained.
func TestScaledAbandonedAfterLeavesNoGoroutine(t *testing.T) {
	c := NewScaled(1000)
	base := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		c.After(2 * time.Second)
	}
	// A slow loop (the race detector on one CPU) can outlast the first
	// Afters' 2 ms: the pump then empties the queue and exits, and the next
	// arm starts another while the first is still returning. So poll the
	// count down for a while, as below, and let the exiting pump finish.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base+1 && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(100 * time.Microsecond)
	}
	if n > base+1 {
		t.Errorf("%d goroutines with 10000 abandoned Afters pending, want at most the pump over %d", n, base)
	}
	waitPumpGone(t, c)
	// The pump clears c.pumping before its goroutine returns, so the count
	// can lag the flag: poll it down to base rather than read it once.
	n = runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(100 * time.Microsecond)
	}
	if n > base {
		t.Errorf("%d goroutines after the queue drained, want %d", n, base)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) != 0 {
		t.Errorf("%d waiters left in the queue", len(c.heap))
	}
}

func TestScaledNowMonotonic(t *testing.T) {
	c := NewScaled(5000)
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		now := c.Now()
		if now.Before(prev) {
			t.Fatalf("Now went backwards: %v then %v", prev, now)
		}
		prev = now
	}
}

func TestManualClockAdvance(t *testing.T) {
	start := time.Date(2025, 10, 15, 0, 0, 0, 0, time.UTC)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", m.Now(), start)
	}
	m.Advance(90 * time.Second)
	if got := m.Since(start); got != 90*time.Second {
		t.Errorf("Since = %v, want 90s", got)
	}
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	woke := make(chan struct{})
	go func() {
		m.Sleep(10 * time.Second)
		close(woke)
	}()
	m.BlockUntil(1) // the sleeper registered
	select {
	case <-woke:
		t.Fatal("sleeper woke before Advance")
	default:
	}
	m.Advance(5 * time.Second)
	select {
	case <-woke:
		t.Fatal("sleeper woke too early (5s of 10s)")
	case <-time.After(10 * time.Millisecond):
	}
	m.Advance(5 * time.Second)
	select {
	case <-woke:
	case <-time.After(2 * time.Second):
		t.Fatal("sleeper did not wake after full Advance")
	}
}

func TestManualAfterImmediateForNonPositive(t *testing.T) {
	m := NewManual(time.Unix(100, 0))
	select {
	case <-m.After(0):
	case <-time.After(time.Second):
		t.Fatal("After(0) should deliver immediately")
	}
	select {
	case <-m.After(-time.Minute):
	case <-time.After(time.Second):
		t.Fatal("After(negative) should deliver immediately")
	}
}

func TestManualMultipleWaitersReleaseInOrderOfDeadline(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	got := make(chan int, 2)
	go func() { m.Sleep(1 * time.Second); got <- 1 }()
	go func() { m.Sleep(3 * time.Second); got <- 3 }()
	m.BlockUntil(2)
	m.Advance(2 * time.Second)
	if v := <-got; v != 1 {
		t.Fatalf("first waiter released = %d, want 1", v)
	}
	if m.PendingWaiters() != 1 {
		t.Fatalf("pending = %d, want 1", m.PendingWaiters())
	}
	m.Advance(2 * time.Second)
	if v := <-got; v != 3 {
		t.Fatalf("second waiter released = %d, want 3", v)
	}
}
