package clock

import (
	"runtime"
	"sort"
	"sync/atomic"
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

// The pump gives its OS thread up after each stretch of polling with nothing
// due, or a thread the kernel queued on its CPU waits for the next tick; a
// wait due at once is fired without polling, and a pump gone yields no more.
func TestScaledPumpYieldsThreadWhileIdle(t *testing.T) {
	var yields atomic.Int64
	saved := yieldThread
	yieldThread = func() { yields.Add(1) }
	t.Cleanup(func() { yieldThread = saved })

	c := NewScaled(1000)
	for i := 0; i < 5; i++ {
		c.Sleep(500 * time.Millisecond) // 500 µs of wall, inside spinWindow: polled throughout
	}
	waitPumpGone(t, c)
	n := yields.Load()
	if n < 1 {
		t.Errorf("five polled 500 µs waits cost %d thread yields, want at least one", n)
	}
	time.Sleep(2 * time.Millisecond)
	if m := yields.Load(); m != n {
		t.Errorf("%d thread yields after the pump exited, want none", m-n)
	}

	yields.Store(0)
	for i := 0; i < 5; i++ {
		<-c.arm(0, nil).wake // due at once
	}
	waitPumpGone(t, c)
	if n := yields.Load(); n != 0 {
		t.Errorf("five waits due at once cost %d thread yields, want 0", n)
	}
}

// BenchmarkScaledHandoffStalls reads the pump's cost to the goroutines it
// wakes, in the live stack's shape at 20000×: GOMAXPROCS closed-loop clients
// each hand a request to a worker of their own, which sleeps 800 ms of
// virtual time (40 µs of wall) and spins 10 µs; the client spins 10 µs after
// the reply. One more goroutine sleeps 5 s in a loop, as a deployment control
// loop does, so a waiter is always pending and the pump never blocks. An
// iteration is one client round, reply spin included; stall_pct is the share
// of the clients' wall time spent in iterations over 1 ms.
//
//	go test -run '^$' -bench ScaledHandoffStalls ./internal/clock
func BenchmarkScaledHandoffStalls(b *testing.B) {
	spin := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	c := NewScaled(20000)
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
				c.Sleep(5 * time.Second)
			}
		}
	}()
	clients := runtime.GOMAXPROCS(0)
	var left atomic.Int64
	left.Store(int64(b.N))
	lats := make([][]time.Duration, clients)
	for i := range lats {
		lats[i] = make([]time.Duration, 0, b.N/clients+1)
	}
	done := make(chan struct{})
	b.ResetTimer()
	for i := range lats {
		go func() {
			defer func() { done <- struct{}{} }()
			req, reply := make(chan struct{}), make(chan struct{})
			defer close(req)
			go func() {
				for range req {
					c.Sleep(800 * time.Millisecond)
					spin(10 * time.Microsecond)
					reply <- struct{}{}
				}
			}()
			for left.Add(-1) >= 0 {
				start := time.Now()
				req <- struct{}{}
				<-reply
				spin(10 * time.Microsecond)
				lats[i] = append(lats[i], time.Since(start))
			}
		}()
	}
	for range lats {
		<-done
	}
	b.StopTimer()
	close(stop)
	<-ticked
	var all []time.Duration
	var total, stalled time.Duration
	for _, l := range lats {
		for _, d := range l {
			all = append(all, d)
			total += d
			if d > time.Millisecond {
				stalled += d
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	us := func(q float64) float64 { return float64(all[int(q*float64(len(all)-1))]) / 1e3 }
	b.ReportMetric(us(0.5), "p50_us")
	b.ReportMetric(us(0.999), "p999_us")
	b.ReportMetric(100*float64(stalled)/float64(total), "stall_pct")
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
