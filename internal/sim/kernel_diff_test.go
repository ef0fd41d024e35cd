package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// recordingKernel drives k with a deterministic random schedule derived from
// seed and returns the full (time, id) execution order. The workload mixes
// the shapes the experiment suite produces: same-instant floods, near-uniform
// gaps, far-future events, nested scheduling from callbacks, and partial
// bounded runs with late inserts between them.
func recordingKernel(k *Kernel, seed int64) []struct {
	at Time
	id int
} {
	rng := NewRNG(seed)
	type stamp = struct {
		at Time
		id int
	}
	var fired []stamp
	id := 0
	record := func() func() {
		id++
		me := id
		return func() { fired = append(fired, stamp{k.Now(), me}) }
	}
	schedule := func() {
		switch rng.Intn(5) {
		case 0: // same-instant burst
			n := 1 + rng.Intn(8)
			at := time.Duration(rng.Intn(2000)) * time.Millisecond
			for i := 0; i < n; i++ {
				k.At(at, record())
			}
		case 1: // near-uniform short delay
			k.Schedule(time.Duration(rng.Intn(4000))*time.Microsecond, record())
		case 2: // far future (the heap, behind the run)
			k.Schedule(time.Duration(1+rng.Intn(3000))*time.Second, record())
		case 3: // zero delay (runs this instant, after the current batch)
			k.Schedule(0, record())
		default: // millisecond-scale
			k.Schedule(time.Duration(rng.Intn(500))*time.Millisecond, record())
		}
	}
	for i := 0; i < 300; i++ {
		schedule()
	}
	// Nested scheduling from inside callbacks.
	for i := 0; i < 50; i++ {
		k.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
			for j := 0; j < 4; j++ {
				schedule()
			}
		})
	}
	// Bounded runs with inserts in between: a run stops short of the next
	// pending event, then later inserts land ahead of it.
	k.Run(200 * time.Millisecond)
	for i := 0; i < 100; i++ {
		schedule()
	}
	k.Run(900 * time.Millisecond)
	for i := 0; i < 100; i++ {
		schedule()
	}
	k.Run(0)
	return fired
}

// TestKernelCalendarMatchesHeapReference is the randomized differential
// property test: the default queue (run plus heap) and the 4-ary heap
// reference must produce the exact same execution order (same events, same
// virtual times) for arbitrary schedules — the strict (time, seq)
// determinism contract.
func TestKernelCalendarMatchesHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cal := recordingKernel(NewKernelWith(QueueCalendar), seed)
		heap := recordingKernel(NewKernelWith(QueueHeap), seed)
		if len(cal) != len(heap) {
			t.Fatalf("seed %d: default queue fired %d events, heap %d", seed, len(cal), len(heap))
		}
		for i := range cal {
			if cal[i] != heap[i] {
				t.Fatalf("seed %d: execution diverges at event %d: default %+v, heap %+v",
					seed, i, cal[i], heap[i])
			}
		}
	}
}

// TestKernelStopBeforeRunHonored pins the fix for the silently-ignored
// pre-run Stop: a Stop issued before Run must make that Run return without
// executing anything, and be consumed so the next Run proceeds.
func TestKernelStopBeforeRunHonored(t *testing.T) {
	for _, q := range []QueueKind{QueueCalendar, QueueHeap} {
		k := NewKernelWith(q)
		var count int
		k.Schedule(time.Second, func() { count++ })
		k.Stop()
		if end := k.Run(0); end != 0 {
			t.Errorf("%v: stopped Run advanced time to %v", q, end)
		}
		if count != 0 {
			t.Errorf("%v: stopped Run executed %d events", q, count)
		}
		if k.Pending() != 1 {
			t.Errorf("%v: pending = %d after stopped Run, want 1", q, k.Pending())
		}
		// The Stop is consumed: the next Run executes normally.
		if end := k.Run(0); end != time.Second || count != 1 {
			t.Errorf("%v: resumed Run end=%v count=%d, want 1s/1", q, end, count)
		}
	}
}

// TestSecondsClampsNonFinite pins the NaN/-Inf fix: non-finite inputs clamp
// instead of converting to garbage times.
func TestSecondsClampsNonFinite(t *testing.T) {
	if got := Seconds(math.NaN()); got != 0 {
		t.Errorf("Seconds(NaN) = %v, want 0", got)
	}
	if got := Seconds(math.Inf(-1)); got != -math.MaxInt64/4 {
		t.Errorf("Seconds(-Inf) = %v, want most-negative clamp", got)
	}
	if got := Seconds(-2e12); got != -math.MaxInt64/4 {
		t.Errorf("Seconds(-2e12) = %v, want most-negative clamp", got)
	}
	if got := Seconds(math.Inf(1)); got != math.MaxInt64/4 {
		t.Errorf("Seconds(+Inf) = %v, want most-positive clamp", got)
	}
	// Finite values are untouched.
	if got := Seconds(-1.5); got != -1500*time.Millisecond {
		t.Errorf("Seconds(-1.5) = %v", got)
	}
}

// TestKernelResetRecyclesAcrossRuns checks the arena-reuse contract: a Reset
// kernel behaves exactly like a fresh one.
func TestKernelResetRecyclesAcrossRuns(t *testing.T) {
	for _, q := range []QueueKind{QueueCalendar, QueueHeap} {
		fresh := recordingKernel(NewKernelWith(q), 7)
		k := NewKernelWith(q)
		recordingKernel(k, 3) // dirty the kernel with a different run
		k.Schedule(time.Hour, func() {})
		k.Reset()
		if k.Now() != 0 || k.Pending() != 0 || k.Processed != 0 {
			t.Fatalf("%v: Reset left now=%v pending=%d processed=%d", q, k.Now(), k.Pending(), k.Processed)
		}
		reused := recordingKernel(k, 7)
		if len(fresh) != len(reused) {
			t.Fatalf("%v: reused kernel fired %d events, fresh %d", q, len(reused), len(fresh))
		}
		for i := range fresh {
			if fresh[i] != reused[i] {
				t.Fatalf("%v: reused kernel diverges from fresh at event %d", q, i)
			}
		}
	}
}

// TestKernelBatchedSameInstantDispatch checks that an event a callback
// schedules for the current instant runs at that instant, after the events
// already queued for it.
func TestKernelBatchedSameInstantDispatch(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(time.Second, func() {
		order = append(order, 1)
		// Scheduled mid-batch for the same instant: must run after the
		// already-queued event 2, still at t=1s.
		k.Schedule(0, func() {
			order = append(order, 3)
			if k.Now() != time.Second {
				t.Errorf("zero-delay event ran at %v", k.Now())
			}
		})
	})
	k.Schedule(time.Second, func() { order = append(order, 2) })
	k.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

// TestKernelDeepQueueZeroAlloc pins the arena-reuse steady state at zero
// allocations: a Reset kernel replaying a deep near-uniform schedule (the
// fleet-cell recycling pattern) must reuse the run's and the heap's backing
// arrays without growing either.
func TestKernelDeepQueueZeroAlloc(t *testing.T) {
	k := NewKernel()
	const depth = 512
	remaining := 0
	var fn func()
	fn = func() {
		remaining--
		if remaining > 0 {
			k.Schedule(depth*time.Microsecond, fn)
		}
	}
	cell := func(n int) {
		k.Reset()
		remaining = n
		for i := 0; i < depth && i < n; i++ {
			k.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		k.Run(0)
	}
	cell(8 * depth) // grow the run and the heap to steady state
	allocs := testing.AllocsPerRun(10, func() { cell(8 * depth) })
	if allocs != 0 {
		t.Errorf("steady-state deep-queue allocs per run = %v, want 0", allocs)
	}
}

// stamp is one fired event as the differential shapes record it: the virtual
// time and who fired.
type stamp struct {
	at  Time
	who int
}

// diffStamps fails the test at the first position where the default and
// heap kernels' execution orders part.
func diffStamps(t *testing.T, what string, cal, heap []stamp) {
	t.Helper()
	if len(cal) != len(heap) {
		t.Fatalf("%s: default queue fired %d events, heap %d", what, len(cal), len(heap))
	}
	for i := range cal {
		if cal[i] != heap[i] {
			t.Fatalf("%s: execution diverges at event %d: default %+v, heap %+v", what, i, cal[i], heap[i])
		}
	}
}

// queueInvariant checks the queue's shape: a run of at most runCap events in
// strictly descending order (none at all on the heap kernel), a 4-ary heap,
// and every run event before every heap event.
func queueInvariant(k *Kernel) error {
	r, h := k.run, k.heap
	if len(r) > runCap || k.useHeap && len(r) > 0 {
		return fmt.Errorf("the run holds %d events (cap %d, heap kernel %v)", len(r), runCap, k.useHeap)
	}
	for i := 1; i < len(r); i++ {
		if !r[i].before(&r[i-1]) {
			return fmt.Errorf("run out of order at %d: %v/%d after %v/%d", i, r[i].at, r[i].seq, r[i-1].at, r[i-1].seq)
		}
	}
	for i := 1; i < len(h); i++ {
		if h[i].before(&h[(i-1)/4]) {
			return fmt.Errorf("heap property broken at %d", i)
		}
	}
	if len(r) > 0 && len(h) > 0 && !r[0].before(&h[0]) {
		return fmt.Errorf("the run's latest event %v/%d is not before the heap's minimum %v/%d", r[0].at, r[0].seq, h[0].at, h[0].seq)
	}
	return nil
}

// reservingSchedule plays a random schedule on k and returns the order it
// fired in. A third of its events are reservations. With reserve set, each
// takes its number from Reserve and reaches the kernel through AtSeq later:
// at the end of the step that made it, behind whatever that step scheduled
// after it, or from a carrier event that fires before its time. Without, it
// is scheduled on the spot. Every random draw and every other Schedule is
// the same either way, so both must fire identically. Each callback also
// checks the queue's invariant.
func reservingSchedule(t *testing.T, k *Kernel, seed int64, reserve bool) []stamp {
	rng := NewRNG(seed)
	var fired []stamp
	var held []func() // AtSeq calls waiting for the end of the step
	flush := func() {
		for _, q := range held {
			q()
		}
		held = held[:0]
	}
	delay := func() time.Duration {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.Intn(4000)) * time.Microsecond
		case 2:
			return time.Duration(1+rng.Intn(3000)) * time.Second
		default:
			return time.Duration(rng.Intn(500)) * time.Millisecond
		}
	}
	id := 0
	var add func(d time.Duration, spawn int)
	add = func(d time.Duration, spawn int) {
		id++
		who := id
		fn := func() {
			if err := queueInvariant(k); err != nil {
				t.Fatal(err)
			}
			fired = append(fired, stamp{k.Now(), who})
			for i := 0; i < spawn; i++ {
				add(delay(), 0)
			}
			flush()
		}
		if rng.Intn(3) > 0 {
			k.Schedule(d, fn)
			return
		}
		var queue func()
		if reserve {
			at, seq := k.Now()+d, k.Reserve()
			queue = func() { k.AtSeq(at, seq, fn) }
		} else {
			k.Schedule(d, fn)
			queue = func() {}
		}
		if d == 0 || rng.Intn(2) == 0 {
			held = append(held, queue)
			return
		}
		k.Schedule(time.Duration(rng.Int63()%int64(d)), func() {
			fired = append(fired, stamp{k.Now(), -who})
			queue()
		})
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			if rng.Intn(6) == 0 { // a same-instant burst
				d := delay()
				for j := rng.Intn(8); j >= 0; j-- {
					add(d, 0)
				}
				continue
			}
			add(delay(), rng.Intn(4)/3)
		}
		flush()
	}
	step(300)
	k.Run(200 * time.Millisecond)
	step(100)
	k.Run(900 * time.Millisecond)
	step(100)
	k.Run(0)
	return fired
}

// TestKernelReserveMatchesSchedule is the differential behind Reserve and
// AtSeq: an event queued under a reserved number fires exactly where a
// Schedule at reservation time would have, on both queue kinds.
func TestKernelReserveMatchesSchedule(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		var ref []stamp
		for _, q := range []QueueKind{QueueCalendar, QueueHeap} {
			plain := reservingSchedule(t, NewKernelWith(q), seed, false)
			reserved := reservingSchedule(t, NewKernelWith(q), seed, true)
			diffStamps(t, fmt.Sprintf("seed %d, %v queue, reserved vs scheduled", seed, q), reserved, plain)
			if ref == nil {
				ref = plain
			} else {
				diffStamps(t, fmt.Sprintf("seed %d, default vs heap", seed), ref, plain)
			}
			if len(plain) < 500 {
				t.Fatalf("seed %d: only %d events fired", seed, len(plain))
			}
		}
	}
}

// TestKernelRunEdgesMatchHeap walks the default queue through each of its
// moves, asserting from inside that it makes them, and compares the firing
// order with the heap reference: a spill at the cap, a Run(until) that stops
// with events in the heap, a refill, inserts into an empty run in front of a
// non-empty heap, a Stop with the heap non-empty, and a Reset.
func TestKernelRunEdgesMatchHeap(t *testing.T) {
	const us = time.Microsecond
	play := func(q QueueKind) []stamp {
		k := NewKernelWith(q)
		var log []stamp
		check := func(ok bool, format string, args ...any) {
			t.Helper()
			if err := queueInvariant(k); err != nil {
				t.Fatal(err)
			}
			if q == QueueCalendar && !ok {
				t.Fatalf(format, args...)
			}
		}
		rec := func(who int) func() { return func() { log = append(log, stamp{k.Now(), who}) } }
		spillAndDrain := func(base int) {
			fnFor := func(i int) func() {
				switch i {
				case 65:
					// The run's last event after the refill: its callback
					// finds the run empty and the heap not.
					return func() {
						rec(base + 65)()
						check(len(k.run) == 0 && len(k.heap) == 35, "in the last run event: run %d, heap %d, want 0 and 35", len(k.run), len(k.heap))
						k.Schedule(0, rec(base+102))       // now: into the run
						k.At(k.Now()+500, rec(base+103))   // ahead of the heap's minimum: into the run
						k.At(k.Now()+15*us, rec(base+104)) // behind it: into the heap
						k.At(k.Now()+us, rec(base+105))    // ties the heap's minimum, later by sequence: into the heap
						check(len(k.run) == 2 && len(k.heap) == 37, "after inserts into an empty run: run %d, heap %d, want 2 and 37", len(k.run), len(k.heap))
					}
				case 90:
					return func() { rec(base + 90)(); k.Stop() }
				}
				return rec(base + i)
			}
			for i := 1; i <= runCap+1; i++ {
				k.At(Time(i)*us, fnFor(i))
				if i <= runCap {
					check(len(k.run) == i && len(k.heap) == 0, "insert %d: run %d, heap %d", i, len(k.run), len(k.heap))
				}
			}
			check(len(k.run) == runCap/2+1 && len(k.heap) == runCap/2, "spill: run %d, heap %d, want %d and %d", len(k.run), len(k.heap), runCap/2+1, runCap/2)
			for i := runCap + 2; i <= 100; i++ {
				k.At(Time(i)*us, fnFor(i)) // behind the heap's minimum: into the heap
			}
			check(len(k.run) == 33 && len(k.heap) == 67, "behind the heap's minimum: run %d, heap %d, want 33 and 67", len(k.run), len(k.heap))
			// Stops at the run's latest event; the peek behind it refills
			// the run with the heap's earliest runCap/2.
			k.Run(33 * us)
			check(k.Pending() == 67 && len(k.run) == runCap/2 && len(k.heap) == 35, "Run(until): pending %d, run %d, heap %d", k.Pending(), len(k.run), len(k.heap))
			k.At(33*us+1, rec(base+101)) // between runs, ahead of everything
			check(len(k.run) == runCap/2+1 && k.run[len(k.run)-1].at == 33*us+1, "an insert ahead of everything did not land at the run's end")
			k.Run(0) // stopped at 90 µs
			check(k.Now() == 90*us && k.Pending() == 10, "Stop: now %v, pending %d, want 90µs and 10", k.Now(), k.Pending())
			k.Run(0)
		}
		spillAndDrain(0)
		// Reset with events in the run and the heap.
		for i := 0; i < 3*runCap; i++ {
			k.At(Time(3*runCap-i)*us, rec(-1))
		}
		check(len(k.heap) > 0, "no event reached the heap before Reset")
		k.Reset()
		check(k.Pending() == 0 && cap(k.run) > 0, "Reset: pending %d, run capacity %d", k.Pending(), cap(k.run))
		spillAndDrain(1000)
		return log
	}
	cal, heap := play(QueueCalendar), play(QueueHeap)
	diffStamps(t, "edges", cal, heap)
	if len(cal) != 2*105 {
		t.Fatalf("fired %d events, want %d", len(cal), 2*105)
	}
}

// TestKernelAtSeqPanics: AtSeq refuses a number Reserve never handed out
// (zero, one past the last, one from before a Reset) and a time in the past.
func TestKernelAtSeqPanics(t *testing.T) {
	mustPanic := func(q QueueKind, what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Errorf("%v: AtSeq with %s recovered %q, want a panic mentioning %q", q, what, msg, want)
			}
		}()
		f()
	}
	nop := func() {}
	for _, q := range []QueueKind{QueueCalendar, QueueHeap} {
		k := NewKernelWith(q)
		seq := k.Reserve()
		k.Schedule(time.Second, nop)
		k.Run(0)
		last := k.Reserve()
		mustPanic(q, "sequence number 0", "never reserved", func() { k.AtSeq(2*time.Second, 0, nop) })
		mustPanic(q, "a number not yet handed out", "never reserved", func() { k.AtSeq(2*time.Second, last+1, nop) })
		mustPanic(q, "a past time", "before now", func() { k.AtSeq(time.Second-1, seq, nop) })
		k.AtSeq(time.Second, seq, nop) // now is not the past
		if k.Pending() != 1 {
			t.Errorf("%v: %d events pending after a valid AtSeq, want 1", q, k.Pending())
		}
		k.Reset()
		mustPanic(q, "a number from before Reset", "never reserved", func() { k.AtSeq(0, seq, nop) })
	}
}

// TestKernelAtSeqZeroAlloc pins Reserve and AtSeq at zero allocations in the
// pattern a constant-delay stage uses them in: a generator pushes entries
// onto a FIFO, each reserving its number, and only the head's event is ever
// queued.
func TestKernelAtSeqZeroAlloc(t *testing.T) {
	k := NewKernel()
	const delay = 5 * time.Microsecond
	type entry struct {
		due Time
		seq uint64
	}
	var fifo [64]entry
	head, n, left := 0, 0, 0
	var pop, gen func()
	pop = func() {
		if fifo[head].due != k.Now() {
			t.Fatalf("an entry due at %v fired at %v", fifo[head].due, k.Now())
		}
		head, n = (head+1)%len(fifo), n-1
		if n > 0 {
			k.AtSeq(fifo[head].due, fifo[head].seq, pop)
		}
	}
	gen = func() {
		e := entry{k.Now() + delay, k.Reserve()}
		fifo[(head+n)%len(fifo)] = e
		if n++; n == 1 {
			k.AtSeq(e.due, e.seq, pop)
		}
		if left--; left > 0 {
			k.Schedule(time.Duration(left%3)*time.Microsecond, gen)
		}
	}
	cell := func() {
		k.Reset()
		head, n, left = 0, 1, 1000
		fifo[0] = entry{delay, k.Reserve()}
		k.AtSeq(delay, fifo[0].seq, pop)
		k.Schedule(0, gen)
		k.Run(0)
	}
	cell()
	if allocs := testing.AllocsPerRun(10, cell); allocs != 0 {
		t.Errorf("steady-state Reserve/AtSeq allocs per run = %v, want 0", allocs)
	}
	if n != 0 || k.Processed != 2001 {
		t.Errorf("%d entries left, %d events processed, want 0 and 2001", n, k.Processed)
	}
}

// stretched drives the des-autoscale regime: a few anchors 10²–10³ s out
// (walltime expiries) and a score of timers 1–60 s out (scaler ticks, cold
// starts), all re-arming themselves, around two dozen chains whose µs–ms
// re-arms mostly land among each other's pending events. Chains fire in
// bursts; a timer that fires into a quiet kernel starts the next one, so the
// kernel also crosses idle gaps between bursts. Every closure is built once:
// a run allocates nothing unless fired records.
type stretched struct {
	k                *Kernel
	rng              *RNG
	chains, timers   []func()
	far              int // timers[:far] are the anchors
	budget, perBurst int // chain firings left in this burst / per burst
	bursts           int // bursts still to start
	active           int // chains with an event pending
	fired            func(who int)
}

func newStretched(k *Kernel, seed int64, far, mid, chains int) *stretched {
	s := &stretched{k: k, rng: NewRNG(seed), far: far}
	for i := 0; i < chains; i++ {
		s.chains = append(s.chains, func() {
			s.active--
			if s.fired != nil {
				s.fired(i)
			}
			if s.budget > 0 {
				s.budget--
				s.arm(i)
			}
		})
	}
	for j := 0; j < far+mid; j++ {
		s.timers = append(s.timers, func() {
			if s.fired != nil {
				s.fired(-1 - j)
			}
			if s.bursts == 0 {
				return
			}
			s.armTimer(j)
			if s.active == 0 {
				s.burst()
			}
		})
	}
	return s
}

func (s *stretched) armTimer(j int) {
	d := time.Duration(1+s.rng.Intn(60)) * time.Second
	if j < s.far {
		d = time.Duration(100+s.rng.Intn(900)) * time.Second
	}
	s.k.Schedule(d, s.timers[j])
}

// arm re-schedules chain i: two times in three a random 1 µs–2 ms ahead
// (somewhere among the other chains' pending events), else 3 ms ahead (behind
// all of them: an in-order append).
func (s *stretched) arm(i int) {
	d := 3 * time.Millisecond
	if s.rng.Intn(3) > 0 {
		d = time.Duration(1+s.rng.Intn(2000)) * time.Microsecond
	}
	s.active++
	s.k.Schedule(d, s.chains[i])
}

func (s *stretched) burst() {
	s.bursts--
	s.budget = s.perBurst
	for i := range s.chains {
		s.arm(i)
	}
}

// run plays bursts bursts of perBurst chain firings each to exhaustion.
func (s *stretched) run(bursts, perBurst int) {
	s.bursts, s.perBurst, s.active = bursts, perBurst, 0
	for j := range s.timers {
		s.armTimer(j)
	}
	s.burst()
	s.k.Run(0)
}

// TestKernelStretchedMatchesHeap is the differential for the shape the
// randomized suite lacks and des-autoscale lives in: ≈ 50 events pending,
// far-out timers in the heap, and thousands of inserts landing among the
// run's events rather than behind them.
func TestKernelStretchedMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		play := func(q QueueKind) []stamp {
			k := NewKernelWith(q)
			s := newStretched(k, seed, 3+int(seed)%4, 20, 24)
			var log []stamp
			s.fired = func(who int) { log = append(log, stamp{k.Now(), who}) }
			s.run(4, 3000)
			if k.Pending() != 0 {
				t.Fatalf("seed %d %v: %d events left pending", seed, q, k.Pending())
			}
			return log
		}
		cal, heap := play(QueueCalendar), play(QueueHeap)
		diffStamps(t, fmt.Sprintf("seed %d", seed), cal, heap)
		if len(cal) < 4*3000 {
			t.Fatalf("seed %d: only %d events fired", seed, len(cal))
		}
	}
}

// TestKernelLateInsertAheadOfFlood: 10⁵ events share one instant, a hundred
// of them reserved inside the flood and queued only after it. At most runCap
// of the flood sit in the run and the rest in the heap; bounded runs stop
// short of it, and later inserts that belong ahead of it must land at the
// run's end. The flood fires in the order it was scheduled and reserved in.
func TestKernelLateInsertAheadOfFlood(t *testing.T) {
	const flood = 100000
	const at = time.Second
	play := func(q QueueKind) []stamp {
		k := NewKernelWith(q)
		white := q == QueueCalendar
		var log []stamp
		next := 0
		rec := func() func() {
			who := next
			next++
			return func() { log = append(log, stamp{k.Now(), who}) }
		}
		type held struct {
			seq uint64
			fn  func()
		}
		var reserved []held
		for i := 0; i < flood; i++ {
			switch i % 1000 {
			case 7:
				// Schedules more from inside the flood: the same instant
				// (behind all of it) and just after it.
				who := next
				next++
				k.At(at, func() {
					log = append(log, stamp{k.Now(), who})
					k.Schedule(0, rec())
					k.Schedule(time.Microsecond, rec())
				})
			case 500:
				reserved = append(reserved, held{k.Reserve(), rec()})
			default:
				k.At(at, rec())
			}
		}
		for _, h := range reserved {
			k.AtSeq(at, h.seq, h.fn)
		}
		if err := queueInvariant(k); err != nil || k.Pending() != flood {
			t.Fatalf("flood: %v, %d pending, want %d", err, k.Pending(), flood)
		}
		k.Run(at / 2) // nothing due
		ahead := func(when Time) {
			t.Helper()
			run := len(k.run)
			k.At(when, rec())
			if white && (len(k.run) != run+1 || k.run[run].at != when) {
				t.Fatalf("an insert at %v, ahead of the flood, did not land at the run's end", when)
			}
		}
		ahead(at - time.Microsecond)
		ahead(at - 2*time.Microsecond)
		ahead(at - at/4)
		k.Run(at - 1500*time.Nanosecond) // stops between the two microsecond inserts
		ahead(at - 1200*time.Nanosecond)
		k.At(at, rec()) // behind the whole flood, by sequence
		k.At(at+time.Microsecond, rec())
		k.Run(0)
		if k.Pending() != 0 {
			t.Fatalf("%v: %d events left pending", q, k.Pending())
		}
		return log
	}
	cal, heap := play(QueueCalendar), play(QueueHeap)
	diffStamps(t, "flood", cal, heap)
	if want := flood + 2*(flood/1000) + 6; len(cal) != want {
		t.Fatalf("fired %d events, want %d", len(cal), want)
	}
	last := -1
	for _, s := range cal {
		if s.who < flood {
			if s.at != at || s.who < last {
				t.Fatalf("flood member %d fired at %v after member %d: want every member at %v in scheduling order", s.who, s.at, last, at)
			}
			last = s.who
		}
	}
}

// TestKernelStretchedZeroAlloc is TestKernelDeepQueueZeroAlloc for the
// stretched shape: a Reset kernel replaying it places thousands of inserts
// among the run's events and must not allocate doing so.
func TestKernelStretchedZeroAlloc(t *testing.T) {
	k := NewKernel()
	s := newStretched(k, 1, 4, 20, 24)
	cell := func() {
		k.Reset()
		s.rng.r.Seed(1) // the same schedule every time: nothing sees a new high-water mark
		s.run(3, 2000)
	}
	cell() // grow the run and the heap to steady state
	if allocs := testing.AllocsPerRun(10, cell); allocs != 0 {
		t.Errorf("steady-state stretched allocs per run = %v, want 0", allocs)
	}
}

// BenchmarkKernelStretched times one event of the stretched shape (schedule,
// place, pop, dispatch) on each queue kind.
func BenchmarkKernelStretched(b *testing.B) {
	for _, q := range []QueueKind{QueueCalendar, QueueHeap} {
		b.Run(q.String(), func(b *testing.B) {
			k := NewKernelWith(q)
			s := newStretched(k, 1, 4, 20, 24)
			const perBurst = 5000
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += perBurst {
				k.Reset()
				s.run(1, perBurst)
			}
		})
	}
}

// peekSchedule plays a random schedule on k — same-instant floods past the
// run's capacity, far-out timers that sit in the heap, nested scheduling —
// and returns the order it fired in. With peek set, every event ends by
// peeking, and the peek must name the next event's instant: the run's last,
// the heap's root when the run has drained, nothing once the queue is empty.
// It returns how many peeks found the run empty and the heap not.
func peekSchedule(t *testing.T, k *Kernel, seed int64, peek bool) (fired []stamp, fromHeap int) {
	t.Helper()
	rng := NewRNG(seed)
	type look struct {
		at Time
		ok bool
	}
	var looks []look
	id := 0
	var schedule func(depth int)
	event := func(depth int) func() {
		id++
		me := id
		return func() {
			fired = append(fired, stamp{k.Now(), me})
			if depth == 0 && rng.Intn(8) == 0 {
				for i := 0; i < 3; i++ {
					schedule(depth + 1)
				}
			}
			if peek {
				pending, run := k.Pending(), len(k.run)
				if run == 0 && pending > 0 {
					fromHeap++
				}
				at, ok := k.Peek()
				if k.Pending() != pending || len(k.run) != run {
					t.Fatalf("Peek moved the queue: %d pending and %d in the run before, %d and %d after", pending, run, k.Pending(), len(k.run))
				}
				looks = append(looks, look{at, ok})
			}
		}
	}
	schedule = func(depth int) {
		switch rng.Intn(4) {
		case 0: // a flood on one instant
			at := k.Now() + time.Duration(rng.Intn(50))*time.Millisecond
			for n := 1 + rng.Intn(2*runCap); n > 0; n-- {
				k.At(at, event(depth))
			}
		case 1: // far out, behind everything else
			k.Schedule(time.Duration(1+rng.Intn(100))*time.Second, event(depth))
		case 2:
			k.Schedule(0, event(depth))
		default:
			k.Schedule(time.Duration(rng.Intn(5000))*time.Microsecond, event(depth))
		}
	}
	for i := 0; i < 40; i++ {
		schedule(0)
	}
	k.Run(0)
	for i, l := range looks {
		want := look{}
		if i+1 < len(fired) {
			want = look{fired[i+1].at, true}
		}
		if l != want {
			t.Fatalf("seed %d, %v queue: the peek in event %d read (%v, %v), the next event ran at %v", seed, k.Queue(), i, l.at, l.ok, want.at)
		}
	}
	return fired, fromHeap
}

// TestKernelPeek: on both queue kinds Peek reads the instant of the event
// Run takes next — from a sorted run, from the heap behind a drained run,
// and from the heap alone — reports an empty queue as such, and reorders
// nothing: a peeked schedule fires as the unpeeked one does.
func TestKernelPeek(t *testing.T) {
	fromHeap := map[QueueKind]int{}
	for _, q := range []QueueKind{QueueCalendar, QueueHeap} {
		k := NewKernelWith(q)
		if at, ok := k.Peek(); ok || at != 0 {
			t.Errorf("%v: an empty kernel peeks (%v, %v), want (0, false)", q, at, ok)
		}
		k.Schedule(3*time.Second, func() {})
		k.Schedule(time.Second, func() {})
		if at, ok := k.Peek(); !ok || at != time.Second {
			t.Errorf("%v: peeks (%v, %v) before the run, want (1s, true)", q, at, ok)
		}
		k.Run(2 * time.Second)
		if at, ok := k.Peek(); !ok || at != 3*time.Second {
			t.Errorf("%v: peeks (%v, %v) after a bounded run, want (3s, true)", q, at, ok)
		}
		k.Run(0)
		if at, ok := k.Peek(); ok || at != 0 {
			t.Errorf("%v: a drained kernel peeks (%v, %v), want (0, false)", q, at, ok)
		}
		for seed := int64(1); seed <= 20; seed++ {
			k.Reset()
			peeked, n := peekSchedule(t, k, seed, true)
			k.Reset()
			plain, _ := peekSchedule(t, k, seed, false)
			diffStamps(t, fmt.Sprintf("%v queue, seed %d, peeked vs not", q, seed), peeked, plain)
			fromHeap[q] += n
		}
	}
	if fromHeap[QueueCalendar] == 0 || fromHeap[QueueHeap] == 0 {
		t.Errorf("peeks behind an empty run: %d on the default queue, %d on the heap: the schedules never reach the heap", fromHeap[QueueCalendar], fromHeap[QueueHeap])
	}
}

// TestKernelPeekZeroAlloc pins Peek at zero allocations on a queue that holds
// events in both the run and the heap.
func TestKernelPeekZeroAlloc(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 2*runCap; i++ {
		k.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	var sum Time
	peek := func() {
		at, _ := k.Peek()
		sum += at
	}
	if allocs := testing.AllocsPerRun(100, peek); allocs != 0 {
		t.Errorf("Peek allocs = %v, want 0", allocs)
	}
	if len(k.heap) == 0 || sum != 0 {
		t.Errorf("heap holds %d events, peeks summed to %v: want a spilled queue whose earliest event is at 0", len(k.heap), sum)
	}
}
