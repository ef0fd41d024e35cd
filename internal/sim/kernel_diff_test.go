package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// recordingKernel drives k with a deterministic random schedule derived from
// seed and returns the full (time, id) execution order. The workload mixes
// the shapes the experiment suite produces: same-instant floods, near-uniform
// gaps, far-future events (overflow territory), nested scheduling from
// callbacks, and partial bounded runs with late inserts between them.
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
		case 2: // far future (calendar overflow)
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
	// Bounded runs with inserts in between: the cursor runs ahead to the
	// next pending event, then a later insert lands behind it.
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
// property test: the calendar queue and the 4-ary heap reference must
// produce the exact same execution order (same events, same virtual times)
// for arbitrary schedules — the strict (time, seq) determinism contract.
func TestKernelCalendarMatchesHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cal := recordingKernel(NewKernelWith(QueueCalendar), seed)
		heap := recordingKernel(NewKernelWith(QueueHeap), seed)
		if len(cal) != len(heap) {
			t.Fatalf("seed %d: calendar fired %d events, heap %d", seed, len(cal), len(heap))
		}
		for i := range cal {
			if cal[i] != heap[i] {
				t.Fatalf("seed %d: execution diverges at event %d: calendar %+v, heap %+v",
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

// TestKernelBatchedSameInstantDispatch checks the batch loop picks up events
// a callback schedules for the current instant, in sequence order, within the
// same dispatch.
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
// fleet-cell recycling pattern) must reuse every bucket's backing array, the
// overflow heap, and the rehash scratch without growing any of them.
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
	cell(8 * depth) // grow buckets, overflow heap, and scratch to steady state
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

// diffStamps fails the test at the first position where the calendar and
// heap kernels' execution orders part.
func diffStamps(t *testing.T, what string, cal, heap []stamp) {
	t.Helper()
	if len(cal) != len(heap) {
		t.Fatalf("%s: calendar fired %d events, heap %d", what, len(cal), len(heap))
	}
	for i := range cal {
		if cal[i] != heap[i] {
			t.Fatalf("%s: execution diverges at event %d: calendar %+v, heap %+v", what, i, cal[i], heap[i])
		}
	}
}

// landsAheadOfTail reports (white box) whether an event scheduled now for
// time at would enter a ring bucket ahead of that bucket's last event — the
// insert the calendar queue has to place rather than append. Always false on
// the heap kernel.
func landsAheadOfTail(k *Kernel, at Time) bool {
	c := &k.cal
	if k.useHeap || c.buckets == nil || c.hasOne {
		return false
	}
	s := c.slotOf(at)
	if s >= c.cur+uint64(len(c.buckets)) {
		return false // overflow heap
	}
	b := &c.buckets[int(s)&(len(c.buckets)-1)]
	return len(b.ev) > b.head && at < b.ev[len(b.ev)-1].at
}

// stretched drives the des-autoscale regime: a few anchors 10²–10³ s out
// (walltime expiries) and a score of timers 1–60 s out (scaler ticks, cold
// starts), all re-arming themselves, hold the bucket width at tens of
// seconds, so the chains' µs–ms re-arms all share the cursor's bucket — fewer
// than the 32 that would narrow it — and mostly land ahead of its tail.
// Chains fire in bursts; a timer that fires into a quiet kernel starts the
// next one, so the cursor also jumps idle gaps between bursts. Every closure
// is built once: a run allocates nothing unless fired records.
type stretched struct {
	k                   *Kernel
	rng                 *RNG
	chains, timers      []func()
	far                 int // timers[:far] are the anchors
	budget, perBurst    int // chain firings left in this burst / per burst
	bursts              int // bursts still to start
	active              int // chains with an event pending
	fired               func(who int)
	count               bool // tally inserts and how many land ahead of a tail
	inserts, disordered int
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

func (s *stretched) schedule(d time.Duration, fn func()) {
	if s.count {
		s.inserts++
		if landsAheadOfTail(s.k, s.k.Now()+d) {
			s.disordered++
		}
	}
	s.k.Schedule(d, fn)
}

func (s *stretched) armTimer(j int) {
	d := time.Duration(1+s.rng.Intn(60)) * time.Second
	if j < s.far {
		d = time.Duration(100+s.rng.Intn(900)) * time.Second
	}
	s.schedule(d, s.timers[j])
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
	s.schedule(d, s.chains[i])
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
// all in the cursor's bucket, thousands of inserts landing ahead of its tail.
func TestKernelStretchedMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		var inserts, disordered int
		play := func(q QueueKind) []stamp {
			k := NewKernelWith(q)
			s := newStretched(k, seed, 3+int(seed)%4, 20, 24)
			var log []stamp
			s.fired = func(who int) { log = append(log, stamp{k.Now(), who}) }
			s.count = q == QueueCalendar
			s.run(4, 3000)
			if s.count {
				inserts, disordered = s.inserts, s.disordered
			}
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
		// The shape must keep exercising the placing insert, or it tests nothing.
		if disordered*10 < inserts*3 {
			t.Fatalf("seed %d: %d of %d inserts landed ahead of a bucket tail, want ≥ 30 %%", seed, disordered, inserts)
		}
	}
}

// TestKernelLateInsertAheadOfFlood: 10⁴ events share one instant; bounded
// runs leave the cursor on their bucket, and later inserts belong ahead of
// them — in the same slot, and from one ring rotation earlier (the cursor
// backs up and the bucket holds two rotations, the earlier at its head).
func TestKernelLateInsertAheadOfFlood(t *testing.T) {
	const flood = 10000
	const at = time.Second
	// The ring 10⁴ events grow, at the width a same-instant flood never re-tunes.
	const rotation = Time(16384) << calInitShift
	play := func(q QueueKind) []stamp {
		k := NewKernelWith(q)
		var log []stamp
		next := 0
		rec := func() func() {
			who := next
			next++
			return func() { log = append(log, stamp{k.Now(), who}) }
		}
		for i := 0; i < flood; i++ {
			if i%1000 == 7 {
				// A few of the flood schedule more from inside the batch: the
				// same instant (joins the batch) and just behind it.
				who := next
				next++
				k.At(at, func() {
					log = append(log, stamp{k.Now(), who})
					k.Schedule(0, rec())
					k.Schedule(time.Microsecond, rec())
				})
				continue
			}
			k.At(at, rec())
		}
		k.Run(at / 2) // nothing due: the cursor rests on the flood's bucket
		cal := q == QueueCalendar
		var bucket *calBucket
		var curWas uint64
		if cal {
			c := &k.cal
			curWas = c.cur
			bucket = &c.buckets[int(c.slotOf(at))&(len(c.buckets)-1)]
			if live := len(bucket.ev) - bucket.head; curWas != c.slotOf(at) || live != flood {
				t.Fatalf("setup: cursor %d (flood's slot %d), %d live events in its bucket, want %d", curWas, c.slotOf(at), live, flood)
			}
		}
		// Same slot, earlier: the flood's slot starts 2560 ns before it at the
		// initial width, which a same-instant flood never re-tunes.
		k.At(at-time.Microsecond, rec())
		k.At(at-2*time.Microsecond, rec())
		// One rotation earlier: same bucket, the cursor must back up.
		k.At(at-rotation, rec())
		if cal {
			c := &k.cal
			head := bucket.ev[bucket.head].at
			if Time(len(c.buckets))<<c.shift != rotation || c.cur >= curWas ||
				c.slotOf(head) != c.cur || c.slotOf(bucket.ev[len(bucket.ev)-1].at) == c.cur {
				t.Fatalf("cursor %d → %d, bucket head at %v: want the cursor backed up onto an earlier rotation at the head of the flood's bucket", curWas, c.cur, head)
			}
		}
		k.Run(at - 1500*time.Nanosecond) // stops between the two same-slot inserts
		k.At(at-1200*time.Nanosecond, rec())
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
}

// TestKernelRehashUnderDisorder rebuilds the ring — grow, narrow, widen —
// while buckets hold events that arrived out of order: every rebuild has to
// carry the placed order over. White-box probes on the calendar side count
// the rebuilds, so the shape cannot stop reaching one unnoticed.
func TestKernelRehashUnderDisorder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var grows, narrows, widens int
		play := func(q QueueKind) []stamp {
			k := NewKernelWith(q)
			rng := NewRNG(seed)
			c := &k.cal
			var log []stamp
			next, disordered := 0, 0
			shift, buckets := c.shift, len(c.buckets)
			// observe attributes a change of ring geometry since the last look:
			// more buckets is a grow; otherwise, from inside an insert a
			// narrower width is a narrowing, and from the scan (between a pop
			// and the next callback) any change is a widening.
			observe := func(inserting bool) {
				switch {
				case len(c.buckets) > buckets && buckets > 0:
					grows++
				case disordered == 0: // nothing out of order was at stake
				case inserting && c.shift < shift:
					narrows++
				case !inserting && c.shift != shift:
					widens++
				}
				shift, buckets = c.shift, len(c.buckets)
			}
			var at func(t Time, spawn int)
			at = func(t Time, spawn int) {
				who := next
				next++
				if landsAheadOfTail(k, t) {
					disordered++
				}
				k.At(t, func() {
					observe(false)
					log = append(log, stamp{k.Now(), who})
					for i := 0; i < spawn; i++ {
						at(k.Now()+time.Duration(rng.Intn(50000)), 0)
					}
				})
				observe(true)
			}
			// Far anchors first: the first grow tunes the width to their span,
			// which packs the near cluster into one bucket until it narrows.
			for i := 0; i < 5; i++ {
				at(time.Duration(100+rng.Intn(400))*time.Second, 0)
			}
			// A near cluster in random order (it grows the ring twice and
			// narrows it after each), a second one 1.2 ms on — inside the
			// narrowed ring but hundreds of empty slots away, so the scan
			// widens — and a third past the first anchors, small enough not to
			// grow again.
			for _, cl := range []struct {
				base Time
				n    int
			}{{0, 700}, {1200 * time.Microsecond, 700}, {600 * time.Second, 300}} {
				for i := 0; i < cl.n; i++ {
					at(cl.base+time.Duration(rng.Intn(300000)), rng.Intn(4)/3)
				}
			}
			k.Run(0)
			if k.Pending() != 0 {
				t.Fatalf("seed %d %v: %d events left pending", seed, q, k.Pending())
			}
			return log
		}
		cal, heap := play(QueueCalendar), play(QueueHeap)
		diffStamps(t, fmt.Sprintf("seed %d", seed), cal, heap)
		if grows == 0 || narrows == 0 || widens == 0 {
			t.Fatalf("seed %d: %d grows, %d narrowings, %d widenings under disorder; want each at least once", seed, grows, narrows, widens)
		}
	}
}

// TestKernelStretchedZeroAlloc is TestKernelDeepQueueZeroAlloc for the
// stretched shape: a Reset kernel replaying it places thousands of inserts
// ahead of a bucket's tail and must not allocate doing so.
func TestKernelStretchedZeroAlloc(t *testing.T) {
	k := NewKernel()
	s := newStretched(k, 1, 4, 20, 24)
	cell := func() {
		k.Reset()
		s.rng.r.Seed(1) // the same schedule every time: no bucket sees a new high-water mark
		s.run(3, 2000)
	}
	cell() // grow the cursor bucket, overflow heap and scratch to steady state
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
