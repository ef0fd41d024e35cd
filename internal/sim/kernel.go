// Package sim provides a deterministic discrete-event simulation kernel used
// to regenerate the paper's evaluation on virtual time: events are ordered by
// (time, sequence number) so identical seeds always produce identical runs.
//
// The default event queue is a short sorted run in front of a 4-ary min-heap.
// The run holds the earliest events, at most runCap of them, in descending
// order, so the next event is its last element and a pop shrinks the slice.
// An event later than the heap's minimum goes to the heap; any other is
// placed in the run by a scan from its earliest end, which shifts the events
// it passes. A run that overflows spills its later half to the heap, and an
// empty run refills from the heap, so every event in the run sorts before
// every event in the heap. The models keep one pending event per stage, not
// one per request in flight (see Reserve), so the run serves a few dozen
// events and the heap takes the far-out timers. QueueHeap sends every event
// through the heap alone: it is the reference the differential suite
// compares the default against.
//
// Reservation lets one event stand for a FIFO of them. Reserve hands out the
// sequence number a Schedule made now would take; AtSeq later queues an event
// under it, and that event sorts exactly where the Schedule would have put
// it. A constant-delay stage reserves a number for each request as it enters
// and keeps only its head's event queued: the (time, seq) order of a run, and
// so every result, is what it would be with one event per request.
//
// Events live by value in the run's and the heap's backing arrays, so
// Schedule performs no per-event allocation and no interface boxing; popped
// slots are recycled by later pushes, which keeps the Schedule/Run loop
// allocation-free at steady state (see TestKernelScheduleRunZeroAlloc).
package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Time is virtual simulation time measured from the start of the run.
type Time = time.Duration

// event is a scheduled callback, stored by value inside the kernel's queue.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (time, schedule order).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// runCap bounds the sorted run: an insert into it costs up to runCap shifts,
// and one that overflows it moves runCap/2 events to the heap.
const runCap = 64

// QueueKind selects the kernel's event-queue implementation.
type QueueKind int

const (
	// QueueCalendar is the default: the sorted run of at most runCap events
	// in front of the 4-ary heap. It keeps the name of the calendar queue it
	// replaced because the benchmark module selects it by that name.
	QueueCalendar QueueKind = iota
	// QueueHeap is the 4-ary min-heap alone, kept as the reference for the
	// differential determinism suite (both kinds must produce byte-identical
	// runs).
	QueueHeap
)

func (q QueueKind) String() string {
	if q == QueueHeap {
		return "heap"
	}
	return "calendar"
}

// Kernel is a single-threaded discrete-event scheduler.
type Kernel struct {
	now     Time
	seq     uint64
	stopped bool
	// running is the sequence number of the event being run, 0 outside Run.
	running uint64

	// Processed counts executed events (for diagnostics and loop guards).
	Processed uint64
	// MaxEvents aborts the run if exceeded (guards against runaway models);
	// zero means no limit.
	MaxEvents uint64

	useHeap bool

	// run holds the earliest events in descending (time, seq) order, the
	// next one last; it is always empty in QueueHeap mode.
	run []event
	// heap is the 4-ary min-heap of every later event.
	heap []event
}

// NewKernel returns an empty kernel on the default queue at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// NewKernelWith returns an empty kernel using the given queue kind.
func NewKernelWith(q QueueKind) *Kernel {
	return &Kernel{useHeap: q == QueueHeap}
}

// Queue reports the kernel's queue kind.
func (k *Kernel) Queue() QueueKind {
	if k.useHeap {
		return QueueHeap
	}
	return QueueCalendar
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Schedule runs fn after delay. Negative delays are clamped to zero (the
// event still sorts after already-scheduled events at the same instant).
//
//first:hotpath pinned by TestKernelScheduleRunZeroAlloc (sim_test.go) and TestKernelDeepQueueZeroAlloc (kernel_diff_test.go)
func (k *Kernel) Schedule(delay time.Duration, fn func()) {
	if fn == nil {
		return
	}
	if delay < 0 {
		delay = 0
	}
	k.seq++
	k.push(event{at: k.now + delay, seq: k.seq, fn: fn})
}

// At runs fn at absolute virtual time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) {
	k.Schedule(t-k.now, fn)
}

// Reserve hands out the sequence number a Schedule made now would take and
// consumes it, so later Schedules sort after it at the same instant.
//
//first:hotpath pinned by TestKernelAtSeqZeroAlloc (kernel_diff_test.go)
func (k *Kernel) Reserve() uint64 {
	k.seq++
	return k.seq
}

// AtSeq runs fn at absolute virtual time t under seq, a number Reserve has
// handed out since the last Reset: the event sorts exactly where a Schedule
// made at reservation time for t would have. It panics if seq was never
// handed out or if t is in the past. A number may queue several events at
// distinct instants; two under one number at one instant have no defined
// order, and the kernel does not check for that.
//
//first:hotpath pinned by TestKernelAtSeqZeroAlloc (kernel_diff_test.go)
func (k *Kernel) AtSeq(t Time, seq uint64, fn func()) {
	if seq == 0 || seq > k.seq {
		//firstlint:allow hotpath panic formatting
		panic(fmt.Sprintf("sim: AtSeq under sequence number %d, which was never reserved (last handed out: %d)", seq, k.seq))
	}
	if t < k.now {
		//firstlint:allow hotpath panic formatting
		panic(fmt.Sprintf("sim: AtSeq at %v, before now (%v)", t, k.now))
	}
	k.push(event{at: t, seq: seq, fn: fn})
}

// push queues ev: into the heap if it is later than the heap's minimum,
// otherwise into its place in the run, which spills its later half to the
// heap when it overflows.
//
//first:hotpath reached through the Schedule and AtSeq pins
func (k *Kernel) push(ev event) {
	if k.useHeap || len(k.heap) > 0 && k.heap[0].before(&ev) {
		k.heapPush(ev)
		return
	}
	// Open a slot at the end without writing it, shift up the events ev
	// sorts after as the scan from the earliest end passes them, and write
	// ev once.
	n := len(k.run)
	if n == cap(k.run) {
		k.run = append(k.run, event{})
	}
	k.run = k.run[:n+1]
	r := k.run
	i := n
	for i > 0 && r[i-1].before(&ev) {
		r[i] = r[i-1]
		i--
	}
	r[i] = ev
	if len(r) > runCap {
		half := len(r) / 2
		for _, late := range r[:half] {
			k.heapPush(late)
		}
		n := copy(r, r[half:])
		clear(r[n:])
		k.run = r[:n]
	}
}

// next returns the earliest queued event, refilling an empty run from the
// heap first, or nil when nothing is queued.
//
//first:hotpath reached through the Run pin
func (k *Kernel) next() *event {
	if len(k.run) == 0 {
		if len(k.heap) == 0 {
			return nil
		}
		if k.useHeap {
			return &k.heap[0]
		}
		for len(k.run) < runCap/2 && len(k.heap) > 0 {
			k.run = append(k.run, k.heapPop())
		}
		slices.Reverse(k.run)
	}
	return &k.run[len(k.run)-1]
}

// RunningSeq reports the sequence number of the event being run, or 0
// outside Run. A stage that stands in for events it never queues compares it
// with a number it reserved: a smaller one belongs to an event that runs
// before the reserved one, at the same instant.
func (k *Kernel) RunningSeq() uint64 { return k.running }

// Peek reports the instant of the earliest queued event, false when none is
// queued, and reorders nothing. During Run the running event is not queued.
//
//first:hotpath pinned by TestKernelPeekZeroAlloc (kernel_diff_test.go)
func (k *Kernel) Peek() (Time, bool) {
	if n := len(k.run); n > 0 {
		return k.run[n-1].at, true
	}
	if len(k.heap) > 0 {
		return k.heap[0].at, true
	}
	return 0, false
}

// Stop halts the run loop after the current event returns. A Stop issued
// while no run is active makes the next Run return immediately without
// executing anything; the flag is consumed by the Run it halts (or skips).
func (k *Kernel) Stop() { k.stopped = true }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.run) + len(k.heap) }

// Reset returns the kernel to its initial state (time zero, no events, no
// sequence number handed out) while keeping the queue kind and the allocated
// run and heap capacity, so fleet arenas can recycle one kernel across
// experiment cells. Queued closures are released. MaxEvents is preserved (it
// is configuration, not run state).
//
//first:hotpath pinned by TestKernelStretchedZeroAlloc (kernel_diff_test.go)
func (k *Kernel) Reset() {
	k.now = 0
	k.seq = 0
	k.stopped = false
	k.running = 0
	k.Processed = 0
	clear(k.run)
	k.run = k.run[:0]
	clear(k.heap)
	k.heap = k.heap[:0]
}

// Run executes events until the queue empties, Stop is called, or the next
// event would exceed until (until <= 0 means run to exhaustion). It returns
// the virtual time at which the run ended.
//
//first:hotpath pinned by TestKernelScheduleRunZeroAlloc (sim_test.go) and TestKernelDeepQueueZeroAlloc (kernel_diff_test.go)
func (k *Kernel) Run(until Time) Time {
	// A Stop issued before Run skips the loop; the flag is consumed either
	// way.
	for !k.stopped {
		ev := k.next()
		if ev == nil {
			break
		}
		if until > 0 && ev.at > until {
			k.now = until
			break
		}
		if ev.at > k.now {
			k.now = ev.at
		}
		fn := ev.fn
		k.running = ev.seq
		if n := len(k.run); n > 0 {
			k.run[n-1].fn = nil // release the closure
			k.run = k.run[:n-1]
		} else {
			k.heapPop()
		}
		k.Processed++
		if k.MaxEvents > 0 && k.Processed > k.MaxEvents {
			//firstlint:allow hotpath panic formatting
			panic(fmt.Sprintf("sim: event budget exceeded (%d events at t=%v)", k.Processed, k.now))
		}
		fn()
	}
	k.running = 0
	k.stopped = false
	if until > 0 && k.now < until && k.Pending() == 0 {
		k.now = until
	}
	return k.now
}

// Seconds converts a float seconds value to virtual time. Non-finite and
// out-of-range inputs clamp: NaN to zero, ±Inf (and magnitudes past 1e12
// seconds, which would overflow the nanosecond representation) to the
// largest safely addable positive/negative times.
func Seconds(s float64) Time {
	switch {
	case math.IsNaN(s):
		return 0
	case math.IsInf(s, 1) || s > 1e12:
		return math.MaxInt64 / 4
	case math.IsInf(s, -1) || s < -1e12:
		return -math.MaxInt64 / 4
	}
	return Time(s * float64(time.Second))
}

// Sec converts a virtual time to float seconds.
func Sec(t Time) float64 { return t.Seconds() }
