// Package sim provides a deterministic discrete-event simulation kernel used
// to regenerate the paper's evaluation on virtual time: events are ordered by
// (time, sequence number) so identical seeds always produce identical runs.
//
// The default event queue is a calendar queue (Brown 1988): a power-of-two
// ring of time buckets, each holding the events of one bucket-width slot of
// virtual time, kept sorted by (time, seq) at every insert — an in-order
// append is free, anything else is binary-searched into place — so the scan
// never sorts. For the near-uniform schedules the figure runs produce,
// Schedule and the next-event scan are O(1) amortized — versus O(log n) per
// event for a heap — and the bucket width and bucket count resize themselves
// from the observed event-time span; when a few far-out timers stretch that
// span and every live event shares the cursor's bucket (the federation
// runs), an insert degrades to the search plus one copy, never to a re-sort.
// Far-future events (beyond one full ring rotation) fall back to a sorted
// overflow structure, a 4-ary min-heap, and migrate into the ring as the
// scan cursor approaches their slot. The same heap doubles as the reference
// kernel (QueueHeap) for the differential determinism suite.
//
// Events live by value inside bucket slices and the heap's backing array, so
// Schedule performs no per-event allocation and no interface boxing; popped
// slots are recycled by later pushes, which keeps the Schedule/Run loop
// allocation-free at steady state (see TestKernelScheduleRunZeroAlloc).
//
// Run dispatches same-instant events as one batch: once the scan cursor
// lands on a bucket, every queued event carrying the same timestamp is
// executed from that bucket position without re-scanning the ring between
// callbacks — the saturated open-loop runs (all arrivals at t=0) hit this
// path hardest.
package sim

import (
	"fmt"
	"math"
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

// QueueKind selects the kernel's event-queue implementation.
type QueueKind int

const (
	// QueueCalendar is the default: O(1) amortized calendar queue with a
	// heap overflow for far-future events.
	QueueCalendar QueueKind = iota
	// QueueHeap is the 4-ary min-heap reference implementation, kept for
	// the differential determinism suite (both kinds must produce
	// byte-identical runs).
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

	// Processed counts executed events (for diagnostics and loop guards).
	Processed uint64
	// MaxEvents aborts the run if exceeded (guards against runaway models);
	// zero means no limit.
	MaxEvents uint64

	useHeap bool

	// heap is the 4-ary min-heap: the whole queue in QueueHeap mode, the
	// far-future overflow in calendar mode.
	heap []event

	cal calQueue
}

// NewKernel returns an empty calendar-queue kernel at time zero.
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
	ev := event{at: k.now + delay, seq: k.seq, fn: fn}
	if k.useHeap {
		k.heapPush(ev)
		return
	}
	k.calInsert(ev)
}

// At runs fn at absolute virtual time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) {
	k.Schedule(t-k.now, fn)
}

// Stop halts the run loop after the current event returns. A Stop issued
// while no run is active makes the next Run return immediately without
// executing anything; the flag is consumed by the Run it halts (or skips).
func (k *Kernel) Stop() { k.stopped = true }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int {
	n := k.cal.n + len(k.heap)
	if k.cal.hasOne {
		n++
	}
	return n
}

// Reset returns the kernel to its initial state (time zero, no events) while
// keeping the queue kind and the allocated bucket/heap capacity, so fleet
// arenas can recycle one kernel across experiment cells. Queued closures are
// released. MaxEvents is preserved (it is configuration, not run state).
//
//first:hotpath pinned by TestKernelStretchedZeroAlloc (kernel_diff_test.go)
func (k *Kernel) Reset() {
	k.now = 0
	k.seq = 0
	k.stopped = false
	k.Processed = 0
	for i := range k.heap {
		k.heap[i] = event{}
	}
	k.heap = k.heap[:0]
	k.cal.reset()
}

// Run executes events until the queue empties, Stop is called, or the next
// event would exceed until (until <= 0 means run to exhaustion). It returns
// the virtual time at which the run ended. Same-instant events are dispatched
// as one batch: the run loop drains every event carrying the current
// timestamp from its bucket before re-scanning the queue.
//
//first:hotpath pinned by TestKernelScheduleRunZeroAlloc (sim_test.go) and TestKernelDeepQueueZeroAlloc (kernel_diff_test.go)
func (k *Kernel) Run(until Time) Time {
	// A Stop issued before Run (previously lost — Run cleared the flag on
	// entry) skips the loop entirely; the flag is consumed either way.
	if !k.stopped {
		if k.useHeap {
			k.runHeap(until)
		} else {
			k.runCal(until)
		}
	}
	k.stopped = false
	if until > 0 && k.now < until && k.Pending() == 0 {
		k.now = until
	}
	return k.now
}

// runHeap is the reference-mode loop: one heap pop per event.
func (k *Kernel) runHeap(until Time) {
	for len(k.heap) > 0 && !k.stopped {
		if until > 0 && k.heap[0].at > until {
			k.now = until
			return
		}
		ev := k.heapPop()
		if ev.at > k.now {
			k.now = ev.at
		}
		k.Processed++
		if k.MaxEvents > 0 && k.Processed > k.MaxEvents {
			panic(fmt.Sprintf("sim: event budget exceeded (%d events at t=%v)", k.Processed, k.now))
		}
		ev.fn()
	}
}

// runCal is the calendar-mode loop: scan the ring for the earliest event,
// then dispatch every event carrying that timestamp as one batch.
func (k *Kernel) runCal(until Time) {
	c := &k.cal
	for !k.stopped {
		if c.hasOne {
			// Fast slot: the queue's only event, dispatched without touching
			// the ring. Its callback may schedule freely — new events land in
			// the ring (or back in the slot once it is free again).
			if until > 0 && c.one.at > until {
				k.now = until
				return
			}
			fn := c.one.fn
			if c.one.at > k.now {
				k.now = c.one.at
			}
			c.hasOne = false
			c.one.fn = nil
			k.Processed++
			if k.MaxEvents > 0 && k.Processed > k.MaxEvents {
				panic(fmt.Sprintf("sim: event budget exceeded (%d events at t=%v)", k.Processed, k.now))
			}
			fn()
			continue
		}
		if c.n == 0 && len(k.heap) == 0 {
			return
		}
		// Advance the cursor to the earliest event's bucket.
		scanned := 0
		var b *calBucket
		for {
			if c.n == 0 {
				c.cur = c.slotOf(k.heap[0].at) // ring empty: jump to the overflow's min
			}
			// Pull overflow events whose slot has entered the ring window.
			if len(k.heap) > 0 {
				limit := c.cur + uint64(len(c.buckets))
				for len(k.heap) > 0 && c.slotOf(k.heap[0].at) < limit {
					c.bucketInsert(k.heapPop())
				}
			}
			b = &c.buckets[int(c.cur)&(len(c.buckets)-1)]
			// The slot check skips entries of a later ring rotation (they
			// can appear after the cursor backs up for a late insert).
			if b.head < len(b.ev) && c.slotOf(b.ev[b.head].at) == c.cur {
				break
			}
			c.cur++
			if scanned++; scanned >= calMaxScan {
				// The width no longer matches the schedule (long idle gap,
				// or stale later-rotation entries): re-tune and land the
				// cursor directly on the earliest event.
				k.calRehash(rehashWiden, 0)
				scanned = 0
			}
		}
		at := b.ev[b.head].at
		if until > 0 && at > until {
			k.now = until
			return
		}
		if at > k.now {
			k.now = at
		}
		// Batched same-instant dispatch: every event at this timestamp sits
		// consecutively from the bucket head (same slot, sorted by seq), and
		// callbacks scheduling for the same instant land behind the batch in
		// sequence order, so re-reading the bucket picks them up without a
		// ring re-scan.
		for {
			fn := b.ev[b.head].fn
			b.ev[b.head].fn = nil // release the closure
			b.head++
			if b.head == len(b.ev) {
				b.ev = b.ev[:0]
				b.head = 0
			}
			c.n--
			k.Processed++
			if k.MaxEvents > 0 && k.Processed > k.MaxEvents {
				panic(fmt.Sprintf("sim: event budget exceeded (%d events at t=%v)", k.Processed, k.now))
			}
			fn()
			if k.stopped {
				return
			}
			// Re-derive the bucket: the callback may have scheduled into it
			// or rehashed the ring.
			b = &c.buckets[int(c.cur)&(len(c.buckets)-1)]
			if b.head >= len(b.ev) || b.ev[b.head].at != at {
				break
			}
		}
	}
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
