package sim

import (
	"math/bits"
	"slices"
)

// Calendar-queue tuning. The queue self-sizes from the observed schedule, so
// these only set the starting point and the re-tune triggers.
const (
	// calMinBuckets is the smallest ring; power of two so slot→bucket is a
	// mask.
	calMinBuckets = 64
	// calInitShift is the initial log2 bucket width (4096 ns) until the
	// first re-tune measures the real schedule.
	calInitShift = 12
	// calMaxShift caps the bucket width so slot arithmetic stays exact.
	calMaxShift = 55
	// calCrowdLen is the bucket occupancy above which an insert attempts a
	// width narrowing — at power-of-two occupancies only, so the first
	// attempt comes at 32 events and a same-instant flood costs O(log n)
	// attempts in total, not one per insert.
	calCrowdLen = 16
	// calMaxScan bounds empty slots scanned per pop before re-tuning the
	// width and jumping the cursor to the earliest event.
	calMaxScan = 256
)

// calBucket is one slot-width of the ring. Events are popped off the front
// by advancing head; the slice resets to [:0] when drained, so its backing
// array is recycled by later inserts (no per-event allocation at steady
// state).
//
// The live region is always sorted by (time, seq), so the scan reads the
// earliest event at head and order is paid for once, at insert: an append
// that lands in order — the common case, since sequence numbers only grow
// and near-uniform delays arrive in time order — costs nothing more; any
// other is moved to its place by placeAppended.
type calBucket struct {
	ev   []event // from head: sorted by (time, seq)
	head int
}

// placeAppended restores order after an out-of-order append at index i:
// binary search over the live region, then one copy.
func (b *calBucket) placeAppended(i int) {
	ev := b.ev[i]
	lo, hi := b.head, i-1 // ev sorts before b.ev[i-1]
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ev.before(&b.ev[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	copy(b.ev[lo+1:i+1], b.ev[lo:i])
	b.ev[lo] = ev
}

// calQueue is the bucketed ring. Far-future events (one full ring rotation
// or more ahead of the cursor) live in the owning Kernel's 4-ary heap and
// migrate in as the cursor approaches their slot.
//
// The `one` slot short-circuits the empty queue: an insert into a fully
// empty queue parks there and Run dispatches it without touching the ring —
// the ping-pong regime (one pending event, endemic in driver loops and the
// depth-1 micro-benchmark) never pays for bucket indexing. A second insert
// demotes the parked event into the ring and normal operation resumes, so
// hasOne always implies ring and overflow are empty.
type calQueue struct {
	buckets []calBucket
	shift   uint   // log2 bucket width in nanoseconds
	cur     uint64 // absolute slot index of the scan cursor
	n       int    // events resident in buckets
	one     event  // single-event fast slot
	hasOne  bool
	scratch []event
}

// slotOf maps a virtual time to its absolute slot index. Event times are
// never negative (delays clamp at zero), so the uint64 conversion is exact.
func (c *calQueue) slotOf(at Time) uint64 { return uint64(at) >> c.shift }

// reset drops all events, releasing their closures, but keeps the ring and
// every bucket's backing array for reuse.
func (c *calQueue) reset() {
	for i := range c.buckets {
		b := &c.buckets[i]
		for j := b.head; j < len(b.ev); j++ {
			b.ev[j] = event{}
		}
		b.ev = b.ev[:0]
		b.head = 0
	}
	c.cur = 0
	c.n = 0
	c.one = event{}
	c.hasOne = false
}

// bucketInsert places ev into its slot's bucket, which it returns.
func (c *calQueue) bucketInsert(ev event) *calBucket {
	b := &c.buckets[int(c.slotOf(ev.at))&(len(c.buckets)-1)]
	n := len(b.ev)
	b.ev = append(b.ev, ev)
	if n > b.head && ev.before(&b.ev[n-1]) {
		b.placeAppended(n)
	}
	c.n++
	return b
}

// calInsert parks the event in the fast slot when the queue is empty,
// otherwise routes it (and any parked event) into the ring.
func (k *Kernel) calInsert(ev event) {
	c := &k.cal
	if c.hasOne {
		c.hasOne = false
		one := c.one
		c.one.fn = nil
		k.calInsertRing(one)
	} else if c.n == 0 && len(k.heap) == 0 {
		c.one = ev
		c.hasOne = true
		return
	}
	k.calInsertRing(ev)
}

// calInsertRing routes a new event to the ring or the overflow heap and
// triggers re-tunes when the structure drifts from the schedule it serves.
func (k *Kernel) calInsertRing(ev event) {
	c := &k.cal
	if c.buckets == nil {
		c.buckets = make([]calBucket, calMinBuckets)
		c.shift = calInitShift
	}
	s := c.slotOf(ev.at)
	if s < c.cur || c.n == 0 && len(k.heap) == 0 {
		// Empty queue: jump the cursor over the idle gap. Or an
		// earlier-than-cursor event (the cursor ran ahead during a bounded
		// Run): back the cursor up so the scan revisits its slot — buckets
		// it passes may briefly hold events of a later ring rotation, which
		// the scan's slot check skips.
		c.cur = s
	}
	if s >= c.cur+uint64(len(c.buckets)) {
		k.heapPush(ev) // far future: a full ring rotation away or more
	} else {
		b := c.bucketInsert(ev)
		if occ := len(b.ev) - b.head; occ > calCrowdLen && occ&(occ-1) == 0 {
			k.calNarrow(b) // crowding: the local density outruns the width
			return
		}
	}
	if c.n+len(k.heap) > 2*len(c.buckets) {
		k.calRehash(rehashGrow, 0) // occupancy doubled: grow the ring
	}
}

// calNarrow re-tunes the width to a crowded bucket's local event density —
// the ladder-queue move for skewed schedules, where a dense near-future
// cluster and a sparse far tail make the global mean gap meaningless. The
// cluster spreads over fine buckets; far events spill to the overflow heap,
// which is what it is for.
func (k *Kernel) calNarrow(b *calBucket) {
	c := &k.cal
	live := b.ev[b.head:]
	lo, hi := live[0].at, live[len(live)-1].at // sorted: first and last
	if hi == lo {
		return // same-instant flood: no width separates it, batching eats it
	}
	w := uint64(hi-lo) / uint64(len(live)) * 2
	shift := uint(bits.Len64(w))
	if shift >= c.shift {
		return
	}
	k.calRehash(rehashNarrow, shift)
}

// rehashMode says how calRehash may move the bucket width.
type rehashMode int

const (
	// rehashGrow re-tunes the width freely from the global time span (the
	// population just doubled; re-measure everything).
	rehashGrow rehashMode = iota
	// rehashWiden only widens (the scan crossed too many empty slots:
	// events are sparser than the width assumes).
	rehashWiden
	// rehashNarrow applies the caller's precomputed narrower shift.
	rehashNarrow
)

// calRehash rebuilds the ring: bucket count sized to the population, width
// per mode, cursor on the earliest event. One sort of events gathered in
// sorted runs, plus O(buckets); triggered only when the structure has
// drifted, so the cost amortizes over the inserts and scans that caused it.
func (k *Kernel) calRehash(mode rehashMode, forcedShift uint) {
	c := &k.cal
	total := c.n + len(k.heap)
	if total == 0 {
		return
	}
	sc := c.scratch[:0]
	for i := range c.buckets {
		b := &c.buckets[i]
		sc = append(sc, b.ev[b.head:]...)
		for j := range b.ev {
			b.ev[j] = event{}
		}
		b.ev = b.ev[:0]
		b.head = 0
	}
	sc = append(sc, k.heap...)
	for i := range k.heap {
		k.heap[i] = event{}
	}
	k.heap = k.heap[:0]
	// One sort pays for the whole rebuild: the span is read off the ends, and
	// re-insertion below only ever appends to a bucket or to the heap's tail.
	slices.SortFunc(sc, func(x, y event) int {
		if x.before(&y) {
			return -1
		}
		return 1
	})
	minAt, maxAt := sc[0].at, sc[len(sc)-1].at
	// The ring only grows (high-water semantics, like the heap's backing
	// array): shrinking would discard every bucket's warmed backing array
	// and break the steady-state zero-allocation pin; a sparse wide ring
	// costs nothing once the cursor jump below lands on the earliest event.
	if nb := 1 << bits.Len(uint(total-1)); nb > len(c.buckets) {
		c.buckets = make([]calBucket, nb)
	}
	switch mode {
	case rehashNarrow:
		c.shift = forcedShift
	default:
		if span := maxAt - minAt; span > 0 {
			// Width = the power of two nearest 2× the mean event gap;
			// span == 0 (a same-instant flood) keeps the current width.
			w := uint64(span) / uint64(total) * 2
			shift := uint(bits.Len64(w))
			if shift > calMaxShift {
				shift = calMaxShift
			}
			if mode == rehashGrow || shift > c.shift {
				c.shift = shift
			}
		}
	}
	c.cur = c.slotOf(minAt)
	c.n = 0
	limit := c.cur + uint64(len(c.buckets))
	for _, ev := range sc {
		if c.slotOf(ev.at) >= limit {
			k.heapPush(ev)
		} else {
			c.bucketInsert(ev)
		}
	}
	for i := range sc {
		sc[i] = event{} // release closure references from the copy
	}
	c.scratch = sc[:0]
}
