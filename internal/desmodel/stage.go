package desmodel

import (
	"errors"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// Reached by a bug only; checked on every pop.
var (
	errRingEmpty = errors.New("desmodel: pop from an empty ring")
	errNotDue    = errors.New("desmodel: a stage fired for a request that is not due")
)

// ring is a FIFO on a power-of-two ring that doubles when full, so a stage
// that never drains holds its peak occupancy, not its history, and a popped
// entry is no longer reachable from it.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest entry
	n    int
}

// reqRing is the FIFO of a gate or a backlog.
type reqRing = ring[*Req]

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow is out of line so its allocation sits in no //first:hotpath body.
//
//go:noinline
func (q *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (q *ring[T]) pop() T {
	if q.n == 0 {
		panic(errRingEmpty)
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// pipe is a FIFO server of constant cost, then a constant delay: a request
// pushed at t leaves the server at S = max(t, previous S) + cost and is
// handed to out at S + delay. It keeps one kernel event queued, its head's:
// push reserves the number a Schedule would have taken and queues popFn only
// into an empty pipe, and pop queues the next head under its number before
// handing its own on. With no cost every hand-off thus runs at the (time,
// seq) an event per request would have. The lane → pipe chain numbered a
// costed hand-off at S: an event booked between push and S for its
// nanosecond now runs after it (TestPipeForeignTie).
type pipe struct {
	k           *sim.Kernel
	cost, delay time.Duration
	last        sim.Time // when the newest request leaves the server
	q           ring[pipeSlot]
	out         func(*Req)
	popFn       func()
}

// pipeSlot is a request riding a pipe or a shard stage and the sequence
// number its hand-off is queued under.
type pipeSlot struct {
	r   *Req
	seq uint64
}

// init wires a pipe where it lies, for an owner that holds it by value.
func (p *pipe) init(k *sim.Kernel, cost, delay time.Duration, out func(*Req)) {
	// The kernel clamps a negative delay to zero; so must the due instant.
	*p = pipe{k: k, cost: max(cost, 0), delay: max(delay, 0), out: out}
	p.popFn = p.pop
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (p *pipe) push(r *Req) {
	p.last = max(p.k.Now(), p.last) + p.cost
	r.due = p.last + p.delay
	seq := p.k.Reserve()
	p.q.push(pipeSlot{r, seq})
	if p.q.n == 1 {
		p.k.AtSeq(r.due, seq, p.popFn)
	}
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (p *pipe) pop() {
	r := p.q.pop().r
	if r.due != p.k.Now() {
		panic(errNotDue)
	}
	if p.q.n > 0 {
		next := p.q.buf[p.q.head]
		p.k.AtSeq(next.r.due, next.seq, p.popFn)
	}
	p.out(r)
}

// gate is a constant delay, then a FIFO server of constant cost: a request
// pushed at t is handed to out at D = max(t+delay, previous D) + cost. It
// keeps one kernel event queued, its head's, booked as the request becomes
// the head: on push into an empty gate, else at the previous departure after
// that request is handed on, where the delay → lane chain booked it behind a
// busy server. The chain numbered an idle server's departure as the request
// reached it, at t+delay: an event booked between the gate's booking and
// then for the departure's nanosecond now runs after it (TestGateForeignTie).
type gate struct {
	k           *sim.Kernel
	delay, cost time.Duration
	last        sim.Time // the newest request's departure
	q           reqRing
	out         func(*Req)
	popFn       func()
}

// init wires a gate where it lies, for an owner that holds it by value.
func (g *gate) init(k *sim.Kernel, delay, cost time.Duration, out func(*Req)) {
	*g = gate{k: k, delay: max(delay, 0), cost: max(cost, 0), out: out}
	g.popFn = g.pop
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (g *gate) push(r *Req) {
	now := g.k.Now()
	g.last = max(now+g.delay, g.last) + g.cost
	r.due = g.last
	g.q.push(r)
	if g.q.n == 1 {
		g.k.At(r.due, g.popFn)
	}
}

// pop hands the head on, then books the next; a push from out into the
// emptied gate books its own.
//
//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (g *gate) pop() {
	r := g.q.pop()
	if r.due != g.k.Now() {
		panic(errNotDue)
	}
	waiting := g.q.n
	g.out(r)
	if waiting > 0 {
		g.k.At(g.q.buf[g.q.head].due, g.popFn)
	}
}
