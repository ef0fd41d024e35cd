package desmodel

import (
	"errors"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// Reached by a bug only; checked on every pop.
var (
	errRingEmpty = errors.New("desmodel: pop from an empty ring")
	errNotDue    = errors.New("desmodel: a pipe fired for a request that is not due")
)

// ring is a FIFO on a power-of-two ring that doubles when full, so a stage
// that never drains holds its peak occupancy, not its history, and a popped
// entry is no longer reachable from it.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest entry
	n    int
}

// reqRing is the FIFO of a lane or a backlog.
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

// lane is a serialized single-server queue: every request charges `cost`
// before it is handed to out. It models the hub's routing and relay lanes,
// the gateway's auth limiter, and the direct path's single-threaded API
// admission (the gateway's shard locks are lanes folded into the stage
// after them: feShard, gatewayfe.go).
//
// The service loop runs on two method values bound once at construction
// (serveFn, doneFn) with the in-service request parked on the struct, so a
// lane schedules no fresh closure per request — at hub saturation the lanes
// are the kernel's densest event source.
type lane struct {
	k    *sim.Kernel
	cost time.Duration
	busy bool

	q         reqRing
	inService *Req
	out       func(*Req)
	serveFn   func()
	doneFn    func()
}

func newLane(k *sim.Kernel, cost time.Duration, out func(*Req)) *lane {
	l := new(lane)
	l.init(k, cost, out)
	return l
}

// init wires a lane where it lies, for an owner that holds it by value.
func (l *lane) init(k *sim.Kernel, cost time.Duration, out func(*Req)) {
	*l = lane{k: k, cost: cost, out: out}
	l.serveFn = l.serve
	l.doneFn = l.done
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (l *lane) enqueue(r *Req) {
	l.q.push(r)
	if !l.busy {
		l.busy = true
		l.k.Schedule(0, l.serveFn)
	}
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (l *lane) serve() {
	if l.q.n == 0 {
		l.busy = false
		return
	}
	l.inService = l.q.pop()
	l.k.Schedule(l.cost, l.doneFn)
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (l *lane) done() {
	r := l.inService
	l.inService = nil
	l.out(r)
	l.serve()
}

// pipe is a constant-delay stage: a request pushed at t is handed to out at
// t+delay. The delay is constant, so requests leave in the order they came,
// and the pipe keeps one kernel event queued, its head's. push reserves the
// sequence number a Schedule would have taken and queues the one bound popFn
// only into an empty pipe; pop queues the next head's event under its number
// before handing its own request on. So every hand-off fires at the (time,
// seq) it would have had with an event per request, and pop verifies the
// instant against the one the request carries. A wait whose length differs
// per request is not FIFO: not a pipe.
type pipe struct {
	k     *sim.Kernel
	delay time.Duration
	q     ring[pipeSlot]
	out   func(*Req)
	popFn func()
}

// pipeSlot is a request riding a pipe or a shard stage and the sequence
// number its hand-off is queued under.
type pipeSlot struct {
	r   *Req
	seq uint64
}

func newPipe(k *sim.Kernel, delay time.Duration, out func(*Req)) *pipe {
	p := new(pipe)
	p.init(k, delay, out)
	return p
}

// init wires a pipe where it lies, for an owner that holds it by value.
func (p *pipe) init(k *sim.Kernel, delay time.Duration, out func(*Req)) {
	// The kernel clamps a negative delay to zero; so must the due instant.
	*p = pipe{k: k, delay: max(delay, 0), out: out}
	p.popFn = p.pop
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (p *pipe) push(r *Req) {
	r.due = p.k.Now() + p.delay
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
