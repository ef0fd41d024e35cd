package desmodel

import (
	"errors"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// Reached by a bug only; checked on every pop.
var (
	errRingEmpty = errors.New("desmodel: pop from an empty reqRing")
	errNotDue    = errors.New("desmodel: a pipe fired for a request that is not due")
)

// reqRing is a FIFO of requests on a power-of-two ring that doubles when
// full, so a stage that never drains holds its peak occupancy, not its
// history, and a popped request is no longer reachable from it.
type reqRing struct {
	buf  []*Req
	head int // index of the oldest entry
	n    int
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (q *reqRing) push(r *Req) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

// grow is out of line so its allocation sits in no //first:hotpath body.
//
//go:noinline
func (q *reqRing) grow() {
	buf := make([]*Req, max(8, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (q *reqRing) pop() *Req {
	if q.n == 0 {
		panic(errRingEmpty)
	}
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// lane is a serialized single-server queue: every request charges `cost`
// before it is handed to out. It models the hub's routing and relay lanes,
// the gateway's shard locks and auth limiter, and the direct path's
// single-threaded API admission.
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

	// depth diagnostics
	maxDepth int
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
	if l.q.n > l.maxDepth {
		l.maxDepth = l.q.n
	}
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
// t+delay. push schedules the one bound popFn; the delay is constant and the
// kernel orders events by (time, sequence number), so the k-th firing belongs
// to the k-th entrant, which pop verifies against the instant the request
// carries. A wait whose length differs per request is not FIFO: not a pipe.
type pipe struct {
	k     *sim.Kernel
	delay time.Duration
	q     reqRing
	out   func(*Req)
	popFn func()
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
	p.q.push(r)
	p.k.Schedule(p.delay, p.popFn)
}

//first:hotpath pinned by TestStageStepsZeroAlloc (stage_test.go)
func (p *pipe) pop() {
	r := p.q.pop()
	if r.due != p.k.Now() {
		panic(errNotDue)
	}
	p.out(r)
}
