package desmodel

import (
	"reflect"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// TestReqRingWrapAndGrow interleaves pushes and pops so the ring wraps at
// every size it passes through and grows while wrapped: FIFO order must hold
// across both, and a drained ring must not keep its requests reachable.
func TestReqRingWrapAndGrow(t *testing.T) {
	var q reqRing
	reqs := make([]Req, 5000)
	rng := sim.NewRNG(7)
	pushed, popped := 0, 0
	for pushed < len(reqs) {
		for n := 1 + rng.Intn(40); n > 0 && pushed < len(reqs); n-- {
			q.push(&reqs[pushed])
			pushed++
		}
		for n := rng.Intn(30); n > 0 && q.n > 0; n-- {
			if got := q.pop(); got != &reqs[popped] {
				t.Fatalf("pop %d returned request %d", popped, got.ID)
			}
			popped++
		}
		if q.n != pushed-popped {
			t.Fatalf("n = %d with %d pushed and %d popped", q.n, pushed, popped)
		}
	}
	if len(q.buf) >= len(reqs) || len(q.buf)&(len(q.buf)-1) != 0 {
		t.Errorf("ring holds %d slots after a peak occupancy far below %d requests: want a power of two sized by the peak", len(q.buf), len(reqs))
	}
	for q.n > 0 {
		if got := q.pop(); got != &reqs[popped] {
			t.Fatalf("pop %d returned the wrong request", popped)
		}
		popped++
	}
	for i, r := range q.buf {
		if r != nil {
			t.Fatalf("slot %d of a drained ring still points at a request", i)
		}
	}
	defer func() {
		if recover() != errRingEmpty {
			t.Error("pop from an empty ring did not panic")
		}
	}()
	q.pop()
}

// TestStageStepsZeroAlloc carries one request through a lane and a pipe by
// calling each step the way the kernel does, and pins every step at zero
// allocations once the rings exist.
func TestStageStepsZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	delivered := 0
	p := newPipe(k, 0, func(*Req) { delivered++ })
	ln := newLane(k, time.Millisecond, p.push)
	var q reqRing
	r := &Req{}
	carry := func() {
		q.push(r)
		ln.enqueue(q.pop()) // idle lane: schedules serveFn
		ln.serve()          // takes r into service: schedules doneFn
		ln.done()           // hands r to the pipe, which schedules popFn; finds the queue empty
		p.pop()             // delay 0: r is due now
		k.Reset()           // the three events were run by hand
	}
	carry()
	if allocs := testing.AllocsPerRun(200, carry); allocs != 0 {
		t.Errorf("lane + pipe + ring steps allocs = %v, want 0", allocs)
	}
	if delivered != 202 || ln.busy || ln.q.n != 0 || p.q.n != 0 {
		t.Errorf("delivered %d of 202, lane busy=%v depth=%d, pipe holds %d", delivered, ln.busy, ln.q.n, p.q.n)
	}
}

// TestSystemsCarryZeroAlloc carries pre-allocated requests through each
// warmed system, first arrival to done callback, at zero allocations: no
// stage of any modelled path allocates per request.
func TestSystemsCarryZeroAlloc(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	gpu := perfmodel.A100_40
	const n = 24
	reqs := make([]Req, n)
	for i := range reqs {
		reqs[i] = Req{ID: i + 1, PromptTok: 40 + i, OutputTok: 4 + i%5}
	}
	a, k := testArena(sim.QueueCalendar)
	completed := 0
	done := func(*Req) {
		if completed++; completed%n == 0 {
			k.Stop() // the federation's walltime timers stay pending
		}
	}
	pin := func(name string, sys interface{ Arrive(*Req) }) {
		t.Helper()
		cycle := func() {
			for i := range reqs {
				sys.Arrive(&reqs[i])
			}
			k.Run(0)
		}
		for i := 0; i < 40; i++ { // every calendar bucket and ring reaches its size
			cycle()
		}
		before := completed
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("%s: allocs per %d-request cycle = %v, want 0", name, n, allocs)
		}
		if completed-before != 51*n {
			t.Errorf("%s: %d completions over 51 cycles of %d", name, completed-before, n)
		}
	}

	// A window below the burst puts the backlog ring on the path, a second
	// instance the pick; the auth arm adds the limiter lane and its pipe.
	fp := DefaultFirstParams()
	fp.Window = 8
	first := NewFederationIn(a, FirstPathParams(fp, model, gpu, 2), done)
	fp.AuthIntrospect, fp.AuthRatePerSec = 50*time.Millisecond, 100
	firstAuth := NewFederationIn(a, FirstPathParams(fp, model, gpu, 1), done)
	for _, in := range append(first.clusters[0].deps[0].insts, firstAuth.clusters[0].deps[0].insts...) {
		in.eng.withoutEmitLog() // a hot instance's log grows by design
	}
	pin("FIRST path", first)
	if first.MaxBacklog() != n-8 {
		t.Errorf("FIRST path: backlog peaked at %d, want %d", first.MaxBacklog(), n-8)
	}
	if first.Arrivals() != first.Completions() || first.InFlight() != 0 {
		t.Errorf("FIRST path: %d arrivals, %d completions, %d in flight", first.Arrivals(), first.Completions(), first.InFlight())
	}
	pin("FIRST path with auth lane", firstAuth)

	pin("GatewayFE", NewGatewayFE(k, DefaultGatewayFEParams(4), done))

	direct := NewDirectSystemIn(a, DefaultDirectParams(), model, gpu, done)
	direct.engine.withoutEmitLog()
	pin("DirectSystem", direct)

	// No churn: one incarnation serves every cycle, so Arrive → shard lane →
	// PostWork pipe → route → offer → engine is the whole path.
	p := fedTestParams(2)
	p.ServeWalltime = 1000 * time.Hour
	fed := NewFederationIn(a, p, done)
	pin("Federation", fed)
	if fed.Arrivals() != fed.Completions() {
		t.Errorf("Federation: %d arrivals, %d completions", fed.Arrivals(), fed.Completions())
	}
}

// stageEvent is one line of the differential's log: what ran, for whom, when.
type stageEvent struct {
	what string
	id   int
	at   sim.Time
}

// runStageSchedule plays a random schedule against one implementation of a
// constant-delay stage (enter) and logs every delivery together with the
// competing events scheduled around it, in the order the kernel ran them.
// Pushes come in same-instant bursts from several driver events; competitors
// are scheduled with the stage's own delay before, between and after the
// pushes, so they tie with deliveries on the instant; every third request
// goes round a second time, entering from inside a delivery.
func runStageSchedule(q sim.QueueKind, seed int64, delay time.Duration, build func(k *sim.Kernel, out func(*Req)) (enter func(*Req))) []stageEvent {
	k := sim.NewKernelWith(q)
	rng := sim.NewRNG(seed)
	var log []stageEvent
	again := map[int]bool{}
	var enter func(*Req)
	enter = build(k, func(r *Req) {
		log = append(log, stageEvent{"deliver", r.ID, k.Now()})
		if r.ID%3 == 0 && !again[r.ID] {
			again[r.ID] = true
			enter(r)
		}
	})
	compete := func(id int) {
		k.Schedule(delay, func() { log = append(log, stageEvent{"other", id, k.Now()}) })
	}
	id := 0
	var at sim.Time
	for d := 0; d < 60; d++ {
		if rng.Intn(3) > 0 { // one driver in three shares the previous one's instant
			at += time.Duration(rng.Intn(4)) * delay / 2
			at += time.Duration(rng.Intn(3)) * time.Microsecond
		}
		burst := rng.Intn(5)
		k.Schedule(at, func() {
			compete(-id)
			for i := 0; i < burst; i++ {
				id++
				enter(&Req{ID: id})
				if i%2 == 0 {
					compete(-id)
				}
			}
		})
	}
	k.Run(0)
	return log
}

// TestPipeMatchesClosures is the differential behind replacing every
// `Schedule(delay, func() { next(r) })` with pipe.push(r): the same requests
// are delivered at the same instants in the same global order, ties with
// other events included, on both queue kinds.
func TestPipeMatchesClosures(t *testing.T) {
	deliveries := 0
	for _, q := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
		for _, delay := range []time.Duration{0, 1, 3 * time.Microsecond, 5 * time.Millisecond} {
			for seed := int64(1); seed <= 25; seed++ {
				closures := runStageSchedule(q, seed, delay, func(k *sim.Kernel, out func(*Req)) func(*Req) {
					return func(r *Req) { k.Schedule(delay, func() { out(r) }) }
				})
				piped := runStageSchedule(q, seed, delay, func(k *sim.Kernel, out func(*Req)) func(*Req) {
					return newPipe(k, delay, out).push
				})
				if !reflect.DeepEqual(closures, piped) {
					t.Fatalf("%v queue, delay %v, seed %d: pipe and closures diverge\nclosures: %v\npipe:     %v", q, delay, seed, closures, piped)
				}
				deliveries += len(piped)
			}
		}
	}
	if deliveries < 20000 {
		t.Errorf("the sweep logged %d events: the schedules are not exercising the stage", deliveries)
	}
}

// TestPipePopPanicsOnWrongDue tampers with a queued request's due instant:
// the firing meant for it must refuse to deliver.
func TestPipePopPanicsOnWrongDue(t *testing.T) {
	k := sim.NewKernel()
	p := newPipe(k, time.Second, func(*Req) { t.Error("delivered a request that was not due") })
	a, b := &Req{ID: 1}, &Req{ID: 2}
	p.push(a)
	p.push(b)
	a.due++
	defer func() {
		if r := recover(); r != errNotDue {
			t.Errorf("recovered %v, want the pipe's due-instant panic", r)
		}
	}()
	k.Run(0)
}

// TestArenaRecyclesEmitLogEmpty: the emission log a cell grew is handed to
// the next cell's engine emptied — capacity kept, nothing of the old cell
// readable through either engine — and then logs what a fresh one would.
func TestArenaRecyclesEmitLogEmpty(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	a := NewArena(sim.QueueCalendar)
	cell := func() (*EngineSim, int64) {
		k := a.Begin()
		e := a.EngineSimIn(model, perfmodel.A100_40, 0, func(*serving.Sequence) {})
		if got := e.EmittedBy(time.Hour); got != 0 || len(e.emitLog) != 0 {
			t.Fatalf("a fresh EngineSimIn reports %d tokens emitted from %d log records", got, len(e.emitLog))
		}
		for i := 0; i < 20; i++ {
			e.Submit(64, 40+i, nil)
		}
		k.Run(0)
		return e, e.EmittedBy(k.Now())
	}
	first, emitted := cell()
	if emitted == 0 {
		t.Fatal("the first cell emitted nothing")
	}
	grown := cap(first.emitLog)
	second, again := cell()
	if first.emitLog != nil || first.EmittedBy(time.Hour) != 0 {
		t.Error("the previous cell's engine still reads its log after Begin")
	}
	if cap(second.emitLog) != grown {
		t.Errorf("the second cell's log has capacity %d, want the %d the first grew", cap(second.emitLog), grown)
	}
	if again != emitted {
		t.Errorf("the same cell on a recycled log emitted %d tokens, %d on a fresh one", again, emitted)
	}
}
