package desmodel

import (
	"fmt"
	"reflect"
	"sort"
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

// TestStageStepsZeroAlloc carries one request through a gate and a pipe by
// calling each step the way the kernel does, and pins every step at zero
// allocations once the rings exist. Costs and delays are zero so every step
// is due at once; they change the arithmetic, not the path.
func TestStageStepsZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	delivered := 0
	p := newPipe(k, 0, 0, func(*Req) { delivered++ })
	var g gate
	g.init(k, 0, 0, p.push)
	var q reqRing
	r := &Req{}
	carry := func() {
		q.push(r)
		g.push(q.pop()) // empty gate: books r's departure, due now
		g.pop()         // hands r to the pipe, which books its hand-off; the gate is left empty
		p.pop()         // r is due now
		k.Reset()       // the two events were run by hand
	}
	carry()
	if allocs := testing.AllocsPerRun(200, carry); allocs != 0 {
		t.Errorf("gate + pipe + ring steps allocs = %v, want 0", allocs)
	}
	if delivered != 202 || g.q.n != 0 || p.q.n != 0 {
		t.Errorf("delivered %d of 202, gate holds %d, pipe holds %d", delivered, g.q.n, p.q.n)
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
		for i := 0; i < 40; i++ { // the kernel queue and every ring reach their size
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
	// instance the pick; the auth arm adds the limiter and introspection
	// pipe in front of the dispatch gate.
	fp := DefaultFirstParams()
	fp.Window = 8
	first := NewFederationIn(a, FirstPathParams(fp, model, gpu, 2), done)
	fp.AuthIntrospect, fp.AuthRatePerSec = 50*time.Millisecond, 100
	firstAuth := NewFederationIn(a, FirstPathParams(fp, model, gpu, 1), done)
	for _, sys := range []*Federation{first, firstAuth} {
		for _, in := range sys.clusters[0].deps[0].pool.Members() {
			in.eng.withoutEmitLog() // a hot instance's log grows by design
		}
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

	// vLLM-Direct: an unlimited window, a gate with no delay in front of its
	// admission cost, and a relay pipe with no cost.
	direct := NewFederationIn(a, FirstPathParams(VLLMDirectParams(), model, gpu, 1), done)
	direct.clusters[0].deps[0].pool.Members()[0].eng.withoutEmitLog()
	pin("vLLM-Direct", direct)

	// No churn: one incarnation serves every cycle, so Arrive → shard stage
	// → route → offer → engine is the whole path.
	p := fedTestParams(2)
	p.ServeWalltime = 1000 * time.Hour
	fed := NewFederationIn(a, p, done)
	pin("Federation", fed)
	if fed.Arrivals() != fed.Completions() {
		t.Errorf("Federation: %d arrivals, %d completions", fed.Arrivals(), fed.Completions())
	}
}

// stageEvent is one line of the differential's log: what ran, for whom, when,
// and, for a delivery, the request's admission stamp.
type stageEvent struct {
	what string
	id   int
	at   sim.Time
	gw   sim.Time
}

// stageDriver lays a schedule's driver events on k before the run: each
// calls issue once per request it brings and compete around them. Calls made
// by the driver itself, outside any event, issue before the run starts.
type stageDriver func(k *sim.Kernel, rng *sim.RNG, issue, compete func())

// runStageSchedule plays a driver's schedule against one implementation of a
// stage (enter) and logs every delivery together with the competing events
// scheduled around it, in the order the kernel ran them. Competitors are
// scheduled with the stage's own delay, so they tie with deliveries on the
// instant; with reenter, every third request goes round a second time,
// entering from inside a delivery.
func runStageSchedule(q sim.QueueKind, seed int64, delay time.Duration, drive stageDriver, reenter bool, build func(k *sim.Kernel, out func(*Req)) (enter func(*Req))) []stageEvent {
	k := sim.NewKernelWith(q)
	rng := sim.NewRNG(seed)
	var log []stageEvent
	again := map[int]bool{}
	var enter func(*Req)
	enter = build(k, func(r *Req) {
		log = append(log, stageEvent{"deliver", r.ID, k.Now(), r.GatewayAt})
		if reenter && r.ID%3 == 0 && !again[r.ID] {
			again[r.ID] = true
			enter(r)
		}
	})
	id := 0
	drive(k, rng, func() {
		id++
		enter(&Req{ID: id})
	}, func() {
		other := -id
		k.Schedule(delay, func() { log = append(log, stageEvent{"other", other, k.Now(), 0}) })
	})
	k.Run(0)
	return log
}

// bursts is 60 driver events, one in three on the previous one's instant,
// the rest stepped by multiples of half the stage's delay plus whole
// microseconds, each pushing a burst of fewer than burst requests.
func bursts(delay time.Duration, burst int) stageDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue, compete func()) {
		var at sim.Time
		for d := 0; d < 60; d++ {
			if rng.Intn(3) > 0 {
				at += time.Duration(rng.Intn(4)) * delay / 2
				at += time.Duration(rng.Intn(3)) * time.Microsecond
			}
			n := rng.Intn(burst)
			k.Schedule(at, func() {
				compete()
				for i := 0; i < n; i++ {
					issue()
					if i%2 == 0 {
						compete()
					}
				}
			})
		}
	}
}

// TestPipeMatchesClosures is the differential behind replacing every
// `Schedule(delay, func() { next(r) })` with pipe.push(r): the same requests
// are delivered at the same instants in the same global order, ties with
// other events included, on both queue kinds. The last case holds more than
// the kernel's sorted run (64 events) in flight at delay 0: one pipe event
// stands for bursts of up to 150 requests that the closures queue one by one.
func TestPipeMatchesClosures(t *testing.T) {
	deliveries := 0
	for _, q := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
		for _, c := range []struct {
			delay time.Duration
			burst int
		}{{0, 5}, {1, 5}, {3 * time.Microsecond, 5}, {5 * time.Millisecond, 5}, {0, 150}} {
			for seed := int64(1); seed <= 25; seed++ {
				closures := runStageSchedule(q, seed, c.delay, bursts(c.delay, c.burst), true, func(k *sim.Kernel, out func(*Req)) func(*Req) {
					return func(r *Req) { k.Schedule(c.delay, func() { out(r) }) }
				})
				piped := runStageSchedule(q, seed, c.delay, bursts(c.delay, c.burst), true, func(k *sim.Kernel, out func(*Req)) func(*Req) {
					return newPipe(k, 0, c.delay, out).push
				})
				if !reflect.DeepEqual(closures, piped) {
					t.Fatalf("%v queue, delay %v, bursts below %d, seed %d: pipe and closures diverge\nclosures: %v\npipe:     %v", q, c.delay, c.burst, seed, closures, piped)
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
	p := newPipe(k, 0, time.Second, func(*Req) { t.Error("delivered a request that was not due") })
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
		e := a.EngineSimIn(model, perfmodel.A100_40, func(*serving.Sequence) {})
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

func newPipe(k *sim.Kernel, cost, delay time.Duration, out func(*Req)) *pipe {
	p := new(pipe)
	p.init(k, cost, delay, out)
	return p
}

// lane is the serialized single-server queue the stages replaced, kept as
// the differentials' reference: every request charges `cost` before it is
// handed to out. An idle lane books a serve event on enqueue; serve books
// the done event a cost later, and done hands the request on and serves the
// next.
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
	l := &lane{k: k, cost: cost, out: out}
	l.serveFn = l.serve
	l.doneFn = l.done
	return l
}

func (l *lane) enqueue(r *Req) {
	l.q.push(r)
	if !l.busy {
		l.busy = true
		l.k.Schedule(0, l.serveFn)
	}
}

func (l *lane) serve() {
	if l.q.n == 0 {
		l.busy = false
		return
	}
	l.inService = l.q.pop()
	l.k.Schedule(l.cost, l.doneFn)
}

func (l *lane) done() {
	r := l.inService
	l.inService = nil
	l.out(r)
	l.serve()
}

// lanePipeFE is the shard front-end as it was before it became one stage,
// kept as the differential's reference: per shard a lane charging crit,
// whose leaving request is stamped admitted and pushed into one pipe of
// delay post that serves every shard. peak reports the deepest lane ring.
func lanePipeFE(k *sim.Kernel, shards int, crit, post time.Duration, out func(*Req)) (admit func(*Req), peak func() int) {
	n := 1
	for n < shards {
		n <<= 1
	}
	p := newPipe(k, 0, post, out)
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = newLane(k, crit, func(r *Req) {
			r.GatewayAt = k.Now()
			p.push(r)
		})
	}
	deepest := 0
	admit = func(r *Req) {
		ln := lanes[splitmix64(uint64(r.ID))&uint64(n-1)]
		ln.enqueue(r)
		deepest = max(deepest, ln.q.n)
	}
	return admit, func() int { return deepest }
}

// shardScheduleReqs is how many requests each front-end schedule issues.
const shardScheduleReqs = 240

// poissonArrivals chains arrivals one per event, each booking the next an
// exponential gap later.
func poissonArrivals(gap time.Duration) stageDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue, compete func()) {
		left := shardScheduleReqs
		var step func()
		step = func() {
			issue()
			if left--; left%7 == 0 {
				compete()
			}
			if left > 0 {
				k.Schedule(time.Duration(rng.Exp(float64(gap))), step)
			}
		}
		k.Schedule(time.Duration(rng.Exp(float64(gap))), step)
	}
}

// stormArrivals is the storm driver with zero gaps: each arrival books the
// next from inside itself, three in four on the same instant.
func stormArrivals(gap time.Duration) stageDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue, compete func()) {
		left := shardScheduleReqs
		var step func()
		step = func() {
			issue()
			if left--; left%5 == 0 {
				compete()
			}
			if left > 0 {
				d := time.Duration(0)
				if rng.Intn(4) == 0 {
					d = time.Duration(rng.Exp(float64(gap)))
				}
				k.Schedule(d, step)
			}
		}
		k.Schedule(0, step)
	}
}

// floodArrivals is the closed loop's start: two floods each issued inside
// one event, booked first, then a third of the requests issued before the
// run.
func floodArrivals(gap time.Duration) stageDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue, compete func()) {
		flood := func() {
			for i := 0; i < shardScheduleReqs/3; i++ {
				issue()
				if i%11 == 0 {
					compete()
				}
			}
		}
		k.Schedule(time.Duration(rng.Exp(float64(gap))), flood)
		k.Schedule(time.Duration(rng.Intn(3))*gap, flood)
		flood()
	}
}

// sameInstantArrivals books every request its own event ahead of the run
// (think-time issues), on a handful of shared instants.
func sameInstantArrivals(gap time.Duration) stageDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue, compete func()) {
		for i := 0; i < shardScheduleReqs; i++ {
			k.Schedule(time.Duration(rng.Intn(6))*gap, func() {
				issue()
				compete()
			})
		}
	}
}

// alignedArrivals books every request its own event ahead of the run on a
// multiple of unit, so busy periods start, and shards depart, in lockstep,
// and arrivals land on the exact instant of a departure.
func alignedArrivals(unit time.Duration) stageDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue, compete func()) {
		for i := 0; i < shardScheduleReqs; i++ {
			k.Schedule(time.Duration(rng.Intn(shardScheduleReqs/2))*unit, func() {
				if issue(); rng.Intn(4) == 0 {
					compete()
				}
			})
		}
	}
}

// deliveries drops the competitors from a log: they never touch the stage,
// and where one ties with a departure the two designs order them apart (see
// TestShardStageForeignTie).
func deliveries(log []stageEvent) []stageEvent {
	var out []stageEvent
	for _, e := range log {
		if e.what == "deliver" {
			out = append(out, e)
		}
	}
	return out
}

// TestShardStageMatchesLanePipe is the differential behind computing each
// departure at admission: over every schedule shape the front-end meets, the
// shard stage hands on the same requests at the same instants in the same
// order, with the same admission stamps, and reports the lanes' peak depth.
// Chained arrivals here average at least a microsecond apart and floods are
// booked before any busy period opens, so a foreign event seldom lands on a
// departure's nanosecond; the schedules built to do that are
// TestShardStageTiesMoveNoInstant's.
func TestShardStageMatchesLanePipe(t *testing.T) {
	shapes := []struct {
		name  string
		drive func(crit time.Duration) stageDriver
	}{
		{"poisson", func(c time.Duration) stageDriver { return poissonArrivals(c/2 + time.Microsecond) }},
		{"storm", func(c time.Duration) stageDriver { return stormArrivals(c/2 + time.Microsecond) }},
		{"flood", func(c time.Duration) stageDriver { return floodArrivals(c + time.Microsecond) }},
		{"same-instant", func(c time.Duration) stageDriver { return sameInstantArrivals(2*c + 1) }},
		{"aligned", func(c time.Duration) stageDriver { return alignedArrivals(max(c, 1)) }},
	}
	delivered, deep := 0, 0
	for _, q := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
		for _, crit := range []time.Duration{0, 1, 4 * time.Microsecond} {
			for _, post := range []time.Duration{0, 1, 25 * time.Microsecond} {
				for _, shards := range []int{1, 2, 16} {
					for _, sh := range shapes {
						for seed := int64(1); seed <= 25; seed++ {
							var chainPeak, stagePeak func() int
							chain := runStageSchedule(q, seed, crit+post, sh.drive(crit), false, func(k *sim.Kernel, out func(*Req)) func(*Req) {
								admit, peak := lanePipeFE(k, shards, crit, post, out)
								chainPeak = peak
								return admit
							})
							stage := runStageSchedule(q, seed, crit+post, sh.drive(crit), false, func(k *sim.Kernel, out func(*Req)) func(*Req) {
								fe := newShardFE(k, shards, crit, post, out)
								stagePeak = fe.peakShardQueue
								return fe.admit
							})
							want, got := deliveries(chain), deliveries(stage)
							if !reflect.DeepEqual(want, got) {
								t.Errorf("%v queue, %s, crit %v, post %v, %d shards, seed %d: stage and chain diverge\nchain: %v\nstage: %v", q, sh.name, crit, post, shards, seed, want, got)
							}
							if chainPeak() != stagePeak() {
								t.Errorf("%v queue, %s, crit %v, post %v, %d shards, seed %d: peak depth %d, the lanes reached %d", q, sh.name, crit, post, shards, seed, stagePeak(), chainPeak())
							}
							delivered += len(got)
							deep = max(deep, stagePeak())
						}
					}
				}
			}
		}
	}
	if delivered < 2*3*3*3*5*25*shardScheduleReqs || deep < shardScheduleReqs/3 {
		t.Errorf("the sweep delivered %d requests, deepest queue %d: the schedules are not exercising the stage", delivered, deep)
	}
}

// TestShardStageTiesMoveNoInstant plays the schedules that tie foreign
// events with departures on purpose — arrivals a nanosecond apart at a
// critical section of at most a nanosecond, and floods booked behind an
// open busy period — where the stage and the chain may order one instant's
// hand-ons differently (TestShardStageForeignTie). Every request still
// leaves at the same instant with the same admission stamp, and the stage
// never reports a deeper queue than the lanes reached.
func TestShardStageTiesMoveNoInstant(t *testing.T) {
	byInstant := func(log []stageEvent) []stageEvent {
		log = deliveries(log)
		sort.SliceStable(log, func(i, j int) bool {
			if log[i].at != log[j].at {
				return log[i].at < log[j].at
			}
			return log[i].id < log[j].id
		})
		return log
	}
	reordered := 0
	for _, crit := range []time.Duration{0, 1} {
		for _, shards := range []int{1, 2, 16} {
			for _, drive := range []stageDriver{poissonArrivals(1), stormArrivals(1), tiedFloods(crit + 1)} {
				for seed := int64(1); seed <= 25; seed++ {
					var chainPeak, stagePeak func() int
					chain := runStageSchedule(sim.QueueCalendar, seed, crit, drive, false, func(k *sim.Kernel, out func(*Req)) func(*Req) {
						admit, peak := lanePipeFE(k, shards, crit, 0, out)
						chainPeak = peak
						return admit
					})
					stage := runStageSchedule(sim.QueueCalendar, seed, crit, drive, false, func(k *sim.Kernel, out func(*Req)) func(*Req) {
						fe := newShardFE(k, shards, crit, 0, out)
						stagePeak = fe.peakShardQueue
						return fe.admit
					})
					if !reflect.DeepEqual(byInstant(chain), byInstant(stage)) {
						t.Fatalf("crit %v, %d shards, seed %d: a tie moved a request's instant or stamp", crit, shards, seed)
					}
					if stagePeak() > chainPeak() {
						t.Fatalf("crit %v, %d shards, seed %d: peak depth %d, the lanes reached only %d", crit, shards, seed, stagePeak(), chainPeak())
					}
					if !reflect.DeepEqual(deliveries(chain), deliveries(stage)) || stagePeak() != chainPeak() {
						reordered++
					}
				}
			}
		}
	}
	if reordered == 0 {
		t.Error("no schedule tied a foreign event with a departure: the sweep tests nothing")
	}
}

// tiedFloods issues a third of the requests before the run and then books
// two floods, each inside one event, while that busy period is open.
func tiedFloods(gap time.Duration) stageDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue, compete func()) {
		flood := func() {
			for i := 0; i < shardScheduleReqs/3; i++ {
				issue()
			}
		}
		flood()
		k.Schedule(time.Duration(rng.Intn(2))*gap, flood)
		k.Schedule(time.Duration(rng.Intn(40))*gap, flood)
	}
}

// TestShardStageForeignTie pins the one way the stage departs from the
// chain: a departure runs under its busy period's number, so an event booked
// during the busy period for the exact nanosecond of the hand-on now runs
// after it, where the chain, which booked the hand-on only at the departure,
// ran it first. An event booked before the busy period began keeps its place
// ahead of the hand-on in both.
func TestShardStageForeignTie(t *testing.T) {
	const crit, post = 4 * time.Microsecond, 25 * time.Microsecond
	run := func(build func(k *sim.Kernel, out func(*Req)) func(*Req)) []string {
		k := sim.NewKernel()
		var log []string
		note := func(what string) func() {
			return func() { log = append(log, fmt.Sprintf("%s at %v", what, k.Now())) }
		}
		admit := build(k, func(r *Req) { note(fmt.Sprintf("request %d (admitted %v)", r.ID, r.GatewayAt))() })
		k.Schedule(0, func() {
			k.Schedule(crit+post, note("booked before"))
			admit(&Req{ID: 1})
			k.Schedule(crit+post, note("booked during"))
		})
		k.Run(0)
		return log
	}
	chain := run(func(k *sim.Kernel, out func(*Req)) func(*Req) {
		admit, _ := lanePipeFE(k, 1, crit, post, out)
		return admit
	})
	stage := run(func(k *sim.Kernel, out func(*Req)) func(*Req) { return newShardFE(k, 1, crit, post, out).admit })
	wantChain := []string{"booked before at 29µs", "booked during at 29µs", "request 1 (admitted 4µs) at 29µs"}
	wantStage := []string{"booked before at 29µs", "request 1 (admitted 4µs) at 29µs", "booked during at 29µs"}
	if !reflect.DeepEqual(chain, wantChain) || !reflect.DeepEqual(stage, wantStage) {
		t.Errorf("chain ran %q, want %q\nstage ran %q, want %q", chain, wantChain, stage, wantStage)
	}
}

// TestShardStageDepth: requests admitted before the run wait behind an idle
// start whose service has not begun, so five of them make a backlog of five,
// as the lane's ring did; one service later the backlog is four.
func TestShardStageDepth(t *testing.T) {
	k := sim.NewKernel()
	fe := newShardFE(k, 1, time.Second, 0, func(*Req) {})
	for i := 1; i <= 5; i++ {
		fe.admit(&Req{ID: i})
	}
	k.Schedule(1500*time.Millisecond, func() { fe.admit(&Req{ID: 6}) })
	k.Run(0)
	if got := fe.peakShardQueue(); got != 5 {
		t.Errorf("peak depth = %d, want 5", got)
	}
	if s := &fe.shards[0]; s.admitted-s.started != 4 || s.q.n != 0 || s.last != 6*time.Second {
		t.Errorf("after the run: backlog %d at the last admission, %d held, last departure %v; want 4, 0, 6s", s.admitted-s.started, s.q.n, s.last)
	}
}

// TestShardFrontEndEventsPerRequest pins what the front-end costs the
// kernel: a request's arrival and its hand-on, and nothing else. On both
// arms of a 10⁴-user storm that is exactly two events per request; on a
// churn-free Federation it is two per request plus what the paths behind the
// front-end run (458 events here, the same as with the lane and pipe chain
// in its place). A stage that puts a hop back fails here.
func TestShardFrontEndEventsPerRequest(t *testing.T) {
	const users = 10_000
	for _, shards := range []int{1, 16} {
		k := sim.NewKernel()
		sys := NewGatewayFE(k, DefaultGatewayFEParams(shards), nil)
		rng := sim.NewRNG(3)
		issued := 0
		var step func()
		step = func() {
			issued++
			sys.Arrive(&Req{ID: issued})
			if issued < users {
				k.Schedule(time.Duration(rng.Exp(float64(time.Microsecond))), step)
			}
		}
		k.Schedule(0, step)
		k.Run(0)
		if k.Processed != 2*users {
			t.Errorf("storm, %d shards: %d events for %d requests, want exactly 2 per request", shards, k.Processed, users)
		}
	}

	const n = 3000
	a, k := testArena(sim.QueueCalendar)
	p := fedTestParams(2)
	p.ServeWalltime = 1000 * time.Hour
	completed := 0
	f := NewFederationIn(a, p, func(*Req) {
		if completed++; completed == n {
			k.Stop() // the pools' walltime timers stay pending
		}
	})
	issued := 0
	var step func()
	step = func() {
		issued++
		f.Arrive(&Req{ID: issued, Model: issued % 3, PromptTok: 100 + issued%50, OutputTok: 20 + issued%30})
		if issued < n {
			k.Schedule(2*time.Millisecond, step)
		}
	}
	k.Schedule(0, step)
	k.Run(0)
	if behind := uint64(458); completed != n || k.Processed != 2*n+behind {
		t.Errorf("churn-free Federation: %d of %d completed in %d events, want 2 per request + %d", completed, n, k.Processed, behind)
	}
}

// chainFabric is the fabric hop as it was before its stages booked each
// departure at admission, kept as the differential's reference:
//
//	[auth lane → auth pipe] → submit pipe → dispatch lane → route
//	served → relay lane → return pipe → back → observe pipe → done
//
// It returns the hop's entry and the relay's, where the engine hands a
// served request back.
func chainFabric(k *sim.Kernel, p FirstParams, route, back, done func(*Req)) (admit, served func(*Req)) {
	observe := newPipe(k, 0, 0, done)
	ret := newPipe(k, 0, p.ResultReturn, func(r *Req) {
		back(r)
		observe.push(r)
	})
	relay := newLane(k, p.HubRelayCost, ret.push)
	dispatch := newLane(k, p.HubDispatchCost, route)
	submit := newPipe(k, 0, p.GatewayOverhead+p.HubSubmit, dispatch.enqueue)
	admit = submit.push
	if p.AuthIntrospect > 0 {
		auth := newPipe(k, 0, p.AuthIntrospect, admit)
		admit = auth.push
		if p.AuthRatePerSec > 0 {
			admit = newLane(k, time.Duration(float64(time.Second)/p.AuthRatePerSec), auth.push).enqueue
		}
	}
	return admit, relay.enqueue
}

// stageFabric is the fabric hop under test, firstPath, with the same hooks:
// back runs as the relay hands a result to complete.
func stageFabric(k *sim.Kernel, p FirstParams, route, back, done func(*Req)) (admit, served func(*Req)) {
	fp := new(firstPath)
	fp.wire(k, p, route, done)
	complete := fp.relay.out
	fp.relay.out = func(r *Req) {
		back(r)
		complete(r)
	}
	return fp.arrive, fp.relay.push
}

// fabricBuild wires a fabric hop on k: its entry, and the relay's, where the
// engine hands a served request back. route, back and done are the hooks
// the log is written from.
type fabricBuild func(k *sim.Kernel, p FirstParams, route, back, done func(*Req)) (admit, served func(*Req))

// fabricDriver lays a schedule on k: issue admits one more request, other
// books a foreign event at an instant.
type fabricDriver func(k *sim.Kernel, rng *sim.RNG, issue func(), other func(at sim.Time))

// runFabricSchedule plays a driver against one fabric hop. Between route and
// the relay sits an engine stand-in that serves request i after a pickup and
// i%4 grid steps. Every third request that comes back is issued again, as
// a closed-loop client would. The log holds every route, engine, back (the
// relay's hand-off) and done hand-off and every foreign event, in the order
// the kernel ran them.
func runFabricSchedule(q sim.QueueKind, seed int64, p FirstParams, drive fabricDriver, build fabricBuild) []stageEvent {
	k := sim.NewKernelWith(q)
	rng := sim.NewRNG(seed)
	var log []stageEvent
	note := func(what string, id int) { log = append(log, stageEvent{what, id, k.Now(), 0}) }
	var admit, served func(*Req)
	id := 0
	issue := func() {
		id++
		admit(&Req{ID: id})
	}
	admit, served = build(k, p, func(r *Req) {
		note("route", r.ID)
		k.Schedule(p.EndpointPickup+time.Duration(r.ID%4)*fabricUnit, func() {
			note("engine", r.ID)
			served(r)
		})
	}, func(r *Req) {
		note("back", r.ID)
	}, func(r *Req) {
		note("done", r.ID)
		if r.ID%3 == 0 && id < 600 {
			issue()
		}
	})
	drive(k, rng, issue, func(at sim.Time) {
		k.At(at, func() { note("other", 0) })
	})
	k.Run(0)
	return log
}

// fabricConfigs are the fabric hops the differential plays: the paper's
// deployment, vLLM-Direct (no delay before the dispatch server, no relay
// cost), and every cost and delay on one 25 ms / 2 s grid, with the auth
// limiter in front or with no relay cost, so departures, pickups, results
// and foreign events fall on each other's nanoseconds.
func fabricConfigs() map[string]FirstParams {
	paper := DefaultFirstParams()
	paper.Window = 0 // the window is the same code on both sides
	grid := FirstParams{HubSubmit: 2 * time.Second, HubDispatchCost: fabricUnit, EndpointPickup: 2 * time.Second, HubRelayCost: fabricUnit, ResultReturn: 2 * time.Second}
	auth := grid
	auth.AuthIntrospect, auth.AuthRatePerSec = 2*time.Second, 40
	freeRelay := grid
	freeRelay.HubRelayCost = 0
	return map[string]FirstParams{"paper": paper, "vLLM-Direct": VLLMDirectParams(), "grid": grid, "grid+auth": auth, "grid, free relay": freeRelay}
}

// fabricUnit is the grid every schedule and the grid configurations step on.
const fabricUnit = 25 * time.Millisecond

// fabricBurst admits 50–200 requests at t = 0, before the run, and books
// 400 foreign events on the grid: before the run when early, else each from
// an event of its own on the grid.
func fabricBurst(early bool) fabricDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue func(), other func(sim.Time)) {
		if early {
			for i := 0; i < 400; i++ {
				other(time.Duration(rng.Intn(800)) * fabricUnit)
			}
		}
		for n := 50 + rng.Intn(150); n > 0; n-- {
			issue()
		}
		if !early {
			for i := 0; i < 400; i++ {
				at := time.Duration(rng.Intn(800)) * fabricUnit
				k.Schedule(time.Duration(rng.Intn(800))*fabricUnit, func() { other(k.Now() + at) })
			}
		}
	}
}

// fabricGrid admits 200 requests, each in an event of its own on the grid,
// and books a foreign event on the grid per request: before the run when
// early, else from inside the admitting event.
func fabricGrid(early bool) fabricDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue func(), other func(sim.Time)) {
		for i := 0; i < 200; i++ {
			at := time.Duration(rng.Intn(400)) * fabricUnit
			later := time.Duration(rng.Intn(400)) * fabricUnit
			if early {
				other(at + later)
			}
			k.Schedule(at, func() {
				issue()
				if !early {
					other(k.Now() + later)
				}
			})
		}
	}
}

// sweepFabric calls check once per schedule the fabric differentials play:
// both queue kinds × every configuration × both drivers × foreign events
// booked before or during the run × 20 seeds. play runs that schedule on a
// fabric hop.
func sweepFabric(check func(name string, play func(fabricBuild) []stageEvent, inRun bool)) {
	drivers := map[string]func(bool) fabricDriver{"burst": fabricBurst, "grid": fabricGrid}
	for _, q := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
		for cn, p := range fabricConfigs() {
			for dn, drive := range drivers {
				for _, early := range []bool{true, false} {
					for seed := int64(1); seed <= 20; seed++ {
						name := fmt.Sprintf("%v queue, %s, %s schedule, foreign events booked early %v, seed %d", q, cn, dn, early, seed)
						check(name, func(build fabricBuild) []stageEvent {
							return runFabricSchedule(q, seed, p, drive(early), build)
						}, !early)
					}
				}
			}
		}
	}
}

// splitBack takes a fabric log apart: the relay's hand-offs sorted by
// instant, and everything else in the order it ran, without the foreign
// events when inRun says they were booked during the run.
func splitBack(log []stageEvent, inRun bool) (back, rest []stageEvent) {
	for _, e := range log {
		switch {
		case e.what == "back":
			back = append(back, e)
		case e.what != "other" || !inRun:
			rest = append(rest, e)
		}
	}
	sort.SliceStable(back, func(i, j int) bool { return back[i].at < back[j].at })
	return back, rest
}

// TestFabricStagesMatchChain is the differential behind booking each of the
// fabric hop's departures as the request enters its stage: over every
// configuration and schedule shape, on both queue kinds, firstPath routes,
// serves and completes the same requests at the same instants in the same
// order as the lane and pipe chain it replaced, and hands every result back
// at the same instant. Dispatch departures tie the engine stand-in's
// pickups and the closed loop's re-admissions on the grid, so a departure
// booked under the wrong number changes that order. Foreign events booked
// before any request sort where they did in the chain. Two things are left
// out, as the two designs order them differently on the same nanosecond:
// foreign events booked during the run (TestGateForeignTie,
// TestPipeForeignTie), and where the relay's hand-off falls among the
// events of its instant, since the chain numbered it as the request left the
// relay server and the pipe numbers it as the request enters.
func TestFabricStagesMatchChain(t *testing.T) {
	routed, tied := 0, 0
	sweepFabric(func(name string, play func(fabricBuild) []stageEvent, inRun bool) {
		chainBack, chain := splitBack(play(chainFabric), inRun)
		stageBack, stage := splitBack(play(stageFabric), inRun)
		if !reflect.DeepEqual(chain, stage) || !reflect.DeepEqual(chainBack, stageBack) {
			t.Fatalf("%s: firstPath and the chain diverge\nchain: %v\nstage: %v\nchain's results back: %v\nstage's results back: %v", name, chain, stage, chainBack, stageBack)
		}
		for i, e := range stage {
			if e.what == "route" {
				routed++
			}
			if i > 0 && e.at == stage[i-1].at && e.what != stage[i-1].what {
				tied++
			}
		}
	})
	if routed < 100_000 || tied < 10_000 {
		t.Errorf("the sweep routed %d requests with %d same-instant hand-offs of different kinds: the schedules are not exercising the stages", routed, tied)
	}
}

// observeEventFabric is firstPath with the client's observe always an event
// of its own, on the zero-delay pipe complete falls back to.
func observeEventFabric(k *sim.Kernel, p FirstParams, route, back, done func(*Req)) (admit, served func(*Req)) {
	fp := new(firstPath)
	fp.wire(k, p, route, done)
	fp.relay.out = func(r *Req) {
		back(r)
		fp.observe.push(r)
	}
	return fp.arrive, fp.relay.push
}

// TestObserveInsideRelayMatchesEvent holds firstPath, which observes a
// result inside the relay's hand-off when nothing else is queued at that
// instant, to the same stages observing it in an event of its own: every
// hand-off and every foreign event, booked before or during the run, runs
// in the same order. Results that come back on one instant (no relay cost)
// and foreign events on the grid put other events at the hand-off's instant.
func TestObserveInsideRelayMatchesEvent(t *testing.T) {
	sweepFabric(func(name string, play func(fabricBuild) []stageEvent, _ bool) {
		if event, inside := play(observeEventFabric), play(stageFabric); !reflect.DeepEqual(event, inside) {
			t.Fatalf("%s: observing inside the relay's hand-off reorders the run\nevent:  %v\ninside: %v", name, event, inside)
		}
	})
}

// foreignTieLog admits requests 1 and 2 through enter at t = 0 and books a
// foreign event for each one's hand-off instant right after admitting it,
// with another booked before request 1 for request 1's. It returns what ran,
// in order.
func foreignTieLog(build func(k *sim.Kernel, out func(*Req)) (enter func(*Req)), first, second time.Duration) []string {
	k := sim.NewKernel()
	var log []string
	note := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%s at %v", what, k.Now())) }
	}
	enter := build(k, func(r *Req) { note(fmt.Sprintf("request %d", r.ID))() })
	k.Schedule(0, func() {
		k.Schedule(first, note("booked before 1"))
		enter(&Req{ID: 1})
		k.Schedule(first, note("booked after 1"))
		enter(&Req{ID: 2})
		k.Schedule(second, note("booked after 2"))
	})
	k.Run(0)
	return log
}

// TestGateForeignTie pins the one way a gate departs from the delay → lane
// chain it replaced. Request 1 finds the server idle: the chain numbered its
// departure in the lane's serve event, as it reached the server, so an event
// booked after its admission for its departure's nanosecond ran first; the
// gate numbered it at admission, so that event runs after it. Request 2
// waits behind request 1, and both number its departure at request 1's: the
// event booked after its admission runs first in both.
func TestGateForeignTie(t *testing.T) {
	const delay, cost = 2 * time.Second, 25 * time.Millisecond
	chain := foreignTieLog(func(k *sim.Kernel, out func(*Req)) func(*Req) {
		return newPipe(k, 0, delay, newLane(k, cost, out).enqueue).push
	}, delay+cost, delay+2*cost)
	stage := foreignTieLog(func(k *sim.Kernel, out func(*Req)) func(*Req) {
		g := new(gate)
		g.init(k, delay, cost, out)
		return g.push
	}, delay+cost, delay+2*cost)
	wantChain := []string{"booked before 1 at 2.025s", "booked after 1 at 2.025s", "request 1 at 2.025s", "booked after 2 at 2.05s", "request 2 at 2.05s"}
	wantStage := []string{"booked before 1 at 2.025s", "request 1 at 2.025s", "booked after 1 at 2.025s", "booked after 2 at 2.05s", "request 2 at 2.05s"}
	if !reflect.DeepEqual(chain, wantChain) || !reflect.DeepEqual(stage, wantStage) {
		t.Errorf("chain ran %q, want %q\ngate ran %q, want %q", chain, wantChain, stage, wantStage)
	}
}

// TestPipeForeignTie pins the one way a pipe with a server in front of its
// delay departs from the lane → pipe chain it replaced: the chain numbered a
// hand-off as the request left the server, the pipe numbers it at admission,
// so an event booked in between for the hand-off's nanosecond runs after it
// where the chain ran it first — for request 1, served at once, and for
// request 2, which waits.
func TestPipeForeignTie(t *testing.T) {
	const cost, delay = 18 * time.Millisecond, 2200 * time.Millisecond
	chain := foreignTieLog(func(k *sim.Kernel, out func(*Req)) func(*Req) {
		return newLane(k, cost, newPipe(k, 0, delay, out).push).enqueue
	}, cost+delay, 2*cost+delay)
	stage := foreignTieLog(func(k *sim.Kernel, out func(*Req)) func(*Req) {
		return newPipe(k, cost, delay, out).push
	}, cost+delay, 2*cost+delay)
	wantChain := []string{"booked before 1 at 2.218s", "booked after 1 at 2.218s", "request 1 at 2.218s", "booked after 2 at 2.236s", "request 2 at 2.236s"}
	wantStage := []string{"booked before 1 at 2.218s", "request 1 at 2.218s", "booked after 1 at 2.218s", "request 2 at 2.236s", "booked after 2 at 2.236s"}
	if !reflect.DeepEqual(chain, wantChain) || !reflect.DeepEqual(stage, wantStage) {
		t.Errorf("chain ran %q, want %q\npipe ran %q, want %q", chain, wantChain, stage, wantStage)
	}
}

// TestFirstPathEventsPerRequest pins what one uncontended request costs the
// kernel on the fabric hop: its arrival, one event per stage — the dispatch
// departure, the pickup (none on vLLM-Direct, whose pickup is zero) and the
// relay's hand-off, which observes the result inside itself — and the
// engine's own events for that request, counted on a bare engine (three
// here). The lane and pipe chain spent nine events beside the engine's on
// the paper's deployment and eight on vLLM-Direct. A stage that puts a hop
// back fails here.
func TestFirstPathEventsPerRequest(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	gpu := perfmodel.A100_40
	const prompt, output = 200, 30
	a, k := testArena(sim.QueueCalendar)
	e := a.EngineSimIn(model, gpu, func(*serving.Sequence) {})
	k.Schedule(0, func() { e.Submit(prompt, output, nil) })
	k.Run(0)
	engine := k.Processed - 1
	if engine < 1 {
		t.Fatalf("a bare engine served a request in %d events", engine)
	}
	for _, c := range []struct {
		name string
		p    FirstParams
		hops uint64
	}{{"DefaultFirstParams", DefaultFirstParams(), 4}, {"VLLMDirectParams", VLLMDirectParams(), 3}} {
		a, k := testArena(sim.QueueCalendar)
		var done []*Req
		f := NewFederationIn(a, FirstPathParams(c.p, model, gpu, 1), func(r *Req) { done = append(done, r) })
		r := &Req{ID: 1, PromptTok: prompt, OutputTok: output}
		k.Schedule(0, func() { f.Arrive(r) })
		k.Run(0)
		if len(done) != 1 || r.Latency() <= 0 {
			t.Fatalf("%s: %d requests done, latency %v", c.name, len(done), r.Latency())
		}
		if k.Processed != c.hops+engine {
			t.Errorf("%s: %d kernel events for one request, want %d (arrival and stages) + %d (engine)", c.name, k.Processed, c.hops, engine)
		}
	}
}
