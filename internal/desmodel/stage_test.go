package desmodel

import (
	"cmp"
	"fmt"
	"slices"
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

// depart is the recurrence every FIFO stage books by, in plain arithmetic:
// requests enter at in[i], in (time, seq) order. A gate — a delay, then a
// server of constant cost — hands request i on at
// D_i = max(in_i + delay, D_{i-1}) + cost; a pipe — the server, then the
// delay — at S_i + delay, where S_i = max(in_i, S_{i-1}) + cost. Either hands
// requests on in the order they entered.
func depart(in []sim.Time, gate bool, delay, cost time.Duration) []sim.Time {
	out := make([]sim.Time, len(in))
	var last sim.Time
	for i, t := range in {
		if gate {
			last = max(t+delay, last) + cost
			out[i] = last
		} else {
			last = max(t, last) + cost
			out[i] = last + delay
		}
	}
	return out
}

// stageEvent is one line of a run's log: what ran, for whom, when, the
// request's admission stamp, and the number the kernel ran it under.
type stageEvent struct {
	what string
	id   int
	at   sim.Time
	gw   sim.Time
	seq  uint64
}

// booking is a request entering a stage (id > 0) or a foreign event booked
// beside it (id ≤ 0): the instant, the number of the event that booked it,
// and a number reserved just before, so that a number the stage reserves as
// the request enters is mark + 1.
type booking struct {
	id        int
	at        sim.Time
	run, mark uint64
}

// stageDriver lays a schedule's driver events on k before the run: each
// calls issue once per request it brings and compete around them. Calls made
// by the driver itself, outside any event, issue before the run starts.
type stageDriver func(k *sim.Kernel, rng *sim.RNG, issue, compete func())

// runStageSchedule plays a driver's schedule against a stage (enter). It
// returns every delivery and foreign event in the order the kernel ran them,
// and every booking in the order it was made. Foreign events are booked with
// the stage's delay, so they tie with deliveries on the instant; with
// reenter, every third request goes round a second time, entering from inside
// its delivery.
func runStageSchedule(q sim.QueueKind, seed int64, delay time.Duration, drive stageDriver, reenter bool, build func(k *sim.Kernel, out func(*Req)) (enter func(*Req))) (log []stageEvent, bk []booking) {
	k := sim.NewKernelWith(q)
	book := func(id int) { bk = append(bk, booking{id, k.Now(), k.RunningSeq(), k.Reserve()}) }
	again := map[int]bool{}
	var enter func(*Req)
	enter = build(k, func(r *Req) {
		log = append(log, stageEvent{"deliver", r.ID, k.Now(), r.GatewayAt, k.RunningSeq()})
		if reenter && r.ID%3 == 0 && !again[r.ID] {
			again[r.ID] = true
			book(r.ID)
			enter(r)
		}
	})
	id := 0
	drive(k, sim.NewRNG(seed), func() {
		id++
		book(id)
		enter(&Req{ID: id})
	}, func() {
		other := -id
		book(other)
		k.Schedule(delay, func() { log = append(log, stageEvent{"other", other, k.Now(), 0, k.RunningSeq()}) })
	})
	k.Run(0)
	return log, bk
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

// TestPipeMatchesClosures holds a pipe to the recurrence and to the order one
// `Schedule(delay, …)` per request, made as it entered, would run in: every
// request is handed on at S + delay (depart), and a hand-off and a foreign
// event on one instant run in the order they were booked, on both queue
// kinds. The zero-cost cases are the closures the pipe replaced; the last
// holds more than the kernel's sorted run (64 events) in flight at delay 0:
// one pipe event stands for bursts of up to 150 requests.
func TestPipeMatchesClosures(t *testing.T) {
	deliveries := 0
	for _, q := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
		for _, c := range []struct {
			cost, delay time.Duration
			burst       int
		}{{0, 0, 5}, {0, 1, 5}, {0, 3 * time.Microsecond, 5}, {0, 5 * time.Millisecond, 5}, {2 * time.Microsecond, 5 * time.Millisecond, 5}, {0, 0, 150}} {
			for seed := int64(1); seed <= 25; seed++ {
				log, bk := runStageSchedule(q, seed, c.delay, bursts(c.delay, c.burst), true, func(k *sim.Kernel, out func(*Req)) func(*Req) {
					return newPipe(k, c.cost, c.delay, out).push
				})
				var in []sim.Time
				for _, b := range bk {
					if b.id > 0 {
						in = append(in, b.at)
					}
				}
				due := depart(in, false, c.delay, c.cost)
				want, got := make([]stageEvent, len(bk)), make([]stageEvent, len(log))
				for i, b := range bk {
					if want[i] = (stageEvent{"other", b.id, b.at + c.delay, 0, 0}); b.id > 0 {
						want[i], due = stageEvent{"deliver", b.id, due[0], 0, 0}, due[1:]
					}
				}
				slices.SortStableFunc(want, func(a, b stageEvent) int { return cmp.Compare(a.at, b.at) })
				for i, e := range log {
					got[i] = stageEvent{e.what, e.id, e.at, 0, 0}
				}
				if !slices.Equal(want, got) {
					t.Fatalf("%v queue, %+v, seed %d: the pipe leaves the recurrence's (time, booking) order\nwant: %v\ngot:  %v", q, c, seed, want, got)
				}
				deliveries += len(log)
			}
		}
	}
	if deliveries < 400_000 {
		t.Errorf("the sweep logged %d events: the schedules are not exercising the stage", deliveries)
	}
}

// shardWant is what the recurrence says of one request through the shard
// stage: its shard, its admission stamp (the lock's departure S), its hand-on
// (S + post), its busy period's number, and whether its hand-on is queued
// under a fresh number instead.
type shardWant struct {
	shard   int
	gw, due sim.Time
	seq     uint64
	fresh   bool
}

// shardOracle computes, from the bookings of a run, what the shard stage
// owes each request: per shard a pipe of cost crit and delay post (depart's
// recurrence), numbered as the lane → pipe chain it replaced ran — a
// departure or a service start at an instant has happened once the event
// running then sorts at or after its busy period's number, an admission to
// an idle lock opens a busy period under the number it reserves, and a
// successor due on its predecessor's instant in the same busy period is
// queued under a fresh number as the predecessor is handed on. It also
// returns the deepest backlog of a lock (requests in, less those whose
// service began) and how often each of those ties was met: a departure at
// the admission's instant that had run and one that had not, a service start
// likewise, and a fresh number.
func shardOracle(bk []booking, shards int, crit, post time.Duration) (want map[int]shardWant, peak int, ties [5]int) {
	n := 1
	for n < shards {
		n <<= 1
	}
	type lock struct {
		last    sim.Time
		period  uint64
		start   []sim.Time
		seq     []uint64
		started int
		prev    shardWant
	}
	locks := make([]lock, n)
	want = map[int]shardWant{}
	for _, b := range bk {
		if b.id <= 0 {
			continue
		}
		i := int(splitmix64(uint64(b.id)) & uint64(n-1))
		l := &locks[i]
		for ; l.started < len(l.start); l.started++ {
			if at := l.start[l.started]; at > b.at || at == b.at && b.run < l.seq[l.started] {
				if at == b.at {
					ties[3]++
				}
				break
			} else if at == b.at {
				ties[2]++
			}
		}
		if idle := l.last < b.at || l.last == b.at && b.run >= l.period; idle {
			if l.last == b.at && len(l.start) > 0 {
				ties[0]++
			}
			l.period = b.mark + 1
		} else if l.last == b.at {
			ties[1]++
		}
		l.last = max(l.last, b.at) + crit
		l.start, l.seq = append(l.start, l.last-crit), append(l.seq, l.period)
		peak = max(peak, len(l.start)-l.started)
		w := shardWant{i, l.last, l.last + post, l.period, false}
		if w.fresh = len(l.start) > 1 && w.due == l.prev.due && w.seq == l.prev.seq; w.fresh {
			ties[4]++
		}
		want[b.id], l.prev = w, w
	}
	return want, peak, ties
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
// run. With open, the two floods are booked after those requests, while
// their busy period is open.
func floodArrivals(gap time.Duration, open bool) stageDriver {
	return func(k *sim.Kernel, rng *sim.RNG, issue, compete func()) {
		flood := func() {
			for i := 0; i < shardScheduleReqs/3; i++ {
				issue()
				if i%11 == 0 {
					compete()
				}
			}
		}
		if open {
			flood()
		}
		k.Schedule(time.Duration(rng.Intn(2))*gap, flood)
		k.Schedule(time.Duration(rng.Intn(40))*gap, flood)
		if !open {
			flood()
		}
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

// shardShape is a front-end schedule shape, drawn for a critical section.
type shardShape struct {
	name  string
	drive func(crit time.Duration) stageDriver
}

// sweepShardStage holds the shard stage to the lane → pipe chain it
// replaced, stated as arithmetic (shardOracle): over shapes, on both queue
// kinds, each request is stamped admitted and handed on at the recurrence's
// instants, under its busy period's number or a fresh one, and the stage
// reports the lanes' peak depth. It returns how many requests were handed
// on, the deepest backlog and how often each of shardOracle's ties was met.
func sweepShardStage(t *testing.T, shapes []shardShape) (delivered, deep int, met [5]int) {
	for _, q := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
		for _, crit := range []time.Duration{0, 1, 4 * time.Microsecond} {
			for _, post := range []time.Duration{0, 1, 25 * time.Microsecond} {
				for _, shards := range []int{1, 2, 16} {
					for _, sh := range shapes {
						for seed := int64(1); seed <= 25; seed++ {
							var fe *shardFE
							log, bk := runStageSchedule(q, seed, crit+post, sh.drive(crit), false, func(k *sim.Kernel, out func(*Req)) func(*Req) {
								fe = newShardFE(k, shards, crit, post, out)
								return fe.admit
							})
							name := fmt.Sprintf("%v queue, %s, crit %v, post %v, %d shards, seed %d", q, sh.name, crit, post, shards, seed)
							want, peak, ties := shardOracle(bk, shards, crit, post)
							last := make([]uint64, len(fe.shards)) // each shard's last hand-on number
							for _, e := range log {
								if e.what != "deliver" {
									continue
								}
								w, ok := want[e.id]
								if delete(want, e.id); !ok || e.at != w.due || e.gw != w.gw || !w.fresh && e.seq != w.seq || w.fresh && e.seq <= last[w.shard] {
									t.Fatalf("%s: request %d handed on at %v under %d, admitted %v; the recurrence says %+v (known %v), after number %d", name, e.id, e.at, e.seq, e.gw, w, ok, last[w.shard])
								}
								last[w.shard] = e.seq
								delivered++
							}
							if len(want) > 0 || fe.peakShardQueue() != peak {
								t.Fatalf("%s: %d requests never handed on; peak depth %d, the lanes reach %d", name, len(want), fe.peakShardQueue(), peak)
							}
							deep = max(deep, peak)
							for i := range met {
								met[i] += ties[i]
							}
						}
					}
				}
			}
		}
	}
	return delivered, deep, met
}

// TestShardStageMatchesLanePipe sweeps the shard stage over every schedule
// shape the front-end meets (sweepShardStage) and fails if the schedules do
// not fill a lock's backlog.
func TestShardStageMatchesLanePipe(t *testing.T) {
	delivered, deep, _ := sweepShardStage(t, []shardShape{
		{"poisson", func(c time.Duration) stageDriver { return poissonArrivals(c/2 + time.Microsecond) }},
		{"storm", func(c time.Duration) stageDriver { return stormArrivals(c/2 + time.Microsecond) }},
		{"flood", func(c time.Duration) stageDriver { return floodArrivals(c+time.Microsecond, false) }},
		{"same-instant", func(c time.Duration) stageDriver { return sameInstantArrivals(2*c + 1) }},
		{"aligned", func(c time.Duration) stageDriver { return alignedArrivals(max(c, 1)) }},
	})
	if delivered != 2*3*3*3*5*25*shardScheduleReqs || deep < shardScheduleReqs/3 {
		t.Errorf("the sweep delivered %d requests, deepest queue %d: the schedules are not exercising the stage", delivered, deep)
	}
}

// TestShardStageTiesMoveNoInstant plays the schedules that tie foreign
// events with departures on purpose — arrivals a nanosecond apart, and floods
// booked behind an open busy period — through sweepShardStage: admissions
// land on departures and service starts both before and after those have
// run, and every request still leaves at the recurrence's instant with its
// stamp. The sweep fails if any such tie, or a fresh number, is never met.
func TestShardStageTiesMoveNoInstant(t *testing.T) {
	delivered, _, met := sweepShardStage(t, []shardShape{
		{"poisson at 1 ns", func(time.Duration) stageDriver { return poissonArrivals(1) }},
		{"flood into an open busy period", func(c time.Duration) stageDriver { return floodArrivals(c+1, true) }},
	})
	if delivered != 2*3*3*3*2*25*shardScheduleReqs || slices.Contains(met[:], 0) {
		t.Errorf("the sweep delivered %d requests, ties met %v: the schedules tie nothing", delivered, met)
	}
}

// TestShardStageForeignTie pins the one way the stage departs from the lane
// → pipe chain it replaced: a departure runs under its busy period's number,
// so an event booked during the busy period for the exact nanosecond of the
// hand-on runs after it, where the chain, which booked the hand-on only at
// the departure, ran it first. An event booked before the busy period began
// keeps its place ahead of the hand-on in both.
func TestShardStageForeignTie(t *testing.T) {
	const crit, post = 4 * time.Microsecond, 25 * time.Microsecond
	k := sim.NewKernel()
	var log []string
	note := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%s at %v", what, k.Now())) }
	}
	fe := newShardFE(k, 1, crit, post, func(r *Req) { note(fmt.Sprintf("request %d (admitted %v)", r.ID, r.GatewayAt))() })
	k.Schedule(0, func() {
		k.Schedule(crit+post, note("booked before"))
		fe.admit(&Req{ID: 1})
		k.Schedule(crit+post, note("booked during"))
	})
	k.Run(0)
	if want := []string{"booked before at 29µs", "request 1 (admitted 4µs) at 29µs", "booked during at 29µs"}; !slices.Equal(log, want) {
		t.Errorf("stage ran %q, want %q", log, want)
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

// stageFabric is the fabric hop under test, firstPath, with the sweep's
// hooks: back runs as the relay hands a result to complete.
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
// a closed-loop client would. It returns every route, engine, back (the
// relay's hand-off) and done hand-off and every foreign event, in the order
// the kernel ran them, and every admission in order.
func runFabricSchedule(q sim.QueueKind, seed int64, p FirstParams, drive fabricDriver, build fabricBuild) (log []stageEvent, adm []booking) {
	k := sim.NewKernelWith(q)
	note := func(what string, id int) { log = append(log, stageEvent{what, id, k.Now(), 0, 0}) }
	var admit, served func(*Req)
	issue := func() {
		adm = append(adm, booking{id: len(adm) + 1, at: k.Now()})
		admit(&Req{ID: len(adm)})
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
		if r.ID%3 == 0 && len(adm) < 600 {
			issue()
		}
	})
	drive(k, sim.NewRNG(seed), issue, func(at sim.Time) {
		k.At(at, func() { note("other", 0) })
	})
	k.Run(0)
	return log, adm
}

// checkFabric holds a fabric log to the recurrence: from the admissions, in
// order, the auth pipe when wired (AuthIntrospect after 1/AuthRatePerSec),
// the dispatch gate (GatewayOverhead + HubSubmit, then HubDispatchCost), the
// engine stand-in's serve instants — results served on one instant enter the
// relay in the order they were routed — and the relay pipe (HubRelayCost,
// then ResultReturn) give each request's route, engine, back and done
// instant. Every request takes each hand-off once, at that instant; routes
// and backs run in their stages' FIFO order; and a foreign event booked
// before the run (early) runs ahead of every hand-off at its instant.
func checkFabric(p FirstParams, log []stageEvent, adm []booking, early bool) error {
	in := make([]sim.Time, len(adm))
	for i, a := range adm {
		in[i] = a.at
	}
	if p.AuthIntrospect > 0 {
		var cost time.Duration
		if p.AuthRatePerSec > 0 {
			cost = time.Duration(float64(time.Second) / p.AuthRatePerSec)
		}
		in = depart(in, false, p.AuthIntrospect, cost)
	}
	route := depart(in, true, p.GatewayOverhead+p.HubSubmit, p.HubDispatchCost)
	engine := make([]sim.Time, len(adm))
	relayed := make([]int, len(adm))
	for i := range adm {
		engine[i], relayed[i] = route[i]+p.EndpointPickup+time.Duration(adm[i].id%4)*fabricUnit, i
	}
	slices.SortStableFunc(relayed, func(a, b int) int { return cmp.Compare(engine[a], engine[b]) })
	relayIn := make([]sim.Time, len(adm))
	for j, i := range relayed {
		relayIn[j] = engine[i]
	}
	back := make([]sim.Time, len(adm))
	for j, at := range depart(relayIn, false, p.ResultReturn, p.HubRelayCost) {
		back[relayed[j]] = at
	}
	want := map[string][]sim.Time{"route": route, "engine": engine, "back": back, "done": back}
	order := map[string][]int{}
	seen := map[stageEvent]bool{}
	handed := map[sim.Time]bool{}
	for _, e := range log {
		if e.what == "other" {
			if early && handed[e.at] {
				return fmt.Errorf("a foreign event booked before the run ran after a hand-off at %v", e.at)
			}
			continue
		}
		if i := e.id - 1; i < 0 || i >= len(adm) || seen[stageEvent{what: e.what, id: e.id}] || e.at != want[e.what][i] {
			return fmt.Errorf("%s of request %d at %v: not the recurrence's one hand-off", e.what, e.id, e.at)
		}
		seen[stageEvent{what: e.what, id: e.id}], handed[e.at] = true, true
		order[e.what] = append(order[e.what], e.id-1)
	}
	routed := make([]int, len(adm))
	for i := range routed {
		routed[i] = i
	}
	if len(seen) != 4*len(adm) || !slices.Equal(order["route"], routed) || !slices.Equal(order["back"], relayed) {
		return fmt.Errorf("%d hand-offs for %d requests, routes in order %v, backs in order %v (relay order %v)", len(seen), len(adm), order["route"], order["back"], relayed)
	}
	return nil
}

// fabricConfigs are the fabric hops the sweep plays: the paper's deployment,
// vLLM-Direct (no delay before the dispatch server, no relay cost), and
// every cost and delay on one 25 ms / 2 s grid, with the auth limiter in
// front or with no relay cost, so departures, pickups, results and foreign
// events fall on each other's nanoseconds.
func fabricConfigs() map[string]FirstParams {
	paper := DefaultFirstParams()
	paper.Window = 0 // the window is the property harness's
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

// sweepFabric calls check once per schedule the fabric sweeps play: every
// configuration × both drivers × foreign events booked before the run
// (early) or during it × 20 seeds. play runs that schedule on a fabric hop
// and a queue kind.
func sweepFabric(check func(name string, p FirstParams, play func(sim.QueueKind, fabricBuild) ([]stageEvent, []booking), early bool)) {
	drivers := map[string]func(bool) fabricDriver{"burst": fabricBurst, "grid": fabricGrid}
	for cn, p := range fabricConfigs() {
		for dn, drive := range drivers {
			for _, early := range []bool{true, false} {
				for seed := int64(1); seed <= 20; seed++ {
					check(fmt.Sprintf("%s, %s schedule, foreign events booked early %v, seed %d", cn, dn, early, seed), p,
						func(q sim.QueueKind, build fabricBuild) ([]stageEvent, []booking) {
							return runFabricSchedule(q, seed, p, drive(early), build)
						}, early)
				}
			}
		}
	}
}

// TestFabricStagesMatchChain holds firstPath's fabric hop to the recurrence
// its stages book by (checkFabric), over every configuration and schedule
// shape, and requires the same run, hand-off for hand-off and foreign event
// for foreign event, on both queue kinds. Dispatch departures tie the engine
// stand-in's pickups and the closed loop's re-admissions on the grid. Where a
// hand-off falls among foreign events booked during the run on its
// nanosecond is TestGateForeignTie's and TestPipeForeignTie's.
func TestFabricStagesMatchChain(t *testing.T) {
	routed, tied := 0, 0
	sweepFabric(func(name string, p FirstParams, play func(sim.QueueKind, fabricBuild) ([]stageEvent, []booking), early bool) {
		log, adm := play(sim.QueueCalendar, stageFabric)
		if heap, _ := play(sim.QueueHeap, stageFabric); !slices.Equal(log, heap) {
			t.Fatalf("%s: the calendar and heap queues run the hop differently\ncalendar: %v\nheap:     %v", name, log, heap)
		}
		if err := checkFabric(p, log, adm, early); err != nil {
			t.Fatalf("%s: %v\nlog: %v", name, err, log)
		}
		routed += len(adm)
		for i := 1; i < len(log); i++ {
			if log[i].at == log[i-1].at && log[i].what != log[i-1].what {
				tied++
			}
		}
	})
	if routed < 90_000 || tied < 100_000 {
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
// in the same order, on both queue kinds. Results that come back on one
// instant (no relay cost) and foreign events on the grid put other events at
// the hand-off's instant.
func TestObserveInsideRelayMatchesEvent(t *testing.T) {
	sweepFabric(func(name string, _ FirstParams, play func(sim.QueueKind, fabricBuild) ([]stageEvent, []booking), _ bool) {
		for _, q := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
			event, _ := play(q, observeEventFabric)
			if inside, _ := play(q, stageFabric); !slices.Equal(event, inside) {
				t.Fatalf("%v queue, %s: observing inside the relay's hand-off reorders the run\nevent:  %v\ninside: %v", q, name, event, inside)
			}
		}
	})
}

// foreignTieLog admits requests 1 and 2 through enter at t = 0 and books a
// foreign event for each one's hand-off instant right after admitting it,
// with another booked before request 1 for request 1's, and one more booked
// from inside request 1's hand-off for request 2's. It returns what ran, in
// order.
func foreignTieLog(build func(k *sim.Kernel, out func(*Req)) (enter func(*Req)), first, second time.Duration) []string {
	k := sim.NewKernel()
	var log []string
	note := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%s at %v", what, k.Now())) }
	}
	enter := build(k, func(r *Req) {
		note(fmt.Sprintf("request %d", r.ID))()
		if r.ID == 1 {
			k.At(second, note("booked in 1's hand-off"))
		}
	})
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

// TestGateForeignTie pins where a gate's departure falls among foreign
// events on its nanosecond. Request 1 finds the server idle, and the gate
// numbers its departure at admission, so an event booked after that
// admission runs after it (the delay → lane chain the gate replaced numbered
// it as the request reached the server, and ran that event first). Request 2
// waits behind request 1, and its departure is numbered as request 1 is
// handed on, after what that hand-off books: the event booked after its
// admission, and the one booked in request 1's hand-off, run first.
func TestGateForeignTie(t *testing.T) {
	const delay, cost = 2 * time.Second, 25 * time.Millisecond
	log := foreignTieLog(func(k *sim.Kernel, out func(*Req)) func(*Req) {
		g := new(gate)
		g.init(k, delay, cost, out)
		return g.push
	}, delay+cost, delay+2*cost)
	want := []string{"booked before 1 at 2.025s", "request 1 at 2.025s", "booked after 1 at 2.025s", "booked after 2 at 2.05s", "booked in 1's hand-off at 2.05s", "request 2 at 2.05s"}
	if !slices.Equal(log, want) {
		t.Errorf("gate ran %q, want %q", log, want)
	}
}

// TestPipeForeignTie pins where a hand-off of a pipe with a server in front
// of its delay falls among foreign events on its nanosecond: the pipe numbers
// it at admission, so an event booked after that for the hand-off's
// nanosecond runs after it — for request 1, served at once, and for request
// 2, which waits. The lane → pipe chain it replaced numbered a hand-off as
// the request left the server, and ran such an event first.
func TestPipeForeignTie(t *testing.T) {
	const cost, delay = 18 * time.Millisecond, 2200 * time.Millisecond
	log := foreignTieLog(func(k *sim.Kernel, out func(*Req)) func(*Req) {
		return newPipe(k, cost, delay, out).push
	}, cost+delay, 2*cost+delay)
	want := []string{"booked before 1 at 2.218s", "request 1 at 2.218s", "booked after 1 at 2.218s", "request 2 at 2.236s", "booked after 2 at 2.236s", "booked in 1's hand-off at 2.236s"}
	if !slices.Equal(log, want) {
		t.Errorf("pipe ran %q, want %q", log, want)
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
