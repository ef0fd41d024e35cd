package desmodel

import (
	"testing"
	"time"

	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// fedTestParams shrinks the scenario for unit tests: fast churn, no
// background jobs unless a test wants them.
func fedTestParams(clusters int) FederationParams {
	p := DefaultFederationParams(clusters)
	p.ServeWalltime = 60 * time.Second
	p.DrainGrace = 20 * time.Second
	p.BGPeriod = 0 // no background churn unless the test opts in
	return p
}

// testArena is what a fleet worker hands a cell: an arena begun on queue kind
// q, and its kernel.
func testArena(q sim.QueueKind) (*Arena, *sim.Kernel) {
	a := NewArena(q)
	return a, a.Begin()
}

func fedReq(id, model, prompt, output int) *Req {
	return &Req{ID: id, Model: model, PromptTok: prompt, OutputTok: output}
}

// TestFederationColdStartLifecycle pushes one request through the full
// Queued→Starting→Running lifecycle: the cold start must charge prologue +
// weights load before the request is served.
func TestFederationColdStartLifecycle(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	var got []*Req
	f := NewFederationIn(a, fedTestParams(2), func(r *Req) { got = append(got, r) })
	r := fedReq(1, 0, 32, 8)
	k.Schedule(0, func() { f.Arrive(r) })
	k.Run(0)
	if len(got) != 1 || got[0] != r {
		t.Fatalf("completed %d requests, want the 1 submitted", len(got))
	}
	p := f.p
	minLatency := p.Prologue + p.Models[0].LoadTime(p.GPU)
	if r.Latency() < minLatency {
		t.Errorf("cold-start latency %v < prologue+load %v", r.Latency(), minLatency)
	}
	if rungs := f.Rungs(); rungs.Capacity != 1 || rungs.Active != 0 {
		t.Errorf("cold start rungs = %+v, want exactly one capacity decision", rungs)
	}
	stats := f.ClusterStats()
	if stats[0].ColdStarts+stats[1].ColdStarts != 1 {
		t.Errorf("cold starts = %+v, want 1 across clusters", stats)
	}
}

// TestFederationActiveRouting verifies the ladder's first rung: once a model
// is active somewhere, later requests join it instead of cold-starting
// another cluster.
func TestFederationActiveRouting(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	done := 0
	f := NewFederationIn(a, fedTestParams(4), func(*Req) { done++ })
	for i := 0; i < 50; i++ {
		r := fedReq(i+1, 0, 32, 8)
		k.Schedule(time.Duration(i)*time.Second, func() { f.Arrive(r) })
	}
	k.Run(0)
	if done != 50 {
		t.Fatalf("completed %d/50", done)
	}
	rungs := f.Rungs()
	if rungs.Capacity != 1 {
		t.Errorf("capacity decisions = %d, want 1 (only the first cold start)", rungs.Capacity)
	}
	if rungs.Active != 49 {
		t.Errorf("active decisions = %d, want 49", rungs.Active)
	}
	coldStarts := 0
	for _, cs := range f.ClusterStats() {
		coldStarts += cs.ColdStarts
	}
	if coldStarts != 1 {
		t.Errorf("cold starts = %d, want 1 (rung 1 concentrates load)", coldStarts)
	}
}

// TestFederationDrainMigration runs traffic past the serve walltime: the
// deployment must drain and unserved requests must migrate to another
// cluster (counted, stamped, and eventually completed).
func TestFederationDrainMigration(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := fedTestParams(2)
	p.ServeWalltime = 20 * time.Second
	var reqs []*Req
	completed := 0
	f := NewFederationIn(a, p, func(*Req) { completed++ })
	// A saturating burst: more generation work than one walltime can serve,
	// so the drain always catches waiting requests, which must migrate.
	n := 300
	for i := 0; i < n; i++ {
		r := fedReq(i+1, 0, 64, 300)
		reqs = append(reqs, r)
		k.Schedule(time.Duration(i)*50*time.Millisecond, func() { f.Arrive(r) })
	}
	k.Run(0)
	if completed != n {
		t.Fatalf("completed %d/%d", completed, n)
	}
	drains := 0
	for _, cs := range f.ClusterStats() {
		drains += cs.Drains
	}
	if drains == 0 {
		t.Error("no drains across 3 serve walltimes")
	}
	if f.Migrations() == 0 {
		t.Error("no migrations despite drains under steady load")
	}
	migrated := 0
	for _, r := range reqs {
		if r.Migrations > 0 {
			migrated++
			if r.ObservedAt == 0 {
				t.Fatalf("migrated request %d never completed", r.ID)
			}
		}
	}
	if int64(migrated) > f.Migrations() {
		t.Errorf("stamped %d migrated requests > %d recorded migrations", migrated, f.Migrations())
	}
}

// TestFederationHardKill forces a running batch past drain grace: the
// scheduler's real walltime timer must TimedOut the job and the surviving
// requests must migrate and still complete.
func TestFederationHardKill(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := fedTestParams(2)
	p.DrainGrace = 5 * time.Second
	completed := 0
	f := NewFederationIn(a, p, func(*Req) { completed++ })
	// A warm-up request cold-starts the deployment; a ~30s generation then
	// arrives late in the walltime, so it cannot drain within the 5s grace
	// (killed, migrated) but does complete on the fresh incarnation it
	// migrates to.
	warm := fedReq(1, 0, 32, 8)
	k.Schedule(0, func() { f.Arrive(warm) })
	long := fedReq(2, 0, 64, 5_000)
	k.Schedule(88*time.Second, func() { f.Arrive(long) })
	k.Run(0)
	if completed != 2 {
		t.Fatalf("completed %d/2", completed)
	}
	kills := 0
	for _, cs := range f.ClusterStats() {
		kills += cs.HardKills
	}
	if kills == 0 {
		t.Error("no hard kill despite a batch that cannot drain within grace")
	}
	if long.Migrations == 0 {
		t.Error("the long request survived the kill without migrating")
	}
}

// TestFederationKillHarvestsUndelivered fails a job the way a replayed kill
// does, inside an iteration that completes a request: its completion is not
// yet delivered, the one live sequence neither EachWaiting nor EachRunning
// sees, and onJobEnd must migrate it with the rest or it is lost.
func TestFederationKillHarvestsUndelivered(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := fedTestParams(1)
	p.Shards = 0 // the instance loads at exactly prologue + weights load
	done := make([]int, 3)
	f := NewFederationIn(a, p, func(r *Req) { done[r.ID]++ })
	for _, r := range []*Req{fedReq(1, 0, 8, 1), fedReq(2, 0, 8, 100)} {
		k.Schedule(0, func() { f.Arrive(r) })
	}
	k.Run(p.Prologue + p.Models[0].LoadTime(p.GPU)) // loaded, first iteration stepped
	c := f.clusters[0]
	in := c.deps[0].pool.Members()[0]
	undelivered := 0
	in.eng.EachUndelivered(func(*serving.Sequence) { undelivered++ })
	if !in.eng.DeliveryPending() || undelivered != 1 {
		t.Fatalf("kill instant holds %d undelivered completions (delivery pending %v), want 1", undelivered, in.eng.DeliveryPending())
	}
	c.sched.Fail(in.Job.ID)
	k.Run(0)
	for id := 1; id <= 2; id++ {
		if done[id] != 1 {
			t.Errorf("req %d completed %d times, want once", id, done[id])
		}
	}
	if cs := f.ClusterStats()[0]; cs.HardKills != 1 || f.Migrations() != 2 {
		t.Errorf("%d hard kills, %d migrations, want 1 and 2", cs.HardKills, f.Migrations())
	}
}

// TestKernelClockPanicsOnSleep pins the contract: DES-driven components must
// use deterministic timers, never blocking sleeps.
func TestKernelClockPanicsOnSleep(t *testing.T) {
	k := sim.NewKernel()
	c := kernelClock{k}
	if c.Now() != kernelEpoch {
		t.Errorf("kernelClock.Now at t=0 = %v, want epoch", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("Sleep did not panic")
		}
	}()
	c.Sleep(time.Second)
}

// TestEngineSimUndeliveredWindow pins the step→deliver gap: a sequence that
// completes in the in-flight iteration is out of Depth/EachRunning but
// visible via EachUndelivered until the delivery event fires — the window a
// hard-kill harvest must cover or its request is silently lost.
func TestEngineSimUndeliveredWindow(t *testing.T) {
	k := sim.NewKernel()
	p := DefaultFederationParams(2)
	delivered := 0
	e := MustEngineSim(k, p.Models[0], p.GPU, 0, func(*serving.Sequence) { delivered++ })
	short := &Req{ID: 1}
	long := &Req{ID: 2}
	e.Submit(8, 1, short)  // completes in the first iteration
	e.Submit(8, 100, long) // keeps the batch alive
	k.Run(time.Nanosecond) // runs the step event; the deliver is still queued
	if delivered != 0 {
		t.Fatalf("delivered %d mid-iteration", delivered)
	}
	if !e.DeliveryPending() {
		t.Fatal("DeliveryPending = false with a deliver event in flight")
	}
	var undelivered []*Req
	e.EachUndelivered(func(s *serving.Sequence) { undelivered = append(undelivered, s.Ctx.(*Req)) })
	if len(undelivered) != 1 || undelivered[0] != short {
		t.Fatalf("EachUndelivered = %v, want [short]", undelivered)
	}
	var running []*Req
	e.EachRunning(func(s *serving.Sequence) { running = append(running, s.Ctx.(*Req)) })
	if len(running) != 1 || running[0] != long {
		t.Fatalf("EachRunning = %v, want [long]", running)
	}
	// After delivery the window closes.
	k.Run(10 * time.Second)
	if delivered == 0 || e.DeliveryPending() && e.Depth() == 0 {
		t.Errorf("delivery did not land: delivered=%d pending=%v", delivered, e.DeliveryPending())
	}
	undelivered = undelivered[:0]
	e.EachUndelivered(func(s *serving.Sequence) { undelivered = append(undelivered, s.Ctx.(*Req)) })
	if e.Depth() == 0 && len(undelivered) != 0 {
		t.Errorf("EachUndelivered after idle = %v, want empty", undelivered)
	}
}

// TestFederationParamsDefaultsBGChurn pins withDefaults completing a
// partially-specified background-churn config: a BGPeriod without a
// BGWalltime must not produce immortal science jobs.
func TestFederationParamsDefaultsBGChurn(t *testing.T) {
	p := FederationParams{Clusters: 2, BGPeriod: 450 * time.Second}.withDefaults()
	if p.BGGPUs <= 0 || p.BGWalltime <= 0 || p.BGStagger <= 0 {
		t.Errorf("BG churn left incomplete: %+v", p)
	}
	// Off stays off.
	if p := (FederationParams{Clusters: 2}).withDefaults(); p.BGPeriod != 0 {
		t.Errorf("BGPeriod defaulted on: %v", p.BGPeriod)
	}
}

// TestFederationZeroShardsBuildsNoShardLane: withDefaults fills no front-end
// in — like every cost of the fabric hop, zero means the stage is absent, and
// Arrive is then the routing decision itself.
func TestFederationZeroShardsBuildsNoShardLane(t *testing.T) {
	if p := (FederationParams{Clusters: 2}).withDefaults(); p.Shards != 0 || p.CritSection != 0 || p.PostWork != 0 {
		t.Errorf("withDefaults filled a front-end in: %d shards, %v, %v", p.Shards, p.CritSection, p.PostWork)
	}
	a, k := testArena(sim.QueueCalendar)
	p := fedTestParams(2)
	p.Shards = 0
	var got *Req
	f := NewFederationIn(a, p, func(r *Req) { got = r })
	if f.fe != nil || f.first.wired() {
		t.Fatalf("zero Shards and zero First built a front-end (%v) or a fabric hop (%v)", f.fe != nil, f.first.wired())
	}
	r := fedReq(1, 0, 32, 8)
	k.Schedule(time.Second, func() { f.Arrive(r) })
	k.Run(0)
	if got != r || f.Rungs().Capacity != 1 || r.GatewayAt != 0 || r.ArrivalAt != time.Second {
		t.Errorf("request %+v, rungs %+v: want it routed at its arrival with no admission stamp", r, f.Rungs())
	}
	if with := NewFederationIn(a, fedTestParams(2), nil); with.fe == nil || len(with.fe.shards) != 16 {
		t.Error("DefaultFederationParams' 16 shards built no front-end")
	}
}

// TestFederationRouteZeroAlloc pins the routing decision at zero allocations
// on a four-cluster, three-model federation whose models are serving: every
// cluster's ladder row is written in place and Select reads the rows where
// they lie.
func TestFederationRouteZeroAlloc(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	const n = 24
	completed := 0
	p := fedTestParams(4)
	p.ServeWalltime = 1000 * time.Hour // no churn: the incarnations stay
	f := NewFederationIn(a, p, func(*Req) {
		if completed++; completed%n == 0 {
			k.Stop() // the walltime timers stay pending
		}
	})
	reqs := make([]Req, n)
	for i := range reqs {
		reqs[i] = Req{ID: i + 1, Model: i % 3, PromptTok: 40 + i, OutputTok: 4 + i%5}
	}
	cycle := func() {
		for i := range reqs {
			f.route(&reqs[i])
		}
		k.Run(0)
	}
	for i := 0; i < 100; i++ { // cold starts, then every bucket and ring at its size
		cycle()
	}
	for m := range p.Models {
		serving := 0
		for _, c := range f.clusters {
			s, _, _ := c.deps[m].routingView()
			serving += s
		}
		if serving == 0 {
			t.Fatalf("model %d has no serving instance after warm-up", m)
		}
	}
	before := f.Rungs()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("allocs per %d-request routing cycle = %v, want 0", n, allocs)
	}
	if got := f.Rungs().Active - before.Active; got != 51*n {
		t.Errorf("%d of %d routings took the active rung", got, 51*n)
	}
}

// BenchmarkFederationRoute times Federation.route alone, one routing per op,
// on TestFederationRouteZeroAlloc's warmed four-cluster, three-model
// federation. The kernel runs each batch of routed requests to completion
// with the timer stopped, so the engines stay at the test's depths. The row
// check is off: it is a test of the rows, not part of routing.
func BenchmarkFederationRoute(b *testing.B) {
	defer func(on bool) { checkRows = on }(checkRows)
	checkRows = false
	a, k := testArena(sim.QueueCalendar)
	const n = 24
	completed := 0
	p := fedTestParams(4)
	p.ServeWalltime = 1000 * time.Hour
	f := NewFederationIn(a, p, func(*Req) {
		if completed++; completed%n == 0 {
			k.Stop()
		}
	})
	reqs := make([]Req, n)
	for i := range reqs {
		reqs[i] = Req{ID: i + 1, Model: i % 3, PromptTok: 40 + i, OutputTok: 4 + i%5}
	}
	for c := 0; c < 100; c++ {
		for i := range reqs {
			f.route(&reqs[i])
		}
		k.Run(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.route(&reqs[i%n])
		if i%n == n-1 {
			b.StopTimer()
			k.Run(0)
			b.StartTimer()
		}
	}
}
