package desmodel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/resilience"
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

// TestFederationDeterministicRerun re-runs an identical scenario (fresh
// kernel, background churn enabled) and requires identical counters and
// per-request timings — the cell-level property the experiment fleet's
// differential suite scales up.
func TestFederationDeterministicRerun(t *testing.T) {
	run := func(q sim.QueueKind) ([]sim.Time, FedRungs, int64) {
		a, k := testArena(q)
		k.MaxEvents = 50_000_000
		p := fedTestParams(3)
		p.BGPeriod = 40 * time.Second
		p.BGStagger = 10 * time.Second
		p.BGWalltime = 25 * time.Second
		p.BGGPUs = 4
		n := 500
		done := 0
		// Background jobs self-schedule forever: stop at the last completion
		// like the open-loop experiment driver does.
		f := NewFederationIn(a, p, func(*Req) {
			if done++; done == n {
				k.Stop()
			}
		})
		rng := sim.NewRNG(7)
		var reqs []*Req
		for i := 0; i < n; i++ {
			r := fedReq(i+1, i%len(p.Models), 16+rng.Intn(64), 4+rng.Intn(24))
			reqs = append(reqs, r)
			k.Schedule(time.Duration(i)*200*time.Millisecond, func() { f.Arrive(r) })
		}
		k.Run(0)
		times := make([]sim.Time, len(reqs))
		for i, r := range reqs {
			times[i] = r.ObservedAt
		}
		return times, f.Rungs(), f.Migrations()
	}
	t1, r1, m1 := run(sim.QueueCalendar)
	t2, r2, m2 := run(sim.QueueCalendar)
	t3, r3, m3 := run(sim.QueueHeap)
	if !reflect.DeepEqual(t1, t2) || r1 != r2 || m1 != m2 {
		t.Error("federation run is not deterministic across reruns")
	}
	if !reflect.DeepEqual(t1, t3) || r1 != r3 || m1 != m3 {
		t.Error("federation diverges between calendar and heap kernels")
	}
}

// fedTrial is one randomized federation topology: cluster count, churn tempo
// (walltime drains, hard kills via tight grace, background claims, an
// optional scaler) and an arrival trace, all drawn from the trial seed.
type fedTrial struct {
	p    FederationParams
	n    int
	gaps []sim.Time
	reqs []Req
}

func makeFedTrial(seed int64, withReplay bool) fedTrial {
	rng := sim.NewRNG(seed)
	clusters := 2 + rng.Intn(7) // 2..8
	t := fedTrial{n: 400 + rng.Intn(400)}
	t.p = FederationParams{
		Clusters: clusters,
		// withDefaults fills no front-end in: zero Shards is no shard lane.
		Shards: 16, CritSection: 4 * time.Microsecond, PostWork: 25 * time.Microsecond,
		// Walltimes shorter than the trace (2-4 minutes of arrivals, below)
		// force drains; a tight grace against generations of up to 1500
		// tokens forces hard kills mid-batch; both generate migrations.
		ServeWalltime: time.Duration(40+rng.Intn(120)) * time.Second,
		DrainGrace:    time.Duration(5+rng.Intn(20)) * time.Second,
		BGPeriod:      time.Duration(60+rng.Intn(240)) * time.Second,
	}
	if rng.Intn(2) == 0 {
		t.p.Scale.MaxInstances = 2 + rng.Intn(3)
	}
	models := 3
	if withReplay {
		// Replayed churn mirrors the livefed twin's shape: a single served
		// model on a 4×4-GPU inventory, so a 4-GPU background claim can
		// never starve the pool a parked request waits on.
		models = 1
		t.p.Models = DefaultFederationModels()[:1]
		t.p.NodesPerCluster = 4
		t.p.GPUsPerNode = 4
	}
	mean := 300 * float64(time.Millisecond)
	for i := 0; i < t.n; i++ {
		t.gaps = append(t.gaps, sim.Time(rng.Exp(mean)))
		t.reqs = append(t.reqs, Req{
			ID:        i + 1,
			Model:     rng.Intn(models),
			PromptTok: 16 + rng.Intn(256),
			OutputTok: 4 + rng.Intn(1500),
		})
	}
	if !withReplay {
		return t
	}
	// A replayed churn schedule: random kills, restarts, and GPU claims at
	// random request indices, plus fault windows feeding the breakers.
	s := chaosnet.Schedule{
		Seed:       uint64(seed)*2654435761 + 1,
		Endpoints:  clusters,
		Requests:   t.n,
		RatePerSec: 20,
		Windows: chaosnet.Windows{
			BurstEvery:  40 + rng.Intn(100),
			BurstLen:    5 + rng.Intn(10),
			PFault:      0.3,
			PBackground: 0.1,
		},
	}
	claims := make([]int, clusters)
	for i := 0; i < 8+rng.Intn(16); i++ {
		ep := rng.Intn(clusters)
		at := rng.Intn(t.n - 1)
		switch rng.Intn(4) {
		case 0:
			s.Events = append(s.Events, chaosnet.Event{AtIndex: at, Kind: chaosnet.EventKill, Endpoint: ep})
		case 1:
			s.Events = append(s.Events, chaosnet.Event{AtIndex: at, Kind: chaosnet.EventRestart, Endpoint: ep})
		case 2:
			if claims[ep] == 0 { // at most one outstanding 4-GPU claim per cluster
				claims[ep]++
				s.Events = append(s.Events, chaosnet.Event{AtIndex: at, Kind: chaosnet.EventBGClaim, Endpoint: ep, GPUs: 4})
			}
		default:
			if claims[ep] > 0 {
				claims[ep]--
				s.Events = append(s.Events, chaosnet.Event{AtIndex: at, Kind: chaosnet.EventBGRelease, Endpoint: ep})
			}
		}
	}
	// Revive every pool at the end of the trace so parked (shed/exhausted)
	// requests complete and the conservation check can demand all n.
	for ep := 0; ep < clusters; ep++ {
		s.Events = append(s.Events, chaosnet.Event{AtIndex: t.n - 1, Kind: chaosnet.EventRestart, Endpoint: ep})
	}
	s.Sort()
	// All churn comes from the schedule: under replay a pool that drains
	// stays dead until a restart event, so a walltime drain after the last
	// one would park requests forever. Default (600 s) walltimes outlast
	// the trace.
	t.p.ServeWalltime, t.p.DrainGrace = 0, 0
	t.p.BGPeriod = 0
	t.p.Scale = AutoScaleParams{}
	t.p.Replay = &ReplayParams{
		Schedule: s,
		Breaker: resilience.BreakerConfig{
			Window: 60 * time.Second, Buckets: 12, MinSamples: 4,
			FailureRate: 0.5, OpenFor: 10 * time.Second, HalfOpenProbes: 1,
		},
		MaxAttempts: 1 + rng.Intn(3),
	}
	return t
}

// runFedTrial executes one trial on an arena-built federation with queue
// kind q, checks conservation and exactly-once, and returns a full
// observable digest: every request's fields, the rung/migration counters
// and per-cluster stats.
func runFedTrial(t *testing.T, tr fedTrial, q sim.QueueKind) string {
	reqs := make([]Req, len(tr.reqs))
	copy(reqs, tr.reqs)
	doneCount := make([]int, tr.n+1)
	doneSeen := 0
	a := NewArena(q)
	k := a.Begin()
	k.MaxEvents = 20_000_000 // hang guard: a request ping-ponging at one instant
	f := NewFederationIn(a, tr.p, func(r *Req) {
		doneCount[r.ID]++
		if doneSeen++; doneSeen == tr.n {
			k.Stop()
		}
	})
	i := 0
	var step func()
	step = func() {
		f.ReplayAdvance(i)
		f.Arrive(&reqs[i])
		if i++; i < tr.n {
			k.Schedule(tr.gaps[i], step)
		}
	}
	k.Schedule(tr.gaps[0], step)
	// Background jobs and the scaler self-schedule forever, so a dropped
	// request would never let the nth completion stop the run: the horizon
	// (the trace is under a minute of arrivals) ends it for the checks below.
	end := k.Run(6 * time.Hour)

	if got := f.Arrivals(); got != int64(tr.n) {
		t.Fatalf("arrivals = %d, want %d", got, tr.n)
	}
	if got := f.Completions(); got != int64(tr.n) {
		t.Fatalf("completions = %d, want %d (conservation violated)", got, tr.n)
	}
	for id := 1; id <= tr.n; id++ {
		if doneCount[id] != 1 {
			t.Fatalf("request %d completed %d times, want exactly once", id, doneCount[id])
		}
		if reqs[id-1].CompletedAt == 0 {
			t.Fatalf("request %d has no completion timestamp", id)
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "end=%d rungs=%+v migrations=%d\n", end, f.Rungs(), f.Migrations())
	for i := range reqs {
		fmt.Fprintf(&sb, "%+v\n", reqs[i])
	}
	for _, cs := range f.ClusterStats() {
		fmt.Fprintf(&sb, "%+v\n", cs)
	}
	return sb.String()
}

// TestFederationPropertyRandomTopologies is the model's property suite:
// randomized topologies (2-8 clusters, random drain/kill/background
// schedules, optional scaler, one replayed-churn trial) must conserve
// requests, complete each exactly once, and produce byte-identical digests
// on the calendar and heap queues.
func TestFederationPropertyRandomTopologies(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			tr := makeFedTrial(9000+int64(trial)*7919, trial == 3)
			cal := runFedTrial(t, tr, sim.QueueCalendar)
			if heap := runFedTrial(t, tr, sim.QueueHeap); heap != cal {
				t.Fatalf("digest diverged between calendar and heap queues (clusters=%d)\ncalendar:\n%.2000s\nheap:\n%.2000s",
					tr.p.Clusters, cal, heap)
			}
		})
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
