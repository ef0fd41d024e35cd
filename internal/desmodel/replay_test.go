package desmodel

import (
	"reflect"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/sim"
)

// replayTestParams mirrors the livefed twin shape: one model on the live
// inventory, self-scheduled churn off — every kill, restart, and GPU claim
// comes from the replayed schedule.
func replayTestParams(clusters int, s chaosnet.Schedule) FederationParams {
	p := DefaultFederationParams(clusters)
	p.Models = []perfmodel.ModelSpec{perfmodel.Default.MustLookup(perfmodel.Llama8B)}
	p.NodesPerCluster = 4
	p.GPUsPerNode = 4
	p.ServeWalltime = 100_000_000 * time.Second
	p.DrainGrace = time.Second
	p.BGPeriod = 0
	p.Replay = &ReplayParams{
		Schedule: s,
		Breaker: resilience.BreakerConfig{
			Window: 60 * time.Second, Buckets: 12, MinSamples: 4,
			FailureRate: 0.5, OpenFor: 10 * time.Second, HalfOpenProbes: 1,
		},
		MaxAttempts: 3,
	}
	return p
}

func replayTestSchedule() chaosnet.Schedule {
	s := chaosnet.Schedule{
		Seed:      0xbeef,
		Endpoints: 2,
		Requests:  400,
		Windows:   chaosnet.Windows{BurstEvery: 50, BurstLen: 15, PFault: 0.9},
		Events: []chaosnet.Event{
			{AtIndex: 100, Kind: chaosnet.EventKill, Endpoint: 1},
			{AtIndex: 180, Kind: chaosnet.EventRestart, Endpoint: 1},
			{AtIndex: 150, Kind: chaosnet.EventBGClaim, Endpoint: 0, GPUs: 12},
			{AtIndex: 250, Kind: chaosnet.EventBGRelease, Endpoint: 0},
			{AtIndex: 280, Kind: chaosnet.EventKill, Endpoint: 0},
			{AtIndex: 340, Kind: chaosnet.EventRestart, Endpoint: 0},
		},
	}
	s.Sort()
	return s
}

// replaySummary is everything a replay run should reproduce exactly.
type replaySummary struct {
	Completed  int
	Rungs      FedRungs
	Migrations int64
	Trips      int64
	HardKills  int
	ColdStarts int
	PerReq     []int // per-request migration counts
}

func runReplayOnce(t *testing.T, s chaosnet.Schedule) replaySummary {
	t.Helper()
	a, k := testArena(sim.QueueCalendar)
	n := s.Requests
	completed := 0
	f := NewFederationIn(a, replayTestParams(s.Endpoints, s), func(*Req) { completed++ })
	// 10 s gaps keep the kill indices well past the pools' ~30 s boot, so
	// kills land on running instances like the live storm's do.
	reqs := OpenLoop(k, n, f.Arrive, func(i int, r *Req) sim.Time {
		*r = Req{ID: i + 1, PromptTok: 32, OutputTok: 8}
		return time.Duration(i) * 10 * time.Second
	})
	k.Run(0)
	sum := replaySummary{
		Completed:  completed,
		Rungs:      f.Rungs(),
		Migrations: f.Migrations(),
		Trips:      f.ReplayBreakerTrips(),
	}
	for _, cs := range f.ClusterStats() {
		sum.HardKills += cs.HardKills
		sum.ColdStarts += cs.ColdStarts
	}
	for _, r := range reqs {
		sum.PerReq = append(sum.PerReq, r.Migrations)
	}
	return sum
}

// TestReplayConservesAndReruns pins the two replay contracts: every
// replayed request reaches done, completed or failed, even though the
// schedule kills every pool mid-run, and two replays of the same schedule
// are identical down to per-request migration counts.
func TestReplayConservesAndReruns(t *testing.T) {
	s := replayTestSchedule()
	a := runReplayOnce(t, s)
	b := runReplayOnce(t, s)
	if a.Completed != s.Requests {
		t.Errorf("completed %d of %d replayed requests", a.Completed, s.Requests)
	}
	if a.HardKills == 0 {
		t.Error("kill events produced no hard kills")
	}
	if a.ColdStarts == 0 {
		t.Error("restart events produced no cold starts")
	}
	if a.Migrations == 0 {
		t.Error("fault windows produced no migrations")
	}
	if a.Trips == 0 {
		t.Error("fault windows never tripped a replay breaker")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay reruns diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestReplayEventsGateOnIndex verifies the index time base: a schedule
// event fires at the arrival whose index it names, not before — the same
// ordering the live driver uses (churn first, then issue).
func TestReplayEventsGateOnIndex(t *testing.T) {
	s := chaosnet.Schedule{
		Seed: 1, Endpoints: 2, Requests: 10,
		Events: []chaosnet.Event{
			{AtIndex: 5, Kind: chaosnet.EventKill, Endpoint: 1},
			{AtIndex: 8, Kind: chaosnet.EventRestart, Endpoint: 1},
		},
	}
	s.Sort()
	a, k := testArena(sim.QueueCalendar)
	f := NewFederationIn(a, replayTestParams(2, s), func(*Req) {})
	// Bounded horizons: k.Run(0) would drain the pre-started pools' far-
	// future serve-walltime expiries too and tear everything down.
	k.Run(time.Minute) // let the pre-started pools boot
	alive := func() int { return f.clusters[1].deps[0].pool.Len() }
	if alive() == 0 {
		t.Fatal("pool 1 not pre-started")
	}
	arrived := 0
	arriveUpTo := func(n int, until sim.Time) {
		for ; arrived < n; arrived++ {
			r := &Req{ID: arrived + 1, PromptTok: 32, OutputTok: 8}
			k.Schedule(0, func() { f.Arrive(r) })
		}
		k.Run(until)
	}
	arriveUpTo(5, 2*time.Minute)
	if alive() == 0 {
		t.Fatal("kill fired before the 6th arrival")
	}
	arriveUpTo(6, 3*time.Minute)
	if alive() != 0 {
		t.Fatal("kill did not fire at the 6th arrival")
	}
	arriveUpTo(8, 4*time.Minute)
	if alive() != 0 {
		t.Fatal("restart fired before the 9th arrival")
	}
	arriveUpTo(9, 5*time.Minute)
	if alive() == 0 {
		t.Fatal("restart did not revive the pool at the 9th arrival")
	}
}

// TestReplayClosedLoopThroughDeadPools drives one closed-loop client, each
// request issued from the previous one's done as the livefed twin issues
// them, through a replay that kills both pools at index 10 and restarts
// them at 20. The requests in between fail as the live gateway fails them;
// a parked one would hold the loop short of the restart index for ever.
// Every request reaches done in an event of its own, never inside an
// Arrive, so a run of failures does not recurse.
func TestReplayClosedLoopThroughDeadPools(t *testing.T) {
	const n = 40
	s := chaosnet.Schedule{Seed: 1, Endpoints: 2, Requests: n, Events: []chaosnet.Event{
		{AtIndex: 10, Kind: chaosnet.EventKill, Endpoint: 0},
		{AtIndex: 10, Kind: chaosnet.EventKill, Endpoint: 1},
		{AtIndex: 20, Kind: chaosnet.EventRestart, Endpoint: 0},
		{AtIndex: 20, Kind: chaosnet.EventRestart, Endpoint: 1},
	}}
	s.Sort()
	a, k := testArena(sim.QueueCalendar)
	reqs := make([]Req, n)
	issued, resolved, arriving := 0, 0, false
	var f *Federation
	issue := func() {
		r := &reqs[issued]
		issued++
		*r = Req{ID: issued, PromptTok: 3, OutputTok: 16}
		arriving = true
		f.Arrive(r)
		arriving = false
	}
	f = NewFederationIn(a, replayTestParams(2, s), func(r *Req) {
		if arriving {
			t.Errorf("request %d reached done inside an Arrive", r.ID)
		}
		if resolved++; issued < n {
			issue()
		} else if resolved == n {
			k.Stop()
		}
	})
	issue()
	k.Run(0)
	if resolved != n || f.Completions()+f.Failures() != n {
		t.Fatalf("%d of %d requests resolved: %d completions, %d failures", resolved, n, f.Completions(), f.Failures())
	}
	for i := range reqs {
		r := &reqs[i]
		if down := i >= 10 && i < 20; down && (!r.Failed || r.ObservedAt != 0) {
			t.Errorf("request %d, issued while both pools were down, did not fail: %+v", r.ID, *r)
		} else if i < 10 && r.Failed {
			t.Errorf("request %d failed before the kills: %+v", r.ID, *r)
		}
	}
	if last := reqs[n-1]; last.Failed || last.ObservedAt == 0 {
		t.Errorf("the last request did not complete after the restart: %+v", last)
	}
}

// TestReplayTriedEverywhereIsExhausted: a request that has failed on every
// candidate, with no breaker open and budget left, is a spent failover in
// the twin as in the live gateway (the last attempt's typed 502), not a
// shed.
func TestReplayTriedEverywhereIsExhausted(t *testing.T) {
	s := chaosnet.Schedule{Seed: 1, Endpoints: 2, Requests: 1, Windows: chaosnet.Windows{PBackground: 1}}
	a, k := testArena(sim.QueueCalendar)
	f := NewFederationIn(a, replayTestParams(2, s), func(*Req) {})
	r := &Req{ID: 1, PromptTok: 32, OutputTok: 8}
	k.Schedule(0, func() { f.Arrive(r) })
	k.Run(time.Minute)
	if got := [2]int64{f.replay.sheds, f.replay.exhausted}; got != [2]int64{0, 1} {
		t.Errorf("sheds, exhausted = %v, want [0 1]", got)
	}
	// Each failure with budget left is a failover, the last one included,
	// as the live gateway counts it before the walk finds no candidate.
	if !r.Failed || r.Migrations != 2 || f.Failures() != 1 {
		t.Errorf("request %+v, failures %d: want two failovers, then a failure", *r, f.Failures())
	}
}
