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
	reqs := make([]*Req, n)
	for i := 0; i < n; i++ {
		i := i
		reqs[i] = &Req{ID: i + 1, Model: 0, PromptTok: 32, OutputTok: 8}
		// 10 s gaps keep the kill indices well past the pools' ~30 s boot,
		// so kills land on running instances like the live storm's do.
		k.Schedule(time.Duration(i)*10*time.Second, func() {
			f.ReplayAdvance(i)
			f.Arrive(reqs[i])
		})
	}
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
// replayed request completes even though the schedule kills every pool
// mid-run (the DES conserves requests), and two replays of the same
// schedule are identical down to per-request migration counts.
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
// event fires exactly when ReplayAdvance crosses its index, not before —
// the same ordering the live driver uses (churn first, then issue).
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
	alive := func() int { return len(f.clusters[1].deps[0].insts) }
	if alive() == 0 {
		t.Fatal("pool 1 not pre-started")
	}
	k.Schedule(0, func() { f.ReplayAdvance(4) })
	k.Run(2 * time.Minute)
	if alive() == 0 {
		t.Fatal("kill fired before its index")
	}
	k.Schedule(0, func() { f.ReplayAdvance(5) })
	k.Run(3 * time.Minute)
	if alive() != 0 {
		t.Fatal("kill did not fire at its index")
	}
	k.Schedule(0, func() { f.ReplayAdvance(8) })
	k.Run(4 * time.Minute)
	if alive() == 0 {
		t.Fatal("restart did not revive the pool")
	}
}
