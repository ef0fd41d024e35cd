package desmodel

// One property harness for Federation: drawTrial draws a scenario anywhere in
// the buildable FederationParams space (mustBeBuildable) with an arrival
// trace, directedTrials aims a hard kill and a drain at a promised engine
// run, runTrial runs a trial and checks what every run owes, and
// TestFederationProperty runs each trial three ways — calendar queue, heap
// queue, calendar queue with the engines' quiet-run offer ignored — and
// requires one digest. Across the trial set every churn and control path must
// fire in at least its count of trials (reachNames), read from the model's
// own counters.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/sim"
)

// propTrial is one scenario and its arrival trace; a directed trial names
// the reach item it aims at, a drawn one has aim −1.
type propTrial struct {
	p    FederationParams
	gaps []sim.Time
	reqs []Req
	aim  int
}

// drawTrial draws 1-8 clusters at a churn tempo (walltimes shorter than the
// trace force drains, a tight grace against long generations forces hard
// kills, background jobs claim GPUs), then one shape of the buildable space —
// the fabric hop over hot instances, a replayed live schedule, a scaler, or
// churn alone — and one arrival shape: Poisson, everything at t = 0, or
// heavy-tailed outputs.
func drawTrial(seed int64) propTrial {
	rng := sim.NewRNG(seed)
	p := DefaultFederationParams(1 + rng.Intn(8))
	p.ServeWalltime = time.Duration(30+rng.Intn(100)) * time.Second
	p.DrainGrace = time.Duration(5+rng.Intn(20)) * time.Second
	p.BGPeriod = time.Duration(rng.Intn(3)*(40+rng.Intn(260))) * time.Second // zero is off
	p.BGWalltime = time.Duration(20+rng.Intn(280)) * time.Second
	p.BGStagger = time.Duration(1+rng.Intn(80)) * time.Second
	p.Shards *= rng.Intn(2)
	if rng.Intn(4) == 0 {
		p.CordonLead = time.Duration(5+rng.Intn(40)) * time.Second
	}
	n := 100 + rng.Intn(400)
	switch rng.Intn(4) {
	case 0: // every knob that changes the fabric hop's path, over hot instances
		p.First = [...]FirstParams{DefaultFirstParams(), VLLMDirectParams()}[rng.Intn(2)]
		p.First.Window = []int{0, 3, 40, 428}[rng.Intn(4)]
		if rng.Intn(3) == 0 {
			p.First.SyncWorkers = 1 + rng.Intn(9)
		}
		if rng.Intn(2) == 0 {
			p.First.AuthIntrospect = time.Duration(1+rng.Intn(2000)) * time.Millisecond
			p.First.AuthRatePerSec = float64(rng.Intn(2) * (1 + rng.Intn(50)))
		}
		p.First.PollInterval = time.Duration(rng.Intn(2)*(1+rng.Intn(4))) * 500 * time.Millisecond
		rng.Intn(3) // a retired draw (the routing policy): every trial stays the one it was
		p.Hot = 1 + rng.Intn(4)
		p.Models = p.Models[:1+rng.Intn(3)]
	case 1: // a replayed live schedule, the livefed twin's one model on 4×4 GPUs
		p.Models = p.Models[:1]
		p.NodesPerCluster, p.GPUsPerNode = 4, 4
		// All churn comes from the schedule: a pool that drains stays dead
		// until a restart event, so the default walltimes outlast the trace.
		p.ServeWalltime, p.DrainGrace, p.BGPeriod = 0, 0, 0
		s := chaosnet.Schedule{
			Seed: uint64(seed)*2654435761 + 1, Endpoints: p.Clusters, Requests: n,
			Windows: chaosnet.Windows{BurstEvery: 40 + rng.Intn(100), BurstLen: 5 + rng.Intn(10), PFault: 0.3, PBackground: 0.1},
		}
		claims := make([]int, p.Clusters)
		for i := 8 + rng.Intn(16); i > 0; i-- {
			ev := chaosnet.Event{AtIndex: rng.Intn(n - 1), Kind: chaosnet.EventKill, Endpoint: rng.Intn(p.Clusters)}
			switch rng.Intn(4) {
			case 1:
				ev.Kind = chaosnet.EventRestart
			case 2, 3: // a 4-GPU claim or a release, alternating per cluster
				ev.Kind, ev.GPUs = chaosnet.EventBGClaim, 4
				if claims[ev.Endpoint] > 0 {
					ev.Kind, ev.GPUs = chaosnet.EventBGRelease, 0
				}
				claims[ev.Endpoint] ^= 1
			}
			s.Events = append(s.Events, ev)
		}
		// Revive every pool before the last arrival, as a live cell's
		// schedule restarts every kill inside the trace.
		for ep := 0; ep < p.Clusters; ep++ {
			s.Events = append(s.Events, chaosnet.Event{AtIndex: n - 1, Kind: chaosnet.EventRestart, Endpoint: ep})
		}
		s.Sort()
		p.Replay = &ReplayParams{
			Schedule: s,
			Breaker: resilience.BreakerConfig{
				Window: 60 * time.Second, Buckets: 12, MinSamples: 4,
				FailureRate: 0.5, OpenFor: 10 * time.Second, HalfOpenProbes: 1,
			},
			MaxAttempts: 1 + rng.Intn(3),
		}
	case 2: // a scaler; LoWater may exceed HiWater (withDefaults clamps it)
		p.Scale = AutoScaleParams{
			ScalePolicy: fabric.ScalePolicy{
				MaxInstances: 2 + rng.Intn(3),
				HiWater:      1 + 20*rng.Float64(),
				LoWater:      30 * rng.Float64(),
				HiSustain:    1 + rng.Intn(3),
				LoSustain:    1 + rng.Intn(3),
			},
			Interval:   time.Duration(1+rng.Intn(10)) * time.Second,
			Predictive: rng.Intn(2) == 0,
		}
	default: // churn alone, now and then beside a hot instance
		p.Hot = rng.Intn(4) / 3
	}
	tr := propTrial{p: p, aim: -1}
	// Shape 0 is Poisson over a 2-7 minute trace, 1 everything at t = 0, 2
	// Poisson with heavy-tailed outputs.
	shape := rng.Intn(3)
	mean := float64(time.Duration(120+rng.Intn(300))*time.Second) / float64(n)
	// Generations that outlive a tight grace; shorter ones on hot instances,
	// which never die and whose every iteration the offer-ignored way steps.
	maxOut := 1000
	if p.Hot > 0 {
		maxOut = 250
	}
	for i := 0; i < n; i++ {
		out := 4 + rng.Intn(maxOut)
		if shape == 2 && rng.Bernoulli(0.1) {
			out = maxOut/2 + rng.Intn(maxOut*5/2)
		}
		gap := sim.Time(rng.Exp(mean))
		if shape == 1 {
			gap = 0
		}
		tr.gaps = append(tr.gaps, gap)
		tr.reqs = append(tr.reqs, Req{ID: i + 1, Model: rng.Intn(len(p.Models)), PromptTok: 8 + rng.Intn(250), OutputTok: out})
	}
	return tr
}

// reachNames are the paths the trial set must take, each in at least as
// many trials as its count. A scale-up counts only where a pool grew past one
// instance.
var reachNames = [...]struct {
	name   string
	trials int
}{{"drain", 3}, {"hard kill", 3}, {"migration", 3}, {"scale-up", 3}, {"scale-down", 3}, {"refusal", 2},
	{"replay shed", 2}, {"exhausted failover budget", 2}, {"window backlog", 2}, {"poll-delayed observation", 2},
	{"fabric hop over hot instances on ≥ 2 clusters with background jobs", 2}}

// The reach items a directed trial aims at, the migration it must make, and
// the scaler's paths.
const (
	reachDrain     = 0
	reachHardKill  = 1
	reachMigration = 2
	reachScaleUp   = 3
	reachScaleDown = 4
	reachRefusal   = 5
)

type reach [len(reachNames)]bool

// directedTrials aim the two lifecycle cuts at a promised engine run: a
// 5 000-token generation decoding alone is hard-killed, and a batch at its
// cap with a queue behind it is drained. Each must take the cut it aims at
// and migrate what it pulls back, and with the offer taken run at most a
// tenth of the kernel events that stepping every iteration does.
func directedTrials() []propTrial {
	kill := propTrial{p: fedTestParams(2), aim: reachHardKill}
	kill.p.DrainGrace = 5 * time.Second
	kill.gaps = []sim.Time{0, 88 * time.Second}
	kill.reqs = []Req{*fedReq(1, 0, 32, 8), *fedReq(2, 0, 64, 5_000)}
	drain := propTrial{p: fedTestParams(2), aim: reachDrain}
	drain.p.ServeWalltime = 20 * time.Second
	drain.p.Models = DefaultFederationModels()[:1]
	drain.p.Models[0].MaxBatch = 2 // the queue waits behind a full batch
	for i := 0; i < 12; i++ {
		drain.gaps = append(drain.gaps, sim.Time(min(i, 1))*700*time.Millisecond)
		drain.reqs = append(drain.reqs, *fedReq(i+1, 0, 64, 900+100*(i%3)))
	}
	return []propTrial{kill, drain}
}

// runTrial runs tr as the next cell on arena a, its engines stepping every
// iteration when ignore is set. It checks conservation, exactly-once
// completion or failure (a failure only under a replay, unserved), each
// served request's stamp order, pools within MaxInstances (or Hot),
// a pure ClusterStats, and with the fabric hop the window and backlog bounds;
// it returns a digest of everything observable, the paths the run took and
// the kernel events it ran.
func runTrial(tr propTrial, a *Arena, ignore bool) (digest string, reached reach, events uint64, err error) {
	ignoreOffer = ignore
	defer func() { ignoreOffer = false }()
	n := len(tr.reqs)
	done := make([]int, n+1)
	completed := 0
	k := a.Begin()
	k.MaxEvents = 50_000_000 // hang guard: a request ping-ponging at one instant
	window := tr.p.First.window()
	var f *Federation
	f = NewFederationIn(a, tr.p, func(r *Req) {
		done[r.ID]++
		if window > 0 && f.InFlight() > window && err == nil {
			err = fmt.Errorf("%d in flight through a window of %d", f.InFlight(), window)
		}
		if completed++; completed == n {
			k.Stop()
		}
	})
	reqs := OpenLoop(k, n, f.Arrive, func(i int, r *Req) sim.Time {
		*r = tr.reqs[i]
		return k.Now() + tr.gaps[i]
	})
	// Background jobs and the scaler self-schedule forever, so a lost request
	// never lets the nth completion stop the run: the horizon ends it.
	end := k.Run(6 * time.Hour)
	stats := f.ClusterStats()
	switch {
	case err != nil:
	case f.Arrivals() != int64(n) || f.Completions()+f.Failures() != int64(n) || f.InFlight() != 0:
		err = fmt.Errorf("%d requests: %d arrivals, %d completions, %d failures, %d in flight", n, f.Arrivals(), f.Completions(), f.Failures(), f.InFlight())
	case !reflect.DeepEqual(stats, f.ClusterStats()):
		err = fmt.Errorf("ClusterStats is not a pure read")
	case f.MaxBacklog() > max(n-window, 0) || (window <= 0 && f.MaxBacklog() != 0):
		err = fmt.Errorf("backlog peaked at %d with %d requests and a window of %d", f.MaxBacklog(), n, window)
	}
	for _, c := range f.clusters {
		for _, d := range c.deps {
			if limit := max(f.p.Scale.MaxInstances, f.p.Hot); d.peakPool > limit && err == nil {
				err = fmt.Errorf("cluster %s model %d: pool peaked at %d, limit %d", c.name, d.model, d.peakPool, limit)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "end=%d rungs=%+v migrations=%d backlog=%d trips=%d\n", end, f.Rungs(), f.Migrations(), f.MaxBacklog(), f.ReplayBreakerTrips())
	polled := false
	for _, r := range reqs {
		if done[r.ID] != 1 && err == nil {
			err = fmt.Errorf("request %d reached done %d times", r.ID, done[r.ID])
		}
		if r.Failed {
			// No engine finished it; it carries an engine stamp only from
			// an engine that died under it before it migrated.
			if (f.replay == nil || r.CompletedAt != 0 || r.ObservedAt != 0 || r.EngineAt != 0 && r.Migrations == 0) && err == nil {
				err = fmt.Errorf("request %d failed outside a replay or after an engine served it: %+v", r.ID, *r)
			}
		} else if (max(r.ArrivalAt, r.GatewayAt) > r.EngineAt || r.EngineAt >= r.CompletedAt || r.ObservedAt < r.CompletedAt ||
			tr.p.First.PollInterval == 0 && r.ObservedAt != r.CompletedAt) && err == nil {
			err = fmt.Errorf("request %d walked the path out of order: %+v", r.ID, *r)
		}
		polled = polled || r.ObservedAt > r.CompletedAt
		fmt.Fprintf(&sb, "%d %d %t %d %d %d %d %d\n", r.ID, r.Migrations, r.Failed, r.ArrivalAt, r.GatewayAt, r.EngineAt, r.CompletedAt, r.ObservedAt)
	}
	var drains, kills, ups, downs, refused int
	for _, cs := range stats {
		drains, kills, ups, downs, refused = drains+cs.Drains, kills+cs.HardKills, ups+cs.ScaleUps, downs+cs.ScaleDowns, refused+cs.ScaleRefused
		// Every scale-up and pre-warm is a cold start beside the demand
		// start that brought its pool up.
		if grown := cs.ScaleUps + cs.PreWarms; grown > 0 && cs.ColdStarts <= grown && err == nil {
			err = fmt.Errorf("cluster %s: %d cold starts for %d scale-ups and pre-warms", cs.Name, cs.ColdStarts, grown)
		}
		fmt.Fprintf(&sb, "%+v\n", cs)
	}
	grew := false
	for _, c := range f.clusters {
		for _, d := range c.deps {
			grew = grew || d.peakPool > 1
		}
	}
	var sheds, exhausted int64
	if f.replay != nil {
		sheds, exhausted = f.replay.sheds, f.replay.exhausted
	}
	reached = reach{drains > 0, kills > 0, f.Migrations() > 0, ups > 0 && grew, downs > 0, refused > 0, sheds > 0, exhausted > 0,
		f.MaxBacklog() > 0, polled, f.first.wired() && len(f.clusters) >= 2 && tr.p.BGPeriod > 0 && end > tr.p.BGPeriod/2}
	return sb.String(), reached, k.Processed, err
}

type trialResult struct {
	err     error
	reached reach
}

// propertyTrials runs every trial three ways, once per test binary:
// TestFederationProperty and its aliases read the same results. Each way runs
// its trials in turn on one arena, as a fleet worker runs its cells.
var propertyTrials = sync.OnceValue(func() []trialResult {
	ways := []struct {
		name   string
		a      *Arena
		ignore bool
	}{
		{"calendar queue", NewArena(sim.QueueCalendar), false},
		{"heap queue", NewArena(sim.QueueHeap), false},
		{"calendar queue, offer ignored", NewArena(sim.QueueCalendar), true},
	}
	var trials []propTrial
	for i := 0; i < drawnTrials; i++ {
		trials = append(trials, drawTrial(9000+int64(i)*7919))
	}
	trials = append(trials, directedTrials()...)
	out := make([]trialResult, len(trials))
	for i, tr := range trials {
		cal, reached, taken, err := runTrial(tr, ways[0].a, false)
		for _, way := range ways[1:] {
			if err != nil {
				break
			}
			var d string
			var events uint64
			if d, _, events, err = runTrial(tr, way.a, way.ignore); err == nil && d != cal {
				err = fmt.Errorf("the digest on the %s differs\ncalendar queue:\n%.2000s\n%s:\n%.2000s", way.name, cal, way.name, d)
			}
			if err == nil && way.ignore && tr.aim >= 0 && (!reached[tr.aim] || !reached[reachMigration] || taken*10 > events) {
				err = fmt.Errorf("aimed at a %s: reached %v, migrated %v, %d events with the offer taken, %d without",
					reachNames[tr.aim].name, reached[tr.aim], reached[reachMigration], taken, events)
			}
		}
		if err != nil {
			p := tr.p
			err = fmt.Errorf("%d clusters, %d requests, scale %+v, first %+v, hot %d, replay %v: %w",
				p.Clusters, len(tr.reqs), p.Scale, p.First, p.Hot, p.Replay != nil, err)
		}
		out[i] = trialResult{err, reached}
	}
	return out
})

// drawnTrials is how many drawn trials propertyTrials runs ahead of the
// directed ones.
const drawnTrials = 40

// requireReach fails t unless reach item j is taken in at least its count
// of trials that hold their invariants.
func requireReach(t *testing.T, j int) {
	t.Helper()
	n := 0
	for _, r := range propertyTrials() {
		if r.err == nil && r.reached[j] {
			n++
		}
	}
	if want := reachNames[j].trials; n < want {
		t.Errorf("%d trials reached a %s, want at least %d", n, reachNames[j].name, want)
	}
}

// TestFederationProperty is the federation's property test: every drawn
// trial holds its invariants on all three ways and agrees with itself, and
// the trial set reaches every path in reachNames but the scaler's, which the
// TestAutoScale… tests require.
func TestFederationProperty(t *testing.T) {
	for i, r := range propertyTrials()[:drawnTrials] {
		t.Run(fmt.Sprintf("trial%d", i), func(t *testing.T) {
			if r.err != nil {
				t.Fatal(r.err)
			}
		})
	}
	for j := range reachNames {
		if j < reachScaleUp || j > reachRefusal {
			requireReach(t, j)
		}
	}
}

// TestFederationKillAndDrainMidRun reports the directed trials
// (directedTrials): a hard kill and a drain aimed at a promised engine run,
// each run three ways with one digest, taking its cut and migrating with at
// most a tenth of the kernel events of stepping every iteration.
func TestFederationKillAndDrainMidRun(t *testing.T) {
	for i, r := range propertyTrials()[drawnTrials:] {
		t.Run(reachNames[directedTrials()[i].aim].name, func(t *testing.T) {
			if r.err != nil {
				t.Fatal(r.err)
			}
		})
	}
}

// The three sweeps and three re-runs the harness replaced keep their names
// as aliases of it.
func TestFederationPropertyRandomTopologies(t *testing.T)  { TestFederationProperty(t) }
func TestAutoScalePropertyRandomConfigs(t *testing.T)      { TestFederationProperty(t) }
func TestFirstPathConservationSweep(t *testing.T)          { TestFederationProperty(t) }
func TestFederationChurnSameWithOfferIgnored(t *testing.T) { TestFederationProperty(t) }
func TestFederationDeterministicRerun(t *testing.T)        { TestFederationProperty(t) }
func TestScaleRefusedOncePerEpisode(t *testing.T)          { TestFederationProperty(t) }
