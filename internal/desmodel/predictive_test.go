package desmodel

import (
	"testing"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// warmPoolAtDepth builds a one-cluster federation with the scaler on, grows
// model 0's pool to `insts` incarnations by hand, and parks `depth` endless
// requests on it — a steady state the tests can drive scaleTick against.
func warmPoolAtDepth(t *testing.T, maxInst, insts, depth int) (*sim.Kernel, *Federation, *fedDep) {
	t.Helper()
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(1, maxInst)
	p.Scale.HiWater = 1e9 // the warm-up backlog must not trip the scaler itself
	f := NewFederationIn(a, p, nil)
	d := f.clusters[0].deps[0]
	// Disarm the lo band for the warm-up too (post-construction, since
	// withDefaults would clamp a zero back up): an idle pool must survive
	// until the test hands it its own watermarks.
	f.p.Scale.LoWater = 0
	for i := 0; i < depth; i++ {
		r := &Req{ID: i + 1, Model: 0, PromptTok: 64, OutputTok: 1 << 20}
		k.Schedule(0, func() { f.Arrive(r) })
	}
	// The first incarnation is demand-driven (offer on the first arrival);
	// with no parked depth there is no demand, so start all of them by hand.
	first := 1
	if depth == 0 {
		first = 0
	}
	for i := first; i < insts; i++ {
		k.Schedule(time.Second, func() { d.startInstance() })
	}
	k.Run(10 * time.Minute) // past prologue + weights load
	if got := d.pool.Len(); got != insts {
		t.Fatalf("warm-up built %d instances, want %d", got, insts)
	}
	return k, f, d
}

// TestScaleStreakResetOnPoolChange pins the stale-streak fix: a streak
// accumulated against one pool size must not carry over a live-count change
// that happened through another path (here a walltime-style drain), or the
// next tick would act immediately against a denominator the condition never
// held for.
func TestScaleStreakResetOnPoolChange(t *testing.T) {
	t.Run("hiStreak", func(t *testing.T) {
		_, f, d := warmPoolAtDepth(t, 4, 2, 32)
		f.p.Scale.HiWater = 4 // 32 > 4×2 — and 32 > 4×1 after the shrink too
		d.scaleTick()         // hiStreak 1 of HiSustain 2
		if d.scale.HiStreak != 1 {
			t.Fatalf("hiStreak = %d after one hi tick, want 1", d.scale.HiStreak)
		}
		// A drain (not the scaler) removes one instance mid-streak.
		victim := d.pool.Pick()
		victim.beginDrain(false)
		ups := f.ClusterStats()[0].ScaleUps
		d.scaleTick() // pre-fix: streak hits 2 and fires against the new size
		if got := f.ClusterStats()[0].ScaleUps; got != ups {
			t.Fatalf("scale-up fired on the first tick after a drain-driven shrink (ups %d -> %d): stale streak", ups, got)
		}
		if d.scale.HiStreak != 1 {
			t.Fatalf("hiStreak = %d on the first tick at the new size, want 1", d.scale.HiStreak)
		}
		d.scaleTick() // condition re-proven at the new size: now it may act
		if got := f.ClusterStats()[0].ScaleUps; got != ups+1 {
			t.Fatalf("scale-up did not fire once the streak re-proved (ups=%d, want %d)", got, ups+1)
		}
	})
	t.Run("loStreak", func(t *testing.T) {
		_, f, d := warmPoolAtDepth(t, 4, 3, 0) // three idle instances
		f.p.Scale.LoWater = 1e9                // always underused; LoSustain is 2
		d.scaleTick()                          // loStreak 1 of 2
		if d.scale.LoStreak != 1 {
			t.Fatalf("loStreak = %d after one lo tick, want 1", d.scale.LoStreak)
		}
		victim := d.pool.Pick()
		victim.beginDrain(false) // drain-driven shrink mid lo-streak
		downs := f.ClusterStats()[0].ScaleDowns
		d.scaleTick() // pre-fix: loStreak hits 2 and shrinks again immediately
		if got := f.ClusterStats()[0].ScaleDowns; got != downs {
			t.Fatalf("scale-down fired on the first tick after a drain-driven shrink (downs %d -> %d): stale streak", downs, got)
		}
		if d.scale.LoStreak != 1 {
			t.Fatalf("loStreak = %d on the first tick at the new size, want 1", d.scale.LoStreak)
		}
	})
}

// predictiveRampRun drives one fixed ramp trace (arrival gaps tightening
// from 2 s down to 125 ms — backlog builds gradually, exactly the shape a
// trend forecast leads and a reactive watermark lags) through a one-cluster
// scenario and returns the run's stats plus the total sojourn time.
func predictiveRampRun(t *testing.T, predictive bool) (FedClusterStats, time.Duration, int64) {
	t.Helper()
	a, k := testArena(sim.QueueCalendar)
	k.MaxEvents = 50_000_000
	p := scaleTestParams(1, 4)
	// Room for the whole pool: the default 2×4-GPU inventory fits only two
	// TP-4 incarnations, and a scale-up pinned in the scheduler queue
	// blocks the pre-warm guard (PoolView.Upcoming) for the rest of the run.
	p.NodesPerCluster = 8
	p.Scale.HiWater = 6
	p.Scale.Predictive = predictive
	n := 600
	done := 0
	var total time.Duration
	f := NewFederationIn(a, p, func(r *Req) {
		total += time.Duration(r.CompletedAt - r.ArrivalAt)
		if done++; done == n {
			k.Stop()
		}
	})
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		gap := 2*time.Second - time.Duration(i)*7800*time.Microsecond
		if gap < 125*time.Millisecond {
			gap = 125 * time.Millisecond
		}
		at += gap
		r := &Req{ID: i + 1, Model: 0, PromptTok: 64, OutputTok: 900}
		k.Schedule(at, func() { f.Arrive(r) })
	}
	k.Run(0)
	if done != n {
		t.Fatalf("completed %d/%d (predictive=%v)", done, n, predictive)
	}
	if f.Arrivals() != int64(n) || f.Completions() != int64(n) {
		t.Fatalf("conservation broke: arrivals=%d completions=%d want %d", f.Arrivals(), f.Completions(), n)
	}
	return f.ClusterStats()[0], total, f.Migrations()
}

// TestPredictivePreWarmHidesColdStart is the tentpole's core claim at unit
// scale: on the same ramp trace, the predictive scaler pre-warms ahead of
// the high-water mark and the fleet finishes the trace with strictly less
// total sojourn time than the reactive scaler — the hidden cold starts are
// exactly the difference.
func TestPredictivePreWarmHidesColdStart(t *testing.T) {
	reactive, reactiveTotal, _ := predictiveRampRun(t, false)
	predictive, predictiveTotal, _ := predictiveRampRun(t, true)
	if predictive.PreWarms == 0 {
		t.Fatal("predictive run recorded no pre-warms on a ramp trace")
	}
	if reactive.PreWarms != 0 {
		t.Fatalf("reactive run recorded %d pre-warms; the predictive path leaked", reactive.PreWarms)
	}
	if predictive.ColdStarts < predictive.ScaleUps+predictive.PreWarms {
		t.Fatalf("ColdStarts %d < ScaleUps %d + PreWarms %d: pre-warms bypassed the scheduler path",
			predictive.ColdStarts, predictive.ScaleUps, predictive.PreWarms)
	}
	if predictiveTotal >= reactiveTotal {
		t.Fatalf("predictive total sojourn %v not below reactive %v on the ramp", predictiveTotal, reactiveTotal)
	}
	if predictive.ScaleRefused > reactive.ScaleRefused {
		t.Fatalf("predictive refused-at-cap %d worse than reactive %d", predictive.ScaleRefused, reactive.ScaleRefused)
	}
}

// TestPredictiveOffIsByteIdenticalPath guards the zero-value contract at
// the state level: with Predictive off, a full run leaves every forecast
// accumulator untouched and records no pre-warms — there is no half-on
// state the reactive families could drift through.
func TestPredictiveOffIsByteIdenticalPath(t *testing.T) {
	reactive, _, _ := predictiveRampRun(t, false)
	if reactive.PreWarms != 0 {
		t.Fatalf("PreWarms = %d with Predictive off", reactive.PreWarms)
	}
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(1, 4)
	n := 40
	done := 0
	f := NewFederationIn(a, p, func(*Req) {
		if done++; done == n {
			k.Stop()
		}
	})
	floodModel(k, f, 0, n, 400)
	k.Run(0)
	for _, d := range f.clusters[0].deps {
		if d.fcArrive.Seeded() || d.fcServe.Seeded() {
			t.Fatal("forecast state observed samples with Predictive off")
		}
		if rec := d.record(); rec.Ready != rec.Running {
			t.Fatal("instance cordoned with CordonLead unset")
		}
	}
}

// cordonRow is one instance's share of a ladder row: the instances that
// still serve uncordoned, and whether the row is cordoned.
type cordonRow struct {
	instances int
	cordoned  bool
}

// cordonCase warms model 0's instances (one per start, on cluster
// i%clusters), runs to at, cordons the listed clusters' instances by hand,
// and expects every cluster's ladder row and where one request then serves.
type cordonCase struct {
	name            string
	clusters        int
	walltime, lead  time.Duration
	starts          []sim.Time
	at              sim.Time
	cordon          []int
	rows            []cordonRow
	cluster, member int // where the request serves
}

// checkCordon plays c: each cluster's ladder row reads as expected, with the
// CordonLead timer a cordoned row drains within the lead, and the request
// serves on the expected instance, never parked, refused or migrated.
func checkCordon(t *testing.T, c cordonCase) {
	t.Helper()
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(c.clusters, 2)
	p.ServeWalltime, p.CordonLead = c.walltime, c.lead
	served := 0
	f := NewFederationIn(a, p, func(*Req) { served++ })
	// Disarm the lo band (post-construction, since withDefaults would
	// clamp a zero back up): idle pools must survive the warm-up.
	f.p.Scale.LoWater = 0
	for i, at := range c.starts {
		k.Schedule(at, f.clusters[i%c.clusters].deps[0].startInstance)
	}
	k.Run(c.at)
	for _, cl := range c.cordon {
		for _, in := range f.clusters[cl].deps[0].pool.Members() {
			in.cordon(0)
		}
	}
	for cl, want := range c.rows {
		d := f.clusters[cl].deps[0]
		if got := (cordonRow{d.row.Instances, d.row.Cordoned}); got != want {
			t.Errorf("%s: cluster %d's ladder row = %+v, want %+v", c.name, cl, got, want)
		}
		if _, _, drainingAt := d.routingView(); c.lead > 0 && (drainingAt <= 0 || drainingAt > c.lead) {
			t.Errorf("%s: cluster %d drains in %v, want within (0, %v]", c.name, cl, drainingAt, c.lead)
		}
	}
	r := fedReq(1, 0, 64, 4)
	k.Schedule(0, func() { f.Arrive(r) })
	k.Run(c.at + time.Millisecond) // through the front-end's shard stage
	placed := f.clusters[c.cluster].deps[0].pool.Members()[c.member].eng.Depth() == 1
	if k.Run(c.at + time.Minute); !placed || served != 1 || r.Migrations != 0 {
		t.Errorf("%s: placed on cluster %d's instance %d: %v; then served %d with %d migrations", c.name, c.cluster, c.member, placed, served, r.Migrations)
	}
}

// TestCordonStopsRoutingBeforeDrain pins drain-aware routing in the DES with
// model 0 serving on two clusters: cordoning all of cluster A's serving
// capacity by hand steers the request to cluster B, and cordoning B too must
// still place it (the capacity/cordoned fallback) — drain-awareness never
// parks or loses work.
func TestCordonStopsRoutingBeforeDrain(t *testing.T) {
	for _, c := range []cordonCase{
		{"nothing cordoned: the rotation's first cluster", 2, 1e6 * time.Second, 0, []sim.Time{0, 0}, 10 * time.Minute, nil, []cordonRow{{1, false}, {1, false}}, 0, 0},
		{"cluster A cordoned by hand", 2, 1e6 * time.Second, 0, []sim.Time{0, 0}, 10 * time.Minute, []int{0}, []cordonRow{{0, true}, {1, false}}, 1, 0},
		{"both cordoned by hand: the fallback", 2, 1e6 * time.Second, 0, []sim.Time{0, 0}, 10 * time.Minute, []int{0, 1}, []cordonRow{{0, true}, {0, true}}, 0, 0},
	} {
		checkCordon(t, c)
	}
}

// TestCordonLeadFiresBeforeDrain pins the cordon event itself: with
// CordonLead set, a serving incarnation flags itself one lead ahead of its
// walltime drain, and the request goes to the uncordoned sibling.
func TestCordonLeadFiresBeforeDrain(t *testing.T) {
	// The first serves from prologue + load = 43 s, so its cordon flag lands
	// at 283 s and its drain at 343 s; the second serves from 143 s and
	// cordons at 383 s. At 300 s exactly one is flagged.
	checkCordon(t, cordonCase{"the first cordoned by its lead timer", 1, 300 * time.Second, 60 * time.Second,
		[]sim.Time{0, 100 * time.Second}, 300 * time.Second, nil, []cordonRow{{1, false}}, 0, 1})
}
