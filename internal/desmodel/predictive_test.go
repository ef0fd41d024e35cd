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
	if got := len(d.insts); got != insts {
		t.Fatalf("warm-up built %d instances, want %d", got, insts)
	}
	return k, f, d
}

// TestScaleRefusedOncePerEpisode pins the refused-at-cap accounting fix: a
// pool pinned at MaxInstances under one standing backlog counts exactly one
// refusal for the whole episode, where the pre-fix scaler re-counted it
// every HiSustain ticks — 6 times over the 12 ticks driven here. A second
// episode (condition breaks, then re-trips) counts a second refusal.
func TestScaleRefusedOncePerEpisode(t *testing.T) {
	_, f, d := warmPoolAtDepth(t, 2, 2, 16)
	f.p.Scale.HiWater = 4 // depth 16 > 4×2: the hi condition now stands
	for i := 0; i < 12; i++ {
		d.scaleTick()
	}
	cs := f.ClusterStats()[0]
	if cs.ScaleRefused != 1 {
		t.Fatalf("ScaleRefused = %d over one sustained at-cap episode, want 1 (pre-fix: 6)", cs.ScaleRefused)
	}
	if cs.ScaleUps != 0 || len(d.insts) != 2 {
		t.Fatalf("pool moved at the cap: ups=%d insts=%d", cs.ScaleUps, len(d.insts))
	}
	// A one-tick flap (watermark lifted for a single tick, then re-tripped)
	// is the same standing episode: the latch clears only after HiSustain
	// consecutive ticks without the condition, so no second count.
	f.p.Scale.HiWater = 1e9
	d.scaleTick()
	f.p.Scale.HiWater = 4
	for i := 0; i < 6; i++ {
		d.scaleTick()
	}
	if got := f.ClusterStats()[0].ScaleRefused; got != 1 {
		t.Fatalf("ScaleRefused = %d after a one-tick flap, want still 1", got)
	}
	// Break the episode for HiSustain consecutive ticks, then re-trip it:
	// the latch re-arms and counts exactly one more.
	f.p.Scale.HiWater = 1e9
	for i := 0; i < f.p.Scale.HiSustain; i++ {
		d.scaleTick()
	}
	f.p.Scale.HiWater = 4
	for i := 0; i < 6; i++ {
		d.scaleTick()
	}
	if got := f.ClusterStats()[0].ScaleRefused; got != 2 {
		t.Fatalf("ScaleRefused = %d after a second episode, want 2", got)
	}
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
		if d.hiStreak != 1 {
			t.Fatalf("hiStreak = %d after one hi tick, want 1", d.hiStreak)
		}
		// A drain (not the scaler) removes one instance mid-streak.
		victim := d.pickServing()
		victim.beginDrain(victim.job, false)
		ups := f.ClusterStats()[0].ScaleUps
		d.scaleTick() // pre-fix: streak hits 2 and fires against the new size
		if got := f.ClusterStats()[0].ScaleUps; got != ups {
			t.Fatalf("scale-up fired on the first tick after a drain-driven shrink (ups %d -> %d): stale streak", ups, got)
		}
		if d.hiStreak != 1 {
			t.Fatalf("hiStreak = %d on the first tick at the new size, want 1", d.hiStreak)
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
		if d.loStreak != 1 {
			t.Fatalf("loStreak = %d after one lo tick, want 1", d.loStreak)
		}
		victim := d.pickServing()
		victim.beginDrain(victim.job, false) // drain-driven shrink mid lo-streak
		downs := f.ClusterStats()[0].ScaleDowns
		d.scaleTick() // pre-fix: loStreak hits 2 and shrinks again immediately
		if got := f.ClusterStats()[0].ScaleDowns; got != downs {
			t.Fatalf("scale-down fired on the first tick after a drain-driven shrink (downs %d -> %d): stale streak", downs, got)
		}
		if d.loStreak != 1 {
			t.Fatalf("loStreak = %d on the first tick at the new size, want 1", d.loStreak)
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
	// blocks the pre-warm guard (hasUpcoming) for the rest of the run.
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
		for _, in := range d.insts {
			if in.cordoned {
				t.Fatal("instance cordoned with CordonLead unset")
			}
		}
	}
}

// TestCordonStopsRoutingBeforeDrain pins drain-aware routing in the DES:
// with the model serving on two clusters, cordoning all of cluster A's
// serving capacity steers new arrivals to cluster B; cordoning B too must
// still place the request (capacity/cordoned fallback) — drain-awareness
// never parks or loses work.
func TestCordonStopsRoutingBeforeDrain(t *testing.T) {
	ar, k := testArena(sim.QueueCalendar)
	p := DefaultFederationParams(2)
	p.BGPeriod = 0
	p.ServeWalltime = 1e6 * time.Second
	served := 0
	f := NewFederationIn(ar, p, func(*Req) { served++ })
	a, b := f.clusters[0], f.clusters[1]
	k.Schedule(0, func() { a.deps[0].startInstance(); b.deps[0].startInstance() })
	k.Run(10 * time.Minute)
	if a.deps[0].pickServing() == nil || b.deps[0].pickServing() == nil {
		t.Fatal("warm-up did not bring model 0 up on both clusters")
	}

	// Baseline: model 0's rotation starts at cluster A, both pools idle and
	// equal, so the depth tie-break keeps picking A.
	r1 := &Req{ID: 1, Model: 0, PromptTok: 64, OutputTok: 4}
	k.Schedule(0, func() { f.Arrive(r1) })
	k.Run(11 * time.Minute) // Run takes an absolute horizon
	if a.stats.Routed != 1 || b.stats.Routed != 0 {
		t.Fatalf("baseline routing went A=%d B=%d, want 1/0", a.stats.Routed, b.stats.Routed)
	}

	// Cordon all of A's serving capacity: the next arrival must go to B.
	for _, in := range a.deps[0].insts {
		if in.state == instServing {
			in.cordoned = true
		}
	}
	serving, cordoned, _ := a.deps[0].routingView()
	if serving != 0 || !cordoned {
		t.Fatalf("routingView after cordon = (%d, %v), want (0, true)", serving, cordoned)
	}
	r2 := &Req{ID: 2, Model: 0, PromptTok: 64, OutputTok: 4}
	k.Schedule(0, func() { f.Arrive(r2) })
	k.Run(12 * time.Minute)
	if b.stats.Routed != 1 {
		t.Fatalf("arrival after cordoning A routed to A (A=%d B=%d): ladder ignored the cordon", a.stats.Routed, b.stats.Routed)
	}

	// Cordon B as well: the request must still land somewhere and serve —
	// never refused, never parked behind the drain flag.
	for _, in := range b.deps[0].insts {
		if in.state == instServing {
			in.cordoned = true
		}
	}
	r3 := &Req{ID: 3, Model: 0, PromptTok: 64, OutputTok: 4}
	k.Schedule(0, func() { f.Arrive(r3) })
	k.Run(13 * time.Minute)
	if served != 3 {
		t.Fatalf("served %d/3: a fully-cordoned federation dropped work", served)
	}
	if r3.Migrations != 0 {
		t.Fatalf("fallback placement migrated %d times, want direct service", r3.Migrations)
	}
}

// TestCordonLeadFiresBeforeDrain pins the cordon event itself: with
// CordonLead set, a serving incarnation flags itself exactly one lead ahead
// of its walltime drain, and in-pool selection prefers an uncordoned
// sibling from that moment on.
func TestCordonLeadFiresBeforeDrain(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(1, 2)
	p.ServeWalltime = 300 * time.Second
	p.CordonLead = 60 * time.Second
	f := NewFederationIn(a, p, nil)
	d := f.clusters[0].deps[0]
	// Disarm the lo band for the warm-up too (post-construction, since
	// withDefaults would clamp a zero back up): an idle pool must survive
	// until the test hands it its own watermarks.
	f.p.Scale.LoWater = 0
	k.Schedule(0, func() { d.startInstance() })
	// A sibling started later: its cordon window opens later, so during the
	// overlap the first instance is cordoned while the second still serves.
	k.Schedule(100*time.Second, func() { d.startInstance() })
	// The first incarnation serves from prologue+load = 43 s, so its walltime
	// drain lands at 343 s and its cordon flag at 283 s; the second serves
	// from 143 s and cordons at 383 s. Stop inside the overlap [283 s, 343 s)
	// where exactly one of the two is flagged.
	k.Run(300 * time.Second)

	first := d.insts[0]
	if first.state != instServing {
		t.Fatalf("first instance state = %d, want serving", first.state)
	}
	if !first.cordoned {
		t.Fatal("first instance not cordoned inside its CordonLead window")
	}
	second := d.insts[1]
	if second.cordoned {
		t.Fatal("second instance cordoned outside its lead window")
	}
	if got := d.pickServing(); got != second {
		t.Fatal("pickServing chose the cordoned instance over an uncordoned sibling")
	}
	serving, cordoned, drainingAt := d.routingView()
	if serving != 1 || cordoned {
		t.Fatalf("routingView = (%d, %v), want (1, false): one sibling still serves", serving, cordoned)
	}
	if drainingAt <= 0 || drainingAt > p.CordonLead {
		t.Fatalf("drainingAt = %v, want within (0, %v]", drainingAt, p.CordonLead)
	}
}
