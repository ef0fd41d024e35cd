package desmodel

import (
	"reflect"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// scaleTestParams is a small, churn-free scenario with the scaler on: one
// model would do, but the default three keep the packing realistic. Walltime
// churn is pushed past every test horizon so only scaler actions move the
// pools.
func scaleTestParams(clusters, maxInst int) FederationParams {
	p := DefaultFederationParams(clusters)
	p.ServeWalltime = 1e6 * time.Second
	p.DrainGrace = 20 * time.Second
	p.BGPeriod = 0
	p.Scale = AutoScaleParams{
		MaxInstances: maxInst,
		Interval:     5 * time.Second,
		HiWater:      4,
		LoWater:      1,
		HiSustain:    2,
		LoSustain:    2,
	}
	return p
}

// floodModel schedules n long-generation requests for one model in a burst.
func floodModel(k *sim.Kernel, f *Federation, model, n, outputTok int) []*Req {
	reqs := make([]*Req, n)
	for i := 0; i < n; i++ {
		r := &Req{ID: i + 1, Model: model, PromptTok: 64, OutputTok: outputTok}
		reqs[i] = r
		k.Schedule(time.Duration(i)*100*time.Millisecond, func() { f.Arrive(r) })
	}
	return reqs
}

// TestAutoScaleUpOnSustainedBacklog pins the grow direction: a sustained
// backlog past the high-water mark must add instances through the real
// scheduler cold-start path, and every added instance must serve.
func TestAutoScaleUpOnSustainedBacklog(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(2, 3)
	n := 120
	done := 0
	// Scaler ticks self-schedule forever: stop at the last completion, like
	// the open-loop experiment drivers.
	f := NewFederationIn(a, p, func(*Req) {
		if done++; done == n {
			k.Stop()
		}
	})
	floodModel(k, f, 0, n, 400)
	k.Run(0)
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	ups, colds, peak := 0, 0, 0
	for _, cs := range f.ClusterStats() {
		ups += cs.ScaleUps
		colds += cs.ColdStarts
		if cs.PeakInstances > peak {
			peak = cs.PeakInstances
		}
	}
	if ups == 0 {
		t.Error("no scale-ups despite a sustained backlog")
	}
	if peak < 2 {
		t.Errorf("peak instances = %d, pool never grew", peak)
	}
	if colds <= ups {
		t.Errorf("cold starts = %d must exceed scale-ups = %d (the first instance is demand-driven)", colds, ups)
	}
	if f.Arrivals() != int64(n) || f.Completions() != int64(n) {
		t.Errorf("conservation: arrivals=%d completions=%d want %d", f.Arrivals(), f.Completions(), n)
	}
}

// TestAutoScaleDownWhenIdle pins the shrink direction: once the wave passes,
// the scaler must drain the pool back — but never below one instance.
func TestAutoScaleDownWhenIdle(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(2, 3)
	done := 0
	f := NewFederationIn(a, p, func(*Req) { done++ })
	n := 120
	floodModel(k, f, 0, n, 400)
	// The burst ends; ticks keep firing, so bound the run by wall instead of
	// exhaustion and give the scaler time to shrink.
	k.Run(4000 * time.Second)
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	downs := 0
	for _, cs := range f.ClusterStats() {
		downs += cs.ScaleDowns
	}
	if downs == 0 {
		t.Error("no scale-downs after demand stopped")
	}
	for _, c := range f.clusters {
		for _, d := range c.deps {
			if live := d.liveCount(); live > 1 {
				t.Errorf("cluster %s model %d still holds %d live instances after idling", c.name, d.model, live)
			}
			if d.peakPool > p.Scale.MaxInstances {
				t.Errorf("cluster %s model %d peak pool %d exceeds MaxInstances %d", c.name, d.model, d.peakPool, p.Scale.MaxInstances)
			}
		}
	}
}

// TestAutoScaleRefusedAtCap pins the MaxInstances cap: with a hopeless
// backlog and a pool of 2, further scale-up decisions must be refused and
// the pool must never exceed the cap.
func TestAutoScaleRefusedAtCap(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(1, 2)
	n := 200
	done := 0
	f := NewFederationIn(a, p, func(*Req) {
		if done++; done == n {
			k.Stop()
		}
	})
	floodModel(k, f, 0, n, 600)
	k.Run(0)
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	cs := f.ClusterStats()[0]
	if cs.ScaleRefused == 0 {
		t.Error("no refused scale-ups at the cap")
	}
	if cs.PeakInstances > 2*len(p.Models) {
		t.Errorf("peak instances %d exceeds cap × models", cs.PeakInstances)
	}
	for _, d := range f.clusters[0].deps {
		if d.peakPool > 2 {
			t.Errorf("model %d pool peaked at %d, cap is 2", d.model, d.peakPool)
		}
	}
}

// TestScaleDownNeverTargetsOnlyInstance pins the floor: a model whose single
// instance holds waiting work is never scaled down, no matter how far under
// the low-water mark it sits.
func TestScaleDownNeverTargetsOnlyInstance(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(1, 3)
	p.Scale.HiWater = 1000 // never grow
	p.Scale.LoWater = 1000 // always "underused" — the floor must still hold
	done := 0
	f := NewFederationIn(a, p, func(*Req) { done++; k.Stop() })
	// A single long request keeps one instance busy with work for many
	// scaler intervals.
	r := &Req{ID: 1, Model: 0, PromptTok: 64, OutputTok: 20000}
	k.Schedule(0, func() { f.Arrive(r) })
	k.Run(0)
	if done != 1 {
		t.Fatalf("completed %d/1", done)
	}
	cs := f.ClusterStats()[0]
	if cs.ScaleDowns != 0 {
		t.Errorf("scaler drained the only instance %d time(s)", cs.ScaleDowns)
	}
	if cs.HardKills != 0 || cs.Drains != 0 {
		t.Errorf("unexpected churn: %+v", cs)
	}
}

// TestScalerAllocs pins the scaler hot path at zero allocations: the
// steady-state policy decision and the least-loaded instance selection must
// not allocate, including with a multi-instance pool.
func TestScalerAllocs(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	p := scaleTestParams(2, 3)
	p.Scale.HiWater = 50 // wide band: the warm-up backlog stays inside it
	f := NewFederationIn(a, p, nil)
	// Two serving instances with standing work: grow the pool by hand (the
	// test owns the kernel, so startInstance runs the real cold-start path),
	// then park a steady batch on it.
	d := f.clusters[0].deps[0]
	for i := 0; i < 16; i++ {
		r := &Req{ID: i + 1, Model: 0, PromptTok: 64, OutputTok: 1 << 20}
		k.Schedule(0, func() { f.Arrive(r) })
	}
	k.Schedule(time.Second, func() { d.startInstance() })
	k.Run(10 * time.Minute)
	if got := len(d.insts); got != 2 {
		t.Fatalf("warm-up built %d instances, want 2", got)
	}
	if d.pickServing() == nil {
		t.Fatal("no serving instance after warm-up")
	}
	if allocs := testing.AllocsPerRun(200, func() { d.scaleTick() }); allocs != 0 {
		t.Errorf("scaleTick allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { d.pickServing() }); allocs != 0 {
		t.Errorf("pickServing allocates %.1f/op, want 0", allocs)
	}
}

// TestClusterStatsMidDrainStable is the regression for the end-of-run
// mid-drain path: a run that stops while an incarnation is draining must
// report stable stats — the draining incarnation's busy time counts exactly
// once, it is not a live pool member, and repeated snapshots are identical.
func TestClusterStatsMidDrainStable(t *testing.T) {
	a, k := testArena(sim.QueueCalendar)
	k.MaxEvents = 20_000_000
	p := scaleTestParams(1, 2)
	// A short serve walltime with a roomy grace: the drain catches a busy
	// batch and stays in flight for a long stretch of virtual time, without
	// the hard-kill timer cutting the scenario short.
	p.ServeWalltime = 60 * time.Second
	p.DrainGrace = 2000 * time.Second
	n := 80
	done := 0
	var f *Federation
	f = NewFederationIn(a, p, func(*Req) {
		if done++; done == n {
			k.Stop() // backstop: surfaces a missed mid-drain as a Fatal below
		}
	})
	// 30k-token generations: the batch is still decoding when the serve
	// walltime expires, so the drain reliably catches live work.
	floodModel(k, f, 0, n, 30000)
	// Stop the kernel the moment a drain is in flight with work still
	// running on the incarnation.
	d := f.clusters[0].deps[0]
	var probe func()
	probe = func() {
		for _, in := range d.insts {
			if in.state == instDraining && in.eng.Depth() > 0 {
				k.Stop()
				return
			}
		}
		k.Schedule(time.Second, probe)
	}
	k.Schedule(time.Second, probe)
	k.Run(0)
	if done >= n {
		t.Fatal("run finished before a mid-drain snapshot was possible")
	}
	s1 := f.ClusterStats()
	s2 := f.ClusterStats()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("ClusterStats is not a stable snapshot:\n1st %+v\n2nd %+v", s1, s2)
	}
	cs := s1[0]
	if cs.Drains+cs.ScaleDowns == 0 {
		t.Fatal("probe stopped without a drain in flight")
	}
	live := 0
	draining := 0
	for _, in := range d.insts {
		if in.state == instDraining {
			draining++
		}
	}
	for _, dep := range f.clusters[0].deps {
		live += dep.liveCount()
	}
	if draining == 0 {
		t.Fatal("no draining incarnation at stop time")
	}
	if cs.LiveInstances != live {
		t.Errorf("LiveInstances = %d, want %d (draining incarnations excluded)", cs.LiveInstances, live)
	}
	if cs.BusyGPUSeconds <= 0 {
		t.Error("mid-drain snapshot lost the draining incarnation's busy time")
	}
	// Resuming and finishing the run must conserve every request and only
	// grow the busy accounting (no double count when the drain retires).
	k.Run(0) // the done callback stops at the last completion
	if done != n {
		t.Fatalf("completed %d/%d after resume", done, n)
	}
	final := f.ClusterStats()[0]
	if final.BusyGPUSeconds < cs.BusyGPUSeconds {
		t.Errorf("busy accounting shrank across the drain retirement: %.1f -> %.1f", cs.BusyGPUSeconds, final.BusyGPUSeconds)
	}
	if f.Arrivals() != int64(n) || f.Completions() != int64(n) {
		t.Errorf("conservation after mid-drain resume: arrivals=%d completions=%d want %d", f.Arrivals(), f.Completions(), n)
	}
}

// TestAutoScalePropertyRandomConfigs is the randomized sweep: for arbitrary
// arrival shapes and watermark configs (including inverted ones), no request
// is ever lost or double-completed, pools never leave [1, MaxInstances], and
// the stats snapshot stays pure.
func TestAutoScalePropertyRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is long")
	}
	rng := sim.NewRNG(20251015)
	for trial := 0; trial < 25; trial++ {
		maxInst := 1 + rng.Intn(4)
		p := DefaultFederationParams(1 + rng.Intn(3))
		p.ServeWalltime = time.Duration(30+rng.Intn(90)) * time.Second
		p.DrainGrace = time.Duration(5+rng.Intn(25)) * time.Second
		if rng.Bernoulli(0.5) {
			p.BGPeriod = time.Duration(40+rng.Intn(80)) * time.Second
			p.BGStagger = 10 * time.Second
			p.BGWalltime = 25 * time.Second
		} else {
			p.BGPeriod = 0
		}
		p.Scale = AutoScaleParams{
			MaxInstances: maxInst,
			Interval:     time.Duration(1+rng.Intn(10)) * time.Second,
			HiWater:      1 + 20*rng.Float64(),
			LoWater:      30 * rng.Float64(), // may exceed HiWater: thrash allowed, loss is not
			HiSustain:    1 + rng.Intn(3),
			LoSustain:    1 + rng.Intn(3),
		}
		a, k := testArena(sim.QueueCalendar)
		k.MaxEvents = 30_000_000
		n := 100 + rng.Intn(300)
		counts := make(map[*Req]int, n)
		done := 0
		f := NewFederationIn(a, p, func(r *Req) {
			counts[r]++
			if done++; done == n {
				k.Stop()
			}
		})
		models := len(p.Models)
		gapMean := float64(50+rng.Intn(450)) * float64(time.Millisecond)
		at := time.Duration(0)
		for i := 0; i < n; i++ {
			out := 4 + rng.Intn(60)
			if rng.Bernoulli(0.1) {
				out = 500 + rng.Intn(3000) // heavy tail forces drain overlap
			}
			r := &Req{ID: i + 1, Model: rng.Intn(models), PromptTok: 8 + rng.Intn(120), OutputTok: out}
			at += time.Duration(rng.Exp(gapMean))
			k.Schedule(at, func() { f.Arrive(r) })
		}
		k.Run(0)
		if done != n {
			t.Fatalf("trial %d: completed %d/%d (params %+v)", trial, done, n, p.Scale)
		}
		for r, c := range counts {
			if c != 1 {
				t.Fatalf("trial %d: request %d completed %d times", trial, r.ID, c)
			}
		}
		if f.Arrivals() != int64(n) || f.Completions() != int64(n) {
			t.Fatalf("trial %d: conservation broke: arrivals=%d completions=%d want %d",
				trial, f.Arrivals(), f.Completions(), n)
		}
		for _, c := range f.clusters {
			for _, d := range c.deps {
				if d.peakPool > maxInst {
					t.Fatalf("trial %d: pool peaked at %d, cap %d", trial, d.peakPool, maxInst)
				}
			}
		}
		s1, s2 := f.ClusterStats(), f.ClusterStats()
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("trial %d: ClusterStats not a pure snapshot", trial)
		}
	}
}

// TestAutoScaleArenaReuse pins arena recycling under the scaler: a scenario
// whose pools grow, shrink, and recycle engines mid-cell (Arena.Reclaim)
// must reproduce byte-identical timings and stats when its cell re-runs on
// the same arena with pooled engines.
func TestAutoScaleArenaReuse(t *testing.T) {
	run := func(a *Arena) ([]sim.Time, []FedClusterStats, FedRungs) {
		k := a.Begin()
		p := scaleTestParams(2, 3)
		done := 0
		n := 120
		var f *Federation
		f = NewFederationIn(a, p, func(*Req) {
			if done++; done == n {
				k.Stop()
			}
		})
		reqs := floodModel(k, f, 0, n, 400)
		k.Run(0)
		if done != n {
			t.Fatalf("completed %d/%d", done, n)
		}
		times := make([]sim.Time, n)
		for i, r := range reqs {
			times[i] = r.ObservedAt
		}
		return times, f.ClusterStats(), f.Rungs()
	}
	a := NewArena(sim.QueueCalendar)
	t1, s1, r1 := run(a)
	t2, s2, r2 := run(a) // second cell: engines drawn from the arena pool
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(s1, s2) || r1 != r2 {
		t.Error("arena-recycled cell diverges from the fresh cell")
	}
	fresh := NewArena(sim.QueueCalendar)
	t3, s3, r3 := run(fresh)
	if !reflect.DeepEqual(t1, t3) || !reflect.DeepEqual(s1, s3) || r1 != r3 {
		t.Error("recycled arena diverges from a fresh arena")
	}
}
