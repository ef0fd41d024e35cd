package desmodel

// EngineSim takes the quiet runs serving.Engine offers. These tests hold the
// DES side of that contract: every observable — results, busy time, orphan
// order, the emission log — is what one event per iteration gives (the
// ignoreOffer hook is that driver), a superseded delivery event does nothing,
// and the event path still allocates nothing.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// bothWays runs a scenario with the offer taken and with it ignored, requires
// the same digest, and returns the kernel events each way took.
func bothWays(t *testing.T, run func(a *Arena, k *sim.Kernel) string) (taken, ignored uint64) {
	t.Helper()
	once := func(ignore bool) (string, uint64) {
		ignoreOffer = ignore
		defer func() { ignoreOffer = false }()
		a, k := testArena(sim.QueueCalendar)
		k.MaxEvents = 50_000_000
		return run(a, k), k.Processed
	}
	a, taken := once(false)
	b, ignored := once(true)
	if a != b {
		t.Fatalf("offer taken and offer ignored disagree\ntaken:\n%.3000s\nignored:\n%.3000s", a, b)
	}
	return taken, ignored
}

// kvTightSim is a Llama-8B instance with KV for two 300-token sequences, so a
// third blocks at the head of the queue while the batch decodes.
func kvTightSim(k *sim.Kernel, onComplete func(*serving.Sequence)) *EngineSim {
	e, err := NewEngineSim(k, serving.Config{
		Model:            perfmodel.Default.MustLookup(perfmodel.Llama8B),
		GPU:              perfmodel.A100_40,
		KVCapacityTokens: 700,
	}, onComplete)
	if err != nil {
		panic(err)
	}
	return e
}

// TestEngineSimHarvestMidRun kills an instance at instants inside a promised
// run — and on its boundaries — and requires the harvest a hard kill makes
// (busy time, then waiting, running by admission, undelivered) to be what
// stepping every iteration leaves behind.
func TestEngineSimHarvestMidRun(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	iter := model.DecodeIter(4, perfmodel.A100_40)
	kills := []sim.Time{
		time.Nanosecond, 40 * time.Millisecond, 40*time.Millisecond + 1, 700 * time.Millisecond,
		iter * 50, iter*50 + model.PrefillTime(40, perfmodel.A100_40), 3 * time.Second,
	}
	for _, at := range kills {
		taken, ignored := bothWays(t, func(_ *Arena, k *sim.Kernel) string {
			e := MustEngineSim(k, model, perfmodel.A100_40, 4, func(*serving.Sequence) {})
			// Admission order 1..4 is not completion order (2, 4, 3, 1); two wait.
			for i, out := range []int{500, 100, 300, 200, 50, 60} {
				e.Submit(10, out, i+1)
			}
			var sb strings.Builder
			k.At(at, func() {
				fmt.Fprintf(&sb, "stats %+v depth %d pending %v\n", e.Stats(), e.Depth(), e.DeliveryPending())
				for _, each := range []func(func(*serving.Sequence)){e.EachWaiting, e.EachRunning, e.EachUndelivered} {
					each(func(s *serving.Sequence) { fmt.Fprintf(&sb, " %d", s.Ctx.(int)) })
					sb.WriteString(" |")
				}
				e.Halt()
			})
			k.Run(0)
			fmt.Fprintf(&sb, "\nemitted %d by the kill, %d in all", e.EmittedBy(at), e.EmittedBy(time.Hour))
			return sb.String()
		})
		if at > time.Second && taken*10 > ignored {
			t.Errorf("kill at %v: %d events with the offer taken, %d without — the run was not skipped", at, taken, ignored)
		}
	}
}

// TestFederationChurnSameWithOfferIgnored replays the property suite's random
// topologies — walltime drains pulling waiters back mid-run, hard kills
// mid-batch, scaler shrinks, replayed faults — both ways: every request's
// timestamps and migrations, every cluster's BusyGPUSeconds and the run's end
// must agree.
func TestFederationChurnSameWithOfferIgnored(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		tr := makeFedTrial(9000+int64(trial)*7919, trial == 3)
		taken := runFedTrial(t, tr, sim.QueueCalendar)
		ignoreOffer = true
		ignored := runFedTrial(t, tr, sim.QueueCalendar)
		ignoreOffer = false
		if taken != ignored {
			t.Fatalf("trial %d: digest differs between offer taken and offer ignored\ntaken:\n%.2000s\nignored:\n%.2000s", trial, taken, ignored)
		}
	}
}

// TestFederationKillAndDrainMidRun aims the two lifecycle cuts at a promised
// run: a 5 000-token generation decoding alone is hard-killed, and a batch
// at its cap with a queue behind it is drained.
func TestFederationKillAndDrainMidRun(t *testing.T) {
	digest := func(f *Federation, reqs []*Req, end sim.Time) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "end=%d migrations=%d\n", end, f.Migrations())
		for _, r := range reqs {
			fmt.Fprintf(&sb, "%+v\n", *r)
		}
		for _, cs := range f.ClusterStats() {
			fmt.Fprintf(&sb, "%+v\n", cs)
		}
		return sb.String()
	}
	t.Run("hard kill", func(t *testing.T) {
		taken, ignored := bothWays(t, func(a *Arena, k *sim.Kernel) string {
			p := fedTestParams(2)
			p.DrainGrace = 5 * time.Second
			f := NewFederationIn(a, p, nil)
			reqs := []*Req{fedReq(1, 0, 32, 8), fedReq(2, 0, 64, 5_000)}
			k.Schedule(0, func() { f.Arrive(reqs[0]) })
			k.Schedule(88*time.Second, func() { f.Arrive(reqs[1]) })
			end := k.Run(0)
			if kills := f.ClusterStats()[0].HardKills + f.ClusterStats()[1].HardKills; kills == 0 || reqs[1].Migrations == 0 {
				t.Fatalf("scenario lost its hard kill: %d kills, %d migrations", kills, reqs[1].Migrations)
			}
			return digest(f, reqs, end)
		})
		if taken*10 > ignored {
			t.Errorf("%d events with the offer taken, %d without: the killed run was not skipped", taken, ignored)
		}
	})
	t.Run("drain", func(t *testing.T) {
		taken, ignored := bothWays(t, func(a *Arena, k *sim.Kernel) string {
			p := fedTestParams(2)
			p.ServeWalltime = 20 * time.Second
			p.Models = DefaultFederationModels()[:1]
			p.Models[0].MaxBatch = 2 // the queue waits behind a full batch
			f := NewFederationIn(a, p, nil)
			var reqs []*Req
			for i := 0; i < 12; i++ {
				r := fedReq(i+1, 0, 64, 900+100*(i%3))
				reqs = append(reqs, r)
				k.Schedule(time.Duration(i)*700*time.Millisecond, func() { f.Arrive(r) })
			}
			end := k.Run(0)
			if f.ClusterStats()[0].Drains+f.ClusterStats()[1].Drains == 0 || f.Migrations() == 0 {
				t.Fatal("scenario lost its drain: nothing was pulled back")
			}
			return digest(f, reqs, end)
		})
		if taken*10 > ignored {
			t.Errorf("%d events with the offer taken, %d without: the drained runs were not skipped", taken, ignored)
		}
	})
}

// TestEngineSimSupersededDelivery lands a legitimate delivery on a superseded
// event's timestamp: aborting a sequence queued behind a KV-blocked head cuts
// the run, the early step finds the head still blocked and promises the very
// same end again. Of the two events that then fire at that instant exactly
// one may deliver.
func TestEngineSimSupersededDelivery(t *testing.T) {
	type outcome struct {
		stats    serving.Stats
		finishes []sim.Time
	}
	run := func(ignore bool) (outcome, []sim.Time, int) {
		ignoreOffer = ignore
		defer func() { ignoreOffer = false }()
		k := sim.NewKernel()
		var out outcome
		e := kvTightSim(k, func(s *serving.Sequence) { out.finishes = append(out.finishes, s.FinishAt) })
		var fired []sim.Time
		deliver := e.deliverFn
		e.deliverFn = func() { fired = append(fired, k.Now()); deliver() }
		e.Submit(100, 200, nil)
		e.Submit(100, 200, nil)
		e.Submit(100, 200, nil) // KV holds two: blocked until one finishes
		e.Submit(50, 20, nil)   // queued behind the blocked head
		k.Schedule(300*time.Millisecond, func() {
			if !e.Abort(4) {
				t.Error("abort of the queued sequence failed")
			}
		})
		k.Run(0)
		out.stats = e.Stats()
		return out, fired, len(e.emitLog)
	}
	want, _, iterations := run(true)
	got, fired, delivered := run(false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("offer taken:\n %+v\nevery iteration stepped:\n %+v", got, want)
	}
	if int64(iterations) != want.stats.Iterations {
		t.Fatalf("reference run logged %d deliveries for %d iterations", iterations, want.stats.Iterations)
	}
	// One emission record per delivery that went through; one fired event
	// more than that is the superseded one.
	if len(fired) != delivered+1 {
		t.Fatalf("%d delivery events fired, %d delivered: want exactly one superseded no-op", len(fired), delivered)
	}
	shared := false
	for i := 1; i < len(fired); i++ {
		shared = shared || fired[i] == fired[i-1]
	}
	if !shared {
		t.Errorf("the superseded event and a live delivery never shared an instant: %v", fired)
	}
}

// TestEngineSimEmittedByMatchesPerIterationLog drives one engine with random
// arrivals and aborts and compares the run-compressed emission log with the
// one-record-per-iteration log at random instants and at every exact
// emission instant.
func TestEngineSimEmittedByMatchesPerIterationLog(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		build := func(ignore bool) (*EngineSim, sim.Time) {
			ignoreOffer = ignore
			defer func() { ignoreOffer = false }()
			k := sim.NewKernel()
			e := kvTightSim(k, func(*serving.Sequence) {})
			rng := sim.NewRNG(seed)
			at := sim.Time(0)
			for i := 0; i < 60; i++ {
				at += sim.Time(rng.Exp(float64(150 * time.Millisecond)))
				prompt, out, id := 1+rng.Intn(120), 1+rng.Intn(180), int64(i+1)
				k.At(at, func() { e.Submit(prompt, out, nil) })
				if rng.Intn(4) == 0 {
					k.At(at+sim.Time(rng.Intn(int(400*time.Millisecond))), func() { e.Abort(id) })
				}
			}
			return e, k.Run(0)
		}
		ref, end := build(true)
		got, gotEnd := build(false)
		if gotEnd != end || got.Stats() != ref.Stats() {
			t.Fatalf("seed %d: end %v stats %+v, want %v %+v", seed, gotEnd, got.Stats(), end, ref.Stats())
		}
		if len(got.emitLog)*2 > len(ref.emitLog) {
			t.Errorf("seed %d: %d records for %d iterations: runs were not compressed", seed, len(got.emitLog), len(ref.emitLog))
		}
		rng := sim.NewRNG(seed + 100)
		for i := 0; i < 1000; i++ {
			at := sim.Time(rng.Int63() % int64(end+time.Second))
			if i < len(ref.emitLog) {
				at = ref.emitLog[i].first // an exact emission instant
			}
			for _, probe := range []sim.Time{at - 1, at, at + 1} {
				if g, w := got.EmittedBy(probe), ref.EmittedBy(probe); g != w {
					t.Fatalf("seed %d: EmittedBy(%v) = %d, per-iteration log says %d", seed, probe, g, w)
				}
			}
		}
	}
}

// TestFirstSystemStopMidRun stops the kernel while an engine is inside a
// promised run: Stats and EmittedTokensBy at the stop must already count the
// iterations no event has been spent on.
func TestFirstSystemStopMidRun(t *testing.T) {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	until := 10 * time.Second
	taken, ignored := bothWays(t, func(a *Arena, k *sim.Kernel) string {
		s := NewFederationIn(a, FirstPathParams(DefaultFirstParams(), model, perfmodel.A100_40, 1), nil)
		k.Schedule(0, func() { s.Arrive(&Req{ID: 1, PromptTok: 100, OutputTok: 4000}) })
		k.Schedule(2*time.Second, func() { s.Arrive(&Req{ID: 2, PromptTok: 100, OutputTok: 3000}) })
		if end := k.Run(until); end != until || s.InFlight() != 2 {
			t.Fatalf("run ended at %v with %d in flight, want a stop at %v mid-generation", end, s.InFlight(), until)
		}
		return fmt.Sprintf("%+v emitted %d then, %d a second earlier", s.clusters[0].deps[0].insts[0].eng.Stats(), s.EmittedTokensBy(until), s.EmittedTokensBy(until-time.Second))
	})
	if taken*10 > ignored {
		t.Errorf("%d events with the offer taken, %d without: nothing was skipped", taken, ignored)
	}
}

// TestFederationKeepsNoEmissionLog pins who keeps an emission log: not an
// incarnation the scheduler started — the log would die with it — but a hot
// instance, which never dies; EmittedTokensBy reads those monotonically.
func TestFederationKeepsNoEmissionLog(t *testing.T) {
	for _, hot := range []int{0, 2} {
		a, k := testArena(sim.QueueCalendar)
		p := fedTestParams(2)
		p.Hot = hot
		f := NewFederationIn(a, p, nil)
		for i := 0; i < 40; i++ {
			r := fedReq(i+1, i%3, 64, 400)
			k.Schedule(time.Duration(i)*100*time.Millisecond, func() { f.Arrive(r) })
		}
		end := k.Run(50 * time.Second) // every deployment serving, batches mid-flight
		engines := 0
		for _, c := range f.clusters {
			for _, d := range c.deps {
				for _, in := range d.insts {
					if in.eng == nil {
						continue
					}
					st := in.eng.Stats()
					if st.Iterations == 0 {
						continue
					}
					engines++
					if logged := len(in.eng.emitLog); (logged != 0) != (in.job == nil) {
						t.Errorf("hot=%d: instance with job %v holds %d emission records after %d iterations", hot, in.job != nil, logged, st.Iterations)
					}
				}
			}
		}
		if engines == 0 {
			t.Errorf("hot=%d: no engine has served anything", hot)
		}
		var last int64
		for at := sim.Time(0); at <= end; at += end / 100 {
			got := f.EmittedTokensBy(at)
			if got < last || (hot == 0 && got != 0) {
				t.Fatalf("hot=%d: EmittedTokensBy(%v) = %d after %d", hot, at, got, last)
			}
			last = got
		}
		if hot > 0 && (last == 0 || f.EmittedTokensBy(0) != 0) {
			t.Errorf("hot instances emitted %d tokens by %v and %d by t=0", last, end, f.EmittedTokensBy(0))
		}
	}
}

// TestEngineSimOfferZeroAlloc pins the event paths the offer added — a
// delivery that steps and schedules a whole run, a Submit that cuts the run
// and re-schedules its delivery, the superseded event's no-op — at zero
// allocations.
func TestEngineSimOfferZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	e := MustEngineSim(k, model, perfmodel.A100_40, 0, func(*serving.Sequence) {}).withoutEmitLog()
	late := func() { e.Submit(10, 1, nil) }
	// One 30-token generation is promised a 28-iteration run; a one-token
	// request 20 ms in cuts it, is served by the early step, and the step
	// after that promises the rest of the run again.
	cycle := func() {
		e.Submit(10, 30, nil)
		k.Schedule(20*time.Millisecond, late)
		k.Run(0)
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	before, processed := e.Stats(), k.Processed
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("offer, cut, re-schedule and superseded delivery allocs = %v, want 0", allocs)
	}
	after := e.Stats()
	// Seven events carry a cycle's 30 iterations: the kick, the late Submit,
	// the early delivery, the short request's delivery, the re-promised run's
	// end and the superseded event beside it, the last iteration's delivery.
	if events, iters := k.Processed-processed, after.Iterations-before.Iterations; events != 7*101 || iters != 30*101 {
		t.Errorf("%d events for %d iterations over 101 cycles, want 707 for 3030", events, iters)
	}
}
