package serving

// The LiveEngine's drivers, on a manual clock: a caller drives the engine
// inline while its iterations lie before the clock, and hands the rest to the
// loop, the one driver that sleeps. Whoever drives, each caller's Completion
// and the engine's Stats must be those of an engine stepped one iteration at
// a time (stepwise, soloLatency's way).

import (
	"context"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/perfmodel"
)

// arrival is one GenerateAt call of a differential case: made when the clock
// reads when, both instants counted from the engine's start, for a request
// stamped at. An undriven call only submits, as one whose ctx is done does.
type arrival struct {
	when, at       time.Duration
	prompt, output int
	undriven       bool
}

// stepwise is the per-iteration reference for a case: an engine like the
// rig's takes each arrival at min(at, when) and, unless the call is
// undriven, then steps every iteration that begins at or before when, one
// Step at a time; with drain it then runs dry. It returns each arrival's
// Completion, its Finish counted from start, and the engine's Stats.
func stepwise(t *testing.T, start time.Time, arrivals []arrival, drain bool) ([]Completion, Stats) {
	t.Helper()
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	got := make([]Completion, len(arrivals))
	step := func() {
		for _, s := range eng.Step(eng.Now()).Completed {
			got[s.Ctx.(int)] = Completion{PromptTok: s.PromptTok, OutputTok: s.Emitted,
				QueueWait: s.QueueWait(), Latency: s.Latency(), Finish: start.Add(s.FinishAt)}
		}
	}
	for i, a := range arrivals {
		eng.Submit(min(a.at, a.when), a.prompt, a.output, i)
		for !a.undriven && eng.Depth() > 0 && eng.Now() <= a.when {
			step()
		}
	}
	for drain && eng.Depth() > 0 {
		step()
	}
	return got, eng.Stats()
}

// iterations returns, for a lone request of output tokens on the rigs'
// engine, its first iteration's length and a quiet iteration's.
func iterations(t *testing.T, output int) (first, each time.Duration) {
	t.Helper()
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	eng.Submit(0, 3, output, nil)
	res := eng.Step(0)
	if res.Quiet == 0 {
		t.Fatalf("a lone request of %d tokens makes no quiet offer", output)
	}
	return res.Duration, res.Each
}

// driveRig is a LiveEngine on a manual clock that starts with the engine.
type driveRig struct {
	t     *testing.T
	clk   *clock.Manual
	start time.Time
	live  *LiveEngine
}

func newDriveRig(t *testing.T) *driveRig {
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	return &driveRig{t: t, clk: clk, start: clk.Now(), live: NewLiveEngine(newTestEngine(t, perfmodel.Llama8B, 0), clk)}
}

// advanceTo moves the clock to start+d.
func (r *driveRig) advanceTo(d time.Duration) { r.clk.Advance(r.start.Add(d).Sub(r.clk.Now())) }

// waitFor fails the test unless cond holds within ten seconds of wall time.
func (r *driveRig) waitFor(what string, cond func() bool) {
	r.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// counters reads the Step calls and the hand-offs to the loop.
func (r *driveRig) counters() (steps, wakes int) {
	r.live.mu.Lock()
	defer r.live.mu.Unlock()
	return r.live.steps, r.live.wakes
}

// parked waits until the loop sleeps on the clock.
func (r *driveRig) parked() {
	r.t.Helper()
	r.waitFor("the loop to sleep", func() bool { return r.clk.PendingWaiters() == 1 })
}

// idle waits until nobody drives the engine.
func (r *driveRig) idle() {
	r.t.Helper()
	r.waitFor("the engine to idle", func() bool {
		r.live.mu.Lock()
		defer r.live.mu.Unlock()
		return !r.live.driving
	})
}

// call makes a's call on its own goroutine once the clock reads a.when and
// returns after its submit, and its drive if it drove, are over.
func (r *driveRig) call(a arrival) <-chan Completion {
	r.t.Helper()
	r.advanceTo(a.when)
	out := make(chan Completion, 1)
	before := r.live.Stats().Submitted
	if a.undriven {
		w, id, ok := r.live.submit(r.start.Add(a.at), a.prompt, a.output, false)
		if !ok {
			r.t.Fatal("submit on a live engine failed")
		}
		go func() { out <- r.live.await(context.Background(), w, id) }()
		return out
	}
	go func() { out <- r.live.GenerateAt(context.Background(), r.start.Add(a.at), a.prompt, a.output) }()
	// Stats takes the lock the submit and its drive hold throughout.
	r.waitFor("the submit", func() bool { return r.live.Stats().Submitted > before })
	return out
}

// got returns the completion on c, failing the test if none comes without a
// further Advance.
func (r *driveRig) got(name string, c <-chan Completion) Completion {
	r.t.Helper()
	select {
	case comp := <-c:
		return comp
	case <-time.After(10 * time.Second):
		r.t.Fatalf("%s: no completion without a further Advance", name)
		return Completion{}
	}
}

// pending fails the test if c already holds a completion.
func (r *driveRig) pending(name string, c <-chan Completion) {
	r.t.Helper()
	select {
	case comp := <-c:
		r.t.Fatalf("%s returned %+v before the clock reached its finish", name, comp)
	default:
	}
}

func sameCompletion(t *testing.T, name string, got, want Completion) {
	t.Helper()
	if got.Err != want.Err || got.PromptTok != want.PromptTok || got.OutputTok != want.OutputTok ||
		got.QueueWait != want.QueueWait || got.Latency != want.Latency || !got.Finish.Equal(want.Finish) {
		t.Errorf("%s: got %+v, stepped one iteration at a time %+v", name, got, want)
	}
}

// A request whose run lies wholly before the clock is answered on its
// caller's goroutine: the loop is never handed the engine, and the run costs
// at most three Steps — the first iteration, the one that completes it after
// the settled quiet run, and the one that finds the engine idle.
func TestLiveEngineDrivesPastRunInline(t *testing.T) {
	for _, output := range []int{1, 16, 3000} {
		r := newDriveRig(t)
		a := arrival{when: time.Hour, at: time.Minute, prompt: 3, output: output}
		want, wantStats := stepwise(t, r.start, []arrival{a}, true)
		c := r.got("lone call", r.call(a))
		sameCompletion(t, "lone call", c, want[0])
		if st := r.live.Stats(); st != wantStats {
			t.Errorf("output %d: stats %+v, stepped %+v", output, st, wantStats)
		}
		if steps, wakes := r.counters(); steps > 3 || wakes != 0 {
			t.Errorf("output %d: %d Steps and %d hand-offs to the loop; want ≤ 3 and 0", output, steps, wakes)
		}
		r.live.Close()
	}
}

// A caller whose ctx is already done submits, does not drive, and takes its
// sequence back out.
func TestLiveEngineDoneCallerDoesNotDrive(t *testing.T) {
	r := newDriveRig(t)
	defer r.live.Close()
	r.advanceTo(time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c := r.live.GenerateAt(ctx, r.start.Add(time.Minute), 3, 16); c.Err != context.Canceled {
		t.Fatalf("GenerateAt with a done ctx = %+v, want %v", c, context.Canceled)
	}
	if steps, wakes := r.counters(); steps != 0 || wakes != 0 {
		t.Errorf("%d Steps and %d hand-offs, want none", steps, wakes)
	}
	if st := r.live.Stats(); st.Submitted != 1 || st.Aborted != 1 || st.Iterations != 0 {
		t.Errorf("stats %+v, want one submitted and aborted, no iteration", st)
	}
}

// Each case's completions and stats equal stepwise's, whichever driver
// stepped what.
func TestLiveEngineDriverMatchesStepwise(t *testing.T) {
	first, each := iterations(t, 16)
	const T = time.Minute
	// Where a run of 16 tokens stamped at T-back stands at T: iterations
	// [S, S+first], quiet ones of each up to S+first+14·each, and the
	// completing one.
	carried := []struct {
		name string
		back time.Duration
	}{
		{"nothing past", 0},
		{"first iteration ahead", first / 2},
		{"quiet run across the clock", first + 5*each + each/2},
		{"quiet run begun, its last iteration ahead", first + 13*each + each/2},
		{"quiet run past, the completing iteration ahead", first + 14*each + each/2},
	}
	for _, tc := range carried {
		t.Run("carried/"+tc.name, func(t *testing.T) {
			r := newDriveRig(t)
			defer r.live.Close()
			a := arrival{when: T, at: T - tc.back, prompt: 3, output: 16}
			want, wantStats := stepwise(t, r.start, []arrival{a}, true)
			c := r.call(a)
			r.parked()
			r.pending("the caller", c)
			if _, wakes := r.counters(); wakes != 1 {
				t.Fatalf("%d hand-offs to the loop, want 1", wakes)
			}
			r.advanceTo(T + time.Hour)
			sameCompletion(t, "the caller", r.got("the caller", c), want[0])
			r.idle()
			if st := r.live.Stats(); st != wantStats {
				t.Errorf("stats %+v, stepped %+v", st, wantStats)
			}
		})
	}

	// Two callers on one engine: b submits without driving, then a drives
	// both, and once a's shorter run is out hands b's to the loop.
	t.Run("two callers", func(t *testing.T) {
		r := newDriveRig(t)
		defer r.live.Close()
		b := arrival{when: T, at: T - 10*time.Second, prompt: 3, output: 64, undriven: true}
		a := arrival{when: T, at: T - 10*time.Second, prompt: 5, output: 16}
		want, wantStats := stepwise(t, r.start, []arrival{b, a}, true)
		cb := r.call(b)
		ca := r.call(a)
		sameCompletion(t, "the driver", r.got("the driver", ca), want[1])
		sameCompletion(t, "the other caller", r.got("the other caller", cb), want[0])
		r.idle()
		if st := r.live.Stats(); st != wantStats {
			t.Errorf("stats %+v, stepped %+v", st, wantStats)
		}
		if _, wakes := r.counters(); wakes != 1 {
			t.Errorf("%d hand-offs to the loop, want 1", wakes)
		}
	})

	// A caller arriving while the loop sleeps out a's iteration only
	// submits, and the loop steps its one-token request on the next
	// boundary: b is answered once the clock reaches b's finish, though a's
	// quiet run goes on past it.
	t.Run("arriving while the loop drives", func(t *testing.T) {
		r := newDriveRig(t)
		defer r.live.Close()
		a := arrival{when: T, at: T - (first + 5*each + each/2), prompt: 3, output: 64}
		b := arrival{when: T + each/4, at: T + each/4, prompt: 3, output: 1}
		want, wantStats := stepwise(t, r.start, []arrival{a, b}, true)
		ca := r.call(a)
		r.parked()
		cb := r.call(b)
		r.advanceTo(want[1].Finish.Sub(r.start))
		sameCompletion(t, "the newcomer", r.got("the newcomer", cb), want[1])
		r.pending("the first caller", ca)
		r.parked() // a sleep armed after the Advance would wait for the next
		r.advanceTo(T + time.Hour)
		sameCompletion(t, "the first caller", r.got("the first caller", ca), want[0])
		r.idle()
		if st := r.live.Stats(); st != wantStats {
			t.Errorf("stats %+v, stepped %+v", st, wantStats)
		}
	})

	// Close while the loop sleeps out a carry answers the caller at once,
	// and the engine reads as stepped up to the clock.
	t.Run("close during a carry", func(t *testing.T) {
		r := newDriveRig(t)
		a := arrival{when: T, at: T - (first + 5*each + each/2), prompt: 3, output: 16}
		_, wantStats := stepwise(t, r.start, []arrival{a}, false)
		c := r.call(a)
		r.parked()
		r.live.Close()
		if got := r.got("the caller", c); got.Err != ErrClosed {
			t.Errorf("caller got %+v, want %v", got, ErrClosed)
		}
		if st := r.live.Stats(); st != wantStats {
			t.Errorf("stats %+v, stepped %+v", st, wantStats)
		}
		r.advanceTo(T + time.Hour) // the loop wakes, finds the engine closed and ends
	})
}
