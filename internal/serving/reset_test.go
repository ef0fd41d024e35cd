package serving

import (
	"testing"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
)

// driveScripted runs a fixed submit/step/abort script and returns a
// fingerprint of everything externally observable: completion IDs and
// finish times, per-step durations, and final stats.
func driveScripted(t *testing.T, eng *Engine) []int64 {
	t.Helper()
	var trace []int64
	now := time.Duration(0)
	for i := 0; i < 40; i++ {
		seq := eng.Submit(now, 50+i*7%200, 10+i*13%60, nil)
		if i%11 == 3 {
			eng.Abort(seq.ID)
		}
		res := eng.Step(now)
		now += res.Duration
		trace = append(trace, int64(res.Duration), int64(res.EmittedTokens))
		for _, s := range res.Completed {
			trace = append(trace, s.ID, int64(s.FinishAt))
		}
		eng.Release(res.Completed...)
	}
	for {
		res := eng.Step(now)
		if !res.Busy {
			break
		}
		now += res.Duration
		for _, s := range res.Completed {
			trace = append(trace, s.ID, int64(s.FinishAt))
		}
		eng.Release(res.Completed...)
	}
	st := eng.Stats()
	trace = append(trace, st.Submitted, st.Completed, st.Aborted, st.OutputTokens,
		st.PrefillTokens, st.Iterations, int64(st.BusyTime), int64(st.PeakBatch))
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestEngineResetBehavesLikeFresh is the arena-recycling contract: an engine
// that ran a full (different) workload and was Reset must reproduce a fresh
// engine's behaviour exactly.
func TestEngineResetBehavesLikeFresh(t *testing.T) {
	cfg := Config{Model: perfmodel.Default.MustLookup(perfmodel.Llama8B), GPU: perfmodel.A100_40}
	fresh, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := driveScripted(t, fresh)

	reused, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the engine: an unrelated workload left mid-flight (waiting and
	// running sequences alive, a promised quiet run half settled), then Reset.
	for i := 0; i < 300; i++ {
		reused.Submit(0, 80, 40, nil)
	}
	res := reused.Step(0)
	for i := 0; i < 3; i++ { // the prefill budget fills the batch over three iterations
		res = reused.Step(reused.Now())
	}
	if res.Quiet < 10 {
		t.Fatalf("a full batch of 40-token outputs offered %d quiet iterations", res.Quiet)
	}
	reused.Settle(reused.Now() + 5*res.Each)
	reused.Reset()
	// Settling a reset engine far ahead must find no run to account.
	if due := reused.Settle(time.Hour); due != 0 || reused.Depth() != 0 || reused.KVUsedTokens() != 0 || reused.Now() != 0 {
		t.Fatalf("Reset left due=%v depth=%d kv=%d now=%v", due, reused.Depth(), reused.KVUsedTokens(), reused.Now())
	}
	if st := reused.Stats(); st != (Stats{}) {
		t.Fatalf("Reset left stats %+v", st)
	}
	got := driveScripted(t, reused)
	if len(got) != len(want) {
		t.Fatalf("reset engine trace length %d, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset engine diverges from fresh at trace[%d]: %d vs %d", i, got[i], want[i])
		}
	}
}
