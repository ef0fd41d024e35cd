package serving

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"github.com/argonne-first/first/internal/perfmodel"
)

func newTestEngine(t *testing.T, model string, maxBatch int) *Engine {
	t.Helper()
	eng, err := NewEngine(Config{
		Model:    perfmodel.Default.MustLookup(model),
		GPU:      perfmodel.A100_40,
		MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// drain steps the engine to completion, returning all finished sequences.
func drain(eng *Engine) []*Sequence {
	var done []*Sequence
	now := eng.Now()
	for {
		res := eng.Step(now)
		if !res.Busy {
			return done
		}
		now += res.Duration
		done = append(done, res.Completed...)
	}
}

func TestEngineSingleSequenceTiming(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama70B, 0)
	spec := eng.Model()
	seq := eng.Submit(0, 220, 182, nil)
	done := drain(eng)
	if len(done) != 1 || done[0] != seq {
		t.Fatalf("drained %d sequences", len(done))
	}
	// Analytic latency: prefill(220) once + 182 batch-1 decode iterations.
	want := spec.PrefillTime(220, perfmodel.A100_40) +
		182*spec.DecodeIter(1, perfmodel.A100_40)
	got := seq.Latency()
	if math.Abs(got.Seconds()-want.Seconds()) > 0.01 {
		t.Errorf("latency = %v, want %v", got, want)
	}
	if got < 2700*time.Millisecond || got > 3100*time.Millisecond {
		t.Errorf("70B single-request latency = %v, want ≈2.9s (Fig. 3 anchor)", got)
	}
}

func TestEngineBatchThroughputCalibration(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama70B, 0)
	// Saturate: 600 identical sequences.
	for i := 0; i < 600; i++ {
		eng.Submit(0, 220, 182, nil)
	}
	done := drain(eng)
	if len(done) != 600 {
		t.Fatalf("completed %d/600", len(done))
	}
	tokPerSec := float64(600*182) / eng.Now().Seconds()
	// Fig. 3 anchor: ≈1677 tok/s saturated (allow the ramp/drain band).
	if tokPerSec < 1450 || tokPerSec > 1900 {
		t.Errorf("saturated throughput = %.0f tok/s, want ≈1500-1900", tokPerSec)
	}
	if st := eng.Stats(); st.PeakBatch != 256 {
		t.Errorf("peak batch = %d, want 256", st.PeakBatch)
	}
}

func TestEngineConservationProperty(t *testing.T) {
	// Random interleavings of submit/step/abort preserve sequence and KV
	// accounting.
	err := quick.Check(func(ops []uint16) bool {
		eng := newTestEngine(t, perfmodel.Llama8B, 16)
		now := time.Duration(0)
		var ids []int64
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				seq := eng.Submit(now, int(op%512)+1, int(op%300)+1, nil)
				ids = append(ids, seq.ID)
			case 2:
				res := eng.Step(now)
				now += res.Duration
			case 3:
				if len(ids) > 0 {
					eng.Abort(ids[int(op)%len(ids)])
				}
			}
			if err := eng.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		drain(eng)
		return eng.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestEngineAllSubmittedComplete(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	const n = 300
	for i := 0; i < n; i++ {
		eng.Submit(0, 50+i%400, 20+i%200, nil)
	}
	done := drain(eng)
	if len(done) != n {
		t.Fatalf("completed %d/%d", len(done), n)
	}
	st := eng.Stats()
	if st.Completed != n || st.Submitted != n {
		t.Errorf("stats: %+v", st)
	}
	if eng.KVUsedTokens() != 0 {
		t.Errorf("KV not drained: %d", eng.KVUsedTokens())
	}
}

func TestEngineRespectsMaxBatch(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 8)
	for i := 0; i < 100; i++ {
		eng.Submit(0, 10, 50, nil)
	}
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		res := eng.Step(now)
		if !res.Busy {
			break
		}
		now += res.Duration
		if eng.RunningBatch() > 8 {
			t.Fatalf("batch %d exceeds cap 8", eng.RunningBatch())
		}
	}
}

func TestEngineKVAdmissionControl(t *testing.T) {
	spec := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	eng, err := NewEngine(Config{
		Model:            spec,
		GPU:              perfmodel.A100_40,
		KVCapacityTokens: 2000, // tiny KV: only a couple of sequences fit
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		eng.Submit(0, 500, 400, nil) // 900 reserved tokens each
	}
	res := eng.Step(0)
	if !res.Busy {
		t.Fatal("engine should run")
	}
	if eng.RunningBatch() > 2 {
		t.Errorf("admitted %d sequences into 2000-token KV", eng.RunningBatch())
	}
	if eng.Stats().KVRejections == 0 {
		t.Error("expected KV admission rejections")
	}
	done := drain(eng)
	if len(done) != 10 {
		t.Errorf("eventually completed %d/10", len(done))
	}
}

func TestEngineAbort(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 4)
	var ids []int64
	for i := 0; i < 8; i++ {
		ids = append(ids, eng.Submit(0, 10, 100, nil).ID)
	}
	eng.Step(0) // admits 4; 4 waiting
	if !eng.Abort(ids[7]) {
		t.Error("aborting waiting sequence should succeed")
	}
	if eng.Abort(ids[0]) {
		t.Error("aborting running sequence should fail")
	}
	if eng.Abort(999999) {
		t.Error("aborting unknown id should fail")
	}
	done := drain(eng)
	if len(done) != 7 {
		t.Errorf("completed %d, want 7 after abort", len(done))
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestEngineRejectsEmbeddingModel(t *testing.T) {
	_, err := NewEngine(Config{
		Model: perfmodel.Default.MustLookup(perfmodel.NVEmbed),
		GPU:   perfmodel.A100_40,
	})
	if err == nil {
		t.Error("embedding model should be rejected")
	}
}

func TestEngineRejectsImpossibleFit(t *testing.T) {
	spec := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	spec.TensorParallel = 1
	_, err := NewEngine(Config{Model: spec, GPU: perfmodel.A100_40})
	if err == nil {
		t.Error("70B on one 40GB GPU should be rejected")
	}
}

func TestEngineIdleStep(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	res := eng.Step(5 * time.Second)
	if res.Busy || res.Duration != 0 || len(res.Completed) != 0 {
		t.Errorf("idle step = %+v", res)
	}
	if eng.Now() != 5*time.Second {
		t.Errorf("idle step should still advance engine time: %v", eng.Now())
	}
}

func TestEngineQueueWaitAccounting(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 1)
	first := eng.Submit(0, 10, 10, nil)
	second := eng.Submit(0, 10, 10, nil)
	drain(eng)
	if first.QueueWait() != 0 {
		t.Errorf("first queue wait = %v, want 0", first.QueueWait())
	}
	if second.QueueWait() <= 0 {
		t.Errorf("second queue wait = %v, want > 0 (batch cap 1)", second.QueueWait())
	}
	if second.FinishAt <= first.FinishAt {
		t.Error("FIFO violated")
	}
}

func TestEnginePrefillBudgetSpreadsAdmission(t *testing.T) {
	spec := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	eng, err := NewEngine(Config{
		Model: spec, GPU: perfmodel.A100_40,
		MaxPrefillTokensPerIter: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		eng.Submit(0, 600, 50, nil) // 600-token prompts vs 1000-token budget
	}
	eng.Step(0)
	if got := eng.RunningBatch(); got != 1 {
		t.Errorf("first iteration admitted %d, want 1 (600 then 1200 > budget)", got)
	}
}

func TestEngineWaitingRingWraparound(t *testing.T) {
	// Interleave submit/drain cycles so the ring's head walks around the
	// buffer repeatedly; FIFO order and accounting must survive wrapping.
	eng := newTestEngine(t, perfmodel.Llama8B, 4)
	now := time.Duration(0)
	var completedIDs []int64
	var submitted []int64
	for round := 0; round < 10; round++ {
		for i := 0; i < 13; i++ {
			submitted = append(submitted, eng.Submit(now, 10, 5, nil).ID)
		}
		for eng.Depth() > 0 {
			res := eng.Step(now)
			now += res.Duration
			for _, s := range res.Completed {
				completedIDs = append(completedIDs, s.ID)
			}
			eng.Release(res.Completed...)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if len(completedIDs) != len(submitted) {
		t.Fatalf("completed %d, want %d", len(completedIDs), len(submitted))
	}
	// Admission is FIFO and all sequences are identical, so batches finish
	// in admission order: completion IDs must be sorted.
	for i := 1; i < len(completedIDs); i++ {
		if completedIDs[i] < completedIDs[i-1] {
			t.Fatalf("completion order not FIFO at %d: %v", i, completedIDs[i-1:i+1])
		}
	}
}

func TestEngineMassAbort(t *testing.T) {
	// A client stampede disconnects every waiting request; each abort is a
	// binary search + tombstone, and the queue must drain fully.
	eng := newTestEngine(t, perfmodel.Llama8B, 4)
	var ids []int64
	for i := 0; i < 2000; i++ {
		ids = append(ids, eng.Submit(0, 10, 50, nil).ID)
	}
	eng.Step(0) // admit 4
	aborted := 0
	for _, id := range ids[4:] {
		if eng.Abort(id) {
			aborted++
		}
	}
	if aborted != 1996 {
		t.Fatalf("aborted %d, want 1996", aborted)
	}
	if eng.WaitingCount() != 0 {
		t.Errorf("waiting = %d after mass abort", eng.WaitingCount())
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := len(drain(eng)); got != 4 {
		t.Errorf("completed %d, want the 4 running", got)
	}
	if st := eng.Stats(); st.Aborted != 1996 {
		t.Errorf("stats.Aborted = %d", st.Aborted)
	}
}

func TestEngineAbortMiddleThenDrains(t *testing.T) {
	// Tombstoned entries in the middle of the ring are dropped when they
	// reach the head during admission.
	eng := newTestEngine(t, perfmodel.Llama8B, 2)
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, eng.Submit(0, 10, 3, nil).ID)
	}
	if !eng.Abort(ids[3]) {
		t.Fatal("abort middle failed")
	}
	if eng.Abort(ids[3]) {
		t.Error("double abort should fail")
	}
	done := drain(eng)
	if len(done) != 5 {
		t.Fatalf("completed %d, want 5", len(done))
	}
	for _, s := range done {
		if s.ID == ids[3] {
			t.Error("aborted sequence completed")
		}
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestEngineSequencePoolReuse(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 4)
	first := eng.Submit(0, 10, 2, nil)
	res := eng.Step(0)
	res = eng.Step(res.Duration)
	if len(res.Completed) != 1 {
		t.Fatalf("completed %d, want 1", len(res.Completed))
	}
	eng.Release(res.Completed...)
	second := eng.Submit(eng.Now(), 20, 3, "ctx")
	if second != first {
		t.Error("Release should feed the free list for the next Submit")
	}
	if second.ID == 1 || second.PromptTok != 20 || second.OutputTok != 3 || second.Emitted != 0 || second.Ctx != "ctx" {
		t.Errorf("recycled sequence not reset: %+v", second)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestEngineCompletedScratchReused(t *testing.T) {
	// StepResult.Completed aliases engine-owned scratch: the next Step may
	// overwrite it, so the slices from consecutive busy steps share a base.
	eng := newTestEngine(t, perfmodel.Llama8B, 8)
	for i := 0; i < 8; i++ {
		eng.Submit(0, 10, 1, nil)
	}
	res1 := eng.Step(0)
	if len(res1.Completed) != 8 {
		t.Fatalf("first step completed %d, want 8", len(res1.Completed))
	}
	got := make([]int64, 0, 8)
	for _, s := range res1.Completed {
		got = append(got, s.ID)
	}
	eng.Release(res1.Completed...)
	for i := 0; i < 4; i++ {
		eng.Submit(eng.Now(), 10, 1, nil)
	}
	res2 := eng.Step(eng.Now())
	if len(res2.Completed) != 4 {
		t.Fatalf("second step completed %d, want 4", len(res2.Completed))
	}
	if &res1.Completed[0] != &res2.Completed[0] {
		t.Error("scratch buffer should be reused across steps")
	}
	for i, id := range got {
		if id != int64(i+1) {
			t.Errorf("first batch IDs corrupted: %v", got)
			break
		}
	}
}

// TestEngineStepZeroAlloc pins the saturated Step loop at zero allocations
// per iteration: a full batch, one sequence finishing and one admitted from
// the queue in its place on almost every measured iteration.
func TestEngineStepZeroAlloc(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	const full = 256 // Llama-8B's max_num_seqs; 512 KV reservations of ≤ 621 tokens fit
	for i := 0; i < 2*full; i++ {
		eng.Submit(0, 100, 10+i, nil)
	}
	now := time.Duration(0)
	// Warm: the prefill budget fills the batch over four iterations, and the
	// first sequence finishes on the eleventh.
	for eng.Stats().Completed == 0 {
		now += eng.Step(now).Duration
	}
	done, smallest := eng.Stats().Completed, full
	allocs := testing.AllocsPerRun(100, func() {
		res := eng.Step(now)
		now += res.Duration
		smallest = min(smallest, res.EmittedTokens)
	})
	if allocs != 0 {
		t.Errorf("steady-state Step allocs = %v, want 0", allocs)
	}
	if n := eng.Stats().Completed - done; smallest != full || n < 90 {
		t.Errorf("smallest batch %d, %d completions in 101 iterations: want a full batch of %d turning over", smallest, n, full)
	}
}

// TestEngineWheelMemoryFixed: the finish wheel is the same size whatever a
// request's output length; an output past it waits on the far heap.
func TestEngineWheelMemoryFixed(t *testing.T) {
	wheelBytes := func(outputTok int) (uintptr, int) {
		eng := newTestEngine(t, perfmodel.Llama8B, 0)
		eng.Submit(0, 100, outputTok, nil)
		eng.Step(0)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return uintptr(cap(eng.wheel)) * unsafe.Sizeof(bucket{}), len(eng.far)
	}
	short, nearFar := wheelBytes(16)
	long, farLen := wheelBytes(1 << 20)
	if short != long || short != wheelSize*unsafe.Sizeof(bucket{}) {
		t.Errorf("wheel holds %d bytes after a 16-token request, %d after a 1<<20-token one; want %d both", short, long, wheelSize*unsafe.Sizeof(bucket{}))
	}
	if nearFar != 0 || farLen != 1 {
		t.Errorf("far heap holds %d after a 16-token request, %d after a 1<<20-token one; want 0 and 1", nearFar, farLen)
	}
}

// A submission stamped before the engine's clock — two tasks woken in one
// pass of a clock's pump can reach one engine out of pickup order — never
// moves that clock back: an idle engine that already fast-forwarded past the
// stamp, and a busy one, each take it at their next iteration boundary, and
// its SubmitAt keeps the stamp.
func TestEngineSubmitEarlierStampKeepsClock(t *testing.T) {
	const ms = time.Millisecond
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	late := eng.Submit(100*ms, 10, 4, nil)
	early := eng.Submit(40*ms, 10, 4, nil) // idle, fast-forwarded to 100 ms
	if eng.Now() != 100*ms {
		t.Fatalf("engine clock %v after an earlier stamp, want 100ms", eng.Now())
	}
	last := eng.Now()
	eng.Step(eng.Now())
	if early.StartAt != 100*ms || late.StartAt != 100*ms || early.SubmitAt != 40*ms || early.QueueWait() != 60*ms {
		t.Errorf("early: start %v submit %v wait %v; late start %v; want both started at 100ms, early waiting 60ms",
			early.StartAt, early.SubmitAt, early.QueueWait(), late.StartAt)
	}
	busy := eng.Submit(last, 10, 4, nil) // stamped at the running iteration's start
	boundary := eng.Now()
	for eng.Depth() > 0 {
		if eng.Now() < last {
			t.Fatalf("engine clock went back from %v to %v", last, eng.Now())
		}
		last = eng.Now()
		eng.Step(eng.Now())
	}
	if busy.StartAt != boundary || busy.SubmitAt != 100*ms {
		t.Errorf("busy: start %v submit %v, want the next boundary %v and the stamp 100ms", busy.StartAt, busy.SubmitAt, boundary)
	}
}

// TestEngineChurnZeroAlloc covers the completion path too: with Release in
// the loop, even sequence turnover allocates nothing at steady state.
func TestEngineChurnZeroAlloc(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 8)
	now := time.Duration(0)
	churn := func() {
		for i := 0; i < 8; i++ {
			eng.Submit(now, 10, 2, nil)
		}
		for eng.Depth() > 0 {
			res := eng.Step(now)
			now += res.Duration
			eng.Release(res.Completed...)
		}
	}
	for i := 0; i < 10; i++ {
		churn() // warm ring, scratch, and free list
	}
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("steady-state submit/step/release allocs = %v, want 0", allocs)
	}
}

// TestEngineEachRunningEachWaiting pins the iterator contracts drivers rely
// on for drain/kill migration: running in admission order, waiting in queue
// order with tombstones skipped, and both consistent with Depth.
func TestEngineEachRunningEachWaiting(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 2)
	var seqs []*Sequence
	for i := 0; i < 5; i++ {
		seqs = append(seqs, eng.Submit(0, 10, 50, i))
	}
	eng.Step(0) // admits 2 (maxBatch), leaves 3 waiting

	var running, waiting []int
	eng.EachRunning(func(s *Sequence) { running = append(running, s.Ctx.(int)) })
	eng.EachWaiting(func(s *Sequence) { waiting = append(waiting, s.Ctx.(int)) })
	if want := []int{0, 1}; !reflect.DeepEqual(running, want) {
		t.Errorf("running = %v, want %v", running, want)
	}
	if want := []int{2, 3, 4}; !reflect.DeepEqual(waiting, want) {
		t.Errorf("waiting = %v, want %v", waiting, want)
	}
	if len(running)+len(waiting) != eng.Depth() {
		t.Errorf("iterators saw %d sequences, Depth = %d", len(running)+len(waiting), eng.Depth())
	}

	// Tombstoned entries disappear from EachWaiting immediately.
	if !eng.Abort(seqs[3].ID) {
		t.Fatal("abort failed")
	}
	waiting = waiting[:0]
	eng.EachWaiting(func(s *Sequence) { waiting = append(waiting, s.Ctx.(int)) })
	if want := []int{2, 4}; !reflect.DeepEqual(waiting, want) {
		t.Errorf("waiting after abort = %v, want %v", waiting, want)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// refEngine is the engine as it was before decode became event-driven: Step
// walks every running sequence every iteration, and nothing is ever offered
// or settled. It is the oracle the wheel-and-offer engine is compared against
// (offer_test.go); aborts remove the entry outright, which no observer can
// tell from a tombstone.
type refEngine struct {
	cfg               Config
	now               time.Duration
	nextID            int64
	waiting, running  []*Sequence
	kvUsed, kvReserve int
	stats             Stats
}

func (r *refEngine) submit(now time.Duration, promptTok, outputTok int) *Sequence {
	if now > r.now && len(r.running) == 0 && len(r.waiting) == 0 {
		r.now = now
	}
	r.nextID++
	seq := &Sequence{ID: r.nextID, PromptTok: max(promptTok, 1), OutputTok: max(outputTok, 1), SubmitAt: max(now, 0)}
	r.waiting = append(r.waiting, seq)
	r.stats.Submitted++
	return seq
}

func (r *refEngine) abort(id int64) bool {
	for i, s := range r.waiting {
		if s.ID == id {
			r.waiting = append(r.waiting[:i], r.waiting[i+1:]...)
			r.stats.Aborted++
			return true
		}
	}
	return false
}

func (r *refEngine) step(now time.Duration) StepResult {
	r.now = max(r.now, now)
	var prefill int
	for len(r.waiting) > 0 && len(r.running) < r.cfg.maxBatch() {
		seq := r.waiting[0]
		if prefill > 0 && prefill+seq.PromptTok > r.cfg.maxPrefillPerIter() {
			break
		}
		need := seq.PromptTok + seq.OutputTok
		if r.kvReserve+need > r.cfg.kvCapacity() {
			r.stats.KVRejections++
			break
		}
		r.waiting = r.waiting[1:]
		r.kvReserve += need
		r.kvUsed += seq.PromptTok
		seq.StartAt = r.now
		r.running = append(r.running, seq)
		prefill += seq.PromptTok
		r.stats.PrefillTokens += int64(seq.PromptTok)
	}
	r.stats.PeakBatch = max(r.stats.PeakBatch, len(r.running))
	if len(r.running) == 0 {
		return StepResult{}
	}
	iter := r.cfg.Model.DecodeIter(len(r.running), r.cfg.GPU)
	if prefill > 0 {
		iter += r.cfg.Model.PrefillTime(prefill, r.cfg.GPU)
	}
	res := StepResult{Duration: iter, Busy: true, EmittedTokens: len(r.running)}
	kept := r.running[:0:0]
	for _, seq := range r.running {
		seq.Emitted++
		r.kvUsed++
		if seq.Emitted < seq.OutputTok {
			kept = append(kept, seq)
			continue
		}
		seq.FinishAt = r.now + iter
		r.kvUsed -= seq.PromptTok + seq.Emitted
		r.kvReserve -= seq.PromptTok + seq.OutputTok
		res.Completed = append(res.Completed, seq)
		r.stats.Completed++
		r.stats.OutputTokens += int64(seq.Emitted)
	}
	r.running = kept
	r.stats.Iterations++
	r.stats.BusyTime += iter
	r.now += iter
	return res
}
