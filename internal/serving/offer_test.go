package serving

// Differential oracle for the offer/settle contract: the engine, driven the
// way desmodel.EngineSim drives it (skip the quiet iterations Step offers,
// settle before every touch, step early when a run is cut), must be
// indistinguishable at every instant from refEngine stepped once per
// iteration. Schedules are byte strings so the random sweep, the directed
// cases and FuzzEngineOffer share one decoder.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
)

// finished is what a driver reads off a completed sequence.
type finished struct {
	ID                int64
	Start, Finish, QW time.Duration
	Emitted           int
}

// offerHarness runs one engine and one refEngine on a shared clock. Both are
// stepped by the same discipline: an iteration boundary strictly before the
// clock has been stepped, one on the clock has not (so an arrival on a
// boundary's nanosecond precedes it, which is the engine's stated rule).
type offerHarness struct {
	t   testing.TB
	eng *Engine
	ref *refEngine
	now time.Duration

	take   bool // take the offers Step makes
	settle bool // keep the Settle contract; false only with take never set
	taken  int  // offers taken
	cuts   int  // runs cut short by a Submit or Abort

	engBusy, refBusy bool // the stepping loop runs (EngineSim.running)
	inFlight         bool // a stepped iteration or run ends at engDue (EngineSim.deliverPending)
	engDue, refDue   time.Duration
	engDone, refDone []finished
	ids              []int64
}

func newOfferHarness(t testing.TB, maxBatch, kvCap, prefillBudget int) *offerHarness {
	cfg := Config{
		Model:                   perfmodel.Default.MustLookup(perfmodel.Llama8B),
		GPU:                     perfmodel.A100_40,
		MaxBatch:                maxBatch,
		KVCapacityTokens:        kvCap,
		MaxPrefillTokensPerIter: prefillBudget,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &offerHarness{t: t, eng: eng, ref: &refEngine{cfg: cfg}, take: true, settle: true}
}

func (h *offerHarness) stepEng() {
	at := h.engDue
	if h.settle {
		h.eng.Settle(at)
	}
	res := h.eng.Step(at)
	h.engBusy, h.inFlight = res.Busy, res.Busy
	if !res.Busy {
		return
	}
	for _, s := range res.Completed {
		h.engDone = append(h.engDone, finished{s.ID, s.StartAt, s.FinishAt, s.QueueWait(), s.Emitted})
	}
	h.eng.Release(res.Completed...)
	h.engDue = at + res.Duration
	if h.take && res.Quiet > 0 {
		h.engDue += time.Duration(res.Quiet) * res.Each
		h.taken++
	}
}

func (h *offerHarness) stepRef() {
	res := h.ref.step(h.refDue)
	if !res.Busy {
		h.refBusy = false
		return
	}
	for _, s := range res.Completed {
		h.refDone = append(h.refDone, finished{s.ID, s.StartAt, s.FinishAt, s.QueueWait(), s.Emitted})
	}
	h.refDue += res.Duration
}

// advance moves the clock to to, stepping every boundary strictly before it.
func (h *offerHarness) advance(to time.Duration) {
	for h.refBusy && h.refDue < to {
		h.stepRef()
	}
	for h.engBusy && h.engDue < to {
		h.stepEng()
	}
	h.now = to
	h.check()
}

// touched runs after a Submit or Abort: a run it cut is re-scheduled at the
// boundary Settle names.
func (h *offerHarness) touched() {
	if h.inFlight && h.settle {
		if due := h.eng.Settle(h.now); due < h.engDue {
			h.engDue = due
			h.cuts++
		}
	}
	h.check()
}

func (h *offerHarness) submit(promptTok, outputTok int) *Sequence {
	if h.settle {
		h.eng.Settle(h.now)
	}
	seq := h.eng.Submit(h.now, promptTok, outputTok, nil)
	if id := h.ref.submit(h.now, promptTok, outputTok).ID; id != seq.ID {
		h.t.Fatalf("submit: engine ID %d, reference %d", seq.ID, id)
	}
	h.ids = append(h.ids, seq.ID)
	if !h.refBusy {
		h.refBusy, h.refDue = true, h.now
	}
	if !h.engBusy {
		h.engBusy, h.engDue = true, h.now
	}
	h.touched()
	return seq
}

func (h *offerHarness) abort(id int64) bool {
	if h.settle {
		h.eng.Settle(h.now)
	}
	got, want := h.eng.Abort(id), h.ref.abort(id)
	if got != want {
		h.t.Fatalf("abort(%d) at %v: engine %v, reference %v", id, h.now, got, want)
	}
	h.touched()
	return got
}

// drain steps both engines dry.
func (h *offerHarness) drain() {
	for h.refBusy {
		h.stepRef()
	}
	for h.engBusy {
		h.stepEng()
	}
	h.now = max(h.now, h.refDue)
	h.check()
}

// startOf is when a completed sequence was admitted (the Sequence itself has
// been recycled by then).
func (h *offerHarness) startOf(id int64) time.Duration {
	for _, f := range h.engDone {
		if f.ID == id {
			return f.Start
		}
	}
	h.t.Fatalf("sequence %d never completed", id)
	return 0
}

func seqIDs(each func(func(*Sequence))) []int64 {
	var ids []int64
	each(func(s *Sequence) { ids = append(ids, s.ID) })
	return ids
}

// check compares everything a driver can observe at the current instant.
func (h *offerHarness) check() {
	h.t.Helper()
	if h.settle {
		h.eng.Settle(h.now)
	}
	if err := h.eng.CheckInvariants(); err != nil {
		h.t.Fatalf("at %v: %v", h.now, err)
	}
	r := h.ref
	if got, want := h.eng.Stats(), r.stats; got != want {
		h.t.Fatalf("at %v: stats\n got  %+v\n want %+v", h.now, got, want)
	}
	if got, want := h.eng.Depth(), len(r.waiting)+len(r.running); got != want {
		h.t.Fatalf("at %v: depth %d, want %d", h.now, got, want)
	}
	if got, want := h.eng.KVUsedTokens(), r.kvUsed; got != want {
		h.t.Fatalf("at %v: KV used %d, want %d", h.now, got, want)
	}
	if h.eng.Now() != r.now || h.eng.LastBusyAt() != r.lastBusy {
		h.t.Fatalf("at %v: now %v lastBusy %v, want %v %v", h.now, h.eng.Now(), h.eng.LastBusyAt(), r.now, r.lastBusy)
	}
	if h.engBusy != h.refBusy {
		h.t.Fatalf("at %v: engine loop busy=%v, reference %v", h.now, h.engBusy, h.refBusy)
	}
	if !reflect.DeepEqual(h.engDone, h.refDone) {
		h.t.Fatalf("at %v: completions\n got  %+v\n want %+v", h.now, h.engDone, h.refDone)
	}
	running := seqIDs(func(f func(*Sequence)) {
		for _, s := range r.running {
			f(s)
		}
	})
	if got := seqIDs(h.eng.EachRunning); !reflect.DeepEqual(got, running) {
		h.t.Fatalf("at %v: running %v, want %v (admission order)", h.now, got, running)
	}
	waiting := seqIDs(func(f func(*Sequence)) {
		for _, s := range r.waiting {
			f(s)
		}
	})
	if got := seqIDs(h.eng.EachWaiting); !reflect.DeepEqual(got, waiting) {
		h.t.Fatalf("at %v: waiting %v, want %v", h.now, got, waiting)
	}
}

// Schedule bytes: three of configuration, then (op, a, b) triples; the op
// byte indexes opTable modulo its length.
const (
	opSubmit = iota
	opSubmitLong
	opAbort
	opAbortHead
	opWait     // a few milliseconds: lands inside an iteration
	opBoundary // to the reference's next boundary, exactly
	opWaitLong // many iterations
	opToggle   // take the offer / step every iteration
)

var opTable = [16]byte{
	opSubmit, opSubmitLong, opAbort, opAbortHead, opWait, opBoundary, opWaitLong, opToggle,
	opSubmit, opSubmitLong, opSubmitLong, opWait, opWait, opBoundary, opWaitLong, opWaitLong,
}

func runOfferSchedule(t testing.TB, data []byte) *offerHarness {
	for len(data) < 3 {
		data = append(data, 0)
	}
	// Batch caps 1–8; KV for one to four of the largest requests (64+40
	// tokens, so every request fits an empty engine and the queue always
	// drains); a prefill budget of 16–128 tokens against prompts up to 64.
	h := newOfferHarness(t, 1+int(data[0]%8), 104+40*int(data[1]%8), 16+16*int(data[2]%8))
	if data[2]&0x80 != 0 {
		// The LiveEngine contract: never take an offer, never settle.
		h.take, h.settle = false, false
	}
	for ops := data[3:]; len(ops) >= 3; ops = ops[3:] {
		a, b := int(ops[1]), int(ops[2])
		switch opTable[int(ops[0])%len(opTable)] {
		case opSubmit:
			h.submit(1+a%64, 1+b%8)
		case opSubmitLong:
			h.submit(1+a%64, 1+b%40)
		case opAbort:
			if len(h.ids) > 0 {
				h.abort(h.ids[(a<<8|b)%len(h.ids)])
			}
		case opAbortHead:
			if len(h.ref.waiting) > 0 {
				h.abort(h.ref.waiting[0].ID)
			}
		case opWait:
			h.advance(h.now + time.Duration(a%16)*time.Millisecond + time.Duration(b)*7*time.Microsecond)
		case opBoundary:
			if h.refBusy && h.refDue >= h.now {
				h.advance(h.refDue)
			}
		case opWaitLong:
			h.advance(h.now + time.Duration(1+a%32)*7*time.Millisecond + time.Duration(b)*time.Microsecond)
		case opToggle:
			if h.settle {
				h.take = !h.take
			}
		}
	}
	h.drain()
	if h.eng.Depth() != 0 || h.eng.KVUsedTokens() != 0 {
		t.Fatalf("drained engine holds depth %d, KV %d", h.eng.Depth(), h.eng.KVUsedTokens())
	}
	return h
}

// TestEngineOfferDifferential sweeps random schedules over small KV
// capacities, batch caps 1–8 and prefill budgets that bite.
func TestEngineOfferDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20251015))
	var taken, cuts int
	for i := 0; i < 2500; i++ {
		data := make([]byte, 3+3*(10+rng.Intn(80)))
		rng.Read(data)
		h := runOfferSchedule(t, data)
		taken += h.taken
		cuts += h.cuts
	}
	t.Logf("%d offers taken, %d of them cut short", taken, cuts)
	if taken < 5000 || cuts < 1000 {
		t.Errorf("sweep too tame: %d offers taken, %d cut short", taken, cuts)
	}
}

// directed schedules, also FuzzEngineOffer's seed corpus. Configuration
// {7, 7, 7}: batch cap 8, 384 KV tokens, 128-token prefill budget.
var (
	// One long sequence decoding alone, a second submitted 10 ms in.
	schedSubmitInsideRun = []byte{7, 7, 7, opSubmitLong, 9, 39, opWait, 10, 0, opSubmit, 9, 4}
	// The same, but the second lands on a skipped boundary's nanosecond.
	schedSubmitOnBoundary = []byte{7, 7, 7, opSubmitLong, 9, 39, opWait, 10, 0, opBoundary, 0, 0, opSubmit, 9, 4}
	// KV for one large request: a second blocks at the head, a third queues
	// behind it, then the head is aborted and the third — smaller — fits.
	schedBlockedHead = []byte{7, 0, 7, opSubmitLong, 63, 30, opSubmitLong, 63, 39, opWait, 10, 0,
		opSubmit, 3, 1, opWaitLong, 2, 0, opAbortHead, 0, 0, opWaitLong, 9, 0}
)

func TestEngineOfferDirected(t *testing.T) {
	t.Run("submit inside a run", func(t *testing.T) {
		h := newOfferHarness(t, 8, 384, 128)
		h.submit(10, 40)
		h.advance(10 * time.Millisecond)
		promised := h.engDue
		late := h.submit(10, 5).ID
		if h.cuts != 1 || h.engDue >= promised || h.engDue < h.now {
			t.Fatalf("submit at %v: delivery %v → %v, %d cuts; want it moved up to the next boundary", h.now, promised, h.engDue, h.cuts)
		}
		boundary := h.engDue
		h.drain()
		if got := h.startOf(late); got != boundary {
			t.Errorf("late arrival admitted at %v, want the cut boundary %v", got, boundary)
		}
	})
	t.Run("submit on a boundary", func(t *testing.T) {
		h := newOfferHarness(t, 8, 384, 128)
		h.submit(10, 40)
		h.advance(10 * time.Millisecond)
		boundary := h.refDue // a boundary inside the promised run
		if boundary >= h.engDue {
			t.Fatalf("boundary %v is not inside the run ending %v", boundary, h.engDue)
		}
		h.advance(boundary)
		onIt := h.submit(10, 5).ID
		h.drain()
		// The stated rule: taken before the boundary, so it joins the
		// iteration that starts there.
		if got := h.startOf(onIt); got != boundary {
			t.Errorf("arrival on boundary %v admitted at %v", boundary, got)
		}
	})
	t.Run("submit behind a KV-blocked head", func(t *testing.T) {
		h := newOfferHarness(t, 8, 104, 128)
		h.submit(64, 30)
		h.submit(64, 40) // no KV headroom until the first completes
		h.advance(10 * time.Millisecond)
		promised, rejected, iters := h.engDue, h.eng.Stats().KVRejections, h.eng.Stats().Iterations
		h.submit(4, 2) // would fit, but queues behind the head
		if h.cuts != 0 || h.engDue != promised {
			t.Fatalf("submit behind a blocked head moved delivery %v → %v", promised, h.engDue)
		}
		h.advance(h.now + 100*time.Millisecond)
		st := h.eng.Stats()
		if d := st.Iterations - iters; d < 10 || st.KVRejections-rejected != d {
			t.Errorf("%d iterations skipped with the head blocked, %d rejections counted", d, st.KVRejections-rejected)
		}
		h.drain()
	})
	t.Run("abort of a blocked head", func(t *testing.T) {
		h := newOfferHarness(t, 8, 104, 128)
		h.submit(64, 30)
		head := h.submit(64, 40).ID
		small := h.submit(4, 2).ID
		h.advance(20 * time.Millisecond)
		promised := h.engDue
		h.abort(head)
		if h.cuts != 1 || h.engDue >= promised {
			t.Fatalf("abort of the blocked head left delivery at %v (was %v)", h.engDue, promised)
		}
		boundary := h.engDue
		h.drain()
		if got := h.startOf(small); got != boundary {
			t.Errorf("next in line admitted at %v, want the cut boundary %v", got, boundary)
		}
	})
	for name, sched := range map[string][]byte{
		"inside": schedSubmitInsideRun, "boundary": schedSubmitOnBoundary, "blocked": schedBlockedHead,
	} {
		if h := runOfferSchedule(t, sched); h.cuts == 0 {
			t.Errorf("schedule %q cut no run", name)
		}
	}
}

// FuzzEngineOffer searches for a schedule on which the engine and the
// reference disagree.
func FuzzEngineOffer(f *testing.F) {
	f.Add(schedSubmitInsideRun)
	f.Add(schedSubmitOnBoundary)
	f.Add(schedBlockedHead)
	f.Add(append([]byte{0, 0, 0x80}, schedBlockedHead[3:]...)) // batch cap 1, never settled
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			t.Skip("long schedules only repeat short ones")
		}
		runOfferSchedule(t, data)
	})
}

// TestEngineSettleZeroAlloc pins the offer path — a Step that makes an offer,
// a partial Settle, the Submit that cuts the run, the early Step — at zero
// allocations.
func TestEngineSettleZeroAlloc(t *testing.T) {
	eng := newTestEngine(t, perfmodel.Llama8B, 0)
	for i := 0; i < 64; i++ {
		eng.Submit(0, 100, 1<<14, nil) // 64 of them fit the KV cache; none finishes during the test
	}
	now := eng.Step(0).Duration
	var cuts int
	cycle := func() {
		res := eng.Step(now)
		if res.Quiet == 0 {
			t.Fatal("a batch with nothing waiting and nothing finishing should offer a quiet run")
		}
		now += res.Duration + 7*res.Each + 1 // inside the eighth quiet iteration
		eng.Settle(now)
		eng.Submit(now, 10, 1, nil)
		if due := eng.Settle(now); due < now+time.Duration(res.Quiet-8)*res.Each {
			cuts++
			now = due
		}
		res = eng.Step(now) // admits the newcomer and finishes it
		now += res.Duration
		eng.Release(res.Completed...)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("offer, settle, cut and early step allocs = %v, want 0", allocs)
	}
	if st := eng.Stats(); cuts != 111 || st.Completed != 111 || st.Iterations != 1+111*10 {
		t.Errorf("%d cuts, stats %+v: want 111 cycles of one stepped, eight settled and one early iteration", cuts, st)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
