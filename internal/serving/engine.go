// Package serving implements the Model Serving Tools layer (§3.3): a
// vLLM-style continuous-batching generation engine, an offline batch engine,
// an Infinity-style embedding engine, and an external cloud-API model used by
// the Fig. 5 comparison.
//
// The generation engine is a pure state machine over a virtual timeline
// (time.Duration offsets): drivers — LiveEngine in this package, stepped by
// its callers and its loop goroutine, or the discrete-event harness in
// internal/desmodel — call Step repeatedly
// and deliver the completions it reports. Keeping the engine pure lets the
// exact same batching logic power both the real HTTP stack and the paper's
// figure reproductions.
//
// A sequence's completion iteration is known the moment it is admitted, so the
// running batch is filed on a wheel by it and Step costs O(1) per completion;
// and Step can tell when the iterations after it are certain to change
// nothing, and offers to skip them (StepResult.Quiet; see Settle).
//
// The engine's hot path is allocation-free at steady state: the waiting
// queue is a ring buffer (so admission never re-slices and pins a backing
// array), StepResult.Completed aliases a scratch buffer reused across
// iterations, and drivers that call Release return finished Sequence objects
// to a free list that Submit draws from.
package serving

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
)

// Sequence is one generation request inside an engine.
type Sequence struct {
	ID        int64
	PromptTok int
	OutputTok int // target output length
	Emitted   int // tokens generated; stamped at completion, zero until then

	SubmitAt time.Duration // engine-relative submission time
	StartAt  time.Duration // admission into the running batch
	FinishAt time.Duration // completion time (set when done)

	// Ctx carries driver-private data (e.g. the fabric task).
	Ctx interface{}

	// finish is the iteration that emits the last token, fixed at admission;
	// next links a running sequence to the one after it in its wheel bucket.
	finish int64
	next   *Sequence
	// aborted marks a waiting sequence whose client disconnected; admit
	// drops it lazily when it reaches the queue head.
	aborted bool
}

// QueueWait returns how long the sequence waited before admission (clamped
// at zero: a live driver's wall-derived submit stamp can land inside the
// engine's current iteration).
func (s *Sequence) QueueWait() time.Duration {
	if s.StartAt <= s.SubmitAt {
		return 0
	}
	return s.StartAt - s.SubmitAt
}

// Latency returns submission-to-completion time (valid once finished).
func (s *Sequence) Latency() time.Duration { return s.FinishAt - s.SubmitAt }

// Config configures an engine instance.
type Config struct {
	Model perfmodel.ModelSpec
	GPU   perfmodel.GPUSpec
	// MaxBatch overrides the model's max_num_seqs when > 0.
	MaxBatch int
	// KVCapacityTokens overrides the computed KV capacity when > 0.
	KVCapacityTokens int
	// MaxPrefillTokensPerIter bounds how much prompt processing one
	// iteration absorbs (vLLM's max_num_batched_tokens); default 8192.
	MaxPrefillTokensPerIter int
}

func (c Config) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return c.Model.MaxBatch
}

func (c Config) kvCapacity() int {
	if c.KVCapacityTokens > 0 {
		return c.KVCapacityTokens
	}
	return c.Model.KVCapacityTokens(c.GPU)
}

func (c Config) maxPrefillPerIter() int {
	if c.MaxPrefillTokensPerIter > 0 {
		return c.MaxPrefillTokensPerIter
	}
	return 8192
}

// Stats aggregates engine activity.
type Stats struct {
	Submitted     int64
	Completed     int64
	Aborted       int64
	OutputTokens  int64
	PrefillTokens int64
	Iterations    int64
	BusyTime      time.Duration
	PeakBatch     int
	KVRejections  int64 // admissions deferred for KV headroom
}

// StepResult reports what one engine iteration did.
type StepResult struct {
	// Duration of the iteration; zero when the engine is idle.
	Duration time.Duration
	// Busy is false when there was nothing to do.
	Busy bool
	// Completed sequences finished at the end of this iteration, with
	// FinishAt already stamped. The slice aliases a scratch buffer owned by
	// the engine and is only valid until the next Step call; drivers must
	// consume (or copy) it before stepping again.
	Completed []*Sequence
	// EmittedTokens is the number of output tokens produced this iteration.
	EmittedTokens int
	// Quiet and Each are an offer the driver may ignore. When the iteration
	// completed nothing and nothing can be admitted before the next
	// completion (the queue is empty, or its head is held back by the batch
	// cap or by KV headroom), the next Quiet iterations are certain to admit
	// and complete nothing and to last Each apiece. A driver that takes the
	// offer steps next at now+Duration+Quiet·Each and keeps the Settle
	// contract; one that ignores it steps at now+Duration as always.
	Quiet int
	Each  time.Duration
}

// wheelSize is the finish wheel's bucket count, a power of two. It is fixed:
// a request's length never sizes the wheel.
const wheelSize = 1024

// bucket is a FIFO of running sequences, linked through Sequence.next, that
// share a finish iteration.
type bucket struct{ head, tail *Sequence }

// before orders the far heap on (finish, ID), keeping ties in admission order.
func (a *Sequence) before(b *Sequence) bool {
	return a.finish < b.finish || (a.finish == b.finish && a.ID < b.ID)
}

// seqRing is a FIFO of waiting sequences backed by a power-of-two ring
// buffer. Unlike the previous head-sliced `waiting = waiting[1:]` queue it
// never pins a growing backing array, and popping the head is a single index
// increment with no write to the popped slot's neighbours.
type seqRing struct {
	buf  []*Sequence
	head int
	n    int
}

func (q *seqRing) len() int { return q.n }

func (q *seqRing) at(i int) *Sequence {
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

func (q *seqRing) push(s *Sequence) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = s
	q.n++
}

func (q *seqRing) popFront() *Sequence {
	s := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return s
}

func (q *seqRing) popBack() *Sequence {
	i := (q.head + q.n - 1) & (len(q.buf) - 1)
	s := q.buf[i]
	q.buf[i] = nil
	q.n--
	return s
}

func (q *seqRing) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*Sequence, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// Engine is a continuous-batching generation engine for one model instance.
// It is not safe for concurrent use; drivers serialize access.
type Engine struct {
	cfg     Config
	nextID  int64
	now     time.Duration
	waiting seqRing
	// The running batch (batch sequences): wheel[f&(wheelSize-1)] holds, in
	// ID order, those whose last token iteration f < Iterations+wheelSize
	// emits, far is a min-heap on (finish, ID) of the rest, and cursor is at
	// or before the earliest finish. Step pops one bucket and no other.
	wheel  []bucket
	far    []*Sequence
	batch  int
	cursor int64
	// decode[b]: an iteration's decode time at batch b, filled in on first use.
	decode []time.Duration
	// quiet is what remains of the run Step last offered: that many iterations
	// of decode[len(running)] each from now on, none of them on the books yet.
	quiet int64
	// kvBlocked: the last admission pass ended with the queue head refused
	// for KV headroom, as will every pass until a completion or an Abort.
	kvBlocked bool
	// abortedWaiting counts tombstoned entries still sitting in the ring.
	abortedWaiting int
	// completedScratch backs StepResult.Completed across iterations.
	completedScratch []*Sequence
	// free holds released Sequence objects for Submit to reuse.
	free []*Sequence
	// kvUsed tracks actual KV occupancy; kvReserved additionally holds the
	// full prompt+output reservation of every running sequence so admission
	// can never let the batch grow past capacity mid-flight. (vLLM admits
	// optimistically and preempts; we admit conservatively, which preserves
	// the same steady-state batching behaviour without a recompute path.)
	kvUsed     int
	kvReserved int
	// The config's limits, resolved once: its accessors copy all of Config.
	kvCap         int
	maxBatch      int
	prefillBudget int
	stats         Stats
}

// ErrClosed is returned by Submit after the driver marked the engine closed.
var ErrClosed = errors.New("serving: engine closed")

// NewEngine validates the config and returns an idle engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model.Kind == perfmodel.KindEmbedding {
		return nil, fmt.Errorf("serving: %s is an embedding model; use EmbedEngine", cfg.Model.Name)
	}
	kv := cfg.kvCapacity()
	if kv <= 0 {
		return nil, fmt.Errorf("serving: %s does not fit on %d×%s (no KV room)",
			cfg.Model.Name, cfg.Model.TensorParallel, cfg.GPU.Name)
	}
	return &Engine{cfg: cfg, kvCap: kv, maxBatch: cfg.maxBatch(), prefillBudget: cfg.maxPrefillPerIter(),
		wheel: make([]bucket, wheelSize)}, nil
}

// Model returns the configured model spec.
func (e *Engine) Model() perfmodel.ModelSpec { return e.cfg.Model }

// Config returns the engine's configuration (a comparable value — engine
// pools key on it).
func (e *Engine) Config() Config { return e.cfg }

// Now returns the engine's current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Stats returns a copy of the accumulated stats.
func (e *Engine) Stats() Stats { return e.stats }

// Depth returns waiting+running sequence count (least-loaded routing input).
//
//first:hotpath pinned by TestEngineChurnZeroAlloc (engine_test.go)
func (e *Engine) Depth() int { return e.WaitingCount() + e.batch }

// RunningBatch returns the current running batch size.
func (e *Engine) RunningBatch() int { return e.batch }

// WaitingCount returns the number of queued (unadmitted) sequences.
func (e *Engine) WaitingCount() int { return e.waiting.len() - e.abortedWaiting }

// KVUsedTokens returns current KV occupancy in tokens.
func (e *Engine) KVUsedTokens() int { return e.kvUsed }

// Submit enqueues a request at time now and returns its sequence. Engine
// time only fast-forwards to now when the engine is idle, and never moves
// back: a busy engine's iteration pacing is never disturbed by arrivals, and
// a request stamped before the engine's clock — a live driver's tasks can
// reach one engine out of stamp order, or behind an idle engine that already
// fast-forwarded — is taken at the engine's next iteration boundary, its
// SubmitAt keeping the stamp. Calls need not be ordered by now.
//
// The returned Sequence may come from the free list populated by Release; it
// is owned by the caller until completion is delivered (or the sequence is
// aborted) and must not be retained after being passed back to Release.
//
//first:hotpath pinned by TestEngineChurnZeroAlloc (engine_test.go)
func (e *Engine) Submit(now time.Duration, promptTok, outputTok int, ctx interface{}) *Sequence {
	if now > e.now && e.batch == 0 && e.waiting.len() == 0 {
		e.now = now
	}
	if e.waiting.len() == 0 && e.batch < e.maxBatch {
		e.quiet = 0 // the newcomer is first in line for the next iteration
	}
	if promptTok < 1 {
		promptTok = 1
	}
	if outputTok < 1 {
		outputTok = 1
	}
	e.nextID++
	submitAt := now
	if submitAt < 0 {
		submitAt = 0
	}
	var seq *Sequence
	if n := len(e.free); n > 0 {
		seq = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		//firstlint:allow hotpath free-list miss grows the pool; the churn pin runs at steady state where Release keeps the list stocked
		seq = &Sequence{}
	}
	*seq = Sequence{
		ID:        e.nextID,
		PromptTok: promptTok,
		OutputTok: outputTok,
		SubmitAt:  submitAt,
		Ctx:       ctx,
	}
	e.waiting.push(seq)
	e.stats.Submitted++
	return seq
}

// Release returns finished (or aborted) sequences to the engine's free list
// for reuse by later Submits. Callers must guarantee no references to the
// sequences remain — in particular, a StepResult.Completed slice must be
// fully consumed first. Release is optional: drivers that keep sequences
// alive (tests, tracing tools) simply skip it and let the GC reclaim them.
//
//first:hotpath pinned by TestEngineChurnZeroAlloc (engine_test.go)
func (e *Engine) Release(seqs ...*Sequence) {
	for _, s := range seqs {
		if s == nil {
			continue
		}
		*s = Sequence{}
		e.free = append(e.free, s)
	}
}

// Reset returns the engine to its post-NewEngine state while keeping every
// allocated structure warm: the waiting ring's backing array, the running
// wheel and far heap, the completed scratch buffer, and the Sequence free list all
// survive, with queued/running sequences drained into the free list. A Reset
// engine is behaviourally indistinguishable from a fresh one (IDs restart at
// 1, time at zero, stats cleared), which is what lets experiment-fleet
// arenas recycle engines across cells without perturbing determinism.
func (e *Engine) Reset() {
	for e.waiting.len() > 0 {
		s := e.waiting.popFront()
		*s = Sequence{}
		e.free = append(e.free, s)
	}
	e.eachRunning(func(s *Sequence) {
		*s = Sequence{}
		e.free = append(e.free, s)
	})
	clear(e.wheel)
	clear(e.far)
	clear(e.completedScratch)
	e.far, e.batch, e.cursor = e.far[:0], 0, 0
	e.quiet, e.kvBlocked = 0, false
	e.completedScratch = e.completedScratch[:0]
	e.nextID = 0
	e.now = 0
	e.abortedWaiting = 0
	e.kvUsed = 0
	e.kvReserved = 0
	e.stats = Stats{}
}

// Step advances the engine by one iteration starting at virtual time now.
// The iteration spans [now, now+Duration]; completions are stamped at its
// end. When there is no work, Busy is false and the driver should sleep
// until the next Submit. The returned Completed slice is reused by the next
// Step call (see StepResult). What is left of a run the previous Step
// offered is void.
//
//first:hotpath pinned by TestEngineStepZeroAlloc (engine_test.go)
func (e *Engine) Step(now time.Duration) StepResult {
	e.quiet = 0
	if now > e.now {
		e.now = now
	}
	prefillTok, budgetSpent := e.admit()
	batch := e.batch
	if batch == 0 {
		return StepResult{}
	}

	iter := e.decodeIter(batch)
	if prefillTok > 0 {
		iter += e.cfg.Model.PrefillTime(prefillTok, e.cfg.GPU)
	}
	end := e.now + iter

	clear(e.completedScratch)
	e.completedScratch = e.completedScratch[:0]

	e.stats.Iterations++
	e.stats.BusyTime += iter
	e.kvUsed += batch // one token per running sequence
	b := &e.wheel[e.stats.Iterations&(wheelSize-1)]
	for seq := b.head; seq != nil; seq.next, seq = nil, seq.next { // unlinking each
		seq.Emitted = seq.OutputTok
		seq.FinishAt = end
		held := seq.PromptTok + seq.OutputTok
		e.kvUsed -= held
		e.kvReserved -= held
		e.completedScratch = append(e.completedScratch, seq)
		e.stats.Completed++
		e.stats.OutputTokens += int64(seq.OutputTok)
	}
	*b = bucket{}
	e.batch -= len(e.completedScratch)
	e.pull()
	e.now = end

	res := StepResult{Duration: iter, Busy: true, Completed: e.completedScratch, EmittedTokens: batch}
	if len(res.Completed) == 0 && !budgetSpent {
		// Nothing left and nothing can join before the earliest completion:
		// every iteration short of that one repeats this one without prefill.
		if q := e.earliest() - e.stats.Iterations - 1; q > 0 {
			e.quiet = q
			res.Quiet, res.Each = int(q), e.decodeIter(batch)
		}
	}
	return res
}

// Settle puts on the books every offered quiet iteration that began before
// now — Iterations, BusyTime, KV occupancy, one KVRejection each while the
// queue head is refused, and Now — so the engine reads exactly as if each
// had been stepped, and returns when Step is next due. A driver that takes
// StepResult.Quiet must settle to its clock before every Submit, Abort, Step
// and read of Stats, KVUsedTokens or Now. A Submit or Abort
// that could let a sequence in sooner than the offer assumed cuts the run at
// the first iteration boundary at or after the settled time: Settle's return
// value moves up to that boundary and the driver must step there. An arrival
// on the very nanosecond of a boundary is thus taken before it and joins the
// iteration that starts there. A driver that ignores the offer never needs to
// call Settle, and one that does gets a no-op.
//
//first:hotpath pinned by TestEngineSettleZeroAlloc (offer_test.go)
func (e *Engine) Settle(now time.Duration) time.Duration {
	if e.quiet == 0 {
		return e.now // the common case, kept small enough to inline
	}
	return e.settleRun(now)
}

//first:hotpath pinned by TestEngineSettleZeroAlloc (offer_test.go)
func (e *Engine) settleRun(now time.Duration) time.Duration {
	each := e.decode[e.batch] // the batch does not change during a run
	if now > e.now {
		k := int64((now - e.now + each - 1) / each)
		if k > e.quiet {
			k = e.quiet
		}
		span := time.Duration(k) * each
		e.quiet -= k
		e.stats.Iterations += k
		e.stats.BusyTime += span
		e.kvUsed += int(k) * e.batch
		if e.kvBlocked {
			e.stats.KVRejections += k
		}
		e.now += span
		e.pull()
	}
	return e.now + time.Duration(e.quiet)*each
}

// decodeIter reads Model.DecodeIter(b, GPU) from a table: no ModelSpec copy.
func (e *Engine) decodeIter(b int) time.Duration {
	for len(e.decode) <= b {
		e.decode = append(e.decode, e.cfg.Model.DecodeIter(len(e.decode), e.cfg.GPU))
	}
	return e.decode[b]
}

// admit moves waiting sequences into the running batch subject to the batch
// cap, the per-iteration prefill budget, and KV headroom. It returns the
// total prompt tokens admitted this iteration and whether the prefill budget
// is what stopped it (the one stop the next iteration lifts by itself).
// Tombstoned (aborted) sequences are dropped as they surface at the queue head.
func (e *Engine) admit() (admittedPrefill int, budgetSpent bool) {
	e.kvBlocked = false
	for e.waiting.len() > 0 {
		if e.batch >= e.maxBatch {
			break
		}
		seq := e.waiting.at(0)
		if seq.aborted {
			e.waiting.popFront()
			e.abortedWaiting--
			continue
		}
		if admittedPrefill > 0 && admittedPrefill+seq.PromptTok > e.prefillBudget {
			budgetSpent = true
			break
		}
		// Require room for the prompt plus a full generation reservation so
		// running sequences never overflow KV mid-flight.
		need := seq.PromptTok + seq.OutputTok
		if e.kvReserved+need > e.kvCap {
			e.stats.KVRejections++
			e.kvBlocked = true
			break
		}
		e.waiting.popFront()
		e.kvReserved += need
		e.kvUsed += seq.PromptTok
		seq.StartAt = e.now
		seq.finish = e.stats.Iterations + int64(seq.OutputTok)
		e.file(seq)
		e.batch++
		admittedPrefill += seq.PromptTok
		e.stats.PrefillTokens += int64(seq.PromptTok)
	}
	if e.batch > e.stats.PeakBatch {
		e.stats.PeakBatch = e.batch
	}
	return admittedPrefill, budgetSpent
}

// file puts a running sequence in the bucket of its finish, or on the far
// heap when that lies past the wheel's horizon.
func (e *Engine) file(seq *Sequence) {
	if seq.finish >= e.stats.Iterations+wheelSize {
		e.pushFar(seq)
		return
	}
	if b := &e.wheel[seq.finish&(wheelSize-1)]; b.head == nil {
		b.head, b.tail = seq, seq
	} else {
		b.tail.next, b.tail = seq, seq
	}
	e.cursor = min(e.cursor, seq.finish)
}

// pull moves far entries that Iterations has brought inside the horizon into
// their buckets, in (finish, ID) order. Every advance of Iterations calls it
// before the next admission can file a newer sequence beside them.
func (e *Engine) pull() {
	for len(e.far) > 0 && e.far[0].finish < e.stats.Iterations+wheelSize {
		e.file(e.popFar())
	}
}

// earliest returns the next iteration that completes a sequence (the batch
// must not be empty). The cursor walks forward over empty buckets and Steps in
// a row resume its walk; only an admission that finishes sooner moves it back.
func (e *Engine) earliest() int64 {
	horizon := e.stats.Iterations + wheelSize
	c := max(e.cursor, e.stats.Iterations+1)
	for c < horizon && e.wheel[c&(wheelSize-1)].head == nil {
		c++
	}
	if e.cursor = c; c < horizon {
		return c
	}
	return e.far[0].finish
}

func (e *Engine) pushFar(s *Sequence) {
	e.far = append(e.far, s)
	h := e.far
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (e *Engine) popFar() *Sequence {
	h := e.far
	n := len(h) - 1
	top := h[0]
	h[0], h[n] = h[n], nil
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if c >= n || !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.far = h
	return top
}

// eachRunning calls f for every running sequence: the wheel bucket by bucket,
// then the far heap. f may clear a sequence; the link is read first.
func (e *Engine) eachRunning(f func(*Sequence)) {
	for i := range e.wheel {
		for s := e.wheel[i].head; s != nil; {
			next := s.next
			f(s)
			s = next
		}
	}
	for _, s := range e.far {
		f(s)
	}
}

// EachRunning calls f for every sequence currently in the running batch, in
// admission order (by ID). The callback must not mutate engine state; drivers
// use it to identify work lost when an instance's walltime hard-kills it.
func (e *Engine) EachRunning(f func(*Sequence)) {
	byID := make([]*Sequence, 0, e.batch)
	e.eachRunning(func(s *Sequence) { byID = append(byID, s) })
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID < byID[j].ID })
	for _, s := range byID {
		f(s)
	}
}

// EachWaiting calls f for every live (non-tombstoned) waiting sequence in
// queue order. The callback must not mutate engine state; drivers that need
// to abort entries collect IDs first and call Abort afterwards.
func (e *Engine) EachWaiting(f func(*Sequence)) {
	for i := 0; i < e.waiting.len(); i++ {
		if s := e.waiting.at(i); !s.aborted {
			f(s)
		}
	}
}

// Abort removes a waiting sequence (e.g. client disconnect). It returns true
// if the sequence was found in the waiting queue; running sequences cannot
// be aborted mid-iteration. Because sequence IDs increase monotonically in
// submission order, the waiting ring is sorted by ID and the lookup is a
// binary search; the entry itself is tombstoned and reclaimed lazily, so a
// mass client-disconnect costs O(log n) per abort instead of the previous
// O(n) scan-and-copy.
func (e *Engine) Abort(id int64) bool {
	n := e.waiting.len()
	i := sort.Search(n, func(i int) bool { return e.waiting.at(i).ID >= id })
	if i >= n {
		return false
	}
	seq := e.waiting.at(i)
	if seq.ID != id || seq.aborted {
		return false
	}
	seq.aborted = true
	e.abortedWaiting++
	e.stats.Aborted++
	if e.kvBlocked {
		e.quiet = 0 // the next in line may fit where the refused head did not
	}
	// Trim tombstones reachable from either end so a fully-aborted queue
	// drains to empty without waiting for the next admission pass.
	for e.waiting.len() > 0 && e.waiting.at(0).aborted {
		e.waiting.popFront()
		e.abortedWaiting--
	}
	for e.waiting.len() > 0 && e.waiting.at(e.waiting.len()-1).aborted {
		e.waiting.popBack()
		e.abortedWaiting--
	}
	return true
}

// CheckInvariants validates internal accounting; tests call this after
// random operation sequences.
func (e *Engine) CheckInvariants() error {
	if e.kvUsed < 0 {
		return fmt.Errorf("serving: negative KV usage %d", e.kvUsed)
	}
	if e.kvUsed > e.kvReserved {
		return fmt.Errorf("serving: KV usage %d exceeds reservation %d", e.kvUsed, e.kvReserved)
	}
	if e.kvReserved > e.kvCap {
		return fmt.Errorf("serving: KV reservation over capacity: %d > %d", e.kvReserved, e.kvCap)
	}
	if e.batch > e.maxBatch {
		return fmt.Errorf("serving: batch %d exceeds cap %d", e.batch, e.maxBatch)
	}
	if e.abortedWaiting < 0 || e.abortedWaiting > e.waiting.len() {
		return fmt.Errorf("serving: tombstone count %d out of range (queue %d)", e.abortedWaiting, e.waiting.len())
	}
	for i := 1; i < e.waiting.len(); i++ {
		if e.waiting.at(i-1).ID >= e.waiting.at(i).ID {
			return fmt.Errorf("serving: waiting ring not ID-ordered at %d", i)
		}
	}
	inFlight := int64(e.batch + e.WaitingCount())
	if e.stats.Submitted != e.stats.Completed+e.stats.Aborted+inFlight {
		return fmt.Errorf("serving: sequence conservation violated: submitted=%d completed=%d aborted=%d inflight=%d",
			e.stats.Submitted, e.stats.Completed, e.stats.Aborted, inFlight)
	}
	// Each running sequence is in its finish's bucket inside the horizon (a
	// bucket is ID-ordered), or on the far heap, in heap order, past it.
	var kv, n int
	soonest := int64(math.MaxInt64)
	e.eachRunning(func(s *Sequence) {
		kv += s.PromptTok + s.OutputTok - int(s.finish-e.stats.Iterations) // prompt + emitted so far
		soonest = min(soonest, s.finish)
		n++
	})
	horizon := e.stats.Iterations + wheelSize
	for i, b := range e.wheel {
		for s := b.head; s != nil; s = s.next {
			if s.finish&(wheelSize-1) != int64(i) || s.finish <= e.stats.Iterations || s.finish >= horizon ||
				(s.next == nil) != (s == b.tail) || s.next != nil && s.next.ID <= s.ID {
				return fmt.Errorf("serving: bucket %d misfiles sequence %d finishing at %d (iteration %d)", i, s.ID, s.finish, e.stats.Iterations)
			}
		}
	}
	for i, s := range e.far {
		if s.finish < horizon || i > 0 && s.before(e.far[(i-1)/2]) {
			return fmt.Errorf("serving: far heap misplaces sequence %d finishing at %d (horizon %d)", s.ID, s.finish, horizon)
		}
	}
	if n != e.batch || e.cursor > soonest {
		return fmt.Errorf("serving: %d sequences filed for a batch of %d; cursor %d, earliest finish %d", n, e.batch, e.cursor, soonest)
	}
	if kv != e.kvUsed {
		return fmt.Errorf("serving: KV accounting drift: computed=%d tracked=%d", kv, e.kvUsed)
	}
	if e.quiet > 0 && (e.batch == 0 || e.quiet >= soonest-e.stats.Iterations) {
		return fmt.Errorf("serving: %d quiet iterations promised past a completion", e.quiet)
	}
	return nil
}
