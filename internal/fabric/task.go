// Package fabric is the Globus Compute substitute (§3.2): a
// Function-as-a-Service layer with a cloud-style Hub that validates and
// routes tasks, Endpoints deployed per cluster that execute pre-registered
// functions, and a client SDK returning futures. Endpoints acquire compute
// through the PBS-like scheduler, keep model instances hot, auto-scale, and
// restart failed instances — the §3.2.2 feature set.
//
// The hub's two serialized lanes, dispatch and relay, are booked rather than
// run: a task's departure from each is fixed as it enters, by the FIFO
// recurrence the DES twin's stages use. At submit, the dispatch departure is
// D = max(now + submit latency, previous D) + dispatch cost, and the task's
// pickup instant is P = D + pickup latency. The task's one goroutine sleeps
// to P and runs the handler, which finds P on its context: a deployment hands
// it to the serving engine, which takes the request at P — inside the wait
// the goroutine already paid — and reports the instant F its last token was
// emitted. When the engine is idle the task's goroutine drives it itself
// (serving.LiveEngine), so the engine's work that lies before the clock, as
// much of it does once the goroutine wakes past P, costs no hop, and only
// what lies ahead is slept out by the engine's loop. At finish, the relay departure is S = max(F, previous S) + relay
// cost, with F = now for a handler that reports none. Every modelled cost is
// charged as when each lane and the engine's hand-off were waits of their
// own; what booking saves is those waits, each of which a scaled clock
// ends a pump's reaction past its deadline, and two goroutine hops per
// request. A waiter
// waits only for what is left of S when the outcome comes in, which on the
// inference path is usually nothing.
//
// A task's payload and its result are Go values: the caller's payload
// reaches the handler as it was submitted, and the handler's result
// reaches the caller's Future unchanged. The hop's cost is in the hub's
// constants above, not in host work — an encode and a decode inside one
// process — that a scaled clock would multiply into modelled time.
//
// A task lives in a record: its Task, its Future, a one-slot wake channel,
// the handler's context (which carries the *Task) and the task's bound run,
// all made once, and room for an inference's request and answer. The record
// has no lock: the wake channel is its one hand-off. Who owns a record,
// when:
//   - the hub's free list, under the hub's mu, while it is idle;
//   - the submitter, from submit until it starts the task's goroutine;
//   - that goroutine, and the handler it runs, from then until the
//     outcome's token lands on the wake channel, after which neither
//     touches the record (a handler keeps neither its context, nor the
//     *Task on it, nor a payload pointing into the record past its return);
//   - the waiter, from the token on. A Future's Waits pass the token from
//     one to the next, and each reads the outcome only once it has taken
//     the token, so every Wait reads what the goroutine wrote before its
//     send.
//
// Every submit takes an idle record from the free list when there is one;
// Client.Run and Client.Infer are the paths that give records back, and
// only once their wait has returned the task's result (or the task's
// error). A wait that returns ctx.Err() leaves the record to the collector,
// since its task may still be running. A Future that Submit returns is its
// caller's for good and never goes back, so its Waits read the same outcome
// however late they are made.
//
// Client.Infer boxes nothing: it copies its InferRequest into the record
// and passes the handler a pointer to that copy, the built-in FnInfer
// handler answers such a task with a pointer to the record's InferResult,
// and Infer copies the answer out before the record goes back. Any other
// FnInfer task — a Run or a Submit given the request by value — is
// answered with an InferResult value, never with a pointer into a record.
package fabric

import (
	"context"
	"time"

	"github.com/argonne-first/first/internal/clock"
)

// Task is one function invocation traveling through the fabric.
type Task struct {
	Function string
	Payload  any

	clk      clock.Clock
	ctx      context.Context // the handler's: carries this *Task, made once per record
	pickupAt time.Time       // P = D + the endpoint's pickup latency, booked at submit
	// finishedAt is F, the instant the handler's engine finished, or zero;
	// only the task's own goroutine touches it.
	finishedAt time.Time

	// The outcome: written by the task's goroutine before it sends the wake
	// token, and read only by a waiter once it has taken the token.
	relayedAt time.Time // S, booked when the outcome came in
	result    any
	err       error

	// infer and inferred are Client.Infer's request and answer, kept in the
	// record so that neither is boxed: the payload is &infer, and the
	// built-in FnInfer handler answers with &inferred.
	infer    InferRequest
	inferred InferResult
}

// taskKey keys the running *Task on its handler's context.
type taskKey struct{}

// Future resolves to a task result: the paper's Optimization 1 replaced
// 2-second status polling with futures, so a waiter learns of the result at
// its relay departure S, and at once when the outcome comes in after S.
type Future struct {
	task *Task
	// wake holds one token once the outcome and its relay departure are in.
	// Wait puts the token back after taking it, so any number of Waits, in
	// turn or at once, see the outcome; Client.Run's own wait keeps it, and
	// its record goes back to the free list with an empty channel.
	wake chan struct{}
}

// Wait blocks for the result and returns it no earlier than its relay
// departure S. S is booked from the engine's finish F, so it may have passed
// by the time the outcome comes in; Wait then returns at once.
func (f *Future) Wait(ctx context.Context) (any, error) {
	select {
	case <-f.wake:
		f.wake <- struct{}{} // the one token: the channel is empty again
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	res, _, err := f.outcome(ctx)
	return res, err
}

// outcome waits out what is left of S once the outcome is in and returns
// it; in is false when ctx ended first, and err is then ctx.Err().
//
//first:hotpath reached through the Run pin
func (f *Future) outcome(ctx context.Context) (res any, in bool, err error) {
	t := f.task
	if rest := t.relayedAt.Sub(t.clk.Now()); rest > 0 {
		select {
		case <-t.clk.After(rest):
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	if t.err != nil {
		return nil, true, t.err
	}
	return t.result, true, nil
}

// resolve records the outcome and the instant it is relayed at, and hands
// the record to its waiter: after the token is sent, the task's goroutine
// touches nothing of it.
//
//first:hotpath reached through the Run pin
func (f *Future) resolve(result any, err error, relayed time.Time) {
	f.task.result, f.task.err, f.task.relayedAt = result, err, relayed
	f.wake <- struct{}{}
}

// record is what a task needs, made once and recycled: its Task and
// Future, and its run bound once, so that starting the task's goroutine
// allocates nothing. See the package comment for who owns it when.
type record struct {
	task  Task
	fut   Future
	hub   *Hub
	ep    *Endpoint // the endpoint of the current task
	runFn func()    // rec.run
	next  *record   // the hub's free list
}

// newRecord makes a record for h's tasks; its context, wake channel and
// bound run stay with it for life.
func newRecord(h *Hub) *record {
	rec := &record{hub: h}
	rec.task.clk = h.clk
	rec.task.ctx = context.WithValue(context.Background(), taskKey{}, &rec.task)
	rec.fut = Future{task: &rec.task, wake: make(chan struct{}, 1)}
	rec.runFn = rec.run
	return rec
}
