package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/sim"
)

// GatewayFEParams model the gateway front-end's admission path in isolation:
// once the serving substrate is fast, the front-end's lock discipline is what
// bounds end-to-end throughput (§5.3.1's worker-model study, and the
// single-coordinator failure mode Pronto identifies). Each request charges a
// serialized critical section — cache lookup, limiter check, ID issue — on
// one of Shards locks, then performs PostWork off-lock (fully parallel).
type GatewayFEParams struct {
	// Shards is the front-end lock count; 1 models the single-mutex
	// front-end, larger values the sharded one.
	Shards int
	// CritSection is the per-request cost under a shard lock.
	CritSection time.Duration
	// PostWork is the per-request cost outside any lock (parse, marshal);
	// it adds latency but never limits throughput.
	PostWork time.Duration
}

// DefaultGatewayFEParams calibrate to a few microseconds of locked work per
// request — a map lookup plus token-bucket arithmetic — so a single lock
// caps admission at ~250k req/s.
func DefaultGatewayFEParams(shards int) GatewayFEParams {
	return GatewayFEParams{
		Shards:      shards,
		CritSection: 4 * time.Microsecond,
		PostWork:    25 * time.Microsecond,
	}
}

// shardFE is the sharded admission front-end shared by the storm and
// federation scenarios: requests hash onto one of a power-of-two set of
// shards, each a serialized lock charging a critical section per request,
// are stamped admitted as they leave it, and reach out after PostWork off the
// lock. Shard count is rounded up to a power of two so the hash is a mask, as
// in the live gateway.
type shardFE struct {
	k          *sim.Kernel
	crit, post time.Duration
	mask       uint64
	shards     []feShard
	out        func(*Req)
}

// feShard is one lock and the off-lock wait behind it as a single stage. A
// FIFO server of constant cost followed by a constant delay knows each
// departure when the request arrives: D = max(arrival, previous D) + crit,
// handed on at D + post. So admit stamps both, and the shard keeps one kernel
// event queued, its ring head's hand-on, as a pipe does.
//
// It stands in for a lane (serve and done events) feeding a pipe, and keeps
// that chain's order under two rules. Every hand-on of a busy period is
// queued under the one number reserved when the period began, at an idle
// admission, where the lane's serve event would have taken it: among shards
// departing on the same instants, an older busy period goes first, as the
// done events chained from it did. A successor due on the same instant as the
// request just handed on (zero crit) takes a fresh number instead, behind
// every other shard's head, as the lane's next done event did. Same-nanosecond
// rule: a departure runs where its busy period's number puts it, so a foreign
// event queued during the busy period for the exact nanosecond of a departure
// runs after it — the chain ran it first — and an admission that is such an
// event finds the shard idle and opens a new busy period.
type feShard struct {
	fe *shardFE
	q  ring[pipeSlot]
	// last is the departure of the newest admission and seq its busy
	// period's number.
	last sim.Time
	seq  uint64
	// admitted counts every request in, started those whose service began:
	// the lane's depth is admitted − started, and peak its high-water mark.
	admitted, started, peak int
	popFn                   func()
}

func newShardFE(k *sim.Kernel, shards int, critSection, postWork time.Duration, out func(*Req)) *shardFE {
	n := 1
	for n < shards {
		n <<= 1
	}
	// The kernel clamps a negative delay to zero; so must the departures.
	fe := &shardFE{k: k, crit: max(critSection, 0), post: max(postWork, 0), mask: uint64(n - 1), shards: make([]feShard, n), out: out}
	for i := range fe.shards {
		s := &fe.shards[i]
		s.fe = fe
		s.popFn = s.pop
	}
	return fe
}

// admit hashes the request's identity onto its shard.
//
//first:hotpath pinned by TestSystemsCarryZeroAlloc (stage_test.go)
func (fe *shardFE) admit(r *Req) {
	fe.shards[splitmix64(uint64(r.ID))&fe.mask].admit(r)
}

// admit books r's departure and queues its hand-on. A service or departure
// due on the current instant has happened once the running event sorts after
// its busy period's number: that decides both which waiting requests have
// started and whether r opens a new busy period.
//
//first:hotpath pinned by TestSystemsCarryZeroAlloc (stage_test.go)
func (s *feShard) admit(r *Req) {
	fe := s.fe
	now, running := fe.k.Now(), fe.k.RunningSeq()
	popped := s.admitted - s.q.n
	s.started = max(s.started, popped)
	for ; s.started < s.admitted; s.started++ {
		e := s.q.buf[(s.q.head+s.started-popped)&(len(s.q.buf)-1)]
		if start := e.r.due - fe.post - fe.crit; start > now || start == now && running < e.seq {
			break
		}
	}
	if s.last < now || s.last == now && running >= s.seq {
		s.seq = fe.k.Reserve()
	}
	s.last = max(s.last, now) + fe.crit
	r.GatewayAt = s.last
	r.due = s.last + fe.post
	s.q.push(pipeSlot{r, s.seq})
	s.admitted++
	s.peak = max(s.peak, s.admitted-s.started)
	if s.q.n == 1 {
		fe.k.AtSeq(r.due, s.seq, s.popFn)
	}
}

// pop hands on the ring's head and queues the next head's event.
//
//first:hotpath pinned by TestSystemsCarryZeroAlloc (stage_test.go)
func (s *feShard) pop() {
	k := s.fe.k
	head := s.q.pop()
	if head.r.due != k.Now() {
		panic(errNotDue)
	}
	if s.q.n > 0 {
		next := s.q.buf[s.q.head]
		seq := next.seq
		if next.r.due == head.r.due && seq == head.seq {
			seq = k.Reserve()
		}
		k.AtSeq(next.r.due, seq, s.popFn)
	}
	s.fe.out(head.r)
}

// peakShardQueue reports the deepest backlog any shard's lock reached — the
// observable congestion signal (a single-lock arm's queue grows with the
// whole storm; sharded arms stay shallow).
func (fe *shardFE) peakShardQueue() int {
	peak := 0
	for i := range fe.shards {
		peak = max(peak, fe.shards[i].peak)
	}
	return peak
}

// GatewayFE is the front-end-only path on a kernel: requests hash to a
// shard (a serialized lock charging CritSection per request) and
// complete after PostWork. No engine sits behind it — the scenario isolates
// admission.
type GatewayFE struct {
	k    *sim.Kernel
	fe   *shardFE
	done func(*Req)
}

// NewGatewayFE builds the front-end model.
func NewGatewayFE(k *sim.Kernel, p GatewayFEParams, done func(*Req)) *GatewayFE {
	s := &GatewayFE{k: k, done: done}
	s.fe = newShardFE(k, p.Shards, p.CritSection, p.PostWork, s.complete)
	return s
}

// splitmix64 spreads sequential user IDs uniformly over shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Arrive is one user's request hitting the front-end. The request's ID is
// its user identity: an arrival storm is distinct one-shot users, so every
// request hashes independently.
//
//first:hotpath pinned by TestSystemsCarryZeroAlloc (stage_test.go)
func (s *GatewayFE) Arrive(r *Req) {
	r.ArrivalAt = s.k.Now()
	s.fe.admit(r)
}

func (s *GatewayFE) complete(r *Req) { finish(s.k, r, s.done) }

// PeakShardQueue exposes the front-end's congestion high-water mark (the
// storm experiment's headline observable).
func (s *GatewayFE) PeakShardQueue() int { return s.fe.peakShardQueue() }
