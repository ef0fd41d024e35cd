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
// serialized lanes, each charging a critical section per request, are
// stamped admitted as they leave it, and reach out after PostWork off the
// lock (one pipe serves every shard: the delay is the same). Shard count is
// rounded up to a power of two so the hash is a mask, as in the live gateway.
type shardFE struct {
	k      *sim.Kernel
	shards []*lane
	mask   uint64
	post   *pipe
}

func newShardFE(k *sim.Kernel, shards int, critSection, postWork time.Duration, out func(*Req)) *shardFE {
	n := 1
	for n < shards {
		n <<= 1
	}
	fe := &shardFE{k: k, mask: uint64(n - 1), post: newPipe(k, postWork, out)}
	for i := 0; i < n; i++ {
		fe.shards = append(fe.shards, newLane(k, critSection, fe.admitted))
	}
	return fe
}

// admit hashes the request's identity onto its shard lane.
func (fe *shardFE) admit(r *Req) {
	fe.shards[splitmix64(uint64(r.ID))&fe.mask].enqueue(r)
}

func (fe *shardFE) admitted(r *Req) {
	r.GatewayAt = fe.k.Now()
	fe.post.push(r)
}

// peakShardQueue reports the deepest backlog any shard lane reached — the
// observable congestion signal (a single-lock arm's queue grows with the
// whole storm; sharded arms stay shallow).
func (fe *shardFE) peakShardQueue() int {
	peak := 0
	for _, ln := range fe.shards {
		if ln.maxDepth > peak {
			peak = ln.maxDepth
		}
	}
	return peak
}

// GatewayFE is the front-end-only path on a kernel: requests hash to a
// shard lane (a serialized queue charging CritSection per request) and
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
