// Package resilience provides the retry/backoff and circuit-breaking
// building blocks the live stack uses to survive endpoint death, network
// partitions, and mid-stream disconnects (ROADMAP: "retry/backoff-aware
// client layer", in the style of soci-snapshotter's util/http retry
// policy): a composable retry Policy (capped exponential backoff with full
// jitter, Retry-After honoring), a per-endpoint
// circuit Breaker (closed → open → half-open with sliding-window failure
// rate and probe admission), and a Set holding one Breaker per routing
// row. Which row to try next, and when to shed or give up, is not decided
// here: federation.Walk reads the Set and is the one failover policy the
// live gateway and the DES replay share.
//
// Everything is time-parameterized: breakers never read a wall clock, the
// caller supplies `now` on every call. The live gateway passes its
// (possibly scaled) clock; deterministic chaos harnesses pass a logical
// clock, so breaker decisions replay identically across runs.
//
// Zero values are inert by design: a zero Policy performs exactly one
// attempt, and a zero BreakerConfig reports Enabled() ==
// false so consumers skip breaker bookkeeping entirely. Wiring resilience
// through a config struct therefore changes nothing until it is switched
// on.
package resilience

import (
	"math/rand"
	"time"
)

// Policy is a retry policy: capped exponential backoff with full jitter.
//
// The zero value performs no retries (one attempt), so embedding a Policy
// in a config struct is free until set. Each attempt runs under the
// caller's context alone.
type Policy struct {
	// MaxAttempts is the total attempt budget including the first try;
	// values below 1 mean one attempt (no retries).
	MaxAttempts int
	// BaseDelay seeds the backoff: before retry n (1-based) the caller
	// sleeps a uniform random duration in [0, min(MaxDelay, BaseDelay·2ⁿ⁻¹)]
	// — "full jitter", which spreads synchronized retry herds.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling and any server-provided
	// Retry-After (0 = 64×BaseDelay).
	MaxDelay time.Duration
	// Rand supplies jitter in [0,1); nil uses the global math/rand
	// source. Deterministic harnesses inject a seeded source.
	Rand func() float64
}

// Attempts returns the effective attempt budget (≥ 1).
func (p Policy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p Policy) maxDelay() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	if p.BaseDelay > 0 {
		return 64 * p.BaseDelay
	}
	return 0
}

// Delay computes the sleep before the retry following attempt (0-based:
// pass 0 after the first attempt failed). A server-provided retryAfter
// takes precedence over the computed backoff — the server knows its own
// recovery horizon — but is still capped at MaxDelay so a hostile or
// confused upstream cannot park the client forever.
func (p Policy) Delay(attempt int, retryAfter time.Duration) time.Duration {
	cap := p.maxDelay()
	if retryAfter > 0 {
		if cap > 0 && retryAfter > cap {
			return cap
		}
		return retryAfter
	}
	if p.BaseDelay <= 0 {
		return 0
	}
	ceil := p.BaseDelay
	for i := 0; i < attempt && ceil < cap; i++ {
		ceil *= 2
	}
	if ceil > cap {
		ceil = cap
	}
	r := p.Rand
	if r == nil {
		r = rand.Float64
	}
	return time.Duration(r() * float64(ceil))
}
