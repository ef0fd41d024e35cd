package resilience

import (
	"testing"
	"time"
)

func TestZeroPolicyIsSingleAttempt(t *testing.T) {
	var p Policy
	if got := p.Attempts(); got != 1 {
		t.Fatalf("zero policy Attempts() = %d, want 1", got)
	}
	if d := p.Delay(0, 0); d != 0 {
		t.Fatalf("zero policy Delay = %v, want 0", d)
	}
	// Even a server Retry-After yields no wait without a configured backoff
	// cap... actually Retry-After is honored as-is when MaxDelay is unset.
	if d := p.Delay(0, 3*time.Second); d != 3*time.Second {
		t.Fatalf("zero policy Delay(retryAfter) = %v, want 3s", d)
	}
}

func TestPolicyFullJitterBounds(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
	for attempt := 0; attempt < 6; attempt++ {
		ceil := p.BaseDelay * (1 << attempt)
		if ceil > p.MaxDelay {
			ceil = p.MaxDelay
		}
		for i := 0; i < 200; i++ {
			d := p.Delay(attempt, 0)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceil)
			}
		}
	}
}

func TestPolicyDeterministicRand(t *testing.T) {
	mk := func() Policy {
		seq := []float64{0.25, 0.5, 0.75}
		i := 0
		return Policy{
			MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
			Rand: func() float64 { v := seq[i%len(seq)]; i++; return v },
		}
	}
	a, b := mk(), mk()
	for attempt := 0; attempt < 3; attempt++ {
		if da, db := a.Delay(attempt, 0), b.Delay(attempt, 0); da != db {
			t.Fatalf("attempt %d: %v != %v with identical rand", attempt, da, db)
		}
	}
}

func TestPolicyRetryAfterCapped(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	if d := p.Delay(0, 20*time.Millisecond); d != 20*time.Millisecond {
		t.Fatalf("in-cap Retry-After = %v, want 20ms", d)
	}
	if d := p.Delay(0, time.Hour); d != 50*time.Millisecond {
		t.Fatalf("hostile Retry-After = %v, want capped 50ms", d)
	}
}

func testCfg() BreakerConfig {
	return BreakerConfig{
		Window: 10 * time.Second, Buckets: 10, MinSamples: 4,
		FailureRate: 0.5, OpenFor: 5 * time.Second, HalfOpenProbes: 1,
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(testCfg())
	now := time.Unix(1000, 0)
	if !b.Allow(now) || b.State() != Closed {
		t.Fatal("fresh breaker must be closed")
	}
	// Below MinSamples: pure failures don't trip.
	for i := 0; i < 3; i++ {
		b.Record(now, false)
	}
	if b.State() != Closed {
		t.Fatal("tripped below MinSamples")
	}
	// Fourth failure reaches MinSamples at 100% failure rate: trip.
	b.Record(now, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Allow(now) || b.CanAttempt(now) {
		t.Fatal("open breaker admitted a request")
	}
	probe := b.NextProbeAt()
	if want := now.Add(5 * time.Second); !probe.Equal(want) {
		t.Fatalf("NextProbeAt = %v, want %v", probe, want)
	}
	// After OpenFor: exactly one probe admitted.
	later := now.Add(6 * time.Second)
	if !b.CanAttempt(later) {
		t.Fatal("expired open breaker refused a probe check")
	}
	if !b.Allow(later) {
		t.Fatal("expired open breaker refused a probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow(later) {
		t.Fatal("second concurrent probe admitted with HalfOpenProbes=1")
	}
	// Failed probe re-opens.
	b.Record(later, false)
	if b.State() != Open {
		t.Fatal("failed probe did not re-open")
	}
	// Successful probe after another wait re-closes.
	again := later.Add(6 * time.Second)
	if !b.Allow(again) {
		t.Fatal("second probe refused")
	}
	b.Record(again, true)
	if b.State() != Closed {
		t.Fatal("successful probe did not close")
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b := NewBreaker(testCfg())
	now := time.Unix(1000, 0)
	// Two failures, then the window fully rotates past them: a later pair
	// of failures alone is below MinSamples, so no trip.
	b.Record(now, false)
	b.Record(now, false)
	now = now.Add(11 * time.Second)
	b.Record(now, false)
	b.Record(now, false)
	if b.State() != Open {
		// 2 in-window failures < MinSamples 4 — still closed is correct.
		if b.State() != Closed {
			t.Fatalf("state = %v", b.State())
		}
	} else {
		t.Fatal("stale failures outside the window tripped the breaker")
	}
	// Mixed traffic below the failure rate never trips.
	for i := 0; i < 50; i++ {
		b.Record(now, i%3 == 0) // 2/3 failures ≥ 0.5 → would trip
	}
	if b.State() != Open {
		t.Fatal("66% failure rate above threshold did not trip")
	}
}

func TestBreakerClosedCheckZeroAllocs(t *testing.T) {
	b := NewBreaker(testCfg())
	now := time.Unix(1000, 0)
	if n := testing.AllocsPerRun(1000, func() { b.Allow(now) }); n != 0 {
		t.Fatalf("closed-path Allow allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { b.CanAttempt(now) }); n != 0 {
		t.Fatalf("closed-path CanAttempt allocates %v/op, want 0", n)
	}
	s := NewSet(testCfg())
	s.Record("ep-a", now, true)
	if n := testing.AllocsPerRun(1000, func() { s.Lookup("ep-a") }); n != 0 {
		t.Fatalf("Set.Lookup allocates %v/op, want 0", n)
	}
}

// TestSetLookupAndCounts pins what the failover walk and /metrics read: an
// ID with no recorded outcome (or a nil Set) has no breaker, a recorded one
// has its own, and the set tallies states and trips across IDs.
func TestSetLookupAndCounts(t *testing.T) {
	s := NewSet(testCfg())
	now := time.Unix(1000, 0)
	if s.Lookup("unknown") != nil || (*Set)(nil).Lookup("ep-a") != nil {
		t.Fatal("an unknown ID or a nil set must have no breaker")
	}
	s.Record("ep-a", now, true)
	for i := 0; i < 4; i++ {
		s.Record("ep-b", now, false)
	}
	if b := s.Lookup("ep-a"); b == nil || !b.CanAttempt(now) {
		t.Fatal("healthy endpoint blocked")
	}
	if b := s.Lookup("ep-b"); b == nil || b.CanAttempt(now) {
		t.Fatal("tripped endpoint admitted")
	}
	if at := s.Lookup("ep-b").NextProbeAt(); !at.Equal(now.Add(testCfg().OpenFor)) {
		t.Fatalf("NextProbeAt = %v, want OpenFor after the trip", at)
	}
	if open, half := s.StateCounts(); open != 1 || half != 0 {
		t.Fatalf("StateCounts = %d open %d half, want 1/0", open, half)
	}
	if s.Trips() != 1 {
		t.Fatalf("trips = %d", s.Trips())
	}
}
