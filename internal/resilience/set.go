package resilience

import (
	"sync"
	"time"
)

// Set keeps one Breaker per row ID, all on one configuration: the live
// gateway keys it by endpoint ID, the DES replay by cluster name. An ID has
// no breaker until it has recorded an outcome, and an ID without one is
// admitted, so routing reads stay allocation-free until there is something
// to track.
type Set struct {
	cfg BreakerConfig

	mu sync.RWMutex
	m  map[string]*Breaker
}

// NewSet builds a breaker set with one shared configuration.
func NewSet(cfg BreakerConfig) *Set {
	return &Set{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// Lookup returns id's breaker, or nil when id has recorded nothing yet or
// the set itself is nil (no breaking): nil admits every attempt. 0 allocs/op.
//
//first:hotpath pinned by the breaker AllocsPerRun suite (resilience_test.go)
func (s *Set) Lookup(id string) *Breaker {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	b := s.m[id]
	s.mu.RUnlock()
	return b
}

// Record feeds one attempt outcome into id's breaker, creating it on first
// use. It settles a half-open probe the walk reserved.
func (s *Set) Record(id string, now time.Time, ok bool) {
	b := s.Lookup(id)
	if b == nil {
		s.mu.Lock()
		if b = s.m[id]; b == nil {
			b = NewBreaker(s.cfg)
			s.m[id] = b
		}
		s.mu.Unlock()
	}
	b.Record(now, ok)
}

// StateCounts tallies breakers currently open and half-open (metrics).
func (s *Set) StateCounts() (open, halfOpen int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, b := range s.m {
		switch b.State() {
		case Open:
			open++
		case HalfOpen:
			halfOpen++
		}
	}
	return open, halfOpen
}

// Trips sums breaker trips across all IDs.
func (s *Set) Trips() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.m {
		n += b.Trips()
	}
	return n
}
