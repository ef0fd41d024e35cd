package resilience

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is a circuit breaker state.
type State int32

// Breaker states: Closed admits everything, Open rejects everything until
// OpenFor elapses, HalfOpen admits a bounded number of probes whose
// outcomes decide between re-closing and re-opening.
const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a circuit breaker. The zero value is disabled
// (Enabled() == false); setting FailureRate > 0 enables it and fills the
// remaining fields with defaults.
type BreakerConfig struct {
	// Window is the sliding failure-rate window (default 10s).
	Window time.Duration
	// Buckets subdivides the window (default 10).
	Buckets int
	// MinSamples is the minimum in-window response count before the
	// failure rate can trip the breaker (default 10).
	MinSamples int
	// FailureRate in (0, 1]: trip when in-window failures/total reaches
	// it. 0 disables the breaker entirely.
	FailureRate float64
	// OpenFor is how long a tripped breaker rejects before admitting a
	// half-open probe (default 5s).
	OpenFor time.Duration
	// HalfOpenProbes bounds concurrent probes while half-open (default 1).
	HalfOpenProbes int
}

// Enabled reports whether this configuration activates breaking.
func (c BreakerConfig) Enabled() bool { return c.FailureRate > 0 }

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 10
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	return c
}

type bucket struct {
	succ, fail int64
}

// Breaker is one endpoint's circuit breaker. All methods are safe for
// concurrent use; the closed-state Allow/CanAttempt check is a single
// atomic load — no lock, no allocation — because that is the data-plane
// hot path every routed request crosses.
type Breaker struct {
	cfg BreakerConfig

	state     atomic.Int32 // State; fast-path readable without the lock
	openUntil atomic.Int64 // unix nanos; meaningful while state == Open

	mu       sync.Mutex
	buckets  []bucket
	cur      int
	curStart int64 // unix nanos at which buckets[cur] began
	probes   int   // outstanding half-open probes
	trips    int64
}

// NewBreaker builds a breaker; cfg must be Enabled().
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, buckets: make([]bucket, cfg.Buckets)}
}

// Allow reports whether a request may proceed at time now, reserving a
// probe slot when the breaker is half-open (the caller must Record the
// outcome to release it). Closed-state calls are lock-free and 0 allocs/op.
//
//first:hotpath pinned by the breaker AllocsPerRun suite (resilience_test.go)
func (b *Breaker) Allow(now time.Time) bool {
	if State(b.state.Load()) == Closed {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allowLocked(now, true)
}

// CanAttempt is the non-mutating variant used while scanning candidates:
// it reports whether Allow would admit a request without reserving a
// half-open probe slot, so a routing pass over N candidates does not burn
// N probes. Closed-state calls are lock-free and 0 allocs/op.
//
//first:hotpath pinned by the breaker AllocsPerRun suite (resilience_test.go)
func (b *Breaker) CanAttempt(now time.Time) bool {
	if State(b.state.Load()) == Closed {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allowLocked(now, false)
}

func (b *Breaker) allowLocked(now time.Time, reserve bool) bool {
	switch State(b.state.Load()) {
	case Closed:
		return true
	case Open:
		if now.UnixNano() < b.openUntil.Load() {
			return false
		}
		if !reserve {
			return true // a probe would be admitted
		}
		b.state.Store(int32(HalfOpen))
		b.probes = 0
	}
	if b.probes >= b.cfg.HalfOpenProbes {
		return false
	}
	if reserve {
		b.probes++
	}
	return true
}

// Record feeds one response outcome at time now. In half-open state the
// outcome settles the probe: success re-closes the breaker, failure
// re-opens it for another OpenFor.
func (b *Breaker) Record(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch State(b.state.Load()) {
	case HalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if ok {
			b.resetWindowLocked(now)
			b.state.Store(int32(Closed))
		} else {
			b.tripLocked(now)
		}
		return
	case Open:
		// A response from before the trip landed late: feed the window so
		// it stays truthful, but the state machine is already decided.
		b.observeLocked(now, ok)
		return
	}
	b.observeLocked(now, ok)
	var succ, fail int64
	for _, bk := range b.buckets {
		succ += bk.succ
		fail += bk.fail
	}
	total := succ + fail
	if total >= int64(b.cfg.MinSamples) && float64(fail) >= b.cfg.FailureRate*float64(total) {
		b.tripLocked(now)
	}
}

func (b *Breaker) tripLocked(now time.Time) {
	b.state.Store(int32(Open))
	b.openUntil.Store(now.Add(b.cfg.OpenFor).UnixNano())
	b.probes = 0
	b.trips++
	b.resetWindowLocked(now)
}

func (b *Breaker) resetWindowLocked(now time.Time) {
	for i := range b.buckets {
		b.buckets[i] = bucket{}
	}
	b.cur = 0
	b.curStart = now.UnixNano()
}

func (b *Breaker) observeLocked(now time.Time, ok bool) {
	b.rotateLocked(now)
	if ok {
		b.buckets[b.cur].succ++
	} else {
		b.buckets[b.cur].fail++
	}
}

// rotateLocked advances the bucket ring to cover now, zeroing buckets that
// fell out of the window.
func (b *Breaker) rotateLocked(now time.Time) {
	width := int64(b.cfg.Window) / int64(len(b.buckets))
	if width <= 0 {
		width = 1
	}
	n := now.UnixNano()
	if b.curStart == 0 {
		b.curStart = n
		return
	}
	steps := (n - b.curStart) / width
	if steps <= 0 {
		return
	}
	if steps >= int64(len(b.buckets)) {
		b.resetWindowLocked(now)
		return
	}
	for i := int64(0); i < steps; i++ {
		b.cur = (b.cur + 1) % len(b.buckets)
		b.buckets[b.cur] = bucket{}
	}
	b.curStart += steps * width
}

// State returns the breaker's current raw state.
func (b *Breaker) State() State { return State(b.state.Load()) }

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// NextProbeAt returns when an open breaker will admit its next probe
// (zero time unless currently open).
func (b *Breaker) NextProbeAt() time.Time {
	if State(b.state.Load()) != Open {
		return time.Time{}
	}
	return time.Unix(0, b.openUntil.Load())
}
