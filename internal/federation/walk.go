package federation

import (
	"errors"
	"fmt"
	"time"

	"github.com/argonne-first/first/internal/resilience"
)

// MaxEndpoints bounds how many endpoints one model may be configured on: a
// Walk's tried set is one bit per configuration position in a uint64.
// Config loading rejects more; Router.AddRoute and the DES replay panic.
const MaxEndpoints = 64

// Walk is the §4.5 failover walk of one request, the one policy both
// halves drive: the live gateway through Router.Next and endpoint calls,
// the DES replay through Next on its ladder rows and the replayed fault
// schedule. Set Budget and use; the zero value is a one-attempt walk.
//
// Next filters the rows through the breaker Set, runs Select's ladder on
// the survivors the request has not failed on, and reserves the pick's
// half-open probe. Its verdict is a pick, a shed (*AllOpenError: breakers
// refused every untried row) or ErrNoCandidates (every row tried).
//
// Two live behaviours have no DES counterpart, on purpose. A concurrent
// request can take the half-open probe between the filter and the
// reservation; Next then skips that row without spending an attempt. The
// DES runs one event at a time, so it never loses that race. And the live
// gateway sleeps Policy.Delay between attempts while the twin fails over in
// zero time: the one gateway it mirrors (livefed, Policy{MaxAttempts}) has
// BaseDelay 0, so a backoff booked in the twin is one no cell would read.
type Walk struct {
	// Budget is the attempt budget including the first try; values below
	// 1 mean one attempt.
	Budget int

	tried  uint64 // configuration positions whose attempt failed
	failed int    // attempts spent
	last   int    // the position Next picked last
	peek   bool   // reserve no probe (Router.Route)
}

// Next picks the row for the walk's next attempt at time now and reserves
// its half-open probe; the caller Records the outcome in set, which
// releases it. rows are the model's candidates in configuration order, at
// most MaxEndpoints of them. A nil set is no breaking.
//
//first:hotpath pinned by TestRouterNextZeroAlloc (walk_test.go)
func (w *Walk) Next(rows []EndpointInfo, set *resilience.Set, now time.Time) (int, Reason, error) {
	var refused uint64
	var reopens time.Time // the soonest reopening among refused rows
	for i := range rows {
		if w.tried&(1<<uint(i)) != 0 {
			continue
		}
		if b := set.Lookup(rows[i].ID); b != nil && !b.CanAttempt(now) {
			refused |= 1 << uint(i)
			if at := b.NextProbeAt(); !at.IsZero() && (reopens.IsZero() || at.Before(reopens)) {
				reopens = at
			}
		}
	}
	for {
		i, reason := selectAmong(rows, w.tried|refused)
		if i < 0 && refused == 0 {
			return -1, "", ErrNoCandidates
		}
		if i < 0 {
			retryAfter := time.Second // no refused row is open past now
			if !reopens.IsZero() {
				retryAfter = max(reopens.Sub(now), 0)
			}
			return -1, "", &AllOpenError{RetryAfter: retryAfter} //firstlint:allow hotpath a shed is off the pinned closed-breaker path
		}
		if b := set.Lookup(rows[i].ID); !w.peek && b != nil && !b.Allow(now) {
			refused |= 1 << uint(i) // lost the probe race: look elsewhere at no cost
			continue
		}
		w.last = i
		return i, reason, nil
	}
}

// Fail marks the last pick as tried, spends one attempt, and reports
// whether budget remains for another.
func (w *Walk) Fail() bool {
	w.tried |= 1 << uint(w.last)
	w.failed++
	return w.failed < max(w.Budget, 1)
}

// Failed is how many attempts the walk has spent.
func (w *Walk) Failed() int { return w.failed }

// AllOpenError reports that every endpoint of a model that the request has
// not already failed on has an open circuit. RetryAfter is the time until
// the soonest of them admits a half-open probe — the gateway surfaces it
// as a Retry-After header on the 503.
type AllOpenError struct {
	Model      string
	RetryAfter time.Duration
}

func (e *AllOpenError) Error() string {
	return fmt.Sprintf("federation: all endpoints for model %q have open circuits (retry in %v)", e.Model, e.RetryAfter)
}

// ErrNoCandidates reports that a walk has tried every endpoint of the
// model (distinct from a model with no routes at all).
var ErrNoCandidates = errors.New("federation: no remaining candidate endpoints")
