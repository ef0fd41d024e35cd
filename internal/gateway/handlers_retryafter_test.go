package gateway

import (
	"net/http/httptest"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/metrics"
)

// TestWriteInferErrorRetryAfterFloor pins the Retry-After floor on the
// all-circuits-open 503: a breaker horizon of zero or negative duration
// (the soonest probe is due now, or the clock raced past it) must still
// advertise at least one second — "Retry-After: 0" invites an immediate
// hammer-loop and some clients reject it outright.
func TestWriteInferErrorRetryAfterFloor(t *testing.T) {
	s := &Server{ins: newInstruments(metrics.NewRegistry())}
	cases := []struct {
		name  string
		after time.Duration
		want  string
	}{
		{"zero horizon", 0, "1"},
		{"negative horizon", -3 * time.Second, "1"},
		{"sub-second rounds up", 200 * time.Millisecond, "1"},
		{"exact seconds pass through", 3 * time.Second, "3"},
		{"fractional rounds up", 2500 * time.Millisecond, "3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.writeInferError(rec, &federation.AllOpenError{Model: "m", RetryAfter: c.after})
			if rec.Code != 503 {
				t.Fatalf("status = %d, want 503", rec.Code)
			}
			if got := rec.Header().Get("Retry-After"); got != c.want {
				t.Errorf("Retry-After = %q, want %q", got, c.want)
			}
		})
	}
}
