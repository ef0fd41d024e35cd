package federation

import (
	"errors"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
)

// TestRouterHalfOpenProbeBudget pins the probe budget the calibration twin
// leans on: once a breaker's OpenFor expires, it admits exactly
// HalfOpenProbes attempts before rejecting further traffic until the
// probes' outcomes are recorded.
func TestRouterHalfOpenProbeBudget(t *testing.T) {
	cfg := resilience.BreakerConfig{
		Window: 10 * time.Second, Buckets: 10, MinSamples: 2,
		FailureRate: 0.5, OpenFor: 5 * time.Second, HalfOpenProbes: 2,
	}
	set := resilience.NewSet(cfg)
	base := time.Unix(1000, 0)

	// Trip the endpoint.
	set.Record("ep-x", base, false)
	set.Record("ep-x", base, false)
	if set.Lookup("ep-x").CanAttempt(base.Add(time.Second)) {
		t.Fatal("breaker admitted traffic while open")
	}

	// Past OpenFor: exactly HalfOpenProbes walks get the endpoint.
	probeAt := base.Add(6 * time.Second)
	rows := []EndpointInfo{{ID: "ep-x", ModelState: "running"}}
	admitted := 0
	for i := 0; i < 5; i++ {
		w := Walk{Budget: 1}
		if _, _, err := w.Next(rows, set, probeAt); err == nil {
			admitted++
		}
	}
	if admitted != cfg.HalfOpenProbes {
		t.Fatalf("half-open admitted %d attempts, want exactly %d", admitted, cfg.HalfOpenProbes)
	}

	// Successful probes close the circuit; traffic flows again.
	set.Record("ep-x", probeAt, true)
	set.Record("ep-x", probeAt, true)
	if !set.Lookup("ep-x").Allow(probeAt.Add(time.Second)) {
		t.Error("breaker still rejecting after successful probes")
	}
}

// TestReplayedWindowAvoidanceParity is the calibration contract at the
// routing layer: a recorded chaosnet fault window walked through the live
// Router (live rows, the live breaker Set) on the logical clock produces the
// same decision-by-decision trace as the DES twin's construction — rows
// built by hand, a second Set — when both draw the same Windows.Faulty
// schedule. Both sides drive the one federation.Walk, so this checks that
// the live rows and the live Set feed it what the twin's do. If this
// drifts, the livefed calibration gate loses its meaning.
func TestReplayedWindowAvoidanceParity(t *testing.T) {
	const (
		nReqs       = 300
		maxAttempts = 3
		seed        = uint64(0xfeed)
	)
	windows := chaosnet.Windows{BurstEvery: 40, BurstLen: 15, PFault: 0.9}
	cfg := resilience.BreakerConfig{
		Window: 60 * time.Second, Buckets: 12, MinSamples: 4,
		FailureRate: 0.5, OpenFor: 10 * time.Second, HalfOpenProbes: 1,
	}
	epoch := time.Unix(1_700_000_000, 0)

	clk := clock.NewScaled(20000)
	eps := []*fabric.Endpoint{newEndpoint(t, "p0", 2, 8, clk), newEndpoint(t, "p1", 2, 8, clk)}
	r := NewRouter()
	for _, ep := range eps {
		r.AddRoute(perfmodel.Llama8B, ep)
	}
	set := resilience.NewSet(cfg)
	var now time.Time
	r.UseBreakers(set, func() time.Time { return now })

	// walkTrace runs nReqs requests through next — one walk attempt — and
	// returns each request's outcome: the endpoint that took it, "shed" or
	// "exhausted".
	walkTrace := func(set *resilience.Set, next func(w *Walk) (int, error)) []string {
		trace := make([]string, 0, nReqs)
		for idx := 0; idx < nReqs; idx++ {
			now = epoch.Add(time.Duration(idx+1) * time.Second)
			w := Walk{Budget: maxAttempts}
			outcome := "exhausted"
			for {
				i, err := next(&w)
				var allOpen *AllOpenError
				if errors.As(err, &allOpen) {
					outcome = "shed"
					break
				}
				if err != nil {
					break // ErrNoCandidates: tried everywhere
				}
				id := eps[i].ID()
				faulty := windows.Faulty(seed, idx, i, len(eps), w.Failed())
				set.Record(id, now, !faulty)
				if !faulty {
					outcome = id
					break
				}
				if !w.Fail() {
					break
				}
			}
			trace = append(trace, outcome)
		}
		return trace
	}
	liveTrace := walkTrace(set, func(w *Walk) (int, error) {
		d, err := r.Next(perfmodel.Llama8B, w)
		if err != nil {
			return -1, err
		}
		for i, ep := range eps {
			if ep == d.Endpoint {
				return i, nil
			}
		}
		return -1, errors.New("routed off the ladder")
	})

	// Twin: rows built the way desmodel's replay keeps them — cold, with
	// the live endpoints' free GPUs — and a Set of its own.
	spec := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	rows := make([]EndpointInfo, len(eps))
	for i, ep := range eps {
		rows[i] = EndpointInfo{
			ID: ep.ID(), ModelState: "cold",
			FreeGPUs:   ep.Scheduler().Cluster().Status().FreeGPUs,
			NeededGPUs: spec.TensorParallel,
		}
	}
	twinSet := resilience.NewSet(cfg)
	twinTrace := walkTrace(twinSet, func(w *Walk) (int, error) {
		i, _, err := w.Next(rows, twinSet, now)
		return i, err
	})

	diverged := 0
	for i := range liveTrace {
		if liveTrace[i] != twinTrace[i] {
			diverged++
			if diverged <= 5 {
				t.Errorf("idx %d: live routed %q, twin routed %q", i, liveTrace[i], twinTrace[i])
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%d of %d decisions diverged between live router and replay twin", diverged, nReqs)
	}
	liveTrips, twinTrips := set.Trips(), twinSet.Trips()
	if liveTrips == 0 {
		t.Error("fault window never tripped a breaker — storm too quiet to test parity")
	}
	if liveTrips != twinTrips {
		t.Errorf("breaker trips diverged: live %d vs twin %d", liveTrips, twinTrips)
	}
}
