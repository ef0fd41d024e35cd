package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/sim"
)

// TestLiveFedZeroLost drives the short chaos cell — refused dials, 503
// bursts, SSE cuts, endpoint fault bursts, credential rejections, and a
// kill + cold restart mid-run — and checks the headline invariant: every
// request resolves as success, failover-success, shed, or a typed error.
func TestLiveFedZeroLost(t *testing.T) {
	c := LiveFedCellsShort[0]
	row := RunLiveFedCell(DefaultSeed, c)

	total := row.OK + row.FailoverOK + row.Shed + row.TypedErr + row.Untyped
	if total != c.Requests {
		t.Fatalf("accounted %d of %d requests", total, c.Requests)
	}
	if row.Untyped != 0 {
		t.Fatalf("untyped failures = %d, want 0 (every error must be typed)", row.Untyped)
	}
	if row.OK == 0 {
		t.Error("no request succeeded under chaos")
	}
	if row.FailoverOK == 0 {
		t.Error("no failover success — fault bursts should push some requests to the next cluster")
	}
	if row.Trips == 0 {
		t.Error("no breaker trips — the killed endpoint should have tripped its circuit")
	}
	if row.RetryAmp <= 1.0 {
		t.Errorf("retry amplification = %.2f, want > 1 under faults", row.RetryAmp)
	}
	// Retries and failover amplify gateway-side attempts, but chaosnet eats
	// some round trips before they ever reach the gateway (refused dials,
	// synthesized 503s) — so server attempts land near, not at or above, the
	// issued count.
	if row.ServerAttempts < int64(c.Requests)*9/10 {
		t.Errorf("server attempts = %d, want >= 90%% of issued %d", row.ServerAttempts, c.Requests)
	}
}

// TestLiveFedDeterministic pins the outcome schedule: two runs of the same
// cell (fresh systems, fresh transports) produce identical outcome
// censuses, rung counts, failover pressure, and chaos fault counts. Wall-
// derived latency fields are deliberately excluded.
func TestLiveFedDeterministic(t *testing.T) {
	c := LiveFedCellsShort[0]
	a := RunLiveFedCell(DefaultSeed, c)
	b := RunLiveFedCell(DefaultSeed, c)

	type pinned struct {
		OK, FailoverOK, Shed, TypedErr, Untyped int
		ServerAttempts, FailoverAttempts        int64
		FailoverSuccess, LoadShed, AuthRechecks int64
		Trips                                   int64
		RungActive, RungCapacity, RungFirstConf int64
		Chaos                                   map[string]int64
	}
	pin := func(r LiveFedRow) pinned {
		return pinned{r.OK, r.FailoverOK, r.Shed, r.TypedErr, r.Untyped,
			r.ServerAttempts, r.FailoverAttempts,
			r.FailoverSuccess, r.LoadShed, r.AuthRechecks,
			r.Trips, r.RungActive, r.RungCapacity, r.RungFirstConf, r.Chaos}
	}
	pa, pb := pin(a), pin(b)
	if pa.OK != pb.OK || pa.FailoverOK != pb.FailoverOK || pa.Shed != pb.Shed ||
		pa.TypedErr != pb.TypedErr || pa.Untyped != pb.Untyped {
		t.Errorf("outcome census diverged:\n  a=%+v\n  b=%+v", pa, pb)
	}
	if pa.ServerAttempts != pb.ServerAttempts || pa.FailoverAttempts != pb.FailoverAttempts ||
		pa.FailoverSuccess != pb.FailoverSuccess || pa.LoadShed != pb.LoadShed ||
		pa.AuthRechecks != pb.AuthRechecks || pa.Trips != pb.Trips {
		t.Errorf("resilience accounting diverged:\n  a=%+v\n  b=%+v", pa, pb)
	}
	if pa.RungActive != pb.RungActive || pa.RungCapacity != pb.RungCapacity ||
		pa.RungFirstConf != pb.RungFirstConf {
		t.Errorf("rung counts diverged:\n  a=%+v\n  b=%+v", pa, pb)
	}
	for k, v := range pa.Chaos {
		if pb.Chaos[k] != v {
			t.Errorf("chaos stat %q diverged: %d vs %d", k, v, pb.Chaos[k])
		}
	}
}

// TestLiveFedConcurrentChaos drives the same storm from 8 goroutines with
// the kill and cold restart landing mid-flight — the race-detector target
// of `make chaos`. Outcome schedules are not deterministic here; the
// invariant is purely that nothing is lost or untyped.
func TestLiveFedConcurrentChaos(t *testing.T) {
	c := LiveFedCellsShort[0]
	c.Concurrency = 8
	row := RunLiveFedCell(DefaultSeed, c)

	total := row.OK + row.FailoverOK + row.Shed + row.TypedErr + row.Untyped
	if total != c.Requests {
		t.Fatalf("accounted %d of %d requests", total, c.Requests)
	}
	if row.Untyped != 0 {
		t.Fatalf("untyped failures = %d, want 0", row.Untyped)
	}
	if row.OK == 0 {
		t.Error("no request succeeded")
	}
}

// TestLiveFedCellSeedDerivation pins the satellite fix: the old derivation
// (seed ^ Clusters<<40 ^ Requests) collided for any two cells sharing width
// and trace length, silently correlating their chaos draws. Cells differing
// in ANY config field must now draw from distinct seeds, and the derivation
// must stay deterministic.
func TestLiveFedCellSeedDerivation(t *testing.T) {
	base := LiveFedCellsShort[0]
	if base.cellSeed(DefaultSeed) != base.cellSeed(DefaultSeed) {
		t.Fatal("cellSeed is not deterministic")
	}
	variants := map[string]func(*LiveFedCell){
		"width":              func(c *LiveFedCell) { c.Clusters++ },
		"length":             func(c *LiveFedCell) { c.Requests++ },
		"stream cadence":     func(c *LiveFedCell) { c.StreamEvery++ },
		"attempt budget":     func(c *LiveFedCell) { c.MaxAttempts++ },
		"net seed":           func(c *LiveFedCell) { c.Net.Seed++ },
		"net refuse rate":    func(c *LiveFedCell) { c.Net.PRefuse += 0.001 },
		"net 5xx rate":       func(c *LiveFedCell) { c.Net.P5xx += 0.001 },
		"net retry-after":    func(c *LiveFedCell) { c.Net.RetryAfter += time.Second },
		"net cut rate":       func(c *LiveFedCell) { c.Net.PCutStream += 0.001 },
		"net cut length":     func(c *LiveFedCell) { c.Net.CutAfterBytes++ },
		"fault burst period": func(c *LiveFedCell) { c.Faults.BurstEvery++ },
		"fault burst length": func(c *LiveFedCell) { c.Faults.BurstLen += 5 },
		"fault burst rate":   func(c *LiveFedCell) { c.Faults.PFault += 0.001 },
		"fault background":   func(c *LiveFedCell) { c.Faults.PBackground += 0.001 },
		"credential lane":    func(c *LiveFedCell) { c.PUnauthorized += 0.001 },
		"kill cadence":       func(c *LiveFedCell) { c.KillEvery += 10 },
		"kill downtime":      func(c *LiveFedCell) { c.KillDownFor++ },
		"bg cadence":         func(c *LiveFedCell) { c.BGEvery++ },
		"bg claim width":     func(c *LiveFedCell) { c.BGGPUs++ },
		"bg hold":            func(c *LiveFedCell) { c.BGHoldFor++ },
	}
	seen := map[uint64]string{base.cellSeed(DefaultSeed): "base"}
	for name, vary := range variants {
		vc := base
		vary(&vc)
		s := vc.cellSeed(DefaultSeed)
		if prev, dup := seen[s]; dup {
			t.Errorf("cells %q and %q derive the same seed %#x (same width+length must not collide)", name, prev, s)
		}
		seen[s] = name
	}
	if s := base.cellSeed(DefaultSeed + 1); seen[s] != "" {
		t.Errorf("changing the run seed collided with cell %q", seen[s])
	}
	// The committed cells' seeds, and so their fault and churn schedules,
	// do not move when a field the cells leave unset leaves a config type.
	cells := append(append([]LiveFedCell{}, LiveFedCellsShort...), LiveFedCells...)
	for i, want := range []uint64{0x989d561c5907a138, 0x7f42d06bb594e296, 0x36736d0b9f49a726} {
		c := cells[i]
		if got := c.cellSeed(DefaultSeed); got != want {
			t.Errorf("cell %d (c%d, %d requests) seed %#x, want %#x", i, c.Clusters, c.Requests, got, want)
		}
	}
}

// TestLiveFedLogicalClockInvariant pins the breaker clock satellite: one
// tick per logical request, so the final reading equals the trace length
// whatever the retry/failover budget — MaxAttempts amplifies attempts, not
// time, and breaker trip/probe windows stay comparable across budgets.
func TestLiveFedLogicalClockInvariant(t *testing.T) {
	c := LiveFedCellsShort[0]
	c.Requests = 200
	c.KillEvery, c.KillDownFor = 60, 80
	c.BGEvery, c.BGHoldFor = 70, 50
	for _, budget := range []int{1, 2, 3} {
		c.MaxAttempts = budget
		row := RunLiveFedCell(DefaultSeed, c)
		if row.LogicalTicks != int64(c.Requests) {
			t.Errorf("MaxAttempts=%d: logical clock read %d ticks, want exactly %d (one per request)",
				budget, row.LogicalTicks, c.Requests)
		}
	}
}

// TestLiveFedBuildScheduleInvariants checks the churn-plan builder across
// every configured cell: events sorted on the (index, kind, endpoint) key,
// nothing scheduled past the trace (the live driver would never fire it,
// and a replayed kill with no restart would leave its twin pool dead),
// kills always paired with a later restart, and no victim killed while
// still down.
func TestLiveFedBuildScheduleInvariants(t *testing.T) {
	for _, c := range append(append([]LiveFedCell{}, LiveFedCellsShort...), LiveFedCells...) {
		s := c.BuildSchedule(c.cellSeed(DefaultSeed))
		if len(s.Events) == 0 {
			t.Errorf("c%d/r%d: no churn events built", c.Clusters, c.Requests)
			continue
		}
		sorted := append([]chaosnet.Event(nil), s.Events...)
		s2 := s
		s2.Events = sorted
		s2.Sort()
		if !reflect.DeepEqual(sorted, s.Events) {
			t.Errorf("c%d/r%d: builder emitted unsorted events", c.Clusters, c.Requests)
		}
		down := make(map[int]bool)
		kills, claims := 0, 0
		for _, ev := range s.Events {
			if ev.AtIndex < 0 || ev.AtIndex >= c.Requests {
				t.Errorf("c%d/r%d: event %+v outside the trace [0,%d)", c.Clusters, c.Requests, ev, c.Requests)
			}
			switch ev.Kind {
			case chaosnet.EventKill:
				if down[ev.Endpoint] {
					t.Errorf("c%d/r%d: endpoint %d killed while already down at %d", c.Clusters, c.Requests, ev.Endpoint, ev.AtIndex)
				}
				down[ev.Endpoint] = true
				kills++
			case chaosnet.EventRestart:
				if !down[ev.Endpoint] {
					t.Errorf("c%d/r%d: restart without a kill at %d", c.Clusters, c.Requests, ev.AtIndex)
				}
				down[ev.Endpoint] = false
			case chaosnet.EventBGClaim:
				claims++
			case chaosnet.EventBGRelease:
				claims--
			}
		}
		for ep, d := range down {
			if d {
				t.Errorf("c%d/r%d: endpoint %d left dead at end of schedule (restart missing)", c.Clusters, c.Requests, ep)
			}
		}
		if claims != 0 {
			t.Errorf("c%d/r%d: %d background claims never released", c.Clusters, c.Requests, claims)
		}
		if kills == 0 {
			t.Errorf("c%d/r%d: schedule has no kills — the storm is not honest", c.Clusters, c.Requests)
		}
	}
}

// TestLiveFedTwinByteIdentity pins the twin as a function of the cell and
// the seed alone: two runs from (cell, seed) give byte-identical rows, and
// the Sim row RunLiveFedCellsOn reports beside the live run is that row.
func TestLiveFedTwinByteIdentity(t *testing.T) {
	c := LiveFedCellsShort[0]
	if !bytes.Equal(c.BuildSchedule(c.cellSeed(DefaultSeed)).Canonical(), c.BuildSchedule(c.cellSeed(DefaultSeed)).Canonical()) {
		t.Fatal("BuildSchedule is not deterministic")
	}
	encode := func(r LiveFedRow) []byte {
		t.Helper()
		j, err := json.Marshal([]any{r.Sim, r.SimFailed})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	twin := func() LiveFedRow {
		var r LiveFedRow
		Sequential.RunArena(1, func(_ int, a *desmodel.Arena) { r.Sim, r.SimFailed = c.twin(a, DefaultSeed) })
		return r
	}
	a := twin()
	ja, jb := encode(a), encode(twin())
	if !bytes.Equal(ja, jb) {
		t.Fatalf("twin runs diverged:\n  a=%s\n  b=%s", ja, jb)
	}
	if jl := encode(RunLiveFedCellsOn(Sequential, DefaultSeed, []LiveFedCell{c})[0]); !bytes.Equal(ja, jl) {
		t.Fatalf("the twin beside the live run differs from the standalone twin:\n  standalone=%s\n  beside live=%s", ja, jl)
	}
	if a.Sim.HardKills == 0 || a.Sim.Migrations == 0 || a.SimFailed == 0 {
		t.Errorf("replay twin too quiet to trust identity: %d failed, %+v", a.SimFailed, a.Sim)
	}
}

// TestLiveFedTwinConcurrentSessions runs the short cell's twin with 16
// closed-loop sessions, so an engine delivery carries several completions
// and the request issued from one of them may fire a replayed kill of that
// engine. Done runs in an event of its own under a replay, so the kill never
// lands inside the delivery, and every request resolves once.
func TestLiveFedTwinConcurrentSessions(t *testing.T) {
	c := LiveFedCellsShort[0]
	c.Concurrency = 16
	var row FederateRow
	var failed int64
	Sequential.RunArena(1, func(_ int, a *desmodel.Arena) { row, failed = c.twin(a, DefaultSeed) })
	if row.Offered != c.Requests || int64(row.M.Completed)+failed != int64(c.Requests) || row.HardKills == 0 {
		t.Errorf("16 sessions: offered %d, completed %d, failed %d of %d, %d hard kills",
			row.Offered, row.M.Completed, failed, c.Requests, row.HardKills)
	}
}

// TestPercentileOfMatchesCollect: a live row's p50/p99 read the ranks its
// twin's desmodel.Collect selects, so "p99 live/sim" compares like with like.
func TestPercentileOfMatchesCollect(t *testing.T) {
	for n := 1; n <= 600; n++ {
		reqs := make([]*desmodel.Req, n)
		sorted := make([]float64, n)
		for i := range reqs {
			d := time.Duration(i+1) * time.Millisecond
			reqs[i] = &desmodel.Req{ObservedAt: d}
			sorted[i] = sim.Sec(d)
		}
		m := desmodel.Collect(reqs)
		if p50, p99 := percentileOf(sorted, 0.50), percentileOf(sorted, 0.99); p50 != m.MedianLatS || p99 != m.P99LatS {
			t.Fatalf("n=%d: percentileOf gives p50 %v, p99 %v; Collect gives %v, %v", n, p50, p99, m.MedianLatS, m.P99LatS)
		}
	}
}
