package fabric

import (
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
)

type testMember struct {
	Member
	eng *testEngine
}

type testEngine struct{ depth int }

func (e *testEngine) Depth() int { return e.depth }

// spec is one member of a test pool. depth < 0 serves on an engine whose load
// is not visible (an embedding engine).
type spec struct {
	state   State
	depth   int
	job     *scheduler.Job
	drainAt time.Duration // > 0: cordoned, draining at drainAt
}

// testJobs returns a job in the scheduler's prologue and one still queued
// behind it: the scheduler's timer never fires, so both stay where they are.
func testJobs(t *testing.T) (prologue, queued *scheduler.Job) {
	t.Helper()
	cl := cluster.New("pool", 1, 4, perfmodel.A100_40)
	s := scheduler.New(cl, clock.NewManual(time.Unix(0, 0)), scheduler.Config{Timer: func(time.Duration, func()) {}})
	var err error
	if prologue, err = s.Submit(scheduler.JobSpec{GPUs: 4}); err != nil {
		t.Fatal(err)
	}
	if queued, err = s.Submit(scheduler.JobSpec{GPUs: 4}); err != nil {
		t.Fatal(err)
	}
	if prologue.State() != scheduler.Starting || queued.State() != scheduler.Queued {
		t.Fatalf("jobs in %v and %v, want starting and queued", prologue.State(), queued.State())
	}
	return prologue, queued
}

// buildPool launches the specs in order and walks each to its state through
// the guarded transitions.
func buildPool(t *testing.T, specs []spec) (*Pool[*testMember], []*testMember) {
	t.Helper()
	var p Pool[*testMember]
	ms := make([]*testMember, len(specs))
	for i, s := range specs {
		m := &testMember{}
		m.Job = s.job
		p.Add(m)
		ok := true
		if s.state >= Loading {
			ok = ok && m.Load()
		}
		if s.state >= Serving {
			if s.depth >= 0 {
				m.eng = &testEngine{s.depth}
				ok = ok && m.Serve(m.eng)
			} else {
				ok = ok && m.Serve(nil)
			}
			if s.drainAt > 0 {
				ok = ok && m.Cordon(s.drainAt)
			}
		}
		if s.state == Draining {
			ok = ok && m.Drain()
		}
		if !ok || m.State() != s.state {
			t.Fatalf("member %d: reached %d, want %d", i, m.State(), s.state)
		}
		ms[i] = m
	}
	return &p, ms
}

// TestPool holds the rules both drivers take from the pool, one row per rule:
// the pick, the record the router reads, the view Decide reads and the
// scale-down victim. Indices are launch order; -1 is none.
func TestPool(t *testing.T) {
	prologue, queued := testJobs(t)
	running := func(depth, ready, n int) PoolRecord {
		return PoolRecord{State: "running", Running: n, Depth: depth, Ready: ready}
	}
	for _, tc := range []struct {
		name          string
		pool          []spec
		parked, floor int
		pick, victim  int
		rec           PoolRecord
		view          PoolView
	}{
		{"a tie goes to the earliest launched",
			[]spec{{state: Serving, depth: 3}, {state: Serving, depth: 3}}, 0, 1, 0, 0,
			running(6, 2, 2), PoolView{Members: 2, Live: 2, Depth: 6, Releasable: true}},
		{"the least loaded serving member is picked and is the victim",
			[]spec{{state: Serving, depth: 5}, {state: Serving, depth: 2}}, 0, 1, 1, 1,
			running(7, 2, 2), PoolView{Members: 2, Live: 2, Depth: 7, Releasable: true}},
		{"an uncordoned member beats a less loaded cordoned one; the record advertises it alone",
			[]spec{{state: Serving, depth: 1, drainAt: 100}, {state: Serving, depth: 9}}, 0, 1, 1, 0,
			PoolRecord{State: "running", Running: 2, Depth: 10, Ready: 1, DrainAt: 100},
			PoolView{Members: 2, Live: 2, Depth: 10, Releasable: true}},
		{"cordon fallback: all cordoned, the least loaded still serves; the soonest drain is told",
			[]spec{{state: Serving, depth: 4, drainAt: 300}, {state: Serving, depth: 2, drainAt: 200}}, 0, 1, 1, 1,
			PoolRecord{State: "running", Running: 2, Depth: 6, Cordoned: true, DrainAt: 200},
			PoolView{Members: 2, Live: 2, Depth: 6, Releasable: true}},
		{"a draining member takes no work and counts in no field",
			[]spec{{state: Draining, depth: 7}, {state: Serving, depth: 3}}, 2, 1, 1, 1,
			running(5, 1, 1), PoolView{Members: 2, Live: 1, Depth: 5}},
		{"loading and the prologue are starting; neither is a victim",
			[]spec{{state: Loading}, {state: Queued, job: prologue}}, 0, 0, -1, -1,
			PoolRecord{State: "starting", Starting: 2}, PoolView{Members: 2, Live: 2, Upcoming: true}},
		{"a job queued at the scheduler is queued, and the victim before any serving member",
			[]spec{{state: Serving, depth: 0}, {state: Queued, job: queued}}, 0, 1, 0, 1,
			PoolRecord{State: "running", Running: 1, Queued: 1, Ready: 1},
			PoolView{Members: 2, Live: 2, Upcoming: true, Releasable: true}},
		{"a member whose Submit has not returned is queued and no victim",
			[]spec{{state: Queued}}, 0, 0, -1, -1,
			PoolRecord{State: "queued", Queued: 1}, PoolView{Members: 1, Live: 1, Upcoming: true}},
		{"an empty pool is cold",
			nil, 0, 0, -1, -1, PoolRecord{State: "cold"}, PoolView{}},
		{"the floor: no release down to it",
			[]spec{{state: Serving, depth: 0}, {state: Serving, depth: 0}}, 0, 2, 0, 0,
			running(0, 2, 2), PoolView{Members: 2, Live: 2}},
		{"parked demand blocks a release",
			[]spec{{state: Serving, depth: 0}, {state: Queued, job: queued}}, 3, 1, 0, 1,
			PoolRecord{State: "running", Running: 1, Queued: 1, Depth: 3, Ready: 1},
			PoolView{Members: 2, Live: 2, Depth: 3, Upcoming: true}},
		{"an embedding member serves but is never a victim",
			[]spec{{state: Serving, depth: -1}, {state: Serving, depth: -1}}, 0, 0, 0, -1,
			running(0, 2, 2), PoolView{Members: 2, Live: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, ms := buildPool(t, tc.pool)
			at := func(i int) *testMember {
				if i < 0 {
					return nil
				}
				return ms[i]
			}
			if got := p.Pick(); got != at(tc.pick) {
				t.Errorf("Pick = %p, want member %d", got, tc.pick)
			}
			if got := p.Victim(); got != at(tc.victim) {
				t.Errorf("Victim = %p, want member %d", got, tc.victim)
			}
			var got PoolRecord
			if p.Record(tc.parked, &got); got != tc.rec {
				t.Errorf("Record = %+v, want %+v", got, tc.rec)
			}
			if got := p.View(tc.parked, tc.floor); got != tc.view {
				t.Errorf("View = %+v, want %+v", got, tc.view)
			}
		})
	}
}

// TestMemberTransitions pins the guards: each transition moves only from its
// own state, and a member is removed once.
func TestMemberTransitions(t *testing.T) {
	var p Pool[*testMember]
	m := &testMember{}
	p.Add(m)
	if m.Serve(nil) || m.Drain() || m.Cordon(1) || m.State() != Queued {
		t.Fatalf("a queued member moved past Load: %d", m.State())
	}
	if !m.Load() || m.Load() || m.Drain() {
		t.Fatalf("Load is not once, from queued only: %d", m.State())
	}
	if !m.Serve(nil) || m.Serve(nil) || m.Load() {
		t.Fatalf("Serve is not once, from loading only: %d", m.State())
	}
	if !m.Drain() || m.Drain() || m.Cordon(1) {
		t.Fatalf("Drain is not once, from serving only: %d", m.State())
	}
	if !p.Remove(m) || p.Remove(m) || m.State() != Dead || p.Len() != 0 {
		t.Fatalf("Remove is not once: state %d, %d members", m.State(), p.Len())
	}
}

// TestPoolZeroAlloc pins the two per-request reads: the pick, on every
// request a driver places, and the record, on every routing.
func TestPoolZeroAlloc(t *testing.T) {
	prologue, queued := testJobs(t)
	p, _ := buildPool(t, []spec{
		{state: Serving, depth: 4, drainAt: 100}, {state: Serving, depth: 2},
		{state: Draining, depth: 1}, {state: Loading}, {state: Queued, job: prologue}, {state: Queued, job: queued},
	})
	if allocs := testing.AllocsPerRun(300, func() { p.Pick() }); allocs != 0 {
		t.Errorf("Pick allocates %.1f/op, want 0", allocs)
	}
	var r PoolRecord
	if allocs := testing.AllocsPerRun(300, func() { p.Record(3, &r) }); allocs != 0 {
		t.Errorf("Record allocates %.1f/op, want 0", allocs)
	}
}
