package experiments

import (
	"testing"
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/workload"
)

// pooledArenas is the set of arenas arenaFree holds right now.
func pooledArenas() map[*desmodel.Arena]bool {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	set := make(map[*desmodel.Arena]bool)
	for _, free := range arenaFree {
		for _, a := range free {
			set[a] = true
		}
	}
	return set
}

// TestFleetRunsEveryCellOnce checks the work-stealing loop covers [0, n)
// exactly once at every worker count.
func TestFleetRunsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		hits := make([]int32, n)
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		Fleet{Workers: workers}.Run(n, func(i int) {
			<-mu
			hits[i]++
			mu <- struct{}{}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestFleetPanicPropagates checks a cell panic surfaces on the caller's
// goroutine (like the sequential path) instead of crashing the process, and
// that the arena whose cell panicked — kernel mid-run, engines lent — is not
// kept for a later call.
func TestFleetPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var poisoned *desmodel.Arena
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			Fleet{Workers: workers}.RunArena(8, func(i int, a *desmodel.Arena) {
				if i == 5 {
					poisoned = a
					panic("boom")
				}
			})
			t.Errorf("workers=%d: Run returned without panicking", workers)
		}()
		if poisoned == nil || pooledArenas()[poisoned] {
			t.Errorf("workers=%d: the arena of the panicking cell is back in the pool", workers)
		}
	}
}

// TestDriveOpenLoopRejectsDisorder: one callback for every arrival is only
// right for a trace in arrival order, so any other trace must be refused,
// when the run reaches the arrival that goes back in time.
func TestDriveOpenLoopRejectsDisorder(t *testing.T) {
	k := sim.NewKernel()
	sys := desmodel.NewGatewayFE(k, desmodel.DefaultGatewayFEParams(1), nil)
	trace := []workload.Request{{ID: 1, ArrivalAt: time.Second}, {ID: 2, ArrivalAt: time.Second}, {ID: 3, ArrivalAt: time.Second - 1}}
	reqs := driveOpenLoop(k, trace[:2], sys) // ties are in order
	k.Run(0)
	if len(reqs) != 2 || reqs[0].ID != 1 || reqs[1].ID != 2 || reqs[0].ArrivalAt != time.Second || reqs[1].ObservedAt == 0 {
		t.Fatalf("in-order trace: got %+v, %+v", reqs[0], reqs[1])
	}
	defer func() {
		if recover() == nil {
			t.Error("driveOpenLoop accepted a trace that is not in arrival order")
		}
	}()
	driveOpenLoop(k, trace, sys)
	k.Run(0)
}
