package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/sim"
)

// Fleet executes the independent cells of an experiment (figure rate
// points, table concurrency×window cells, ablation arms) on parallel
// goroutines. Every cell owns a private kernel, workload trace, and RNG
// whose seed derives deterministically from the experiment seed and the
// cell's identity, so results are byte-identical whether cells run
// sequentially or spread across GOMAXPROCS workers — cells write into
// pre-sized result slots indexed by cell, never append under a lock.
//
// Each worker owns a desmodel.Arena recycling its kernel and serving-engine
// structures across the cells it executes (reset, not reallocated), and the
// arenas themselves outlive the call (arenaFree), so a process's
// steady-state allocation cost is one arena per concurrent worker rather
// than one kernel+engines per cell or per experiment.
type Fleet struct {
	// Workers is the goroutine count: 0 means GOMAXPROCS, 1 forces the
	// sequential path (used by the determinism tests as the reference).
	Workers int
	// Queue selects the kernel event-queue implementation for every cell:
	// sim.QueueCalendar (the sorted run in front of the 4-ary heap; the name
	// is the replaced calendar queue's) by default, the heap alone as the
	// reference for the differential determinism suite.
	Queue sim.QueueKind
}

// Sequential is the single-goroutine reference fleet.
var Sequential = Fleet{Workers: 1}

// Parallel is the default fleet: GOMAXPROCS workers.
var Parallel = Fleet{}

// arenaFree keeps the arenas of finished RunArena calls, by queue kind, for
// the next call to start warm: Fig. 4 runs on the kernel queue, engines and
// emission logs Fig. 3 grew. A recycled arena behaves as a fresh one
// (Arena.Begin), so results do not depend on what is kept, which is never
// more arenas than the most workers that ran at once.
var (
	arenaMu   sync.Mutex
	arenaFree = map[sim.QueueKind][]*desmodel.Arena{}
)

func takeArena(q sim.QueueKind) *desmodel.Arena {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	free := arenaFree[q]
	if len(free) == 0 {
		return desmodel.NewArena(q)
	}
	a := free[len(free)-1]
	free[len(free)-1] = nil // taken: a poisoned arena must not stay reachable from here
	arenaFree[q] = free[:len(free)-1]
	return a
}

// giveArena keeps an arena whose last cell ran to its end. One whose cell
// panicked is in an unknown state and is left to the collector instead.
func giveArena(q sim.QueueKind, a *desmodel.Arena) {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	arenaFree[q] = append(arenaFree[q], a)
}

// Run invokes cell(i) for every i in [0, n), fanning out across the fleet's
// workers. It returns after every cell completes. Cells must be independent:
// no shared kernels, RNGs, or result appends.
func (f Fleet) Run(n int, cell func(i int)) {
	f.RunArena(n, func(i int, _ *desmodel.Arena) { cell(i) })
}

// RunArena is Run for cells that build DES scenarios: each worker passes its
// private arena so the cell can recycle the worker's kernel and engines
// (call a.Begin() first, then construct systems with the *In constructors).
func (f Fleet) RunArena(n int, cell func(i int, a *desmodel.Arena)) {
	if n <= 0 {
		return
	}
	w := f.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		a := takeArena(f.Queue)
		for i := 0; i < n; i++ {
			cell(i, a)
		}
		giveArena(f.Queue, a)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	// A cell panic (e.g. an experiment's config validation) must surface on
	// the caller's goroutine like the sequential path, not kill the process
	// from an anonymous worker: capture the first one and re-raise it after
	// the fleet joins.
	var panicOnce sync.Once
	var panicked any
	wg.Add(w)
	for p := 0; p < w; p++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			a := takeArena(f.Queue)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					giveArena(f.Queue, a)
					return
				}
				cell(i, a)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
