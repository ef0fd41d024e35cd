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
// structures across the cells it executes (reset, not reallocated), so a
// fleet run's steady-state allocation cost is one arena per worker rather
// than one kernel+engines per cell.
type Fleet struct {
	// Workers is the goroutine count: 0 means GOMAXPROCS, 1 forces the
	// sequential path (used by the determinism tests as the reference).
	Workers int
	// Queue selects the kernel event-queue implementation for every cell:
	// the calendar queue by default, the 4-ary heap reference for the
	// differential determinism suite.
	Queue sim.QueueKind
}

// Sequential is the single-goroutine reference fleet.
var Sequential = Fleet{Workers: 1}

// Parallel is the default fleet: GOMAXPROCS workers.
var Parallel = Fleet{}

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
		a := desmodel.NewArena(f.Queue)
		for i := 0; i < n; i++ {
			cell(i, a)
		}
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
			a := desmodel.NewArena(f.Queue)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
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
