package desmodel

import (
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// Arena recycles the expensive per-cell structures of an experiment fleet —
// the event kernel, the serving engines and the engines' emission logs —
// across the cells one worker executes. Each fleet worker owns one Arena;
// Begin starts a new cell by resetting the kernel and reclaiming every engine
// and log the previous cell borrowed, so steady-state cell execution
// allocates no fresh kernel heaps, calendar buckets, waiting rings, Sequence
// objects, or emission records. Reset structures are
// behaviourally identical to fresh ones, which keeps fleet runs byte-equal
// to the sequential reference regardless of which worker (and therefore
// which recycled arena) executes a cell.
//
// An Arena is single-goroutine, like the kernel it owns.
type Arena struct {
	queue sim.QueueKind
	k     *sim.Kernel
	// lent are the engines handed out since the last Begin; free holds
	// reclaimed engines keyed by their (comparable) config.
	lent []*serving.Engine
	free map[serving.Config][]*serving.Engine
	// sims are the EngineSims built since the last Begin; Begin moves their
	// emission logs (emptied, capacity kept) to logs for EngineSimIn to reuse.
	sims []*EngineSim
	logs [][]emitRun
}

// NewArena returns an empty arena whose kernels use queue kind q.
func NewArena(q sim.QueueKind) *Arena {
	return &Arena{queue: q}
}

// Begin starts a new experiment cell: every engine the previous cell
// borrowed is reset and returned to the free pool, its emission log taken
// back (so EmittedBy is for the cell still running), and the kernel is reset
// and returned for the new cell to build on.
func (a *Arena) Begin() *sim.Kernel {
	for _, e := range a.sims {
		if cap(e.emitLog) > 0 {
			a.logs = append(a.logs, e.emitLog[:0])
		}
		e.emitLog = nil
	}
	clear(a.sims)
	a.sims = a.sims[:0]
	for i, eng := range a.lent {
		eng.Reset()
		cfg := eng.Config()
		a.free[cfg] = append(a.free[cfg], eng)
		a.lent[i] = nil
	}
	a.lent = a.lent[:0]
	if a.k == nil {
		a.k = sim.NewKernelWith(a.queue)
	} else {
		a.k.Reset()
	}
	return a.k
}

// engine borrows an engine for cfg: a reset one from the pool when
// available, a fresh one otherwise. The engine returns to the pool at the
// next Begin.
func (a *Arena) engine(cfg serving.Config) (*serving.Engine, error) {
	if pool := a.free[cfg]; len(pool) > 0 {
		eng := pool[len(pool)-1]
		pool[len(pool)-1] = nil
		a.free[cfg] = pool[:len(pool)-1]
		a.lent = append(a.lent, eng)
		return eng, nil
	}
	eng, err := serving.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if a.free == nil {
		a.free = make(map[serving.Config][]*serving.Engine)
	}
	a.lent = append(a.lent, eng)
	return eng, nil
}

// Reclaim returns a borrowed engine to the pool mid-cell: it is reset and
// becomes available to the next EngineSimIn with the same config. Scenarios
// with in-cell churn (federation deployment incarnations) use it so each
// cold restart reuses the previous incarnation's engine instead of
// allocating a fresh one; callers must hold no live references into the
// engine (sequences, scratch) when they reclaim it.
func (a *Arena) Reclaim(eng *serving.Engine) {
	for i, l := range a.lent {
		if l == eng {
			a.lent[i] = a.lent[len(a.lent)-1]
			a.lent[len(a.lent)-1] = nil
			a.lent = a.lent[:len(a.lent)-1]
			eng.Reset()
			if a.free == nil {
				a.free = make(map[serving.Config][]*serving.Engine)
			}
			a.free[eng.Config()] = append(a.free[eng.Config()], eng)
			return
		}
	}
}

// EngineSimIn builds a kernel-driven engine instance on the arena's kernel,
// drawing the engine from the arena pool. It panics on config errors, like
// MustEngineSim (experiment setup with static catalog entries).
func (a *Arena) EngineSimIn(model perfmodel.ModelSpec, gpu perfmodel.GPUSpec, maxBatch int, onComplete func(*serving.Sequence)) *EngineSim {
	eng, err := a.engine(serving.Config{Model: model, GPU: gpu, MaxBatch: maxBatch})
	if err != nil {
		panic(err)
	}
	e := &EngineSim{k: a.k, eng: eng, onComplete: onComplete}
	e.bind()
	if n := len(a.logs); n > 0 {
		e.emitLog, a.logs[n-1] = a.logs[n-1], nil
		a.logs = a.logs[:n-1]
	}
	a.sims = append(a.sims, e)
	return e
}
