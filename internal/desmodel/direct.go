package desmodel

import (
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// DirectParams model the vLLM-Direct baseline: the benchmark client talks
// straight to vLLM's OpenAI-compatible server, whose API front-end
// historically processed requests on a single thread (§5.3.1, vLLM issue
// #12705) — request admission serializes.
type DirectParams struct {
	// APIOverhead is the serialized per-request admission cost of the
	// single-threaded API server. 172 ms reproduces the 5.8 req/s cap the
	// paper measured at saturation.
	APIOverhead time.Duration
	// ResponseOverhead is the per-response serialization/network cost
	// (pipelined).
	ResponseOverhead time.Duration
}

// DefaultDirectParams returns the calibrated baseline.
func DefaultDirectParams() DirectParams {
	return DirectParams{
		APIOverhead:      172 * time.Millisecond,
		ResponseOverhead: 25 * time.Millisecond,
	}
}

// DirectSystem is the vLLM-direct path on a kernel: admission lane → engine
// → response pipe.
type DirectSystem struct {
	k         *sim.Kernel
	admission *lane
	resp      *pipe // ResponseOverhead
	engine    *EngineSim
	done      func(*Req)
}

// NewDirectSystemIn builds a single-instance direct serving path on the
// arena's kernel, its engine drawn from the arena.
func NewDirectSystemIn(a *Arena, p DirectParams, model perfmodel.ModelSpec, gpu perfmodel.GPUSpec, done func(*Req)) *DirectSystem {
	s := &DirectSystem{k: a.k, done: done}
	s.admission = newLane(a.k, p.APIOverhead, s.admitted)
	s.resp = newPipe(a.k, p.ResponseOverhead, s.complete)
	s.engine = a.EngineSimIn(model, gpu, 0, s.onEngineComplete)
	return s
}

// Arrive is the client sending a request.
//
//first:hotpath pinned by TestSystemsCarryZeroAlloc (stage_test.go)
func (s *DirectSystem) Arrive(r *Req) {
	r.ArrivalAt = s.k.Now()
	s.admission.enqueue(r)
}

func (s *DirectSystem) admitted(r *Req) {
	r.GatewayAt = s.k.Now()
	r.EngineAt = r.GatewayAt
	s.engine.Submit(r.PromptTok, r.OutputTok, r)
}

func (s *DirectSystem) onEngineComplete(seq *serving.Sequence) {
	s.resp.push(seq.Ctx.(*Req))
}

func (s *DirectSystem) complete(r *Req) { finish(s.k, r, s.done) }

// ExtAPISystem is the Fig. 5 external cloud API: admissions are spaced by
// the service-side rate limit and served with a low, load-independent
// latency; the benchmark drives it closed-loop at the client concurrency
// the provider's limits allow.
type ExtAPISystem struct {
	k     *sim.Kernel
	m     serving.ExtAPIModel
	gap   *lane
	inSvc int
	queue reqRing
	done  func(*Req)
}

// NewExtAPISystem builds the external comparator.
func NewExtAPISystem(k *sim.Kernel, m serving.ExtAPIModel, done func(*Req)) *ExtAPISystem {
	s := &ExtAPISystem{k: k, m: m, done: done}
	s.gap = newLane(k, m.AdmissionGap(), s.tryServe)
	return s
}

// Arrive is the client sending a request.
//
//first:hotpath shares the Arrive pin (stage_test.go); its own path is not pinned: see tryServe
func (s *ExtAPISystem) Arrive(r *Req) {
	r.ArrivalAt = s.k.Now()
	s.gap.enqueue(r)
}

func (s *ExtAPISystem) tryServe(r *Req) {
	if s.m.MaxConcurrent > 0 && s.inSvc >= s.m.MaxConcurrent {
		s.queue.push(r)
		return
	}
	s.inSvc++
	r.GatewayAt = s.k.Now()
	r.EngineAt = r.GatewayAt
	r.OutputTok = s.m.ScaledOutput(r.OutputTok)
	// The service time follows the request's own output length, so this
	// wait is not FIFO and keeps a closure per request.
	s.k.Schedule(s.m.ServiceTime(r.OutputTok), func() {
		r.CompletedAt = s.k.Now()
		r.ObservedAt = r.CompletedAt
		s.inSvc--
		if s.queue.n > 0 {
			s.tryServe(s.queue.pop())
		}
		if s.done != nil {
			s.done(r)
		}
	})
}
