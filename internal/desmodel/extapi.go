package desmodel

import (
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
)

// ExtAPISystem is the Fig. 5 external cloud API: admissions are spaced by
// the service-side rate limit and served with a low, load-independent
// latency; the benchmark drives it closed-loop at the client concurrency
// the provider's limits allow.
type ExtAPISystem struct {
	k     *sim.Kernel
	m     serving.ExtAPIModel
	gap   gate
	inSvc int
	queue reqRing
	done  func(*Req)
}

// NewExtAPISystem builds the external comparator.
func NewExtAPISystem(k *sim.Kernel, m serving.ExtAPIModel, done func(*Req)) *ExtAPISystem {
	s := &ExtAPISystem{k: k, m: m, done: done}
	s.gap.init(k, 0, m.AdmissionGap(), s.tryServe)
	return s
}

// Arrive is the client sending a request.
//
//first:hotpath shares the Arrive pin (stage_test.go); its own path is not pinned: see tryServe
func (s *ExtAPISystem) Arrive(r *Req) {
	r.ArrivalAt = s.k.Now()
	s.gap.push(r)
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
