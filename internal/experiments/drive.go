// Package experiments contains one runner per table/figure in the paper's
// evaluation (§5) plus the optimization ablations, each returning structured
// paper-vs-measured results. cmd/first-bench is a thin wrapper over these
// runners.
package experiments

import (
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/workload"
)

// DefaultSeed keeps every experiment deterministic.
const DefaultSeed = 20251015 // paper's arXiv date

// arriver is any DES system accepting client requests.
type arriver interface {
	Arrive(*desmodel.Req)
}

// driveOpenLoop schedules a trace's arrivals onto a system (the vLLM
// benchmark script's open-loop mode: fixed request rate, or everything at
// t=0 for the "infinite" rate). The trace must be in arrival order: the n
// events then fire in index order and share one callback and one block.
func driveOpenLoop(k *sim.Kernel, trace []workload.Request, sys arriver) []*desmodel.Req {
	block := make([]desmodel.Req, len(trace))
	reqs := make([]*desmodel.Req, len(trace))
	next := 0
	send := func() {
		sys.Arrive(reqs[next])
		next++
	}
	for i, t := range trace {
		if i > 0 && t.ArrivalAt < trace[i-1].ArrivalAt {
			panic("experiments: open-loop trace is not in arrival order")
		}
		block[i] = desmodel.Req{ID: t.ID, PromptTok: t.PromptTok, OutputTok: t.OutputTok}
		reqs[i] = &block[i]
		k.Schedule(t.ArrivalAt, send)
	}
	return reqs
}

// firstOpenLoop runs one open-loop cell of the paper's own deployment
// (desmodel.FirstPathParams, on A100-40s) until nothing is left to happen,
// audits it, and returns its metrics.
func firstOpenLoop(a *desmodel.Arena, cell string, p desmodel.FirstParams, model perfmodel.ModelSpec, instances int, trace []workload.Request) desmodel.Metrics {
	k := a.Begin()
	sys := desmodel.NewFederationIn(a, desmodel.FirstPathParams(p, model, perfmodel.A100_40, instances), nil)
	reqs := driveOpenLoop(k, trace, sys)
	k.Run(0)
	auditConservation(cell, sys, len(trace), 0)
	return desmodel.Collect(reqs)
}

// driveClosedLoop runs `sessions` concurrent closed-loop clients: each
// session issues a request, waits for completion (plus thinkTime), and
// immediately issues the next, up to total requests (0 = unbounded; the
// kernel's Run(until) bounds the experiment). The done callback the system
// must invoke is returned for wiring before construction; use it like:
//
//	loop := newClosedLoop(k, spec, seed, sessions, thinkTime)
//	sys := desmodel.NewFederationIn(a, desmodel.FirstPathParams(p, model, gpu, n), loop.onDone)
//	loop.start(sys)
type closedLoop struct {
	k         *sim.Kernel
	spec      workload.LengthSpec
	rng       *sim.RNG
	sessions  int
	thinkTime time.Duration
	sys       arriver
	issued    int
	finished  []*desmodel.Req
	slab      []desmodel.Req // requests not yet issued, 256 to an allocation

	// Chat-session mode (Table 1): WebUI resends the full conversation on
	// every turn, so a session's prompt grows by the previous turn's
	// prompt+response. History is capped at the serving context window.
	chatHistory bool
	historyCap  int
	history     []int

	// assign, when set, stamps scenario-specific routing fields (e.g. the
	// federate family's per-session model) on each request before Arrive.
	assign func(*desmodel.Req)
}

func newClosedLoop(k *sim.Kernel, spec workload.LengthSpec, seed int64, sessions int, thinkTime time.Duration) *closedLoop {
	return &closedLoop{
		k: k, spec: spec, rng: sim.NewRNG(seed),
		sessions: sessions, thinkTime: thinkTime,
		history: make([]int, sessions),
	}
}

// enableChatHistory switches the loop into stateful WebUI-session mode.
func (c *closedLoop) enableChatHistory(contextCap int) {
	c.chatHistory = true
	c.historyCap = contextCap
}

func (c *closedLoop) start(sys arriver) {
	c.sys = sys
	for i := 0; i < c.sessions; i++ {
		c.issue(i)
	}
}

func (c *closedLoop) issue(session int) {
	p, o := c.spec.SampleLengths(c.rng)
	if c.chatHistory {
		p += c.history[session]
		if c.historyCap > 0 && p > c.historyCap {
			p = c.historyCap
		}
	}
	c.issued++
	if len(c.slab) == 0 {
		c.slab = make([]desmodel.Req, 256)
	}
	r := &c.slab[0]
	c.slab = c.slab[1:]
	*r = desmodel.Req{ID: c.issued, PromptTok: p, OutputTok: o, Session: session}
	if c.assign != nil {
		c.assign(r)
	}
	c.sys.Arrive(r)
}

// onDone records the completion and keeps the session busy.
func (c *closedLoop) onDone(r *desmodel.Req) {
	c.finished = append(c.finished, r)
	session := r.Session
	if c.chatHistory {
		// Next turn carries this turn's prompt and response as context.
		h := r.PromptTok + r.OutputTok
		if c.historyCap > 0 && h > c.historyCap {
			h = c.historyCap
		}
		c.history[session] = h
	}
	if c.thinkTime > 0 {
		c.k.Schedule(c.thinkTime, func() { c.issue(session) })
	} else {
		c.issue(session)
	}
}

// completedWithin counts the completions observed inside the window.
func (c *closedLoop) completedWithin(window time.Duration) int {
	n := 0
	for _, r := range c.finished {
		if r.ObservedAt <= window {
			n++
		}
	}
	return n
}
