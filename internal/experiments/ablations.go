package experiments

import (
	"sort"
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/workload"
)

// AblationRow compares a configuration with an optimization off vs on.
type AblationRow struct {
	Config string
	M      desmodel.Metrics
	// HubQueuePeak is meaningful for the Artillery run (Opt. 3).
	HubQueuePeak int
}

// RunOpt1PollingOn reproduces Optimization 1 (§5.3.1), one fleet cell per
// arm: 2 s status polling vs concurrent futures at a moderate request rate;
// polling re-adds up to 2 s of observation delay per request.
func RunOpt1PollingOn(f Fleet, seed int64) []AblationRow {
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	polling := desmodel.DefaultFirstParams()
	polling.PollInterval = 2 * time.Second
	arms := []ablationArm{
		{"polling-2s (before Opt.1)", polling},
		{"futures (after Opt.1)", desmodel.DefaultFirstParams()},
	}
	return runAblationArms(f, arms, func() []workload.Request {
		return workload.Generate(500, workload.ShareGPT(), workload.Poisson(2), seed)
	}, model, 0)
}

// ablationArm is one configuration of a before/after comparison.
type ablationArm struct {
	label  string
	params desmodel.FirstParams
}

// runAblationArms executes each arm as an independent fleet cell. genTrace
// is called per cell (workload synthesis is deterministic in the seed, so
// regenerating is cheaper than sharing across goroutines); window > 0 bounds
// the run and filters completions to the measurement interval.
func runAblationArms(f Fleet, arms []ablationArm, genTrace func() []workload.Request, model perfmodel.ModelSpec, window time.Duration) []AblationRow {
	rows := make([]AblationRow, len(arms))
	f.RunArena(len(arms), func(i int, a *desmodel.Arena) {
		trace := genTrace()
		if window <= 0 {
			rows[i] = AblationRow{Config: arms[i].label, M: firstOpenLoop(a, arms[i].label, arms[i].params, model, 1, trace)}
			return
		}
		k := a.Begin()
		sys := desmodel.NewFederationIn(a, desmodel.FirstPathParams(arms[i].params, model, perfmodel.A100_40, 1), nil)
		reqs := driveOpenLoop(k, trace, sys)
		k.Run(window)
		// Whatever was sent by the end of the window may still be in flight.
		sent := sort.Search(len(trace), func(i int) bool { return trace[i].ArrivalAt > window })
		auditConservation(arms[i].label, sys, sent, sent)
		m := desmodel.Collect(onlyObserved(reqs, window))
		rows[i] = AblationRow{Config: arms[i].label, M: m, HubQueuePeak: sys.InFlight() + sys.MaxBacklog()}
	})
	return rows
}

// RunOpt2AuthCacheOn reproduces Optimization 2, one fleet cell per arm:
// per-request Globus token introspection + connection setup (≈2 s, and
// rate-limited service-side) versus cached credentials.
func RunOpt2AuthCacheOn(f Fleet, seed int64) []AblationRow {
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	uncached := desmodel.DefaultFirstParams()
	uncached.AuthIntrospect = 2 * time.Second
	uncached.AuthRatePerSec = 4 // Globus-side introspection rate limit binds below the offered 5 req/s
	arms := []ablationArm{
		{"introspect-per-request (before Opt.2)", uncached},
		{"cached-introspection (after Opt.2)", desmodel.DefaultFirstParams()},
	}
	return runAblationArms(f, arms, func() []workload.Request {
		return workload.Generate(500, workload.ShareGPT(), workload.Poisson(5), seed)
	}, model, 0)
}

// RunOpt3AsyncGatewayOn reproduces Optimization 3's Artillery experiment,
// one fleet cell per arm: 100 incoming req/s for 300 s against (a) the
// legacy synchronous gateway with nine workers and (b) the async gateway,
// which keeps offloading tasks to the fabric (">8000 inference tasks could
// be queued at Globus") and raises response throughput by roughly a factor
// of 20 on a single node. The run is bounded to the Artillery window — the
// sync gateway would take hours to drain its backlog — and tasks in flight
// past the gateway at window end are "queued at Globus" (the sync gateway
// instead queues them in its own backlog).
func RunOpt3AsyncGatewayOn(f Fleet, seed int64) []AblationRow {
	model := perfmodel.Default.MustLookup(perfmodel.Llama8B)
	const (
		rate    = 100.0
		seconds = 300
	)
	sync := desmodel.DefaultFirstParams()
	sync.SyncWorkers = 9
	async := desmodel.DefaultFirstParams()
	async.Window = 0 // fully asynchronous offload: queueing moves to the fabric
	arms := []ablationArm{
		{"sync-django-9-workers (before Opt.3)", sync},
		{"async-django-ninja (after Opt.3)", async},
	}
	return runAblationArms(f, arms, func() []workload.Request {
		return workload.Generate(int(rate)*seconds, workload.ShareGPTShort(), workload.Poisson(rate), seed)
	}, model, time.Duration(seconds)*time.Second)
}

// onlyObserved filters requests completed within the window so throughput
// reflects the measurement interval.
func onlyObserved(reqs []*desmodel.Req, window time.Duration) []*desmodel.Req {
	var out []*desmodel.Req
	for _, r := range reqs {
		if r.ObservedAt > 0 && r.ObservedAt <= window {
			out = append(out, r)
		}
	}
	return out
}
