package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/client"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/core"
	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/workload"
)

// The livefed family puts the LIVE stack — real client SDK, chaosnet
// fault-injecting transport, sharded gateway, breaker-aware federation
// router, fabric hub, and engine instances on a scaled clock — under a
// seeded failure storm, then runs the cell's DES calibration twin: the same
// traffic and the same storm through a DES federation. The invariant under
// fire: zero lost requests — every issued request resolves as success,
// failover-success, shed (503 + Retry-After), or a typed client error,
// never a hang or an untyped failure.

// LiveFedCell is one live chaos scenario.
type LiveFedCell struct {
	Clusters int
	Requests int
	// StreamEvery makes every Nth request a streaming chat call (SSE
	// through the real gateway, cuttable by chaosnet). 0 = never.
	StreamEvery int
	// MaxAttempts budgets client-side retries AND gateway-side failover
	// re-routes (both layers get the same budget).
	MaxAttempts int
	// Net is the client↔gateway fault schedule (refused dials, synthesized
	// 503 bursts, SSE cuts).
	Net chaosnet.Config
	// Faults is the endpoint-side fault schedule: bursts of infer failures
	// sweeping across endpoints round-robin.
	Faults chaosnet.Windows
	// PUnauthorized is the endpoint-side credential-rejection lane: the
	// gateway reacts by rechecking its token cache, not failing over.
	PUnauthorized float64
	// Kill churn: every KillEvery request indices the next victim endpoint
	// (rotating, starting at endpoint 1) is killed — deployment torn down,
	// in-flight work dies — and cold-restarted through the real scheduler
	// KillDownFor indices later. KillDownFor > KillEvery overlaps windows
	// so the model goes briefly cold everywhere (the ROADMAP's "more than
	// one victim, multiple expiries mid-run"). A kill whose victim is
	// still down, or whose restart would land past the trace, is skipped.
	// 0 disables.
	KillEvery   int
	KillDownFor int
	// Background contention: every BGEvery indices a science job claims
	// BGGPUs on the rotating cluster, released BGHoldFor indices later —
	// live GPU exhaustion so the ladder's capacity rung goes honest.
	BGEvery   int
	BGGPUs    int
	BGHoldFor int
	// Concurrency drives requests from this many goroutines. 1 (or 0)
	// keeps the outcome schedule deterministic; the chaos race test uses
	// >1 to exercise mid-flight kills.
	Concurrency int
}

// LiveFedCells is the nightly full storm: overlapping kill windows leave
// the model briefly cold everywhere, and rolling background claims exhaust
// GPU capacity, so every rung of the ladder genuinely fires live.
var LiveFedCells = []LiveFedCell{
	{Clusters: 2, Requests: 2000, StreamEvery: 5, MaxAttempts: 3,
		Net:           chaosnet.Config{PRefuse: 0.02, P5xx: 0.02, RetryAfter: time.Second, PCutStream: 0.03, CutAfterBytes: 48},
		Faults:        chaosnet.Windows{BurstEvery: 200, BurstLen: 40, PFault: 0.85, PBackground: 0.01},
		PUnauthorized: 0.005, KillEvery: 400, KillDownFor: 500,
		BGEvery: 500, BGGPUs: 12, BGHoldFor: 300},
	{Clusters: 4, Requests: 3000, StreamEvery: 5, MaxAttempts: 3,
		Net:           chaosnet.Config{PRefuse: 0.02, P5xx: 0.02, RetryAfter: time.Second, PCutStream: 0.03, CutAfterBytes: 48},
		Faults:        chaosnet.Windows{BurstEvery: 250, BurstLen: 50, PFault: 0.85, PBackground: 0.01},
		PUnauthorized: 0.005, KillEvery: 350, KillDownFor: 450,
		BGEvery: 600, BGGPUs: 12, BGHoldFor: 350},
}

// LiveFedCellsShort is the per-PR cell: small enough for the differential
// suite and `make chaos`, still covering every fault kind plus multiple
// kills, cold restarts, and background GPU claims mid-run.
var LiveFedCellsShort = []LiveFedCell{
	{Clusters: 2, Requests: 600, StreamEvery: 5, MaxAttempts: 3,
		Net:           chaosnet.Config{PRefuse: 0.02, P5xx: 0.02, RetryAfter: time.Second, PCutStream: 0.03, CutAfterBytes: 48},
		Faults:        chaosnet.Windows{BurstEvery: 100, BurstLen: 20, PFault: 0.85, PBackground: 0.01},
		PUnauthorized: 0.005, KillEvery: 150, KillDownFor: 180,
		BGEvery: 200, BGGPUs: 12, BGHoldFor: 120},
}

// LiveFedRow is one cell's outcome census plus the calibration columns
// against its DES twin.
type LiveFedRow struct {
	Clusters int
	Requests int

	// Outcome census; OK+FailoverOK+Shed+TypedErr+Untyped == Requests, and
	// the zero-lost invariant demands Untyped == 0.
	OK         int
	FailoverOK int
	Shed       int
	TypedErr   int
	Untyped    int

	MedS float64
	P99S float64

	// Live resilience accounting (gateway metrics + transport stats).
	ServerAttempts   int64 // infer RPCs issued by the gateway
	FailoverAttempts int64
	FailoverSuccess  int64
	LoadShed         int64
	AuthRechecks     int64
	Trips            int64
	RungActive       int64
	RungCapacity     int64
	RungFirstConf    int64
	// RetryAmp is client transport round-trips per issued request (1.0 =
	// no retries anywhere).
	RetryAmp float64
	Chaos    map[string]int64

	// LogicalTicks is the breaker logical clock's final reading: one tick
	// per logical request, invariant under MaxAttempts (retries and
	// failover re-routes of one request do not advance time).
	LogicalTicks int64

	// Schedule is the executed churn plan, a function of the cell and the
	// seed: the exact storm the DES twin replays.
	Schedule chaosnet.Schedule

	// Sim twin: the DES federation replaying Schedule, for calibration.
	Sim FederateRow
	// SimFailed counts the requests the twin failed (sheds and spent
	// failover budgets), the twin's side of Shed + TypedErr.
	SimFailed int64
}

// liveFedModel is the single served model; every endpoint hosts it so the
// ladder's active rung dominates until faults knock endpoints out.
const liveFedModel = perfmodel.Llama8B

// liveFedMaxTokens is every live request's max_tokens, and so the output
// length of every twin request.
const liveFedMaxTokens = 16

var errInjectedFault = errors.New("livefed: injected endpoint fault")

// liveFedErrHook, when set by tests, observes every classified client
// error (typed and untyped).
var liveFedErrHook func(int, error)

// liveFedPrompt / liveFedIndex encode the request index into the prompt so
// the endpoint-side fault schedule can key off it — the index survives the
// whole live path because chat inference forwards the last user message.
func liveFedPrompt(i int) string { return fmt.Sprintf("livefed req %06d", i) }

func liveFedIndex(prompt string) int {
	const pfx = "livefed req "
	if !strings.HasPrefix(prompt, pfx) {
		return -1
	}
	n, err := strconv.Atoi(prompt[len(pfx):])
	if err != nil {
		return -1
	}
	return n
}

// RunLiveFedOn runs the nightly family on f (live cells are inherently
// sequential; the fleet only accelerates the sim twins).
func RunLiveFedOn(f Fleet, seed int64) []LiveFedRow {
	return RunLiveFedCellsOn(f, seed, LiveFedCells)
}

// RunLiveFedCellsOn runs each live cell, then its DES calibration twin.
func RunLiveFedCellsOn(f Fleet, seed int64, cells []LiveFedCell) []LiveFedRow {
	rows := make([]LiveFedRow, len(cells))
	for i, c := range cells {
		rows[i] = RunLiveFedCell(seed, c)
	}
	f.RunArena(len(cells), func(i int, a *desmodel.Arena) {
		rows[i].Sim, rows[i].SimFailed = cells[i].twin(a, seed)
	})
	return rows
}

// liveFedInventory is each live cluster's shape: 4 nodes × 4 GPUs. One
// Llama8B serving instance holds a whole node (TP=4), so a 12-GPU
// background claim takes the other three and genuinely exhausts capacity.
const (
	liveFedNodes       = 4
	liveFedGPUsPerNode = 4
)

// liveFedBreaker is the gateway breaker config, shared with the twin so
// avoidance trips on the same logical clock.
func liveFedBreaker() resilience.BreakerConfig {
	return resilience.BreakerConfig{
		Window: 60 * time.Second, Buckets: 12, MinSamples: 4,
		FailureRate: 0.5, OpenFor: 10 * time.Second, HalfOpenProbes: 1,
	}
}

// twin runs the cell's DES calibration twin, a function of the cell and the
// seed alone. It drives the live driver's traffic: max(Concurrency, 1)
// closed-loop sessions with no think time, Requests in all, request i with
// live request i's prompt and output lengths. They go through a federation
// of the live inventory serving the live model, under the live gateway's
// breaker and failover budget, with every kill, restart, claim and fault
// window of the cell's schedule replayed at its request index. It returns
// the twin's row and how many requests it failed.
func (c LiveFedCell) twin(a *desmodel.Arena, seed int64) (FederateRow, int64) {
	p := desmodel.DefaultFederationParams(c.Clusters)
	p.Models = []perfmodel.ModelSpec{perfmodel.Default.MustLookup(liveFedModel)}
	p.NodesPerCluster, p.GPUsPerNode = liveFedNodes, liveFedGPUsPerNode
	// Walltime churn and periodic background jobs are the schedule's job:
	// the serve walltime outlives any run, and no background job
	// self-schedules.
	p.ServeWalltime, p.DrainGrace, p.BGPeriod = 100_000_000*time.Second, time.Second, 0
	p.Replay = &desmodel.ReplayParams{
		Schedule: c.BuildSchedule(c.cellSeed(seed)), Breaker: liveFedBreaker(), MaxAttempts: c.MaxAttempts,
	}

	k := a.Begin()
	k.MaxEvents = federateEventBudget
	defer func() { k.MaxEvents = 0 }()
	loop := newClosedLoop(k, workload.LengthSpec{}, seed, max(c.Concurrency, 1), 0)
	loop.limit = c.Requests
	loop.assign = func(r *desmodel.Req) {
		r.PromptTok = workload.EstimateTokens(liveFedPrompt(r.ID - 1))
		r.OutputTok = liveFedMaxTokens
	}
	sys := desmodel.NewFederationIn(a, p, func(r *desmodel.Req) {
		loop.onDone(r)
		if len(loop.finished) == c.Requests {
			k.Stop()
		}
	})
	loop.start(sys)
	end := k.Run(0)
	auditConservation(fmt.Sprintf("livefed twin c%d", c.Clusters), sys, c.Requests, 0)
	return federateRow(sys, FederateCell{Clusters: c.Clusters}, "livefed", c.Requests, loop.finished, end), sys.Failures()
}

// cellSeed folds the entire cell config through FNV + splitmix64: the old
// derivation (seed ^ Clusters<<40 ^ Requests) collided for any two cells
// sharing width and length, correlating their supposedly independent
// chaos draws.
func (c LiveFedCell) cellSeed(seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%+v|%+v|%g|%d|%d|%d|%d|%d",
		c.Clusters, c.Requests, c.StreamEvery, c.MaxAttempts,
		netKey(c.Net), windowsKey(c.Faults), c.PUnauthorized,
		c.KillEvery, c.KillDownFor, c.BGEvery, c.BGGPUs, c.BGHoldFor)
	return chaosnet.Mix(uint64(seed) ^ h.Sum64())
}

// netKey renders n the way %+v did while chaosnet.Config still carried a
// latency fault that no cell set (PLatency, LatencySpike), so every cell
// keeps its seed and with it its fault and churn schedules.
func netKey(n chaosnet.Config) string {
	return fmt.Sprintf("{Seed:%d PRefuse:%v P5xx:%v RetryAfter:%v PLatency:0 LatencySpike:0s PCutStream:%v CutAfterBytes:%d}",
		n.Seed, n.PRefuse, n.P5xx, n.RetryAfter, n.PCutStream, n.CutAfterBytes)
}

// windowsKey renders w field by field as %+v did, so a field added to
// chaosnet.Windows moves no cell's seed until this derivation names it.
func windowsKey(w chaosnet.Windows) string {
	return fmt.Sprintf("{BurstEvery:%d BurstLen:%d PFault:%v PBackground:%v}", w.BurstEvery, w.BurstLen, w.PFault, w.PBackground)
}

// BuildSchedule derives the cell's churn plan: rotating kills with
// cold restarts KillDownFor later, and rotating background claims held
// BGHoldFor. Events never land past the trace (the live driver would not
// fire them), and a victim is never killed while still down.
func (c LiveFedCell) BuildSchedule(cellSeed uint64) chaosnet.Schedule {
	s := chaosnet.Schedule{
		Seed:          cellSeed,
		Endpoints:     c.Clusters,
		Requests:      c.Requests,
		Windows:       c.Faults,
		PUnauthorized: c.PUnauthorized,
	}
	if c.KillEvery > 0 && c.KillDownFor > 0 && c.Clusters > 0 {
		downUntil := make([]int, c.Clusters)
		for k := 0; ; k++ {
			at := c.KillEvery * (k + 1)
			restart := at + c.KillDownFor
			if restart >= c.Requests {
				break
			}
			victim := (1 + k) % c.Clusters
			if at < downUntil[victim] {
				continue
			}
			downUntil[victim] = restart
			s.Events = append(s.Events,
				chaosnet.Event{AtIndex: at, Kind: chaosnet.EventKill, Endpoint: victim},
				chaosnet.Event{AtIndex: restart, Kind: chaosnet.EventRestart, Endpoint: victim})
		}
	}
	if c.BGEvery > 0 && c.BGGPUs > 0 && c.BGHoldFor > 0 && c.Clusters > 0 {
		// Offset claims half a period from the kill grid so the two event
		// families interleave instead of stacking on shared indices.
		for b := 0; ; b++ {
			at := c.BGEvery*(b+1) - c.BGEvery/2
			release := at + c.BGHoldFor
			if release >= c.Requests {
				break
			}
			cl := b % c.Clusters
			s.Events = append(s.Events,
				chaosnet.Event{AtIndex: at, Kind: chaosnet.EventBGClaim, Endpoint: cl, GPUs: c.BGGPUs},
				chaosnet.Event{AtIndex: release, Kind: chaosnet.EventBGRelease, Endpoint: cl})
		}
	}
	s.Sort()
	return s
}

// RunLiveFedCell boots a real multi-cluster System, arms the fault
// schedules, and drives every request through the live client/gateway
// path, classifying each outcome.
func RunLiveFedCell(seed int64, c LiveFedCell) LiveFedRow {
	cellSeed := c.cellSeed(seed)
	clusterNames := make([]string, c.Clusters)
	specs := make([]core.ClusterSpec, c.Clusters)
	for i := range specs {
		clusterNames[i] = fmt.Sprintf("lf%d", i)
		// Backfill matches the DES twin's scheduler config: a serving
		// restart queued behind a wide background claim may be backfilled
		// on both sides or neither.
		specs[i] = core.ClusterSpec{Name: clusterNames[i],
			Nodes: liveFedNodes, GPUsPerNode: liveFedGPUsPerNode, Backfill: true}
	}

	// Breaker decisions run on a logical clock advanced one second per
	// *logical* request — retries and failover re-routes of the same
	// request do not tick it — so trip and probe timing depend only on the
	// request schedule, never on host speed or the MaxAttempts budget.
	var logical atomic.Int64
	epoch := time.Unix(1_700_000_000, 0)
	breakerNow := func() time.Time {
		return epoch.Add(time.Duration(logical.Load()) * time.Second)
	}

	maxAttempts := c.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	sys, err := core.NewSystem(core.Config{
		Clock:    clock.NewScaled(20000),
		Clusters: specs,
		Deployments: []core.DeploymentSpec{
			{Model: liveFedModel, Clusters: clusterNames,
				Config: fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 1}},
		},
		Gateway: gateway.Config{
			Retry:        resilience.Policy{MaxAttempts: maxAttempts},
			Breaker:      liveFedBreaker(),
			BreakerClock: breakerNow,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("livefed: boot: %v", err))
	}
	defer sys.Close()
	if err := sys.RegisterUser("chaos", "chaos@anl.gov"); err != nil {
		panic(err)
	}
	grant, err := sys.Login("chaos")
	if err != nil {
		panic(err)
	}

	// Endpoint-side fault arming: wrap FnInfer on every endpoint with the
	// Windows schedule (plus the 401 lane), delegating clean requests to
	// the real deployment path.
	for epIdx, name := range clusterNames {
		armLiveFedEndpoint(sys.Endpoints["ep-"+name], epIdx, c, cellSeed)
	}

	// Client-side fault arming: chaosnet between the SDK and the gateway.
	netCfg := c.Net
	netCfg.Seed = cellSeed ^ 0xc11a05
	chaos := chaosnet.New(netCfg, client.HandlerRoundTripper(sys.Gateway))
	// The in-process transport keeps a goroutine per idle connection; end
	// them with the cell rather than leaving them to a finalizer.
	defer chaos.CloseIdleConnections()
	// Backoff waits (including chaosnet's Retry-After hints, which are in
	// modeled seconds) pass on the scaled clock: a 1 s hint costs 50 µs of
	// wall time instead of parking the driver — and the simulated clock —
	// for a real second per 503.
	newClient := func() *client.Client {
		return client.New("http://livefed.local", grant.AccessToken,
			client.WithHTTPClient(&http.Client{Transport: chaos}),
			client.WithRetry(resilience.Policy{MaxAttempts: maxAttempts}),
			client.WithSleep(func(ctx context.Context, d time.Duration) error {
				sys.Clock.Sleep(d)
				return ctx.Err()
			}))
	}

	row := LiveFedRow{Clusters: c.Clusters, Requests: c.Requests}
	var mu sync.Mutex
	var lats []float64

	// The churn plan is built once, executed here, and handed to the DES
	// twin verbatim — one schedule, two executors.
	sched := c.BuildSchedule(cellSeed)
	cursor := sched.Cursor()
	var evMu sync.Mutex
	bgJobs := make([][]*scheduler.Job, c.Clusters)
	fire := func(ev chaosnet.Event) {
		ep := sys.Endpoints["ep-"+clusterNames[ev.Endpoint]]
		switch ev.Kind {
		case chaosnet.EventKill:
			ep.Undeploy(liveFedModel)
		case chaosnet.EventRestart:
			if _, err := ep.Deploy(fabric.DeploymentConfig{
				Model: liveFedModel, MinInstances: 1, MaxInstances: 1,
			}); err != nil {
				panic(fmt.Sprintf("livefed: restart: %v", err))
			}
		case chaosnet.EventBGClaim:
			job, err := sys.Schedulers[clusterNames[ev.Endpoint]].Submit(scheduler.JobSpec{
				Name: "science-batch", User: "bg", GPUs: ev.GPUs,
				// Held until the release event: the schedule's index clock
				// is the time base, not a walltime.
				Walltime: 0,
			})
			if err != nil {
				panic(fmt.Sprintf("livefed: bg claim: %v", err))
			}
			bgJobs[ev.Endpoint] = append(bgJobs[ev.Endpoint], job)
		case chaosnet.EventBGRelease:
			if q := bgJobs[ev.Endpoint]; len(q) > 0 {
				job := q[0]
				bgJobs[ev.Endpoint] = q[1:]
				sys.Schedulers[clusterNames[ev.Endpoint]].Cancel(job.ID)
			}
		}
	}
	advance := func(i int) {
		evMu.Lock()
		cursor.Advance(i, fire)
		evMu.Unlock()
	}

	// The scaled clock compresses wall time 20000×, so a multi-second run
	// spans days of simulated time — past the paper's 48-hour token TTL.
	// Each driver re-logins every tokenRefreshEvery of its own requests,
	// the way any long-lived client refreshes; and if a slow host still
	// stretches a refresh interval past 48 simulated hours, an expired-token
	// 401 is absorbed by re-authenticating and reissuing once, so host speed
	// never leaks into the fault census.
	const tokenRefreshEvery = 50
	refresh := func(cli *client.Client) {
		g, err := sys.Login("chaos")
		if err != nil {
			panic(fmt.Sprintf("livefed: token refresh: %v", err))
		}
		cli.SetToken(g.AccessToken)
	}
	isExpiredToken := func(err error) bool {
		var apiErr *client.APIError
		return errors.As(err, &apiErr) &&
			apiErr.StatusCode == http.StatusUnauthorized &&
			strings.Contains(apiErr.Message, "token expired")
	}

	oneRequest := func(cli *client.Client, i int) {
		advance(i)
		logical.Add(1)
		req := openaiapi.ChatCompletionRequest{
			Model:     liveFedModel,
			Messages:  []openaiapi.Message{{Role: "user", Content: liveFedPrompt(i)}},
			MaxTokens: liveFedMaxTokens,
		}
		failoverBefore := counterOf(sys, "failover_success")
		start := sys.Clock.Now()
		issue := func() (err error) {
			if c.StreamEvery > 0 && i%c.StreamEvery == 0 {
				_, err = cli.ChatCompletionStream(context.Background(), req, func(string) {})
			} else {
				_, err = cli.ChatCompletion(context.Background(), req)
			}
			return err
		}
		err := issue()
		if isExpiredToken(err) {
			refresh(cli)
			err = issue()
		}
		lat := sys.Clock.Since(start).Seconds()

		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			lats = append(lats, lat)
			if c.Concurrency <= 1 && counterOf(sys, "failover_success") > failoverBefore {
				row.FailoverOK++
			} else {
				row.OK++
			}
		case isShed(err):
			row.Shed++
		case isTypedErr(err):
			row.TypedErr++
			if liveFedErrHook != nil {
				liveFedErrHook(i, err)
			}
		default:
			row.Untyped++
			if liveFedErrHook != nil {
				liveFedErrHook(i, err)
			}
		}
	}

	// With one worker, request i is issued i-th and the token refresh lands
	// on the same requests, so the outcome schedule is deterministic.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(c.Concurrency, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := newClient()
			for issued := 0; ; issued++ {
				i := int(next.Add(1)) - 1
				if i >= c.Requests {
					return
				}
				if issued%tokenRefreshEvery == 0 {
					refresh(cli)
				}
				oneRequest(cli, i)
			}
		}()
	}
	wg.Wait()
	row.Schedule = sched
	row.LogicalTicks = logical.Load()

	sort.Float64s(lats)
	row.MedS = percentileOf(lats, 0.50)
	row.P99S = percentileOf(lats, 0.99)
	row.ServerAttempts = counterOf(sys, "infer_attempts")
	row.FailoverAttempts = counterOf(sys, "failover_attempts")
	row.FailoverSuccess = counterOf(sys, "failover_success")
	row.LoadShed = counterOf(sys, "load_shed")
	row.AuthRechecks = counterOf(sys, "auth_rechecks")
	row.RungActive = counterOf(sys, "route_"+string(federation.ReasonActive))
	row.RungCapacity = counterOf(sys, "route_"+string(federation.ReasonCapacity))
	row.RungFirstConf = counterOf(sys, "route_"+string(federation.ReasonFirstConf))
	if sys.Gateway.Breakers() != nil {
		row.Trips = sys.Gateway.Breakers().Trips()
	}
	st := chaos.Stats()
	roundTrips := st.Refused.Load() + st.Synth5xx.Load() + st.CutStream.Load() + st.Passed.Load()
	if c.Requests > 0 {
		row.RetryAmp = float64(roundTrips) / float64(c.Requests)
	}
	row.Chaos = st.Snapshot()
	return row
}

// armLiveFedEndpoint wraps the endpoint's infer function with the cell's
// fault schedule. Attempt numbers are counted per request index so a
// failover or retry of the same request re-draws (transients clear).
func armLiveFedEndpoint(ep *fabric.Endpoint, epIdx int, c LiveFedCell, cellSeed uint64) {
	var mu sync.Mutex
	seen := make(map[int]int)
	nEps := c.Clusters
	ep.RegisterFunction(fabric.FnInfer, func(ctx context.Context, payload any) (any, error) {
		req, err := fabric.InferPayload(payload)
		if err != nil {
			return nil, err
		}
		if idx := liveFedIndex(req.Prompt); idx >= 0 {
			mu.Lock()
			attempt := seen[idx]
			seen[idx] = attempt + 1
			mu.Unlock()
			if c.PUnauthorized > 0 {
				//firstlint:allow seedflow idx<<20^epIdx spans disjoint bit ranges (cluster counts are single digits) and Draw mixes the fold; rewriting it would invalidate the committed calibration schedules
				if chaosnet.Draw(cellSeed^0x401, uint64(idx)<<20^uint64(epIdx), uint32(attempt), 6) < c.PUnauthorized {
					return nil, fabric.ErrUnauthorized
				}
			}
			if c.Faults.Faulty(cellSeed, idx, epIdx, nEps, attempt) {
				return nil, errInjectedFault
			}
		}
		d, ok := ep.Deployment(req.Model)
		if !ok {
			return nil, fmt.Errorf("fabric: endpoint %s does not host %s", ep.ID(), req.Model)
		}
		return d.Generate(ctx, req)
	})
}

// counterOf reads one of the gateway's counters, which it registers at
// boot; a cell reads one twice per request, so it takes no snapshot of
// the whole registry.
func counterOf(sys *core.System, name string) int64 {
	return sys.Metrics.Counter(name).Value()
}

// isShed: the request was load-shed with a 503 (gateway all-breakers-open
// or a chaosnet-synthesized upstream 503 that outlived the retry budget).
func isShed(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable
}

// isTypedErr: the client saw a well-typed failure it can act on.
func isTypedErr(err error) bool {
	var apiErr *client.APIError
	var refused *chaosnet.RefusedError
	return errors.As(err, &apiErr) ||
		errors.As(err, &refused) ||
		errors.Is(err, openaiapi.ErrStreamTruncated) ||
		errors.Is(err, client.ErrMalformedResponse) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// percentileOf reads sorted latencies at the rank desmodel.Collect selects,
// min(int(q·n), n−1) (n/2 for the median), so a live row and its twin
// compare the same rank.
func percentileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}
