// Package first is a from-scratch Go reproduction of "FIRST: Federated
// Inference Resource Scheduling Toolkit for Scientific AI Model Access"
// (Tanikanti et al., SC 2025): an Inference-as-a-Service stack for HPC with
// an OpenAI-compatible gateway, a Globus-Compute-style function fabric,
// PBS-like schedulers over simulated GPU clusters, vLLM-style continuous-
// batching serving engines, federation-aware routing and batch mode — plus
// a discrete-event harness that regenerates every table and figure in the
// paper's evaluation. See README.md, DESIGN.md and
// EXPERIMENTS.md.
//
// # Simulation substrate
//
// The evaluation data plane is allocation-free at steady state:
//
//   - internal/sim.Kernel schedules through a self-tuning calendar queue: a
//     power-of-two ring of time buckets (width and count re-tuned from the
//     observed schedule) with a single-event fast slot for the ping-pong
//     regime and a 4-ary min-heap as the far-future overflow — O(1)
//     amortized per event on the near-uniform schedules the figure runs
//     produce, versus O(log n) for the heap. A bucket is sorted by (time,
//     seq) at all times and order is paid for once, at insert: an append
//     that lands in order costs nothing, any other is binary-searched into
//     place and moved there with one copy, so the scan never sorts. That is
//     what the federation runs need: a few far-out timers (walltime expiry,
//     scaler ticks) stretch the width until every live event shares the
//     cursor's bucket and half the inserts land ahead of its tail. Same-instant
//     events dispatch as one batch (one cursor position, no re-scan between
//     callbacks), which is what the saturated open-loop runs hit hardest.
//     The heap survives as a reference kernel (sim.QueueHeap, first-bench
//     -queue heap): a differential suite proves both queues produce
//     byte-identical results on Fig3, Table1, the storm, and the full
//     rendered report, plus randomized schedule/pop property tests and
//     three directed shapes (stretched, late insert ahead of a same-instant
//     flood across two ring rotations, every kind of rebuild under
//     disorder).
//   - internal/serving.Engine keeps its waiting queue in a ring buffer
//     (never re-slicing a pinned backing array), reuses one scratch buffer
//     for StepResult.Completed across iterations, recycles Sequence objects
//     through Release/Submit, and resolves Abort by binary search over the
//     ID-ordered ring plus a lazy tombstone instead of an O(n) scan. Decode
//     is event-driven: a sequence's last iteration is known when it is
//     admitted, so the running batch is a min-heap on it and Step costs
//     O(1) + O(log batch) per completion — it never visits the sequences
//     that merely keep decoding. When an iteration completes nothing and
//     nothing can be admitted before the next completion (the queue is
//     empty, or its head is held by the batch cap or by KV headroom — never
//     by the prefill budget), Step makes an offer: StepResult.Quiet further
//     iterations of StepResult.Each are certain to change nothing. A driver
//     that ignores the offer and steps at the end of Duration gets exactly
//     the per-iteration engine; LiveEngine does. A driver that takes it
//     steps next at Duration + Quiet·Each and owes the engine a
//     Settle(now) before every Submit, Abort, Step and read of Stats or KV
//     occupancy: Settle books the skipped iterations that began before now
//     (Iterations, BusyTime, KV tokens, one KVRejection each while the head
//     is refused) and returns when Step is next due. A Submit into an empty
//     queue below the batch cap, or an Abort while the head is KV-blocked,
//     cuts the run at the first iteration boundary at or after the settled
//     instant — Settle's return value moves up to it and the driver steps
//     there. Same-nanosecond rule: an arrival on the exact instant of a
//     skipped boundary is taken before it and joins the iteration starting
//     there (a per-iteration driver would order the two by event sequence).
//     A reference engine in engine_test.go keeps the old per-sequence loop;
//     a differential sweep, directed cases and FuzzEngineOffer hold the two
//     equal at every instant.
//   - internal/desmodel moves a request through a modelled path without
//     allocating: every hop is a lane (a serialized server) or a pipe (a
//     constant delay), both FIFO, both queueing *Req on a power-of-two ring
//     that doubles when full and both wired once, at construction, to the
//     next stage's entry point (stage.go). A request is its own event: the
//     kernel is handed the stage's one bound callback and the ring's head
//     says whose firing it is — right because the delay is constant and the
//     kernel orders by (time, seq); pipe.pop checks the head's due instant
//     against Now on every firing and panics on a mismatch, and a
//     differential test holds a pipe to the per-request closures it replaced
//     on both queue kinds. Per-request stage state (the due instant, the
//     engine instance the dispatch lane picked) rides on Req. Only the two
//     waits whose length differs per request, and so are not FIFO, keep a
//     closure: the Opt1-off poll grid and ExtAPISystem's service time.
//     There is one request path: desmodel.Federation — shard front-end,
//     the real federation.Select, scheduler-backed pools — and the paper's
//     own system is a configuration of it (FirstPathParams: one cluster,
//     hot instances, FederationParams.First wiring the fabric's worker
//     window, hub lanes, pickup and relay around the router and the pool),
//     so Fig. 3/4/5, Table 1 and the ablations route and place like every
//     federate cell, and every cell audits arrivals = completions.
//     AllocsPerRun pins carry pre-allocated requests through that FIRST
//     configuration (with and without the auth lane), GatewayFE,
//     DirectSystem and a churn-free Federation at zero allocations.
//   - internal/metrics shards its hot instruments: Histogram observations
//     scatter over independently locked slots (one shared bucket-bounds
//     table for all histograms) and Counter increments scatter over
//     cache-line-padded atomic stripes, so an instrument in hand never
//     serializes the data plane on a single mutex or contended cache line.
//     Getting it in hand does: Registry.Counter/Histogram(name) takes the
//     registry's one lock and a map look-up, so it is for set-up and tests.
//     The gateway resolves the request path's constant-name instruments
//     once, at construction (gateway.New), and only its two computed names
//     (route_<reason>, requests_<kind>) are looked up per request, on the
//     cache-miss path.
//
// # Sharded gateway front-end
//
// The live gateway's mutable front-end state is sharded
// (internal/gateway/frontend.go): the response cache, the per-user
// rate-limiter table, and their locks split across N power-of-two shards
// keyed by user-sub / cache-key hash, and the response ID counter is
// atomic. Each shard holds a bounded LRU slice of the response cache
// (hot entries survive insertion churn; the old front-end wiped the whole
// map at 4096 entries) and a token-bucket table whose idle entries are
// swept on a TTL, so a storm of one-shot users cannot grow it without
// bound. gateway.Config.Shards tunes the split — 0 derives from
// GOMAXPROCS, 1 reproduces the historical single-lock behaviour —
// reachable via first-gateway's -shards flag and the config file's
// gateway.shards key. The arrival-storm experiment (first-bench -exp
// storm) quantifies the difference: at 10⁶ offered arrivals/s a single
// lock admits ~250k req/s with seconds of queueing delay while 16 shards
// absorb the full storm at microsecond latency. go test -race exercises
// the sharded paths with parallel stress tests, and AllocsPerRun
// regression tests pin the admission hot path (limiter check, key hash +
// cache hit) at zero allocations and a whole response-cache hit through
// Server.ServeHTTP at one (the buffer the body is read into).
//
// A chat request (POST /v1/chat/completions) is decided from its bytes
// first. In order: bearer check → token introspection (cached) → per-user
// limiter → in-flight admission (these four in withAuth, for every route)
// → read the body once, into one buffer that begins with sub ‖ 0x00, and
// hash that buffer in place — the response-cache key, sha256(sub ‖ 0x00 ‖
// raw body) → probe the cache → on a hit: authorize (who, the model stored
// with the entry), count it, write the stored bytes; on a miss: decode →
// validate → authorize → route → infer → (non-streaming only) put. With
// the cache off (CacheTTL 0, the default) no key is derived at all. The
// buffer is sized from Content-Length but pre-sized by at most 64 KiB and
// grown as bytes arrive, so a declared length never reserves memory the
// client has not sent; the 32 MiB body cap is unchanged.
//
// Answering a hit without decoding the body skips no check. cachePut has
// one call site, after decode + Validate + Authorize on the non-streaming
// arm, so an entry exists only if a byte-identical body from the same sub
// already passed all three; whether a body decodes, validates, streams, and
// what max_tokens it asks for are pure functions of those bytes, so they
// cannot come out differently the second time (and a streaming or invalid
// body, never stored, can never hit). The one input that can change between
// put and hit — policy and group membership — is not a function of the
// bytes, and is checked on every hit against the stored model name.
// Everything that depends on who is asking and when (token validity, rate,
// admission) runs in withAuth before the handler, hit or miss.
//
// # Federation at scale
//
// The federate scenario family (first-bench -exp federate) is the first
// experiment where every layer of the reproduction runs inside one
// simulated system, at beyond-paper scale: 10⁶ open-loop requests plus 10⁴
// closed-loop WebUI sessions flow through the sharded gateway front-end,
// are routed by the real federation.Select priority ladder (§4.5: active →
// capacity → first-configured) over live snapshots, and land on 2-8
// simulated clusters. Each cluster pairs a real inventory
// (cluster.Cluster — whose Status, the §4.5 "publicly available status"
// both routers read once per candidate per request, is one atomic load of
// counts kept current where GPUs are granted and released, not a walk over
// the nodes under the mutex) with a real PBS-like scheduler — scheduler.Scheduler
// gained a deterministic Config.Timer hook so the DES kernel drives its
// Queued→Starting→Running prologue and walltime machinery with no
// goroutines — and serves three models on continuous-batching engine
// instances. Deployments churn mid-run: serve walltimes expire, instances
// drain (unadmitted work is pulled back via serving.Engine's
// EachWaiting/Abort and migrated to other clusters), batches that outlive
// the drain grace are hard-killed by the scheduler's real TimedOut timer
// (survivors collected via EachRunning and migrated), and pending demand
// cold-restarts deployments through the full scheduler lifecycle —
// competing with background science jobs for GPUs, which is what pushes
// the ladder onto its capacity and first-configured rungs. The experiment
// reports per-rung routing counts, migration counts and migrated-request
// latency, cold starts / drains / hard kills, and per-cluster GPU
// utilization. A differential suite pins the family byte-identical across
// fleet worker counts and calendar/heap kernels; the full-scale suite runs
// in the nightly CI job (make federate-night), with a scaled-down family
// guarding every PR.
//
// # Auto-scaling inside a federated cluster
//
// Each (cluster, model) deployment in the DES federation is a pool of
// 1..MaxInstances engine incarnations (desmodel.AutoScaleParams; the zero
// value pins pools at one instance, the pre-autoscaler behaviour). A
// per-cluster policy tick — one deterministic kernel event per Interval —
// evaluates every pool against two watermarks on queue depth per live
// instance: sustained depth above HiWater (HiSustain consecutive ticks)
// grows the pool, with every growth step paying the scheduler's real
// Queued→Starting→Running cold-start path and competing with background
// science jobs for GPUs; sustained depth below LoWater (LoSustain ticks)
// shrinks it, preferring to cancel an incarnation still waiting in the
// scheduler queue (free) and otherwise draining the emptiest serving
// instance through the same drain/migrate machinery walltime churn uses.
// Growth decisions at the MaxInstances cap are counted as refused. The
// defaults (DefaultAutoScaleParams) are 10 s ticks, HiWater 16, LoWater 2,
// sustain 2/4, cap 4. Three liveness rules are load-bearing, found by the
// randomized property sweep: LoWater is clamped to HiWater/2 (overlapping
// bands let a scale-up immediately satisfy the shrink condition and the
// pool oscillates forever, cancelling every incarnation before its prologue
// completes), a pool with parked demand never shrinks, and a scale-down
// never targets the pool's only live instance. Routing is instance-aware:
// federation.EndpointInfo carries the live instance count and Select
// tie-breaks active endpoints on depth per instance (cross-multiplied, so
// ties stay exact), while inside a pool requests go to the least-loaded
// serving instance — both hot paths pinned at 0 allocs/op by AllocsPerRun
// tests.
//
// The autoscale scenario family (first-bench -exp autoscale) is Fig4 beyond
// paper size: open-loop traces whose offered rate and hot model are
// functions of virtual time — "diurnal" swings the rate sinusoidally while
// the hot model rotates each period, "bursty" fires a 4× square-wave burst
// each period — over 2-8 clusters, forcing pools to grow under each wave
// and drain behind it while walltime churn and the priority ladder keep
// firing. The report shows scale-up/scale-down/refused counts, peak
// instances, cold starts, drains, kills, migrations, and utilization; a
// differential suite pins the family byte-identical across fleet worker
// counts and calendar/heap kernels (scaled-down family per PR, full family
// nightly via make autoscale-night).
//
// # Predictive scaling & drain-aware routing
//
// The reactive watermarks above only act after backlog has already built —
// every wave eats one full cold start (prologue + weights load) before new
// capacity serves. Setting AutoScaleParams.Predictive arms two
// forecast-driven pre-warm paths on top of the reactive policy (which keeps
// running unchanged beneath them). Each deployment feeds a desmodel.Forecast
// — a Holt double-exponential smoother (level + trend, fixed-size value
// state, 0 allocs/op on observe and predict, pinned by an AllocsPerRun
// test) — with per-tick arrival and completion counts. At each tick the
// scaler projects depth one cold start ahead (PredictSum of arrivals minus
// the completion level over the horizon): when the projection crosses
// HiWater×live while current depth has not, the incarnation starts now, so
// its prologue+load overlaps the wave's rise instead of following it. The
// second path arms a per-incarnation timer one cold start before the
// serve-walltime drain: a pool with standing work and room starts the
// replacement early enough to hand over without a gap (a sibling already on
// the way up does not block it — walltime drains are certain, not
// speculative). Both paths respect MaxInstances and count as PreWarms in
// FedClusterStats (also included in ColdStarts: they ride the same
// scheduler path).
//
// Drain-aware routing closes the other half of the churn penalty: with
// FederationParams.CordonLead set, each serving incarnation is flagged
// cordoned that long before its walltime drain. Inside a pool, least-loaded
// selection passes over cordoned incarnations while any uncordoned sibling
// serves; across clusters, federation.EndpointInfo carries Cordoned and
// DrainingAt, and Select demotes a cordoned endpoint below every other
// viable candidate — but still above first-configured, so work is never
// parked while capacity exists. The live router mirrors this through
// fabric.Deployment.CordonInfo (instances flagged stopping drop out of the
// advertised count). All of it is zero-value-off: with Predictive and
// CordonLead unset, every decision is byte-identical to the reactive
// policy, pinned by the differential families (the autoscale short family
// carries one predictive cell through make check, and the full family's
// predictive twins run reactive-vs-predictive on identical traces in the
// nightly suite).
//
// # Why one kernel
//
// A federation cell runs on one sim.Kernel: router, clusters, schedulers and
// engines share a timeline, so routing reads cluster state exactly. PR 9's
// sharded conservative-lookahead variant (one kernel per cluster, barrier
// mailboxes, snapshot routing) was deleted after three measurements: on one
// core its four executors bought nothing (BENCH_9 federate_par, c4/10⁶
// cell: par1 1744 ms, par4 1724 ms; BENCH_10: par1 253 ms, par4 293 ms); on
// two real cores the second executor cost 1.4–1.8× (whole federate family,
// two alternating reps: Par=1 2.52/2.48 s, Par=2 3.56/4.41 s); and no
// BENCHMARK.json workload ran it (the BENCH_<n>.json records were retired
// with their instrument and live in git history). The DES parallelism that
// is kept is experiments.Fleet: independent cells fan out over Workers
// goroutines, each with a private kernel, arena and seed, byte-identical to
// the sequential run (TestFleetDeterminism*, first-bench -workers).
//
// # Resilience & failover
//
// The live stack survives endpoint death, network faults, and mid-stream
// disconnects through internal/resilience: a retry Policy (capped
// exponential backoff with full jitter, per-attempt timeouts, Retry-After
// honoring — the client SDK replays JSON calls and unconsumed streams under
// client.WithRetry, sleeping through an injectable client.WithSleep so
// scaled-clock harnesses don't stall on wall time), a per-endpoint circuit
// Breaker (closed → open → half-open with a sliding-window failure rate,
// probe admission, and a CanAttempt hot path pinned at 0 allocs/op — the
// breaker_allow micro series), and a passive health Set fed by every routed
// response. The gateway consults breakers via federation.Router's
// RouteAvoiding ladder (open endpoints are skipped; a half-open endpoint
// admits one probe), fails a request over to the next-best cluster on
// endpoint error (failover_attempts / failover_success counters), and
// degrades gracefully when every candidate's breaker is open: 503 + a
// Retry-After derived from the soonest breaker reopen, counted as
// load_shed. Endpoint-side 401s trigger one token-cache recheck
// (auth_rechecks) instead of failover. Everything is time-parameterized
// (breakers never read a wall clock) and zero-value-inert: a zero Policy is
// one attempt, a zero BreakerConfig disables breaker bookkeeping, so the
// resilience layer changes nothing until configured.
//
// The livefed family (first-bench -exp livefed) puts that layer under fire
// on the LIVE stack — real client SDK, sharded gateway, breaker-aware
// router, fabric hub, engines on a 20000× scaled clock — via
// internal/chaosnet, a seeded fault-injecting http.RoundTripper (refused
// dials, synthesized 503 bursts with Retry-After, latency spikes, SSE cuts
// mid-stream) plus an endpoint-side fault-burst schedule
// (chaosnet.Windows) that sweeps failures across endpoints round-robin,
// credential-rejection lanes, and a hard kill + cold restart of a victim
// endpoint mid-run through the real scheduler. Every draw is a pure
// function of (seed, request key, attempt), so the fault schedule — and
// the whole outcome census — replays identically across runs; breaker
// timing runs on a logical clock advanced per issued request. The
// invariant under fire is zero lost requests: every request resolves as
// success, failover-success, shed, or a typed client error, never a hang
// or an untyped failure (make chaos gates this under the race detector).
//
// Scaled-clock precision. Every wait on the live path — hub submit,
// dispatch and relay, endpoint pickup, the deployment control loop, engine
// iterations, scheduler timers, the gateway's processing overhead — goes
// through the clock.Clock the layer was built with, and on clock.Scaled a
// modelled delay costs the wall time it says, to the clock's slack: a wait
// never returns early and returns at the first multiple of 56 µs (on the
// clock's own wall timeline) at or after delay/factor, where a raw
// time.Sleep of anything under a millisecond takes ≈ 1.1 ms on Linux. One
// goroutine per clock, the pump, owns a deadline queue shared by Sleep and
// After; it sleeps on a runtime timer until 1.2 ms (the host's timer
// granularity) before the nearest deadline, polls the wall clock from
// there, yielding its processor after every wake-up and at least every
// 20 µs, and exits when no waiter is left. Waits of 10 ms of wall or more
// never enter the queue — a millisecond is at most a tenth of them — and
// use the runtime timer alone. There is exactly one spinner however many
// goroutines wait, so the cost is bounded at one core and the gateway
// stress tests do not put hundreds of spinners on the run queue; an idle
// clock costs nothing. The slack is there for repeatability, not for
// speed. With exact deadlines the live stack at 20000× is CPU-bound —
// ~100 µs of gateway, fabric and client code per request against ~35 µs of
// modelled waiting — and its wall time per request follows the shared
// host's speed drift one to one. With every wait ending on the grid, the
// tens of microseconds of code between two waits stop adding up: a request
// takes a whole number of slack periods (five, on the benchmark's live-chat
// workload) for as long as each stretch of code stays inside the periods
// it takes now, at a mean cost of 28 µs per wait. On that workload the
// deployments' control loops re-arm a 250 µs wait without pause, so the
// pump never leaves its spin window: host.cpu_busy_share reads ~0.6 where
// it read ~0.18, and the difference is an otherwise idle core polling the
// clock, not work (clock.cpu_share names it in the profile). The hub's two
// lanes pace against an absolute virtual deadline, as LiveEngine.loop does,
// so a backlogged lane drains at the 1/DispatchCost the Fig. 4 model states
// instead of 1/(DispatchCost + overshoot), slack included.
//
// Calibration methodology. Each live cell executes a single serializable
// churn plan — a chaosnet.Schedule: endpoint kills, cold restarts, and
// background GPU claims/releases keyed by request index, plus the fault
// windows and the arrival rate measured during the live run — and the DES
// federation twin replays that exact schedule (desmodel.ReplayParams).
// Index time is the shared time base: the live driver fires every event
// due at index i before issuing request i, and the twin's open-loop driver
// calls ReplayAdvance(i) before arrival i. The twin routes with real
// resilience.Breakers in the live gateway's configuration on the same
// one-second-per-request logical clock, draws the same pure
// Windows.Faulty(seed, index, endpoint, attempt) fault function, and
// re-routes a faulted placement to the next ladder candidate — so twin
// migrations-per-request is the DES name for the gateway's
// failover-attempts-per-request. The comparison is then gated, not
// eyeballed: every cell's live-vs-twin routing-rung shares must agree
// within ±5 percentage points and the failover-vs-migration rates within a
// 2× ratio (experiments.Calibrate; both sides under 0.01/req is vacuously
// calibrated). The livefed report's calibration table prints the verdict
// next to the share columns, `make calibrate` enforces the gate per-PR on
// the short cell, and `make livefed-night` fails the nightly sweep on any
// trip, preserving the divergent cell's executed schedule under
// calib-artifacts/ — the schedule is the complete reproduction recipe, so
// the twin can be re-run against it offline byte-for-byte.
//
// Experiments fan out: internal/experiments.Fleet runs the independent
// cells of each figure/table (rate points, concurrency×window cells,
// ablation arms) on parallel goroutines. Every cell owns a private kernel
// and deterministic seeds, so fleet runs are byte-identical to the
// sequential reference (workers=1) at any worker count. Each worker owns a
// desmodel.Arena that recycles its kernel, serving engines and emission
// logs across the cells it executes (Reset, not reallocate), and a finished
// call's arenas wait in a pool for the next call, so Fig. 4 runs on what
// Fig. 3 grew — reset structures are behaviourally identical to fresh ones,
// so arena reuse never perturbs determinism (the report is rendered twice in
// one process against the golden), and an arena whose cell panicked is not
// kept. Everything the desmodel hands the kernel — the engine iteration
// loop, every lane and pipe of every path, the open-loop driver's arrivals —
// is a callback bound once at construction, so neither a saturated loop nor
// a request in flight schedules a fresh closure. desmodel.EngineSim takes the engine's offer:
// it schedules its one delivery event at the end of the quiet run, settles
// the engine to the kernel's Now before every Submit, Abort, Stats read and
// step (so Depth, BusyGPUSeconds and a hard kill's orphan harvest read the
// same at any instant), and when a Submit or Abort cuts the run it
// schedules a new delivery at the boundary Settle returns; the event it
// superseded fires later, finds it is not the delivery awaited, and does
// nothing. The iteration that completes a sequence is always an event of
// its own, so the step→deliver window (DeliveryPending, EachUndelivered)
// is unchanged. EmittedBy reads one {first, each, count, tokens} record per
// delivery event, kept only where it can be read: by a Federation's hot
// instances (Table 1's EmittedTokensBy), DirectSystem and stand-alone sims —
// not by an incarnation the scheduler started, whose log would die with it.
// Tests flip an unexported
// hook to ignore the offer and require identical rows from every short
// experiment family, and internal/experiments/testdata/report_all.golden
// pins the full rendered report across commits (regenerate only with
// `go test ./internal/experiments -run TestQueueDifferentialReport -update`).
//
// cmd/first-bench renders the paper-vs-measured report (-workers selects
// the fleet size, -exp one experiment). Performance is recorded by `bash
// benchmark/run.sh` against BENCHMARK.json (see benchmark/README.md), and
// zero-allocation hot paths are pinned by AllocsPerRun tests. `make race`
// runs the tier-1 suite under the race detector; `make chaos` races the
// short livefed storm; `make calibrate` enforces the sim-vs-real tolerance
// gate on the same cell; `make benchmark-smoke` vets, tests and lints the
// benchmark/ module, which the root's ./... does not reach; `make check`
// includes a brief fuzz pass over the openaiapi request and SSE parsers,
// the gateway config file, the chaosnet.Schedule JSON and the serving
// engine's offer/settle state machine (FuzzEngineOffer). All of these run
// as the six required CI jobs (.github/workflows/ci.yml: check, lint,
// benchmark-smoke, race, chaos, calibrate) — check on an {oldstable,
// stable} Go matrix with module/build caching, the race/chaos/calibrate
// logs uploaded as artifacts; PR pushes cancel superseded runs of the same
// ref and every job carries a timeout — and a scheduled nightly matrix runs
// what is too slow per-PR as independent legs with per-leg log artifacts:
// govulncheck + 60 s of fuzzing per target, the full-scale federate and
// autoscale determinism suites, and the full livefed chaos sweep, which
// fails on any calibration-gate trip and uploads divergent schedules.
//
// # Static analysis
//
// The repo guards its own invariants with firstlint (cmd/firstlint,
// internal/lint), a stdlib-only multichecker in the go/analysis idiom:
// `make lint` runs it over ./... and is part of the tier-1 `make check`
// chain and a required CI job. Four analyzers encode the bug classes past
// PRs actually hit:
//
//   - det — in the deterministic packages (internal/sim, desmodel,
//     federation, scheduler, cluster, serving, and the experiments
//     report file) flags wall-clock reads (time.Now/Since),
//     draws from the global math/rand source, goroutine launches, and map
//     ranges whose iteration order is not visibly sorted before it can
//     escape into reports or event schedules.
//   - clockonly — forbids time.Sleep/After/AfterFunc/Tick/NewTimer/
//     NewTicker everywhere outside internal/clock, so every wait flows
//     through clock.Clock (or clock.SleepCtx) where scaled harnesses stay
//     in control — the PR 6 WithSleep bug class.
//   - seedflow — polices seed derivation in the seed-minting packages
//     (chaosnet, workload, experiments, desmodel): ad-hoc rand.New/
//     NewSource streams, fnv hashing never finalized through the shared
//     splitmix64 Mix, and xor-folds of two or more variables without a Mix
//     in the chain — the PR 7 cell-seed collision class.
//   - hotpath — cross-checks //first:hotpath annotations four ways: every
//     function called directly from a 0-alloc AllocsPerRun pin must carry
//     the annotation, every annotation must be reachable from some pin
//     through the package's static call graph, an annotation whose note
//     says "pinned by TestXxx" must name a test the package declares (a
//     renamed test cannot leave the note behind), and the compiler's escape
//     analysis (go build -gcflags=-m, parsed by the driver) must show no
//     heap escapes inside an annotated body.
//
// Suppressions are explicit and audited: `//firstlint:allow <analyzer>
// <reason>` silences that analyzer on its own line (trailing comment) or
// the next code line (standalone comment); the reason is mandatory, unknown
// verbs or analyzer names are findings, and an allow that suppresses
// nothing is itself reported, so suppressions cannot rot. `//first:hotpath
// [note]` is only valid in a function declaration's doc comment. Analyzer
// fixtures live under internal/lint/testdata/src with `// want` expectations
// run by internal/lint/linttest. The framework mirrors the
// golang.org/x/tools/go/analysis API shape (Analyzer/Pass/Reportf) but is
// built on go/ast + go/types with the source importer, so it needs no
// network or vendored dependencies; migrating onto x/tools/go/analysis and
// its multichecker when the dependency is available is a mechanical swap.
package first
