// Package first is a from-scratch Go reproduction of "FIRST: Federated
// Inference Resource Scheduling Toolkit for Scientific AI Model Access"
// (Tanikanti et al., SC 2025): an Inference-as-a-Service stack for HPC with
// an OpenAI-compatible gateway, a Globus-Compute-style function fabric,
// PBS-like schedulers over simulated GPU clusters, vLLM-style continuous-
// batching serving engines, federation-aware routing and batch mode — plus
// a discrete-event harness that regenerates every table and figure in the
// paper's evaluation. The sections below walk the layers; benchmark/README.md
// describes the benchmark, and ROADMAP.md what is open.
//
// # Simulation substrate
//
// The evaluation data plane is allocation-free at steady state:
//
//   - internal/sim.Kernel keeps its earliest events in a short sorted run
//     (at most 64, descending, the next one last, so a pop shrinks a slice)
//     in front of a 4-ary min-heap. An insert later than the heap's minimum
//     goes to the heap; any other is placed in the run by a scan from its
//     earliest end. An overfull run spills its later half to the heap and an
//     empty one refills from it. This stays cheap because the kernel's
//     population scales with the number of stages, not with the requests in
//     flight: Kernel.Reserve hands out the sequence number a Schedule made
//     now would take, and Kernel.AtSeq queues an event under it later, where
//     that Schedule would have put it. A desmodel pipe reserves a number per
//     entrant and keeps only its head's event queued, the shard front-end
//     does the same with one number per busy period, a gate books each
//     head as the one before it leaves, Kernel.Peek reads the earliest
//     queued instant without reordering anything,
//     and desmodel.OpenLoop, the one open-loop driver (Fig. 3–5's traces,
//     the federate, autoscale and storm families, the property harness),
//     keeps one arrival queued under numbers reserved for all of it up
//     front and carves its requests from one block, so every (time, seq)
//     order and every result is what one event per request gives. The heap
//     alone survives as a reference kernel (sim.QueueHeap, first-bench
//     -queue heap): a differential suite proves both queues produce
//     byte-identical results on Fig3, Table1, the storm, and the full
//     rendered report, plus
//     randomized schedule/pop property tests, a Reserve/AtSeq-versus-Schedule
//     differential, each move of the run (spill, refill, an empty run in
//     front of a non-empty heap, bounded runs, Reset), and a same-instant
//     flood of 10⁵ events with late inserts ahead of it.
//   - internal/serving.Engine keeps its waiting queue in a ring buffer
//     (never re-slicing a pinned backing array), reuses one scratch buffer
//     for StepResult.Completed across iterations, recycles Sequence objects
//     through Release/Submit, and resolves Abort by binary search over the
//     ID-ordered ring plus a lazy tombstone instead of an O(n) scan. Decode
//     is event-driven: a sequence's last iteration is known when it is
//     admitted, so the running batch is filed on a fixed 1024-bucket wheel
//     by it (a small heap holds outputs that finish past the wheel until
//     they come within reach) and Step pops one bucket: O(1) per
//     completion — it never visits the sequences that merely keep
//     decoding. When an iteration completes nothing and
//     nothing can be admitted before the next completion (the queue is
//     empty, or its head is held by the batch cap or by KV headroom — never
//     by the prefill budget), Step makes an offer: StepResult.Quiet further
//     iterations of StepResult.Each are certain to change nothing. A driver
//     that ignores the offer and steps at the end of Duration gets exactly
//     the per-iteration engine. LiveEngine takes it only for a run whose
//     every iteration began before the clock, settling it in the lock hold
//     that stepped it, and ignores it otherwise, so it leaves no offer open
//     and owes Settle nothing more. A driver that takes it
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
//     allocating: every hop is a serialized server of constant cost (zero
//     for a plain wait) with a constant delay after it — a pipe, or the
//     gateway's shard stage, a pipe per shard lock — or before it, a gate,
//     all FIFO, all queueing *Req on a power-of-two ring that doubles when
//     full and all wired once, at construction, to the next stage's entry
//     point (stage.go, gatewayfe.go). Each stage computes a request's
//     departure as it enters — D = max(arrival + before, previous D) + cost,
//     handed on at D + after — and keeps one kernel event queued, its
//     ring head's: the kernel is handed the stage's one bound callback, the
//     head says whose firing it is, and a pop checks the head's due instant
//     against Now and panics on a mismatch. A pipe's hand-off runs under the
//     number reserved as the request entered; a gate books its head's at the
//     previous departure, after that request is handed on, where the lane it
//     replaced booked it; the shard stage under the number reserved when its
//     busy period began. Same-nanosecond rule: an event booked while a
//     request waits, for the exact nanosecond of its hand-off, may run after
//     it where the chain of a lane and a pipe ran it first; differential
//     tests hold each stage to that chain, on both queue kinds, on every
//     other schedule. On the fabric hop (first.go) a request costs one
//     event per stage — the hub's submit trip and dispatch are one gate, its
//     relay and the return trip one pipe — and the client's zero-delay
//     observe runs inside the relay's hand-off when sim.Kernel.Peek shows
//     nothing else queued at that instant, which is exact because every
//     stage keeps its head's event queued. Per-request stage state (the due
//     instant, the engine instance the hub's dispatch picked) rides on Req.
//     Only the two waits whose length differs per request, and so are not
//     FIFO, keep a closure: the Opt1-off poll grid and ExtAPISystem's
//     service time.
//     There is one request path: desmodel.Federation — shard front-end,
//     the real federation.Select, scheduler-backed pools — and the paper's
//     own system is a configuration of it (FirstPathParams: one cluster,
//     hot instances, FederationParams.First wiring the fabric's worker
//     window, hub dispatch, pickup and relay around the router and the
//     pool). Fig. 3's vLLM-Direct baseline is one more FirstParams set
//     (VLLMDirectParams: the API server's single-threaded admission as the
//     dispatch cost, response serialization as the return trip, every
//     other stage zero), so Fig. 3/4/5, Table 1 and the ablations route and
//     place like every federate cell, and every cell audits arrivals =
//     completions. AllocsPerRun pins carry pre-allocated requests through
//     that FIRST configuration (with and without the auth limiter), the
//     vLLM-Direct one, GatewayFE and a churn-free Federation at zero
//     allocations.
//   - internal/metrics shards its hot instruments: Histogram observations
//     scatter over independently locked slots (one shared bucket-bounds
//     table for all histograms) and Counter increments scatter over
//     cache-line-padded atomic stripes, so an instrument in hand never
//     serializes the data plane on a single mutex or contended cache line.
//     Getting it in hand does: Registry.Counter/Histogram(name) takes the
//     registry's one lock and a map look-up, so it is for set-up and tests.
//     The gateway resolves the request path's instruments once, at
//     construction (gateway.New), its two computed families
//     (route_<reason>, requests_<kind>) included, and the fabric's hub and
//     endpoints resolve their task counters when they are built.
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
// Server.ServeHTTP at zero too (the buffer the body is read into comes from
// a pool).
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
// capacity → first-configured) over rows kept current, and land on 2-8
// simulated clusters. Each deployment owns its ladder row and publishes
// its state as it changes — Pronto's pattern: the pool record is re-read
// after every lifecycle transition (the scheduler's JobSpec.OnStarting
// names the one a queued job makes on its grant), and the serving engines
// report each change in their depth — so the router writes only each
// cluster's free GPUs, which background jobs move, and reads the rest.
// Each cluster pairs a real inventory (cluster.Cluster — whose Status, the §4.5 "publicly available status"
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
// utilization. Every PR runs the family at full scale in TestFamilies
// (below): rows equal across fleet worker counts and kernel queues, the
// churn surface exercised, and the drain-aware c8 twin migrating fewer
// requests, at a lower migrated median, than its drain-blind baseline.
//
// # Auto-scaling inside a federated cluster
//
// One scaling policy has two drivers, the way federation.Select serves both
// routers: fabric.Decide is a pure, allocation-free function (pinned at 0
// allocs/op) from a fabric.ScalePolicy, a fabric.PoolView of the pool at
// one tick and the pool's fabric.ScalerState to one action — hold, up,
// refused at the cap, pre-warm, or down. The policy is two watermarks on
// queue depth per live (not draining) member: depth above HiWater for
// HiSustain consecutive ticks grows the pool, depth below LoWater for
// LoSustain ticks shrinks it, a live-count change restarts both streaks,
// one refusal is counted per at-cap episode, and a due shrink with nothing
// the driver may release stays armed for the next tick. Each driver only
// observes its pool, calls Decide and applies the action.
//
// One instance lifecycle has the same two drivers. fabric.Pool is a plain
// value with no clock, goroutine or lock, holding one deployment's members
// in launch order and every rule both halves apply: the states (queued,
// loading, serving, draining, dead) and their guarded transitions; the
// least-loaded pick with its cordon fallback; the record the router reads
// (the §4.3 state, depth, uncordoned serving count, cordoned, soonest drain
// — GET /jobs prints its counts); the PoolView Decide reads, whose floor is
// an argument (the live MinInstances, 1 in the DES); and the scale-down
// victim — a member still queued at the scheduler is cancelled first, else
// the emptiest serving member drains. Launch order breaks every tie, and the
// pick and the record are pinned at 0 allocs/op. fabric.Deployment carries
// the answers out on goroutines under its lock, desmodel's deployments as
// kernel events. Hard kills stay each driver's own: the DES migrates the
// orphaned requests, and live calls get serving.ErrClosed and retry.
//
// Live, fabric.Deployment's control loop runs §3.2.2 as a parameter set:
// HiWater = ScaleUpDepth with HiSustain 1, LoWater 1 (under one request per
// instance) with LoSustain = HotIdleTimeout in control periods, capped at
// MaxInstances; it releases the pool's victim, never below MinInstances
// live instances. A released instance drains: it takes no new work, and its
// job completes once its last request has returned.
//
// In the DES federation each (cluster, model) deployment is a pool of
// 1..MaxInstances engine incarnations (desmodel.AutoScaleParams, which
// embeds the ScalePolicy; the zero value pins pools at one instance, the
// pre-autoscaler behaviour). A per-cluster tick — one deterministic kernel
// event per Interval — runs Decide for every pool. Every growth step pays
// the scheduler's real Queued→Starting→Running cold-start path and competes
// with background science jobs for GPUs; a shrink cancels an incarnation
// still waiting in the scheduler queue (free) or drains the emptiest
// serving instance through the same drain/migrate machinery walltime churn
// uses. The defaults (DefaultAutoScaleParams) are 10 s ticks, HiWater 16,
// LoWater 2, sustain 2/4, cap 4. Three liveness rules are load-bearing,
// found by the randomized property sweep: LoWater is clamped to HiWater/2
// (overlapping bands let a scale-up immediately satisfy the shrink
// condition and the pool oscillates forever, cancelling every incarnation
// before its prologue completes), a pool with parked demand never shrinks,
// and a scale-down never targets the pool's only live instance (the last
// two are Pool.View's Releasable, with a floor of one).
//
// Routing is instance-aware: federation.EndpointInfo carries the live
// instance count and Select tie-breaks active endpoints on depth per
// instance (cross-multiplied, so ties stay exact), while inside a pool
// requests go to fabric.Pool's pick, the least-loaded serving instance —
// both hot paths pinned at 0 allocs/op by AllocsPerRun tests.
//
// The autoscale scenario family (first-bench -exp autoscale) is Fig4 beyond
// paper size: open-loop traces whose offered rate and hot model are
// functions of virtual time — "diurnal" swings the rate sinusoidally while
// the hot model rotates each period, "bursty" fires a 4× square-wave burst
// each period — over 2-8 clusters, forcing pools to grow under each wave
// and drain behind it while walltime churn and the priority ladder keep
// firing. Its cells are federate cells with a demand Shape and a
// MaxInstances cap (experiments.FederateCell; one runner serves both
// families). The report shows scale-up/scale-down/refused counts, peak
// instances, cold starts, drains, kills, migrations, and utilization;
// TestFamilies holds the full family's rows equal across fleet worker
// counts and kernel queues and checks its elasticity on every PR.
//
// # Predictive scaling & drain-aware routing
//
// The reactive watermarks above only act after backlog has already built —
// every wave eats one full cold start (prologue + weights load) before new
// capacity serves. Setting AutoScaleParams.Predictive arms two
// forecast-driven pre-warm paths on top of the reactive policy (which keeps
// running unchanged beneath them). The forecast is an input to
// fabric.Decide, not a mode inside it (Pronto, PAPERS.md): each DES
// deployment feeds a desmodel.Forecast — a Holt double-exponential smoother
// (level + trend, fixed-size value state, 0 allocs/op on observe and
// predict, pinned by an AllocsPerRun test) — with per-tick arrival and
// completion counts, and hands Decide the depth projected one cold start
// ahead (PredictSum of arrivals minus the completion level over the
// horizon) as PoolView.Projected. When the projection crosses HiWater×live
// while current depth has not, and no member is already on its way up,
// Decide answers pre-warm and the incarnation starts now, so its
// prologue+load overlaps the wave's rise instead of following it. The live
// driver has no forecast yet (Projected 0), so it never pre-warms. The
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
// serves; across clusters, federation.EndpointInfo carries Cordoned, and
// Select demotes a cordoned endpoint below every other
// viable candidate — but still above first-configured, so work is never
// parked while capacity exists. Both routers fill those fields from one
// fabric.Pool record, the live one through Deployment.Record under a single
// lock; the live pool never cordons, but a draining instance drops out of
// its record as in the DES. All of it is zero-value-off: with Predictive and
// CordonLead unset, every decision is byte-identical to the reactive
// policy, pinned by the golden report; the autoscale family's predictive
// twins run reactive-vs-predictive on identical traces in TestFamilies on
// every PR.
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
// the sequential run (TestFamilies, first-bench -workers).
//
// # Resilience & failover
//
// The live stack survives endpoint death, network faults, and mid-stream
// disconnects through internal/resilience: a retry Policy (capped
// exponential backoff with full jitter and Retry-After honoring, each
// attempt under the caller's context alone — the client SDK replays JSON
// calls and unconsumed streams under client.WithRetry, sleeping through an
// injectable client.WithSleep so scaled-clock harnesses don't stall on wall
// time), a per-endpoint circuit
// Breaker (closed → open → half-open with a sliding-window failure rate,
// probe admission, and a closed-state check pinned at 0 allocs/op), and a
// Set holding one Breaker per routing row. Which endpoint an attempt goes
// to is one policy, federation.Walk, next to Select: it filters the
// model's rows through the Set (open endpoints are skipped; a half-open
// endpoint admits one probe), runs the §4.5 ladder on the rows the request
// has not failed on, reserves the pick's probe, and spends the attempt
// budget. Its verdict is a pick, a shed, or "tried everywhere". The
// gateway drives it through Router.Next (0 allocs/op on closed breakers),
// failing a request over to the next-best cluster on endpoint error
// (failover_attempts / failover_success counters), and degrades gracefully
// when every untried candidate's breaker is open: 503 + a Retry-After
// derived from the soonest reopening among that model's endpoints, counted
// as load_shed. Endpoint-side 401s trigger one token-cache recheck
// (auth_rechecks), whose replay spends no attempt. Router.Route, used by
// batch admission, only peeks and reserves no probe. The livefed
// calibration twin (desmodel's schedule replay) drives the same Walk over
// its ladder rows, with a Set keyed by cluster name. Everything is
// time-parameterized (breakers never read a wall clock) and
// zero-value-inert: a zero Policy is one attempt, a zero BreakerConfig
// disables breaker bookkeeping, so the resilience layer changes nothing
// until configured. A model may be configured on at most
// federation.MaxEndpoints (64) clusters; config loading rejects more.
//
// The livefed family (first-bench -exp livefed) puts that layer under fire
// on the LIVE stack — real client SDK, sharded gateway, breaker-aware
// router, fabric hub, engines on a 20000× scaled clock — via
// internal/chaosnet, a seeded fault-injecting http.RoundTripper (refused
// dials, synthesized 503 bursts with Retry-After, SSE cuts mid-stream) plus
// an endpoint-side fault-burst schedule (chaosnet.Windows) that sweeps
// failures across endpoints round-robin, credential-rejection lanes, and a
// hard kill + cold restart of a victim endpoint mid-run through the real
// scheduler. Every draw is a pure
// function of (seed, request key, attempt), so the fault schedule — and
// the whole outcome census — replays identically across runs; breaker
// timing runs on a logical clock advanced per issued request. The
// invariant under fire is zero lost requests: every request resolves as
// success, failover-success, shed, or a typed client error, never a hang
// or an untyped failure (make chaos gates this under the race detector).
//
// Scaled-clock precision. Every wait on the live path — hub submit,
// dispatch and relay, endpoint pickup, the deployment control loop, engine
// iterations, scheduler timers, the introspection latency — goes through
// the clock.Clock the layer was built with, and on clock.Scaled a modelled
// delay costs the wall time it says, plus the pump's reaction: a wait never
// returns early, its deadline is the wall instant it was armed plus
// delay/factor, and it returns within the microsecond or so the pump takes
// to see that instant (a yield, when the pump's processor is busy), where a
// raw time.Sleep of anything under a millisecond takes ≈ 1.1 ms on Linux.
// One goroutine per clock, the pump, owns a deadline queue shared by Sleep
// and After; it sleeps on a runtime timer until 1.2 ms (the host's timer
// granularity) before the nearest deadline, polls the wall clock from
// there, yielding its processor after every wake-up and at least every
// 20 µs — after each idle 20 µs its OS thread too (sched_yield), since a
// thread that never blocks makes a thread the kernel queued on its CPU, one
// woken to run a goroutine the pump released, wait out the 4 ms scheduler
// tick (on live-chat the client time in such > 1 ms stalls fell from ≈ 16 %
// to ≈ 3 % with the yield) — and exits when no waiter is left. Waits of
// 10 ms of wall or more never enter the queue — a millisecond is at most a
// tenth of them — and use the runtime timer alone. There is exactly one spinner however many
// goroutines wait, so the cost is bounded at one core and the gateway
// stress tests do not put hundreds of spinners on the run queue; an idle
// clock costs nothing. With exact deadlines a request through the live
// stack at 20000× costs its modelled waits plus the stack's own CPU between
// them — on the benchmark's live-chat workload the hub's one booked wait
// (38.5 µs), the engine's generation, and the SDK's, gateway's and
// fabric's code around them — so the live rate reads that CPU, and follows
// a shared host's speed drift with it: a change is judged on interleaved
// pairs of runs (make pairs). Deadlines rounded up to a grid would steady
// the rate but hide that CPU, since every request would then take a whole
// number of grid periods. On that workload the deployments' control loops
// re-arm a 250 µs wait without pause, so the pump never leaves its spin
// window: host.cpu_busy_share reads ~0.6 where it read ~0.18, and the
// difference is an otherwise idle core polling the clock, not work
// (clock.cpu_share names it in the profile). The hub's two lanes are booked as a task enters
// them, by the FIFO recurrence of the DES twin's stages, so a backlogged
// lane drains at the 1/DispatchCost the Fig. 4 model states instead of
// 1/(DispatchCost + overshoot). The serving engine takes a task at its
// booked pickup instant and the hub relays from the engine's finish, so an
// inference request through the fabric waits on the clock once. The
// task's goroutine hands the request to an idle engine by driving it
// itself: the iterations that lie before the clock — the task picked up
// late — are stepped, and a quiet run wholly past them settled, inside the
// lock hold that submits, with no hop to another goroutine, and only an
// iteration that ends ahead of the clock goes to the engine's loop, the one
// goroutine that sleeps. The loop paces its iterations against an absolute
// virtual deadline, so its overshoot does not add up either.
//
// What is left is host CPU, which the scaled clock multiplies into modelled
// time the DES twin does not have, so the in-process hops do no work that
// models nothing. The hub hands a task's payload to the endpoint's handler
// as the Go value the caller submitted (fabric.Handler takes and returns
// any) and the result comes back the same way: the Globus Compute hop's
// cost is the hub's booked constants, not an encode and a decode. Nor does
// the hop build a task per call: a task is one record — its Task and
// Future, a one-slot wake channel, the handler's context and the task's
// goroutine body bound once — that fabric.Client.Run takes from the hub's
// free list under the lock submit already holds and gives back once its
// Wait has returned the outcome, so a Run allocates nothing of its own
// (TestClientRunZeroAlloc); a Run whose context ends first leaves its record
// to the collector, and a Future from Submit is never recycled. The record
// carries no lock and no pollable status — the wait on the future replaced
// the paper's 2-second status polling, and nothing reads one: the task's
// goroutine writes the outcome before it sends the wake token, and a waiter
// reads it only once it has taken the token, which a Submit future's Waits
// pass from one to the next (TestFutureMultiWaitSharesOutcome). An
// inference's request and answer ride in the record too: Client.Infer
// copies its InferRequest there and hands the handler a pointer to it, the
// built-in handler answers with a pointer to the record's InferResult, and
// Infer copies that out before the record goes back, so neither is boxed
// into an any (TestClientInferZeroAlloc, through a warm engine); handlers
// of their own read either form with fabric.InferPayload. The SDK's
// in-process transport (client.HandlerRoundTripper, which WithHandler
// clients call directly, with no http.Client around it) serves calls on
// kept connections, as net/http
// serves a keep-alive connection on one goroutine: a call takes an idle
// connection goroutine from the transport's stack or starts one, the
// handler runs there, and the goroutine goes back on the stack when
// ServeHTTP returns, so the stack the gateway and encoding/json grew serves
// the next call instead of being grown again. Idle connections reference
// only that stack, never the handler, and end on CloseIdleConnections or,
// once the transport is dropped, through a finalizer on it. The response
// body is a buffer the handler appends to: Write never waits for the
// reader, each write is readable as soon as it lands, and the buffered
// memory is the response's size, since in-process there is no
// backpressure. A cancellation is registered with context.AfterFunc, and
// only for a context that can end. Neither side rebuilds its scaffolding per
// call: every wire body — the gateway's chat, completion, embedding and
// batch requests, the SDK's responses, error envelopes and stream
// chunks — decodes through openaiapi.Unmarshal, which gives
// json.Unmarshal's values and errors (FuzzUnmarshalMatchesStdlib holds the
// two equal): the chat request, response and stream chunk on a typed path
// that reads them without reflection, in a check pass that neither stores
// nor allocates, then a fill pass for a body it accepted whole, and
// every other body, or a chat body with anything that path does not take
// (an escape, a null, an unknown key, a number out of range), to
// json.Unmarshal. The writers mirror it: the SDK's chat request, the
// gateway's reply on a miss and its stream chunks are written by
// openaiapi.AppendJSON, which appends json.Marshal's bytes, on a typed path
// without reflection for the three chat types and through json.Marshal for
// a value with anything that path does not write unchanged (a string
// json.Marshal escapes, a NaN or ±Inf), so the bytes stay json.Marshal's
// (FuzzAppendJSONMatchesStdlib holds the two equal). Both typed paths walk
// one field list per chat type (openaiapi/wire.go), read at init from the
// types' json tags: each field's key, kind, omitempty and offset, from a
// closed set of nine kinds, with a panic at init on any other field. The
// tags are the one description of the wire format; no code is written per
// type, and the gateway sizes its reply buffer from a frame AppendJSON
// writes at init. The SDK parses its
// base URL once, at New, and reads a stream's lines into a buffer its call
// record keeps. An SDK call on the in-process
// transport is one record from the transport's free list, as a fabric task
// is one from the hub's: the request's URL, header map and body reader, the
// exchange (the handler's ResponseWriter and the response's Body, with its
// header map cleared rather than remade, its body buffer and its wake
// channel), the request's copy and encode buffer — json.Marshal's bytes,
// which chaosnet's fault draws key on, written there by AppendJSON — and
// the response's decode target.
// The SDK decodes straight from the exchange's buffer once the handler has
// returned and gives the record back once nothing of the response is
// referenced (encoding/json copies every string it decodes); a call whose
// context ended first leaves its record to the collector, and a response
// RoundTrip hands an outside caller, such as an http.Client over the
// transport, is never recycled (TestClientCallRecyclesUnderConcurrency,
// TestRoundTripResponseOutlivesClose; the ownership rules are in
// client/transport.go). The gateway reads a body into a pooled buffer of at
// most 64 KiB and gives it back once the cache key is taken and the request
// decoded, so a response-cache hit allocates nothing
// (TestChatCacheHitAllocBudget); a miss decodes into a pooled request that
// keeps its messages array, marshals a pooled response whose one choice and
// message live inside it through the typed writer, into one buffer sized
// for the reply, and reuses a full cache's evicted entry, and that buffer,
// which the cache keeps, is its one fresh value there besides the decoded
// strings (TestChatCacheMissAllocs counts the rest). The request row it
// logs goes into the store's window, a ring that overwrites its oldest row
// once full, so logging copies no row. The store keeps request rows, users
// and batches, and no chat sessions: no route reads them, and Load ignores
// the sessions.jsonl an older snapshot holds.
// A reused decode target is zeroed before each decode, its messages and
// choices included: json.Unmarshal leaves a field the body omits as it
// was, so a target left as the last call filled it would carry one
// caller's fields into the next, and a slice decoded into in place would
// share its array with the last caller's answer. An in-process request
// carries no GetBody, which only http.Client's redirect and resend paths
// read; one sent through an http.Client keeps it.
//
// Calibration methodology. Each live cell executes a single serializable
// churn plan — a chaosnet.Schedule: endpoint kills, cold restarts, and
// background GPU claims/releases keyed by request index, plus the fault
// windows — built from the cell and the seed, and the DES federation twin
// replays that exact schedule (desmodel.ReplayParams) under the live
// cell's own traffic: the live driver's closed loop (one session per live
// worker, no think time, the cell's request count) with each request's
// prompt and output lengths as the live engine sees them. The twin is thus
// a function of the cell and the seed alone; nothing is measured from the
// live run. Index time is the shared time base: the live driver fires every
// event due at index i before issuing request i, and the twin's
// Federation.Arrive fires them before it takes its own arrival i. The twin
// routes with real resilience.Breakers in the live gateway's configuration
// on the same one-second-per-request logical clock, draws the same pure
// Windows.Faulty(seed, index, endpoint, attempt) fault function, and
// re-routes a faulted placement to the next ladder candidate — so twin
// migrations-per-request is the DES name for the gateway's
// failover-attempts-per-request. A request the live gateway would shed
// (every candidate breaker-open or already tried) or give up on (failover
// budget spent) fails in the twin too: it reaches the driver unserved, in
// an event of its own, and the report prints the twin's failures beside
// the live sheds and typed errors. The comparison is then gated, not
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
// so arena reuse never perturbs determinism (TestFamilies runs each family's
// sequential pass on arenas its default-fleet pass left in the pool), and an
// arena whose cell panicked is not kept. Everything the desmodel hands the kernel — the engine iteration
// loop, every gate and pipe of every path, desmodel.OpenLoop's arrivals —
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
// instances (Table 1's EmittedTokensBy) and stand-alone sims —
// not by an incarnation the scheduler started, whose log would die with it.
// Tests flip an unexported
// hook to ignore the offer and require identical rows from the paper's
// figures and the full federate and autoscale families.
//
// internal/experiments derives every check from one table: experimentTable
// gives each report family's rows and renderer, and TestFamilies runs every
// family "all" renders on the default fleet, on Fleet{Workers: 1} and on
// Fleet{Queue: sim.QueueHeap}, requires the three sets of rows to be equal
// field for field, runs the family's gate (familyGates: the paper's shapes,
// the storm's sharding property, federation churn and the cordon twin,
// elasticity and predictive-vs-reactive), and renders the rows against
// testdata/report_all.golden, which pins the full report across commits
// (regenerate only with `go test ./internal/experiments -run TestFamilies
// -update`). A family without a gate fails the suite.
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
// the gateway config file, the chaosnet.Schedule JSON, the store's JSONL
// journals, the gateway's batch-create body and the serving engine's
// offer/settle state machine (FuzzEngineOffer), and `make fuzzlist` fails
// when a fuzz target under internal/ is missing from that pass. All of
// these run as the six required CI jobs (.github/workflows/ci.yml: check, lint,
// benchmark-smoke, race, chaos, calibrate) — check on an {oldstable,
// stable} Go matrix with module/build caching, the race/chaos/calibrate
// logs uploaded as artifacts; PR pushes cancel superseded runs of the same
// ref and every job carries a timeout — and a scheduled nightly matrix runs
// the two legs too slow per-PR, each with its own log artifact: govulncheck
// + 60 s of fuzzing per target, and the full livefed chaos sweep, which
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
//     through the package's static call graph (a method value assigned in a
//     body, such as a goroutine body bound once, counts as a call), an
//     annotation whose note
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
