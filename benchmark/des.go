package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/experiments"
	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/workload"
)

// The DES workloads run on one goroutine: one arena, the calendar queue, the
// sequential kernel. The federate and autoscale drivers are the benchmark's
// own (seed in, arrivals out) over the public desmodel API; they draw from
// the RNG in the order internal/experiments does, so at the recorded sizes
// they reproduce BENCH_10.json (see crossChecks).

// desRep is what one replication reports. model holds modelled values and
// counters, which repeat exactly for a seed; digest condenses all of them.
type desRep struct {
	offered   int
	completed int
	failed    int
	events    uint64
	digest    string
	model     map[string]float64
	problems  []string
	// chunks are the replication's wall time, all of it, cut where the
	// benchmark can see from outside: every 1/chunksPerRun of a trace's
	// arrivals, what comes before and after a kernel run, or one experiments
	// call. Chunk j is the same work in every replication of a seed, which
	// is what lets the harness take each chunk's undisturbed time across
	// replications.
	chunks []chunk
}

type chunk struct {
	reqs int
	wall time.Duration
}

// chunksPerRun makes a chunk one to two milliseconds of work. The shared
// host's slow spells last up to a minute, longer than a run, but they are
// made of bursts, and the shorter a chunk, the likelier one of its instances
// fell between two: in two sets of ten runs whose fastest whole replications
// spread 8-26 %, the median over chunk minima spread 2-3 % with 1.5 ms
// chunks (des-storm) and 3-10 % with 7 ms ones (des-federate, des-autoscale,
// then at 50 chunks a run).
const chunksPerRun = 200

// chunker cuts one kernel run into chunks at arrival counts, and what a
// replication does before and after the run (building the system, collecting
// the row) into a chunk each, of no requests.
type chunker struct {
	every int
	last  time.Time
	out   []chunk
}

func newChunker(n int) *chunker {
	every := n / chunksPerRun
	if every < 1 {
		every = 1
	}
	return &chunker{every: every, last: time.Now()}
}

// arrived is called after arrival idx (1-based) has been handed over.
func (c *chunker) arrived(idx int) {
	if idx%c.every == 0 {
		c.cut(c.every)
	}
}

// mark closes a chunk of work that is not arrivals.
func (c *chunker) mark() { c.cut(0) }

func (c *chunker) cut(reqs int) {
	now := time.Now()
	c.out = append(c.out, chunk{reqs, now.Sub(c.last)})
	c.last = now
}

// finish closes the run: the tail after the last arrival (the drain to the
// last completion) belongs to the last chunk.
func (c *chunker) finish(n int) {
	if rest := n % c.every; rest > 0 {
		c.cut(rest)
	} else {
		now := time.Now()
		c.out[len(c.out)-1].wall += now.Sub(c.last)
		c.last = now
	}
}

// repFunc runs one replication of size n requests. tr is nil when untraced;
// root is the replication's own span.
type repFunc func(a *desmodel.Arena, seed int64, n int, tr *tracer, root int32) desRep

// eventBudget aborts a runaway replication: background jobs self-schedule
// forever, so a lost request would otherwise spin the kernel silently.
const eventBudget = 400_000_000

func digestOf(v ...interface{}) string {
	h := sha256.New()
	for _, x := range v {
		fmt.Fprintf(h, "%+v|", x)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// fedShape is an open-loop federation cell: the trace and the parameters.
type fedShape struct {
	clusters int
	rate     float64 // mean offered rate, requests per simulated second
	params   desmodel.FederationParams
	// seedSalt separates the RNG streams of shapes that share a size.
	seedSalt int64
	// diurnalPeriod, when positive, swings the rate sinusoidally between
	// 0.25× and 1.75× and rotates a hot model (80 % of requests) once per
	// period — the autoscale family's demand curve.
	diurnalPeriod time.Duration
}

// federateShape is experiments.FederateCells[1]: 4 clusters × 3 models,
// 200 req/s, default churn.
func federateShape() fedShape {
	return fedShape{clusters: 4, rate: 200, params: desmodel.DefaultFederationParams(4)}
}

// autoscaleShape is experiments.AutoScaleCells[4]: the diurnal 4-cluster
// trace under the predictive scaler with one interval of cordon lead.
func autoscaleShape() fedShape {
	p := desmodel.DefaultFederationParams(4)
	s := desmodel.DefaultAutoScaleParams()
	s.MaxInstances = 5
	s.Predictive = true
	p.CordonLead = s.Interval
	p.Scale = s
	return fedShape{clusters: 4, rate: 200, params: p, seedSalt: int64(len("diurnal")), diurnalPeriod: 500 * time.Second}
}

// rep drives n open-loop arrivals through the federation. Arrivals
// self-schedule, so the kernel never holds the whole trace, and the run
// stops at the last completion.
func (s fedShape) rep(a *desmodel.Arena, seed int64, n int, tr *tracer, root int32) desRep {
	cut := newChunker(n)
	k := a.Begin()
	k.MaxEvents = eventBudget
	defer func() { k.MaxEvents = 0 }()
	completed := 0
	sys := desmodel.NewFederationIn(a, s.params, func(*desmodel.Req) {
		completed++
		if completed == n {
			k.Stop()
		}
	})
	spec := workload.FederateOpen()
	rng := sim.NewRNG(seed + int64(s.clusters)*1_000_003 + int64(n) + s.seedSalt)
	models := len(s.params.Models)
	gapMean := float64(time.Second) / s.rate
	reqs := make([]*desmodel.Req, n)
	idx := 0
	var run openSpan
	var step func()
	step = func() {
		now := k.Now()
		sp := tr.begin(spanSample, run.id, int64(idx+1))
		pt, ot := spec.SampleLengths(rng)
		var m int
		if s.diurnalPeriod > 0 {
			m = int(now/s.diurnalPeriod) % models
			if rng.Float64() >= 0.8 {
				m = rng.Intn(models)
			}
		} else {
			m = rng.Intn(models)
		}
		tr.end(sp)
		r := &desmodel.Req{ID: idx + 1, PromptTok: pt, OutputTok: ot, Model: m}
		reqs[idx] = r
		sp = tr.begin(spanArrive, run.id, int64(r.ID))
		sys.Arrive(r)
		tr.end(sp)
		idx++
		cut.arrived(idx)
		if idx < n {
			gap := gapMean
			if s.diurnalPeriod > 0 {
				gap /= 1 + 0.75*math.Sin(2*math.Pi*float64(now%s.diurnalPeriod)/float64(s.diurnalPeriod))
			}
			k.Schedule(time.Duration(rng.Exp(gap)), step)
		}
	}
	k.Schedule(time.Duration(rng.Exp(gapMean)), step)
	cut.mark()
	run = tr.begin(spanSimRun, root, 0)
	end := k.Run(0)
	tr.end(run)
	cut.finish(n)

	sp := tr.begin(spanCollect, root, 0)
	m := desmodel.Collect(reqs)
	rungs := sys.Rungs()
	stats := sys.ClusterStats()
	out := desRep{offered: n, completed: m.Completed, failed: m.Failed, events: k.Processed}
	c := map[string]float64{
		"desmodel.sim_lat_p50_s":       m.MedianLatS,
		"desmodel.sim_lat_p99_s":       m.P99LatS,
		"desmodel.migrations_per_kreq": 1000 * float64(sys.Migrations()) / float64(n),
		"serving.out_tokens_per_req":   float64(m.OutputTokens) / float64(n),
	}
	if routed := float64(rungs.Active + rungs.Capacity + rungs.FirstConf); routed > 0 {
		c["federation.rung_active_share"] = float64(rungs.Active) / routed
		c["federation.rung_capacity_share"] = float64(rungs.Capacity) / routed
		c["federation.rung_firstconf_share"] = float64(rungs.FirstConf) / routed
	}
	horizon := sim.Sec(end)
	for _, cs := range stats {
		c["desmodel.cold_starts"] += float64(cs.ColdStarts)
		c["desmodel.drains"] += float64(cs.Drains)
		c["desmodel.hard_kills"] += float64(cs.HardKills)
		c["desmodel.scale_ups"] += float64(cs.ScaleUps)
		c["desmodel.scale_downs"] += float64(cs.ScaleDowns)
		c["desmodel.scale_refused"] += float64(cs.ScaleRefused)
		c["desmodel.prewarms"] += float64(cs.PreWarms)
		c["desmodel.peak_instances"] = math.Max(c["desmodel.peak_instances"], float64(cs.PeakInstances))
		c["scheduler.queued_peak"] = math.Max(c["scheduler.queued_peak"], float64(cs.SchedQueuedPeak))
		if horizon > 0 && cs.TotalGPUs > 0 {
			c["cluster.util_mean_pct"] += 100 * cs.BusyGPUSeconds / (float64(cs.TotalGPUs) * horizon) / float64(len(stats))
		}
	}
	out.model = c
	out.digest = digestOf(m, rungs, sys.Migrations(), stats, end)
	tr.end(sp)
	cut.mark()
	out.chunks = cut.out

	if sys.Arrivals() != int64(n) || sys.Completions() != int64(n) {
		out.problems = append(out.problems, fmt.Sprintf("conservation: offered %d, arrivals %d, completions %d", n, sys.Arrivals(), sys.Completions()))
	}
	return out
}

// stormRep floods the gateway front-end model with n one-shot users at 10⁶
// arrivals per simulated second, once with one shard and once with 16: both
// arms face the identical storm (arrivals depend on seed and n only).
func stormRep(a *desmodel.Arena, seed int64, n int, tr *tracer, root int32) desRep {
	const ratePerSec = 1e6
	out := desRep{model: map[string]float64{}}
	var rows []interface{}
	for _, shards := range []int{1, 16} {
		cut := newChunker(n)
		k := a.Begin()
		sys := desmodel.NewGatewayFE(k, desmodel.DefaultGatewayFEParams(shards), nil)
		rng := sim.NewRNG(seed + int64(n))
		reqs := make([]*desmodel.Req, n)
		gapMean := float64(time.Second) / ratePerSec
		idx := 0
		var run openSpan
		var step func()
		step = func() {
			r := &desmodel.Req{ID: idx + 1}
			reqs[idx] = r
			sp := tr.begin(spanArrive, run.id, int64(r.ID))
			sys.Arrive(r)
			tr.end(sp)
			idx++
			cut.arrived(idx)
			if idx < n {
				sp = tr.begin(spanSample, run.id, int64(idx+1))
				gap := time.Duration(rng.Exp(gapMean))
				tr.end(sp)
				k.Schedule(gap, step)
			}
		}
		k.Schedule(time.Duration(rng.Exp(gapMean)), step)
		cut.mark()
		run = tr.begin(spanSimRun, root, 0)
		k.Run(0)
		tr.end(run)
		cut.finish(n)

		sp := tr.begin(spanCollect, root, 0)
		m := desmodel.Collect(reqs)
		tr.end(sp)
		cut.mark()
		out.chunks = append(out.chunks, cut.out...)
		out.offered += n
		out.completed += m.Completed
		out.failed += m.Failed
		out.events += k.Processed
		peak := float64(sys.PeakShardQueue())
		out.model["desmodel.fe_peak_shard_queue"] = math.Max(out.model["desmodel.fe_peak_shard_queue"], peak)
		if shards == 16 {
			// The sharded arm is the configuration the gateway ships with.
			out.model["desmodel.sim_lat_p50_s"] = m.MedianLatS
			out.model["desmodel.sim_lat_p99_s"] = m.P99LatS
		}
		rows = append(rows, m, peak)
	}
	out.digest = digestOf(rows...)
	return out
}

// paperSeq is the fleet the paper workload runs on: sequential, calendar queue.
var paperSeq = experiments.Fleet{Workers: 1}

// paperRep regenerates Fig. 3, 4, 5 and Table 1 (n is ignored: the paper
// fixes the sizes) and measures the distance from the paper's numbers.
func paperRep(_ *desmodel.Arena, seed int64, _ int, tr *tracer, root int32) desRep {
	var out desRep
	var gaps []float64
	gap := func(measured, paper float64) {
		if paper != 0 {
			gaps = append(gaps, 100*math.Abs(measured-paper)/paper)
		}
	}
	count := func(m desmodel.Metrics) {
		out.offered += m.Requests
		out.completed += m.Completed
		out.failed += m.Failed
	}
	// One chunk per experiments call, closed once its rows are counted.
	last := time.Now()
	cut := func() {
		now, done := time.Now(), 0
		for _, c := range out.chunks {
			done += c.reqs
		}
		out.chunks = append(out.chunks, chunk{out.completed - done, now.Sub(last)})
		last = now
	}

	sp := tr.begin(spanExperiment, root, 3)
	fig3 := experiments.RunFig3On(paperSeq, seed)
	tr.end(sp)
	for _, r := range fig3 {
		count(r.M)
		gap(r.M.ReqPerSec, r.PaperReqPS)
		gap(r.M.TokPerSec, r.PaperTokPS)
		gap(r.M.MedianLatS, r.PaperMedianS)
	}
	cut()
	sp = tr.begin(spanExperiment, root, 4)
	fig4 := experiments.RunFig4On(paperSeq, seed)
	tr.end(sp)
	for _, r := range fig4 {
		count(r.M)
		gap(r.M.ReqPerSec, r.PaperReqPS)
		gap(r.M.TokPerSec, r.PaperTokPS)
		gap(r.M.MedianLatS, r.PaperMedianS)
		gap(r.TokScale, r.PaperScale)
	}
	cut()
	sp = tr.begin(spanExperiment, root, 5)
	fig5 := experiments.RunFig5On(paperSeq, seed)
	tr.end(sp)
	for _, r := range fig5 {
		count(r.M)
		gap(r.M.ReqPerSec, r.PaperReqPS)
		gap(r.M.TokPerSec, r.PaperTokPS)
		gap(r.M.MedianLatS, r.PaperMedianS)
	}
	cut()
	sp = tr.begin(spanExperiment, root, 1)
	table1 := experiments.RunTable1On(paperSeq, seed)
	tr.end(sp)
	for _, c := range table1 {
		// Closed-loop sessions: what the cell completed inside its window
		// is all it offered; turns still running at the cut are not lost.
		done := int(c.ReqPS*float64(c.WindowS) + 0.5)
		out.offered += done
		out.completed += done
		gap(c.TokPS, c.PaperTokPS)
		gap(c.ReqPS, c.PaperReqPS)
	}
	cut()
	var sum float64
	for _, g := range gaps {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			out.problems = append(out.problems, "a paper-carrying field is not finite")
		}
		sum += g
	}
	out.model = map[string]float64{"experiments.paper_gap_pct": sum / float64(len(gaps))}
	out.digest = digestOf(fig3, fig4, fig5, table1)
	return out
}

// crossCheck pins a DES driver of this package to a number BENCH_10.json
// recorded through the internal/experiments entry points at seed 20251015.
type crossCheck struct {
	size int
	want map[string]float64
}

const recordedSeed = 20251015

var crossChecks = map[string]crossCheck{
	"des-federate": {1_000_000, map[string]float64{
		"desmodel.sim_lat_p50_s":       29.014271805, // open_c4_med_s
		"desmodel.sim_lat_p99_s":       316.160602025,
		"desmodel.migrations_per_kreq": 72.709, // open_c4_migrations = 72709
	}},
	"des-autoscale": {400_000, map[string]float64{
		"desmodel.sim_lat_p99_s": 327.48762634, // diurnal_c4_pred_p99_s
		"desmodel.prewarms":      24,           // diurnal_c4_pred_prewarms
	}},
}

// verify runs the recorded cell once and compares.
func (c crossCheck) verify(rep repFunc) []string {
	r := rep(desmodel.NewArena(sim.QueueCalendar), recordedSeed, c.size, nil, -1)
	problems := r.problems
	for name, want := range c.want {
		if got := r.model[name]; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			problems = append(problems, fmt.Sprintf("BENCH_10 cross-check: %s = %.9f, recorded %.9f", name, got, want))
		}
	}
	return problems
}
