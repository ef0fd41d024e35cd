package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/sim"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the per-seed inputs; it is 1 in every measured run and
	// about 1/200 in the smoke test.
	scale float64
	// outDir receives the span file and the CPU profile of a traced run.
	outDir string
}

// tracePath is where a traced run writes its spans.
func (c runConfig) tracePath() string { return filepath.Join(c.outDir, c.workload+".trace.json") }

func (c runConfig) sized(n int) int {
	if s := int(float64(n) * c.scale); s > 1 {
		return s
	}
	return 1
}

// outcome is what a run hands to the printer.
type outcome struct {
	attempted int
	failed    int
	problems  []string // failed correctness checks
	digest    string   // modelled-row digest (DES workloads)
	notes     []string
	metrics   map[string]float64
}

func (o *outcome) problemf(format string, args ...interface{}) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// anotherSetup says whether a run that has set up done times, taking spent,
// sets up once more. The fastest round is reported: a single boot time is the
// noisiest number a run produces, and the host only ever adds to it. Five
// rounds at least, and further ones while they are cheap (a tenth of a second
// on des-paper and live-chat, a second on live-hot). The smoke test, which
// reports nothing, sets up once.
func (c runConfig) anotherSetup(done int, spent time.Duration) bool {
	if c.scale < 1 {
		return done < 1
	}
	return done < 5 || done < 15 && spent < 3*time.Second
}

// minReps is the fewest timed replications a measured run accepts.
func (c runConfig) minReps() int {
	if c.scale < 1 {
		return 1
	}
	return 3
}

// desWorkload is a DES workload: its replication and the size of one.
type desWorkload struct {
	rep  repFunc
	size int
}

var desWorkloads = map[string]desWorkload{
	"des-federate":  {federateShape().rep, 250_000},
	"des-autoscale": {autoscaleShape().rep, 200_000},
	"des-storm":     {stormRep, 250_000},
	"des-paper":     {paperRep, 1},
}

// repSet is what a timed phase of replications adds up to.
type repSet struct {
	walls []float64 // seconds per replication
	sum   desRep    // totals over the phase; model and digest of the last one
	// best[j] is chunk j at the fastest it ran in any replication.
	best []chunk
}

// rate is simulated requests per second with every chunk at the fastest it
// ran in any replication. Every replication of a seed is the same work, so
// what a slower instance of a chunk took on top is not the program's doing
// but the host's (a neighbour on the core or in the cache, an interrupt) or
// the collector's: interference only adds time. The collector's share is the
// price of steadiness. It shows in allocs_per_req, host.gc_cpu_share and
// wholeRate, which is the same rate over the fastest whole replication. In a
// sweep that kept both, wholeRate spread 6-11 % across ten runs and rate
// 3-5 %; beside a process thrashing the cache, 5 % and 0.6 %.
func (r *repSet) rate() float64 {
	var best time.Duration
	for _, c := range r.best {
		best += c.wall
	}
	return float64(r.sum.completed) / float64(len(r.walls)) / best.Seconds()
}

func (r *repSet) wholeRate() float64 {
	return float64(r.sum.completed) / float64(len(r.walls)) / slices.Min(r.walls)
}

// msPerKreq is, sorted, each chunk's fastest wall time per thousand
// simulated requests: how long the trace's cheap and dear stretches keep a
// user of the DES waiting.
func (r *repSet) msPerKreq() []float64 {
	var out []float64
	for _, c := range r.best {
		if c.reqs > 0 {
			out = append(out, 1e6*c.wall.Seconds()/float64(c.reqs))
		}
	}
	sort.Float64s(out)
	return out
}

// timedReps repeats rep until budget is spent. The first replication's
// digest is the reference for the rest.
func timedReps(w desWorkload, cfg runConfig, a *desmodel.Arena, budget time.Duration, tr *tracer, o *outcome) repSet {
	n := cfg.sized(w.size)
	var set repSet
	start := time.Now()
	for len(set.walls) < cfg.minReps() || time.Since(start) < budget {
		t := time.Now()
		root := tr.begin(spanRep, -1, 0)
		r := w.rep(a, cfg.seed, n, tr, root.id)
		tr.end(root)
		set.walls = append(set.walls, time.Since(t).Seconds())
		checkRep(r, o)
		set.sum.offered += r.offered
		set.sum.completed += r.completed
		set.sum.events += r.events
		set.sum.model = r.model
		if set.best == nil {
			set.best = r.chunks
			continue
		}
		if len(r.chunks) != len(set.best) {
			o.problemf("a replication had %d chunks, the first %d", len(r.chunks), len(set.best))
			continue
		}
		for j, c := range r.chunks {
			if c.wall < set.best[j].wall {
				set.best[j].wall = c.wall
			}
		}
	}
	return set
}

// checkRep applies the per-replication correctness checks.
func checkRep(r desRep, o *outcome) {
	o.problems = append(o.problems, r.problems...)
	if r.completed != r.offered || r.failed != 0 {
		o.problemf("offered %d, completed %d, failed %d", r.offered, r.completed, r.failed)
	}
	if o.digest == "" {
		o.digest = r.digest
	} else if r.digest != o.digest {
		o.problemf("modelled row changed between replications: digest %s, then %s", o.digest, r.digest)
	}
}

// runDES measures a DES workload. Set-up is a fresh arena plus one untimed
// warm-up replication (the arena's kernel buckets and engine pools grow to
// size); the timed phase then replays the same seed on the warm arena.
func runDES(cfg runConfig) outcome {
	w := desWorkloads[cfg.workload]
	o := outcome{metrics: map[string]float64{}}
	n := cfg.sized(w.size)

	var a *desmodel.Arena
	var setups []float64
	for begin := time.Now(); cfg.anotherSetup(len(setups), time.Since(begin)); {
		t := time.Now()
		a = desmodel.NewArena(sim.QueueCalendar)
		checkRep(w.rep(a, cfg.seed, n, nil, -1), &o)
		setups = append(setups, time.Since(t).Seconds())
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		runtime.GC()
		meter := startPhase()
		set := timedReps(w, cfg, a, budget, nil, &o)
		cost := meter.stop()
		o.attempted, o.failed = set.sum.offered, set.sum.offered-set.sum.completed
		lat := set.msPerKreq()
		o.metrics["setup_s"] = slices.Min(setups)
		o.metrics["req_per_s"] = set.rate()
		o.metrics["lat_p50_ms"] = quantile(lat, 0.5)
		o.metrics["allocs_per_req"] = float64(cost.mallocs) / float64(set.sum.completed)
		sorted := sortedCopy(set.walls)
		o.notes = append(o.notes, fmt.Sprintf("%d replications of %d requests in %d chunks; wall per replication min %.1f, p25 %.1f, p50 %.1f, p75 %.1f ms; %.0f req/s in the fastest whole replication, %.0f over the whole phase",
			len(sorted), set.sum.completed/len(sorted), len(set.best), 1000*sorted[0], 1000*quantile(sorted, 0.25),
			1000*quantile(sorted, 0.5), 1000*quantile(sorted, 0.75), set.wholeRate(), float64(set.sum.completed)/cost.wall.Seconds()))
		if c, ok := crossChecks[cfg.workload]; ok && cfg.seed == recordedSeed && cfg.scale == 1 {
			o.problems = append(o.problems, c.verify(w.rep)...)
			o.notes = append(o.notes, "BENCH_10.json cross-check ran (recorded seed)")
		}
		return o
	}

	// Traced run: half the budget untraced, half under spans and the CPU
	// profile; the difference in throughput is what tracing costs.
	runtime.GC()
	plainMeter := startPhase()
	plain := timedReps(w, cfg, a, budget/2, nil, &o)
	plainCost := plainMeter.stop()

	tr := newTracer(time.Now())
	prof, err := startCPUProfile(filepath.Join(cfg.outDir, cfg.workload+".cpu.pprof"))
	if err != nil {
		o.problemf("cpu profile: %v", err)
		return o
	}
	traced := timedReps(w, cfg, a, budget/2, tr, &o)
	shares, err := prof.stopAndAttribute()
	if err != nil {
		o.problemf("cpu profile: %v", err)
	}

	o.attempted = plain.sum.offered + traced.sum.offered
	o.failed = o.attempted - plain.sum.completed - traced.sum.completed
	m := o.metrics
	for name, v := range traced.sum.model {
		m[name] = v
	}
	reqs, reps := float64(traced.sum.completed), float64(len(traced.walls))
	m["sim.run_s"] = float64(tr.total[spanSimRun]) / 1e9 / reps
	m["sim.events_per_req"] = float64(traced.sum.events) / reqs
	if traced.sum.events > 0 {
		m["sim.wall_ns_per_event"] = float64(tr.total[spanSimRun]) / float64(traced.sum.events)
	}
	m["desmodel.arrive_ns_per_req"] = float64(tr.total[spanArrive]) / reqs
	m["workload.sample_ns_per_req"] = float64(tr.total[spanSample]) / reqs
	m["desmodel.collect_ns_per_req"] = float64(tr.total[spanCollect]) / reqs
	cpuShares(m, shares)
	hostMetrics(m, plainCost, plain.walls)
	m["bench.lat_p95_ms"] = quantile(plain.msPerKreq(), 0.95)
	m["bench.whole_req_per_s"] = plain.wholeRate()
	m["host.trace_overhead_pct"] = 100 * (plain.rate() - traced.rate()) / plain.rate()
	if err := tr.write(cfg.tracePath(), cfg.workload, cfg.seed, traced.sum.model); err != nil {
		o.problemf("span file: %v", err)
	}
	return o
}

// cpuLayers are the buckets a CPU sample can fall into: the repo's packages
// by name, then the three host buckets.
var cpuLayers = []string{
	"sim", "desmodel", "serving", "federation", "cluster", "scheduler", "workload",
	"experiments", "perfmodel", "gateway", "auth", "openaiapi", "fabric", "client",
	"clock", "metrics", "store", "resilience",
}

// cpuShares moves the profile's attribution into m. A package the list does
// not name (none today) is folded into host.other_cpu_share so the shares
// still sum to 1.
func cpuShares(m map[string]float64, shares map[string]float64) {
	take := func(bucket string) float64 {
		v := shares[bucket]
		delete(shares, bucket)
		return v
	}
	for _, l := range cpuLayers {
		m[l+".cpu_share"] = take(l)
	}
	m["host.gc_cpu_share"] = take("gc")
	m["host.generator_cpu_share"] = take("generator")
	var other float64
	for _, v := range shares {
		other += v
	}
	m["host.other_cpu_share"] = other
}

// hostMetrics writes the host.* metrics of a traced run, taken over its
// untraced part so that the profiler's own work is not in them. units are the
// part's repeated timings (replication walls, or per-window throughputs).
func hostMetrics(m map[string]float64, cost phaseCost, units []float64) {
	procs := runtime.GOMAXPROCS(0)
	m["host.cpu_busy_share"] = cost.cpu.Seconds() / (cost.wall.Seconds() * float64(procs))
	m["host.gomaxprocs"] = float64(procs)
	m["host.heap_peak_mb"] = cost.heapMB
	m["host.rep_iqr_pct"] = iqrPct(units)
}
