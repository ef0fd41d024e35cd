package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// BenchSchema versions the BENCH_<n>.json layout. v2 adds the micro
// section (substrate ns/op + allocs/op) that `make bench-diff` guards.
const BenchSchema = "first-bench/v2"

// BenchExperiment is one experiment's entry in a bench record: how long the
// regeneration took and its headline measurements (the same series
// bench_test.go reports as custom benchmark metrics).
type BenchExperiment struct {
	WallMS  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics"`
}

// BenchRecord is the machine-readable output of one first-bench run. Each
// run appends a BENCH_<n>.json to the repository so the perf trajectory of
// the substrate accumulates across PRs.
type BenchRecord struct {
	Schema      string                     `json:"schema"`
	UnixTime    int64                      `json:"unix_time"`
	GoVersion   string                     `json:"go_version"`
	GOOS        string                     `json:"goos"`
	GOARCH      string                     `json:"goarch"`
	MaxProcs    int                        `json:"maxprocs"`
	Seed        int64                      `json:"seed"`
	Workers     int                        `json:"workers"` // 0 = GOMAXPROCS
	WallMS      float64                    `json:"wall_ms"`
	Experiments map[string]BenchExperiment `json:"experiments"`
	// Micro holds substrate micro-benchmarks (per-op cost + allocations);
	// absent in v1 records, which bench-diff tolerates.
	Micro map[string]MicroBench `json:"micro,omitempty"`
}

// CollectBench regenerates every experiment on f and returns the record.
func CollectBench(f Fleet, seed int64) BenchRecord {
	rec := BenchRecord{
		Schema: BenchSchema,
		//firstlint:allow det the record's timestamp is provenance metadata, not simulation state
		UnixTime:    time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		MaxProcs:    runtime.GOMAXPROCS(0),
		Seed:        seed,
		Workers:     f.Workers,
		Experiments: make(map[string]BenchExperiment),
	}
	start := time.Now() //firstlint:allow det wall-clock benchmark timing is the product this file exists to measure
	// Each experiment regenerates benchReps times and records the fastest
	// wall: experiment outputs are deterministic, so the repetitions differ
	// only in scheduler/GC noise, and the minimum is the standard
	// noise-robust estimator — single-shot walls on a busy host swing past
	// the bench-diff threshold without any code change. Five reps (not
	// three) so that on hosts with periodic throttle windows longer than one
	// repetition at least one rep lands in the fast mode.
	const benchReps = 5
	timed := func(name string, run func() map[string]float64) {
		var best float64
		var metrics map[string]float64
		for rep := 0; rep < benchReps; rep++ {
			t0 := time.Now() //firstlint:allow det wall-clock benchmark timing is the product this file exists to measure
			metrics = run()
			//firstlint:allow det wall-clock benchmark timing is the product this file exists to measure
			if wall := float64(time.Since(t0).Microseconds()) / 1000; rep == 0 || wall < best {
				best = wall
			}
		}
		rec.Experiments[name] = BenchExperiment{
			WallMS:  best,
			Metrics: metrics,
		}
	}
	timed("fig3", func() map[string]float64 {
		m := map[string]float64{}
		for _, r := range RunFig3On(f, seed) {
			if r.Rate == "inf" {
				prefix := "direct"
				if r.System == "FIRST" {
					prefix = "first"
				}
				m[prefix+"_req_s"] = r.M.ReqPerSec
				m[prefix+"_tok_s"] = r.M.TokPerSec
				m[prefix+"_med_s"] = r.M.MedianLatS
			}
		}
		return m
	})
	timed("fig4", func() map[string]float64 {
		m := map[string]float64{}
		for _, r := range RunFig4On(f, seed) {
			m[fmt.Sprintf("inst%d_req_s", r.Instances)] = r.M.ReqPerSec
			m[fmt.Sprintf("inst%d_med_s", r.Instances)] = r.M.MedianLatS
		}
		return m
	})
	timed("fig5", func() map[string]float64 {
		rows := RunFig5On(f, seed)
		return map[string]float64{
			"first_req_s":  rows[0].M.ReqPerSec,
			"first_tok_s":  rows[0].M.TokPerSec,
			"first_med_s":  rows[0].M.MedianLatS,
			"openai_req_s": rows[1].M.ReqPerSec,
			"openai_med_s": rows[1].M.MedianLatS,
		}
	})
	timed("table1", func() map[string]float64 {
		m := map[string]float64{}
		for _, c := range RunTable1On(f, seed) {
			if c.Model == "Llama-3.1-8B" && (c.Concurrency == 50 || c.Concurrency == 700) {
				m[fmt.Sprintf("8B_c%d_%ds_tok_s", c.Concurrency, c.WindowS)] = c.TokPS
			}
		}
		return m
	})
	timed("batch", func() map[string]float64 {
		res := RunBatch(seed)
		return map[string]float64{
			"overall_tok_s": res.OverallTokPS,
			"total_s":       res.TotalTimeS,
		}
	})
	timed("opt1", func() map[string]float64 {
		rows := RunOpt1PollingOn(f, seed)
		return map[string]float64{
			"polling_med_s": rows[0].M.MedianLatS,
			"futures_med_s": rows[1].M.MedianLatS,
		}
	})
	timed("opt2", func() map[string]float64 {
		rows := RunOpt2AuthCacheOn(f, seed)
		return map[string]float64{
			"uncached_med_s": rows[0].M.MedianLatS,
			"cached_med_s":   rows[1].M.MedianLatS,
		}
	})
	timed("opt3", func() map[string]float64 {
		rows := RunOpt3AsyncGatewayOn(f, seed)
		return map[string]float64{
			"sync_req_s":         rows[0].M.ReqPerSec,
			"async_req_s":        rows[1].M.ReqPerSec,
			"async_fabric_queue": float64(rows[1].HubQueuePeak),
		}
	})
	timed("routing", func() map[string]float64 {
		m := map[string]float64{}
		for _, r := range RunAblationRoutingOn(f, seed) {
			m[r.Policy+"_req_s"] = r.M.ReqPerSec
		}
		return m
	})
	timed("storm", func() map[string]float64 {
		m := map[string]float64{}
		for _, r := range RunStormOn(f, seed) {
			if r.Users == 1_000_000 {
				m[fmt.Sprintf("shards%d_req_s", r.Shards)] = r.M.ReqPerSec
				m[fmt.Sprintf("shards%d_p99_s", r.Shards)] = r.M.P99LatS
			}
		}
		return m
	})
	timed("federate", func() map[string]float64 {
		m := map[string]float64{}
		for _, r := range RunFederateOn(f, seed) {
			key := fmt.Sprintf("%s_c%d", r.Mode, r.Clusters)
			m[key+"_req_s"] = r.M.ReqPerSec
			m[key+"_med_s"] = r.M.MedianLatS
			m[key+"_migrations"] = float64(r.Migrations)
			// The drain-aware comparison: cordon_c8 against open_c8 on the
			// same trace — migrated-request latency is the penalty cordoning
			// exists to shrink.
			if r.Mode == "open" || r.Mode == "cordon" {
				m[key+"_migr_med_s"] = r.MigratedMedianS
			}
			if r.Mode == "open" && r.Clusters == 4 {
				m[key+"_rung_active"] = float64(r.Rungs.Active)
				m[key+"_rung_capacity"] = float64(r.Rungs.Capacity)
				m[key+"_rung_firstconf"] = float64(r.Rungs.FirstConf)
			}
		}
		return m
	})
	// The bench record runs the short livefed cell — the full nightly storm
	// takes minutes per repetition and its walls are sleep-bound rather than
	// substrate-bound; the short cell tracks the same calibration metrics.
	timed("livefed", func() map[string]float64 {
		m := map[string]float64{}
		for _, r := range RunLiveFedCellsOn(f, seed, LiveFedCellsShort) {
			key := fmt.Sprintf("c%d", r.Clusters)
			m[key+"_ok"] = float64(r.OK)
			m[key+"_failover_ok"] = float64(r.FailoverOK)
			m[key+"_shed"] = float64(r.Shed)
			m[key+"_typed_err"] = float64(r.TypedErr)
			m[key+"_untyped"] = float64(r.Untyped)
			m[key+"_retry_amp"] = r.RetryAmp
			m[key+"_trips"] = float64(r.Trips)
			m[key+"_p99_s"] = r.P99S
			// Calibration columns: live rung shares vs the DES twin's.
			la, lc, lf := rungShares(r.RungActive, r.RungCapacity, r.RungFirstConf)
			sa, sc, sf := rungShares(r.Sim.Rungs.Active, r.Sim.Rungs.Capacity, r.Sim.Rungs.FirstConf)
			m[key+"_rung_active_live_pct"] = la
			m[key+"_rung_capacity_live_pct"] = lc
			m[key+"_rung_firstconf_live_pct"] = lf
			m[key+"_rung_active_sim_pct"] = sa
			m[key+"_rung_capacity_sim_pct"] = sc
			m[key+"_rung_firstconf_sim_pct"] = sf
			m[key+"_sim_p99_s"] = r.Sim.M.P99LatS
			if r.Requests > 0 {
				m[key+"_failover_per_req"] = float64(r.FailoverAttempts) / float64(r.Requests)
			}
			if r.Sim.Offered > 0 {
				m[key+"_sim_migrations_per_req"] = float64(r.Sim.Migrations) / float64(r.Sim.Offered)
			}
			// Tolerance gate verdict (±CalibRungTolerancePts on rung shares,
			// CalibRateRatioMax on the re-route ratio): 1 = calibrated.
			cal := r.Calibrate()
			m[key+"_calib_pass"] = 0
			if cal.Pass {
				m[key+"_calib_pass"] = 1
			}
			m[key+"_calib_rung_gap_pts"] = cal.RungGapPts
			m[key+"_calib_rate_ratio"] = cal.RateRatio
		}
		return m
	})
	timed("autoscale", func() map[string]float64 {
		m := map[string]float64{}
		for _, r := range RunAutoScaleOn(f, seed) {
			key := fmt.Sprintf("%s_c%d", r.Shape, r.Clusters)
			if r.Predictive {
				// The predictive twins share shape/clusters with their
				// reactive baselines; the suffix keeps both series in one
				// record for the forecast-vs-watermark comparison.
				key += "_pred"
				m[key+"_prewarms"] = float64(r.PreWarms)
			}
			m[key+"_req_s"] = r.M.ReqPerSec
			m[key+"_scale_ups"] = float64(r.ScaleUps)
			m[key+"_scale_downs"] = float64(r.ScaleDowns)
			if r.Shape == "diurnal" && r.Clusters == 4 {
				m[key+"_peak_inst"] = float64(r.PeakInstances)
				m[key+"_refused"] = float64(r.ScaleRefused)
				m[key+"_med_s"] = r.M.MedianLatS
				m[key+"_p99_s"] = r.M.P99LatS
			}
		}
		return m
	})
	// WallMS keeps its v1 meaning — experiment regeneration time only — so
	// the headline number stays comparable across records; the micro pass
	// times itself per series.
	//firstlint:allow det wall-clock benchmark timing is the product this file exists to measure
	rec.WallMS = float64(time.Since(start).Microseconds()) / 1000
	rec.Micro = CollectMicro()
	return rec
}

// WriteBench marshals rec to path (indented, trailing newline).
func WriteBench(rec BenchRecord, path string) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// NextBenchPath returns dir/BENCH_<n>.json for the smallest n ≥ 1 not yet
// taken, so successive runs accumulate a numbered perf trajectory.
func NextBenchPath(dir string) string {
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}
