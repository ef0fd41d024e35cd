package serving

import (
	"sort"
	"time"

	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/workload"
)

// OfflineResult summarizes a batch-mode run (§4.4, §5.3.1): the model is
// loaded solely for the job and all requests are processed with continuous
// batching, with no online API server in the path.
type OfflineResult struct {
	Requests      int
	OutputTokens  int64
	LoadTime      time.Duration
	GenerateTime  time.Duration
	TotalTime     time.Duration
	OverallTokPS  float64 // output tokens / total time (incl. cold start)
	GenerateTokPS float64 // output tokens / generation time
	MedianLatency time.Duration
}

// OfflineConfig configures a batch run.
type OfflineConfig struct {
	Model perfmodel.ModelSpec
	GPU   perfmodel.GPUSpec
	// MaxBatch overrides max_num_seqs (offline mode typically runs larger
	// batches than online serving; 0 keeps the model default).
	MaxBatch int
	// SkipLoad treats the model as already resident (warm job reuse).
	SkipLoad bool
	// Speedup is the offline-vs-server efficiency factor: without the API
	// server, per-request HTTP handling, and online scheduling in the
	// loop, vLLM's offline batch mode iterates faster than server mode
	// (the paper measures 2117 tok/s offline vs 1677 through the serving
	// path). Default 1.25.
	Speedup float64
}

// RunOffline executes the requests through a dedicated engine on virtual
// time and reports batch-mode throughput. It is deterministic and does not
// sleep; the experiments and the live batch runner both use it (the live
// runner then sleeps out TotalTime on its clock).
func RunOffline(cfg OfflineConfig, reqs []workload.Request) (OfflineResult, error) {
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1.25
	}
	model := cfg.Model
	model.DecodeBase = time.Duration(float64(model.DecodeBase) / cfg.Speedup)
	model.DecodeSlope = time.Duration(float64(model.DecodeSlope) / cfg.Speedup)
	model.PrefillPerTok = time.Duration(float64(model.PrefillPerTok) / cfg.Speedup)
	eng, err := NewEngine(Config{Model: model, GPU: cfg.GPU, MaxBatch: cfg.MaxBatch})
	if err != nil {
		return OfflineResult{}, err
	}
	var res OfflineResult
	res.Requests = len(reqs)
	if !cfg.SkipLoad {
		res.LoadTime = cfg.Model.LoadTime(cfg.GPU)
	}

	start := res.LoadTime
	for _, r := range reqs {
		eng.Submit(start, r.PromptTok, r.OutputTok, nil)
	}
	latencies := make([]time.Duration, 0, len(reqs))
	now := start
	for {
		step := eng.Step(now)
		if !step.Busy {
			break
		}
		// Nothing arrives mid-run: every offered quiet stretch is taken whole.
		now += step.Duration + time.Duration(step.Quiet)*step.Each
		eng.Settle(now)
		for _, seq := range step.Completed {
			latencies = append(latencies, seq.FinishAt-start)
			res.OutputTokens += int64(seq.Emitted)
		}
		eng.Release(step.Completed...)
	}
	res.GenerateTime = now - start
	res.TotalTime = now
	if res.TotalTime > 0 {
		res.OverallTokPS = float64(res.OutputTokens) / res.TotalTime.Seconds()
	}
	if res.GenerateTime > 0 {
		res.GenerateTokPS = float64(res.OutputTokens) / res.GenerateTime.Seconds()
	}
	res.MedianLatency = medianDuration(latencies)
	return res, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
