package experiments

import (
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/workload"
)

// BatchResult reproduces the §5.3.1 batch-mode measurement: 1000 long-form
// requests through the offline engine as a dedicated job (cold start
// included), plus the amortization sweep the paper describes (">10,000
// requests ... makes batch mode highly efficient").
type BatchResult struct {
	Requests      int
	OutputTokens  int64
	LoadTimeS     float64
	TotalTimeS    float64
	OverallTokPS  float64
	GenerateTokPS float64

	PaperTokPS     float64
	PaperDurationS float64
}

// RunBatch regenerates the headline batch measurement.
func RunBatch(seed int64) BatchResult {
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	trace := workload.Generate(1000, workload.BatchGen(), workload.Infinite(), seed)
	res, err := serving.RunOffline(serving.OfflineConfig{
		Model:    model,
		GPU:      perfmodel.A100_40,
		MaxBatch: 2 * model.MaxBatch, // offline mode runs larger batches (no online API in the path)
	}, trace)
	if err != nil {
		panic(err) // static config; cannot fail
	}
	return BatchResult{
		Requests:       res.Requests,
		OutputTokens:   res.OutputTokens,
		LoadTimeS:      res.LoadTime.Seconds(),
		TotalTimeS:     res.TotalTime.Seconds(),
		OverallTokPS:   res.OverallTokPS,
		GenerateTokPS:  res.GenerateTokPS,
		PaperTokPS:     2117,
		PaperDurationS: 409,
	}
}

// AmortizationPoint is one size in the cold-start amortization sweep.
type AmortizationPoint struct {
	Requests     int
	OverallTokPS float64
	LoadShare    float64 // fraction of total time spent loading
}

// RunBatchAmortizationOn sweeps batch sizes, one fleet cell per size, to show
// cold-start amortization (§5.3.1: loading dominates small batches; >10k
// requests amortize it).
func RunBatchAmortizationOn(f Fleet, seed int64) []AmortizationPoint {
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	sizes := []int{10, 100, 1000, 10000}
	points := make([]AmortizationPoint, len(sizes))
	f.Run(len(sizes), func(i int) {
		n := sizes[i]
		trace := workload.Generate(n, workload.BatchGen(), workload.Infinite(), seed)
		res, err := serving.RunOffline(serving.OfflineConfig{
			Model:    model,
			GPU:      perfmodel.A100_40,
			MaxBatch: 2 * model.MaxBatch,
		}, trace)
		if err != nil {
			panic(err)
		}
		points[i] = AmortizationPoint{
			Requests:     n,
			OverallTokPS: res.OverallTokPS,
			LoadShare:    res.LoadTime.Seconds() / res.TotalTime.Seconds(),
		}
	})
	return points
}
