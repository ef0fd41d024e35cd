package experiments

import (
	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/workload"
)

// Fig3Row is one (request rate, system) cell of Figure 3: Llama-3.3-70B on
// a single Sophia node (TP=8), 1000 ShareGPT requests, FIRST vs vLLM
// Direct at offered rates 1/5/10/20/∞ req/s.
type Fig3Row struct {
	Rate   string // "1", "5", "10", "20", "inf"
	System string // "FIRST" or "vLLM-Direct"
	M      desmodel.Metrics

	// Paper values where the text reports them (0 = not stated).
	PaperReqPS   float64
	PaperTokPS   float64
	PaperMedianS float64
}

// Fig3Requests is the paper's benchmark size.
const Fig3Requests = 1000

// RunFig3On regenerates Figure 3, fanning the ten (rate, system) cells out
// over f. Each cell regenerates its own trace from the seed so no state is
// shared between goroutines.
func RunFig3On(f Fleet, seed int64) []Fig3Row {
	rates := []struct {
		label string
		rate  float64
	}{
		{"1", 1}, {"5", 5}, {"10", 10}, {"20", 20}, {"inf", 0},
	}
	paper := map[string]Fig3Row{
		// §5.3.1 quotes these points explicitly.
		"1/FIRST":         {PaperMedianS: 9.2},
		"1/vLLM-Direct":   {PaperMedianS: 3.0},
		"20/FIRST":        {PaperReqPS: 9.2, PaperTokPS: 1677},
		"20/vLLM-Direct":  {PaperReqPS: 5.8, PaperTokPS: 1054},
		"inf/FIRST":       {PaperReqPS: 9.2, PaperTokPS: 1677, PaperMedianS: 46.9},
		"inf/vLLM-Direct": {PaperReqPS: 5.8, PaperTokPS: 1054, PaperMedianS: 80.2},
	}

	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	systems := []struct {
		name   string
		params desmodel.FirstParams
	}{
		{"FIRST", desmodel.DefaultFirstParams()},
		{"vLLM-Direct", desmodel.VLLMDirectParams()},
	}
	rows := make([]Fig3Row, len(rates)*len(systems))
	f.RunArena(len(rows), func(i int, a *desmodel.Arena) {
		rc := rates[i/len(systems)]
		system := systems[i%len(systems)]
		arrival := workload.Infinite()
		if rc.rate > 0 {
			arrival = workload.Poisson(rc.rate)
		}
		trace := workload.Generate(Fig3Requests, workload.ShareGPT(), arrival, seed)

		row := Fig3Row{Rate: rc.label, System: system.name}
		row.M = firstOpenLoop(a, "fig3 "+system.name+" rate "+rc.label, system.params, model, 1, trace)
		if p, ok := paper[rc.label+"/"+system.name]; ok {
			row.PaperReqPS, row.PaperTokPS, row.PaperMedianS = p.PaperReqPS, p.PaperTokPS, p.PaperMedianS
		}
		rows[i] = row
	})
	return rows
}
