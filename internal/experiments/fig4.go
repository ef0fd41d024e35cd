package experiments

import (
	"fmt"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/workload"
)

// Fig4Row is one auto-scaling configuration of Figure 4: Llama-3.3-70B
// under maximum (infinite-rate) load on 1..4 instances.
type Fig4Row struct {
	Instances int
	M         desmodel.Metrics
	// Scaling ratio of token throughput vs 1 instance.
	TokScale float64

	PaperReqPS   float64
	PaperTokPS   float64
	PaperMedianS float64
	PaperScale   float64
}

// Fig4Requests sizes the run; larger than Fig. 3 so four instances stay
// saturated long enough to measure steady state.
const Fig4Requests = 2000

// RunFig4On regenerates Figure 4, one fleet cell per instance count.
func RunFig4On(f Fleet, seed int64) []Fig4Row {
	paper := map[int]Fig4Row{
		1: {PaperReqPS: 8.3, PaperTokPS: 1432, PaperMedianS: 54.5, PaperScale: 1.0},
		2: {PaperReqPS: 14.6, PaperMedianS: 30.1, PaperScale: 1.75},
		3: {PaperReqPS: 20.9, PaperMedianS: 18.8, PaperScale: 2.52},
		4: {PaperReqPS: 23.9, PaperTokPS: 4131, PaperMedianS: 16.0, PaperScale: 2.88},
	}
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)

	rows := make([]Fig4Row, 4)
	f.RunArena(len(rows), func(i int, a *desmodel.Arena) {
		n := i + 1
		trace := workload.Generate(Fig4Requests, workload.ShareGPT(), workload.Infinite(), seed)
		cell := fmt.Sprintf("fig4 with %d instances", n)
		row := Fig4Row{Instances: n, M: firstOpenLoop(a, cell, desmodel.DefaultFirstParams(), model, n, trace)}
		p := paper[n]
		row.PaperReqPS, row.PaperTokPS, row.PaperMedianS, row.PaperScale =
			p.PaperReqPS, p.PaperTokPS, p.PaperMedianS, p.PaperScale
		rows[i] = row
	})
	// Scaling ratios need the single-instance base, so they are stamped
	// after the fleet joins.
	if base := rows[0].M.TokPerSec; base > 0 {
		for i := range rows {
			rows[i].TokScale = rows[i].M.TokPerSec / base
		}
	}
	return rows
}
