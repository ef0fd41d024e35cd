package experiments

import (
	"fmt"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/workload"
)

// Fig5Row is one system of Figure 5: FIRST serving Llama-3.1-8B (TP=4)
// versus the OpenAI API serving GPT-4o-mini.
type Fig5Row struct {
	System string
	M      desmodel.Metrics

	PaperReqPS   float64
	PaperTokPS   float64
	PaperMedianS float64
}

// Fig5Requests is the benchmark size.
const Fig5Requests = 1000

// RunFig5On regenerates Figure 5 with one fleet cell per system. The FIRST
// side is the open-loop infinite burst; the OpenAI side runs closed-loop at
// the concurrency the provider's rate limits allow (the paper notes its
// OpenAI numbers are rate-limited).
func RunFig5On(f Fleet, seed int64) []Fig5Row {
	model8b := perfmodel.Default.MustLookup(perfmodel.Llama8B)

	rows := make([]Fig5Row, 2)
	f.RunArena(len(rows), func(i int, a *desmodel.Arena) {
		switch i {
		case 0: // FIRST / Llama-3.1-8B.
			trace := workload.Generate(Fig5Requests, workload.ShareGPTShort(), workload.Infinite(), seed)
			rows[i] = Fig5Row{
				System:       "FIRST (Llama-3.1-8B)",
				M:            firstOpenLoop(a, "fig5 FIRST arm", desmodel.DefaultFirstParams(), model8b, 1, trace),
				PaperReqPS:   25.1,
				PaperTokPS:   3283,
				PaperMedianS: 16.3,
			}
		case 1: // OpenAI API / GPT-4o-mini.
			k := a.Begin()
			ext := serving.DefaultOpenAI()
			loop := newClosedLoop(k, workload.ShareGPTShort(), seed, ext.MaxConcurrent, 0)
			sys := desmodel.NewExtAPISystem(k, ext, func(r *desmodel.Req) {
				loop.onDone(r)
				if len(loop.finished) >= Fig5Requests {
					k.Stop()
				}
			})
			loop.start(sys)
			k.Run(0)
			if len(loop.finished) < Fig5Requests || loop.issued-len(loop.finished) > loop.sessions {
				panic(fmt.Sprintf("experiments: fig5 OpenAI arm: conservation violated (issued %d, finished %d, at most %d may be in flight)",
					loop.issued, len(loop.finished), loop.sessions))
			}
			loop.finished = loop.finished[:min(len(loop.finished), Fig5Requests)]
			rows[i] = Fig5Row{
				System:       "OpenAI API (GPT-4o-mini)",
				M:            desmodel.Collect(loop.finished),
				PaperReqPS:   6.7,
				PaperTokPS:   1199,
				PaperMedianS: 2.0,
			}
		}
	})
	return rows
}
