package experiments

import (
	"fmt"
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/workload"
)

// Table1Cell is one (model, concurrency, run-length) measurement of the
// WebUI concurrency benchmark (Table 1): closed-loop simulated chat
// sessions, throughput measured over the run window.
type Table1Cell struct {
	Model       string
	Concurrency int
	WindowS     int
	TokPS       float64
	ReqPS       float64

	PaperTokPS float64
	PaperReqPS float64
}

// Table1Concurrencies are the paper's session counts.
var Table1Concurrencies = []int{50, 100, 300, 500, 700}

// Table1Windows are the paper's run lengths in seconds.
var Table1Windows = []int{60, 120}

// table1Models maps the paper's three models to deployment instance counts:
// the WebUI deployment auto-scales the 70B model to a second instance from
// secondAt sessions up; smaller models stay single-instance (secondAt 0).
var table1Models = []struct {
	name     string
	display  string
	secondAt int
}{
	{perfmodel.Llama8B, "Llama-3.1-8B", 0},
	{perfmodel.Gemma27B, "Gemma-27B", 0},
	{perfmodel.Llama70B, "Llama-3.3-70B", 500},
}

// paperTable1[model][conc][window] = (tok/s, req/s) from Table 1.
var paperTable1 = map[string]map[int]map[int][2]float64{
	"Llama-3.1-8B": {
		50:  {60: {690.68, 4.97}, 120: {441.17, 3.12}},
		100: {60: {738.33, 5.25}, 120: {563.18, 4.01}},
		300: {60: {1103.70, 7.90}, 120: {981.45, 6.81}},
		500: {60: {1672.15, 12.08}, 120: {1271.04, 8.94}},
		700: {60: {2119.50, 14.68}, 120: {1385.93, 9.74}},
	},
	"Gemma-27B": {
		50:  {60: {297.97, 2.70}, 120: {864.83, 5.13}},
		100: {60: {906.62, 5.42}, 120: {865.05, 5.10}},
		300: {60: {1469.53, 8.67}, 120: {1211.75, 7.25}},
		500: {60: {1849.67, 10.95}, 120: {1144.79, 6.83}},
		700: {60: {2651.40, 15.57}, 120: {1353.15, 8.17}},
	},
	"Llama-3.3-70B": {
		50:  {60: {217.38, 1.63}, 120: {472.05, 3.57}},
		100: {60: {785.83, 5.88}, 120: {503.52, 3.86}},
		300: {60: {1061.93, 7.92}, 120: {948.13, 7.13}},
		500: {60: {1646.53, 12.30}, 120: {1176.39, 8.75}},
		700: {60: {2134.10, 15.67}, 120: {1372.27, 10.35}},
	},
}

// RunTable1On regenerates Table 1 with one fleet cell per
// (model, concurrency, window) combination — 30 independent simulations,
// each seeded from the experiment seed plus its cell coordinates.
func RunTable1On(f Fleet, seed int64) []Table1Cell {
	nConc := len(Table1Concurrencies)
	nWin := len(Table1Windows)
	cells := make([]Table1Cell, len(table1Models)*nConc*nWin)
	f.RunArena(len(cells), func(i int, a *desmodel.Arena) {
		mc := table1Models[i/(nConc*nWin)]
		conc := Table1Concurrencies[(i/nWin)%nConc]
		windowS := Table1Windows[i%nWin]
		model := perfmodel.Default.MustLookup(mc.name)
		window := time.Duration(windowS) * time.Second
		k := a.Begin()
		loop := newClosedLoop(k, workload.WebUI(), seed+int64(conc)+int64(windowS), conc, 0)
		loop.enableChatHistory(8192)
		// The WebUI backend (FastAPI/Uvicorn) holds its own worker
		// pool, not the gateway's Gunicorn window; session count is
		// the concurrency control here.
		params := desmodel.DefaultFirstParams()
		params.Window = 0
		instances := 1
		if mc.secondAt > 0 && conc >= mc.secondAt {
			instances = 2
		}
		sys := desmodel.NewFederationIn(a, desmodel.FirstPathParams(params, model, perfmodel.A100_40, instances), loop.onDone)
		loop.start(sys)
		k.Run(window)
		auditConservation(fmt.Sprintf("table1 %s c%d %ds", mc.display, conc, windowS), sys, loop.issued, conc)
		cell := Table1Cell{
			Model:       mc.display,
			Concurrency: conc,
			WindowS:     windowS,
			// Sessions stream, so token throughput counts tokens
			// as generated within the window.
			TokPS: float64(sys.EmittedTokensBy(window)) / window.Seconds(),
			ReqPS: float64(loop.completedWithin(window)) / window.Seconds(),
		}
		if p, ok := paperTable1[mc.display][conc][windowS]; ok {
			cell.PaperTokPS, cell.PaperReqPS = p[0], p[1]
		}
		cells[i] = cell
	})
	return cells
}
