package experiments

import (
	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/workload"
)

// RoutingRow compares dispatch policies in the Fig. 4 configuration —
// an ablation of the least-loaded routing design choice (DESIGN.md).
type RoutingRow struct {
	Policy string
	M      desmodel.Metrics
}

// RunAblationRoutingOn reruns the 4-instance Fig. 4 scenario under each
// routing policy, one fleet cell per policy. Under homogeneous load the
// policies converge; the interesting separation appears with heavy-tailed
// outputs, where random and round-robin strand short requests behind long
// ones — so the ablation uses the heavy-tailed WebUI marginals.
func RunAblationRoutingOn(f Fleet, seed int64) []RoutingRow {
	model := perfmodel.Default.MustLookup(perfmodel.Llama70B)
	spec := workload.WebUI()

	policies := []desmodel.RoutingPolicy{
		desmodel.RouteLeastLoaded,
		desmodel.RouteRoundRobin,
		desmodel.RouteRandom,
	}
	rows := make([]RoutingRow, len(policies))
	f.RunArena(len(rows), func(i int, a *desmodel.Arena) {
		pol := policies[i]
		trace := workload.Generate(2000, spec, workload.Infinite(), seed)
		p := desmodel.DefaultFirstParams()
		p.Routing = pol
		// Moderate concurrency: at full saturation every policy keeps all
		// engines busy; imbalance costs show when the window is near the
		// fleet's batch capacity.
		p.Window = 160
		rows[i] = RoutingRow{Policy: pol.String(), M: firstOpenLoop(a, "routing ablation "+pol.String(), p, model, 4, trace)}
	})
	return rows
}
