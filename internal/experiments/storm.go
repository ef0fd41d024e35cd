package experiments

import (
	"fmt"
	"time"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/sim"
)

// StormRow is one (users, shards) cell of the arrival-storm study: a flood
// of distinct one-shot users offered at StormRatePerSec against the gateway
// front-end with the given lock-shard count. It extends the paper's §5.3.1
// worker-model result to the regime the ROADMAP's north star targets —
// million-user storms a single node must absorb without serializing on one
// lock.
type StormRow struct {
	Users  int
	Shards int
	M      desmodel.Metrics
	// PeakShardQueue is the deepest backlog on any front-end shard.
	PeakShardQueue int
}

// StormRatePerSec is the offered storm intensity: 10⁶ arrivals/s, four times
// what one 4 µs critical section can admit, so the single-lock arm saturates
// while the sharded arm rides it out.
const StormRatePerSec = 1e6

// StormShardCounts are the compared front-end configurations.
var StormShardCounts = []int{1, 16}

// StormUserCounts are the storm sizes (distinct one-shot users).
var StormUserCounts = []int{100_000, 1_000_000}

// RunStormOn regenerates the arrival-storm study, fanning the (users ×
// shards) cells over f. Arrival times depend only on (seed, users), so the
// shard arms of one storm size face an identical storm and differ purely in
// front-end sharding.
func RunStormOn(f Fleet, seed int64) []StormRow {
	type cell struct{ users, shards int }
	var cells []cell
	for _, u := range StormUserCounts {
		for _, s := range StormShardCounts {
			cells = append(cells, cell{u, s})
		}
	}
	rows := make([]StormRow, len(cells))
	f.RunArena(len(cells), func(i int, a *desmodel.Arena) {
		c := cells[i]
		k := a.Begin()
		sys := desmodel.NewGatewayFE(k, desmodel.DefaultGatewayFEParams(c.shards), nil)
		rng := sim.NewRNG(seed + int64(c.users))
		gapMean := float64(time.Second) / StormRatePerSec
		reqs := desmodel.OpenLoop(k, c.users, sys.Arrive, func(i int, r *desmodel.Req) sim.Time {
			r.ID = i + 1
			return k.Now() + time.Duration(rng.Exp(gapMean))
		})
		k.Run(0)
		m := desmodel.Collect(reqs)
		if m.Completed != c.users {
			panic(fmt.Sprintf("experiments: storm %d users on %d shards: conservation violated (%d completed)", c.users, c.shards, m.Completed))
		}
		rows[i] = StormRow{Users: c.users, Shards: c.shards, M: m, PeakShardQueue: sys.PeakShardQueue()}
	})
	return rows
}
