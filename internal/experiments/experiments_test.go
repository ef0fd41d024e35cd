package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// gate adapts a typed check to the table's untyped rows.
func gate[R any](check func(t *testing.T, rows R)) func(*testing.T, any) {
	return func(t *testing.T, rows any) { check(t, rows.(R)) }
}

// familyGates holds the checks TestFamilies runs on the rows of every
// family ReportOn("all") renders, keyed by its experimentTable name. For the
// paper's figures and tables they pin the qualitative findings — who wins,
// where crossovers fall, how scaling trends — so calibration drift that
// would break the reproduction fails CI; for the beyond-paper families they
// check that a run exercised what the family claims to.
var familyGates = map[string]func(*testing.T, any){
	"fig3": gate(func(t *testing.T, rows []Fig3Row) {
		if len(rows) != 10 {
			t.Fatalf("rows = %d, want 10 (5 rates × 2 systems)", len(rows))
		}
		at := map[[2]string]Fig3Row{}
		for _, r := range rows {
			at[[2]string{r.Rate, r.System}] = r
		}
		// Low rate: FIRST pays the fabric overhead (9.2 vs 3.0 s in the paper).
		f1, d1 := at[[2]string{"1", "FIRST"}], at[[2]string{"1", "vLLM-Direct"}]
		if f1.M.MedianLatS <= d1.M.MedianLatS+3 {
			t.Errorf("at 1 req/s FIRST median %.1fs should exceed direct %.1fs by several seconds",
				f1.M.MedianLatS, d1.M.MedianLatS)
		}
		if d1.M.MedianLatS < 2.0 || d1.M.MedianLatS > 4.0 {
			t.Errorf("direct median at 1 req/s = %.1fs, want ≈3.0s", d1.M.MedianLatS)
		}
		// Saturation: FIRST sustains materially higher throughput (9.2 vs 5.8).
		fInf, dInf := at[[2]string{"inf", "FIRST"}], at[[2]string{"inf", "vLLM-Direct"}]
		if fInf.M.ReqPerSec < dInf.M.ReqPerSec*1.25 {
			t.Errorf("at ∞ rate FIRST %.2f req/s should beat direct %.2f by ≥25%%",
				fInf.M.ReqPerSec, dInf.M.ReqPerSec)
		}
		if fInf.M.TokPerSec < dInf.M.TokPerSec*1.25 {
			t.Errorf("token throughput: FIRST %.0f vs direct %.0f", fInf.M.TokPerSec, dInf.M.TokPerSec)
		}
		// The direct path's admission cap ≈ 5.8 req/s.
		if dInf.M.ReqPerSec < 4.5 || dInf.M.ReqPerSec > 6.3 {
			t.Errorf("direct saturation = %.2f req/s, want ≈5.8 band", dInf.M.ReqPerSec)
		}
		// And FIRST's saturated median latency drops below direct's.
		if fInf.M.MedianLatS >= dInf.M.MedianLatS {
			t.Errorf("at ∞ rate FIRST median %.1fs should beat direct %.1fs",
				fInf.M.MedianLatS, dInf.M.MedianLatS)
		}
		// The crossover happens by 10 req/s.
		f10, d10 := at[[2]string{"10", "FIRST"}], at[[2]string{"10", "vLLM-Direct"}]
		if f10.M.ReqPerSec <= d10.M.ReqPerSec {
			t.Errorf("at 10 req/s FIRST %.2f should already beat direct %.2f",
				f10.M.ReqPerSec, d10.M.ReqPerSec)
		}
	}),

	"fig4": gate(func(t *testing.T, rows []Fig4Row) {
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].M.ReqPerSec <= rows[i-1].M.ReqPerSec {
				t.Errorf("throughput not increasing at %d instances: %.2f vs %.2f",
					rows[i].Instances, rows[i].M.ReqPerSec, rows[i-1].M.ReqPerSec)
			}
			if rows[i].M.MedianLatS >= rows[i-1].M.MedianLatS {
				t.Errorf("latency not decreasing at %d instances: %.1f vs %.1f",
					rows[i].Instances, rows[i].M.MedianLatS, rows[i-1].M.MedianLatS)
			}
		}
		// Sub-linear scaling with diminishing increments (paper: 1.75/2.52/2.88).
		if s := rows[3].TokScale; s < 2.0 || s >= 3.6 {
			t.Errorf("4-instance scaling %.2f×, want at least 2× and short of linear (3.6×)", s)
		}
		inc2 := rows[1].TokScale - rows[0].TokScale
		inc4 := rows[3].TokScale - rows[2].TokScale
		if inc4 >= inc2 {
			t.Errorf("increments should diminish: +%.2f then +%.2f", inc2, inc4)
		}
		// Within ±25% of the paper's measured req/s series.
		for _, r := range rows {
			if r.PaperReqPS == 0 {
				continue
			}
			ratio := r.M.ReqPerSec / r.PaperReqPS
			if ratio < 0.75 || ratio > 1.25 {
				t.Errorf("%d instances: %.2f req/s vs paper %.2f (ratio %.2f)",
					r.Instances, r.M.ReqPerSec, r.PaperReqPS, ratio)
			}
		}
	}),

	"fig5": gate(func(t *testing.T, rows []Fig5Row) {
		if len(rows) != 2 {
			t.Fatalf("rows = %d", len(rows))
		}
		first, openai := rows[0], rows[1]
		// FIRST: much higher throughput; OpenAI: much lower latency.
		if first.M.ReqPerSec < openai.M.ReqPerSec*2 {
			t.Errorf("FIRST %.1f req/s should be ≥2× OpenAI %.1f", first.M.ReqPerSec, openai.M.ReqPerSec)
		}
		if openai.M.MedianLatS > first.M.MedianLatS/3 {
			t.Errorf("OpenAI median %.1fs should be ≪ FIRST %.1fs", openai.M.MedianLatS, first.M.MedianLatS)
		}
		if openai.M.MedianLatS < 1.5 || openai.M.MedianLatS > 3.0 {
			t.Errorf("OpenAI median = %.1fs, want ≈2.0s", openai.M.MedianLatS)
		}
		if openai.M.ReqPerSec < 5.0 || openai.M.ReqPerSec > 7.5 {
			t.Errorf("OpenAI throughput = %.1f req/s, want ≈6.7 band", openai.M.ReqPerSec)
		}
		if first.M.ReqPerSec < 17 || first.M.ReqPerSec > 28 {
			t.Errorf("FIRST 8B throughput = %.1f req/s, want ≈25 band", first.M.ReqPerSec)
		}
	}),

	"table1": gate(func(t *testing.T, cells []Table1Cell) {
		if len(cells) != 30 {
			t.Fatalf("cells = %d, want 30 (3 models × 5 conc × 2 windows)", len(cells))
		}
		get := func(model string, conc, window int) Table1Cell {
			for _, c := range cells {
				if c.Model == model && c.Concurrency == conc && c.WindowS == window {
					return c
				}
			}
			t.Fatalf("missing cell %s/%d/%d", model, conc, window)
			return Table1Cell{}
		}
		for _, model := range []string{"Llama-3.1-8B", "Gemma-27B", "Llama-3.3-70B"} {
			// Near-linear growth 50 → 500 sessions.
			lo := get(model, 50, 60)
			hi := get(model, 500, 60)
			if hi.ReqPS < lo.ReqPS*2 {
				t.Errorf("%s: req/s grew only %.2f→%.2f from 50→500 sessions", model, lo.ReqPS, hi.ReqPS)
			}
			// Diminishing returns beyond 500.
			top := get(model, 700, 60)
			growthMid := hi.ReqPS / get(model, 300, 60).ReqPS
			growthTop := top.ReqPS / hi.ReqPS
			if growthTop > growthMid*1.3 {
				t.Errorf("%s: no saturation beyond 500 sessions (%.2f vs %.2f)", model, growthTop, growthMid)
			}
			// Shorter runs yield higher (or equal) throughput: the paper's
			// 60s > 120s effect, from sessions' growing chat histories.
			var wins int
			for _, conc := range Table1Concurrencies {
				if get(model, conc, 60).ReqPS >= get(model, conc, 120).ReqPS*0.98 {
					wins++
				}
			}
			if wins < 4 {
				t.Errorf("%s: 60s window beat 120s only %d/5 times", model, wins)
			}
		}
		// The 8B model outperforms the 70B model at equal low concurrency.
		if get("Llama-3.1-8B", 50, 60).TokPS <= get("Llama-3.3-70B", 50, 60).TokPS {
			t.Error("8B should out-generate 70B at 50 sessions")
		}
	}),

	"batch": gate(func(t *testing.T, rows batchRows) {
		b, amort := rows.Result, rows.Amortization
		if b.Requests != 1000 {
			t.Fatalf("requests = %d", b.Requests)
		}
		// ±25% of the paper's 2117 tok/s and 409 s.
		if b.OverallTokPS < 1600 || b.OverallTokPS > 2650 {
			t.Errorf("overall = %.0f tok/s, want 2117±25%%", b.OverallTokPS)
		}
		if b.TotalTimeS < 310 || b.TotalTimeS > 520 {
			t.Errorf("total = %.0fs, want 409±25%%", b.TotalTimeS)
		}
		if len(amort) != 4 {
			t.Fatalf("amortization points = %d", len(amort))
		}
		for i := 1; i < len(amort); i++ {
			if amort[i].OverallTokPS <= amort[i-1].OverallTokPS {
				t.Errorf("amortization not monotone at n=%d", amort[i].Requests)
			}
			if amort[i].LoadShare >= amort[i-1].LoadShare {
				t.Errorf("load share not shrinking at n=%d", amort[i].Requests)
			}
		}
		if amort[0].LoadShare < 0.3 {
			t.Errorf("tiny batch load share = %.2f, should dominate", amort[0].LoadShare)
		}
		if amort[3].LoadShare > 0.05 {
			t.Errorf("10k-request load share = %.2f, should be amortized away", amort[3].LoadShare)
		}
	}),

	"opt1": gate(func(t *testing.T, rows []AblationRow) {
		// Polling on a 2s grid adds ~1s median observation delay.
		if delta := rows[0].M.MedianLatS - rows[1].M.MedianLatS; delta < 0.4 || delta > 2.1 {
			t.Errorf("polling median penalty = %.2fs, want ≈1s", delta)
		}
	}),

	"opt2": gate(func(t *testing.T, rows []AblationRow) {
		before, after := rows[0], rows[1]
		if before.M.MedianLatS < after.M.MedianLatS+2 {
			t.Errorf("uncached introspection penalty too small: %.1f vs %.1f",
				before.M.MedianLatS, after.M.MedianLatS)
		}
		if before.M.ReqPerSec >= after.M.ReqPerSec {
			t.Errorf("rate-limited introspection should cut throughput: %.2f vs %.2f",
				before.M.ReqPerSec, after.M.ReqPerSec)
		}
	}),

	"opt3": gate(func(t *testing.T, rows []AblationRow) {
		sync, async := rows[0], rows[1]
		// Paper: "response throughput rates could be increased by a factor of 20".
		if ratio := async.M.ReqPerSec / sync.M.ReqPerSec; ratio < 10 || ratio > 35 {
			t.Errorf("async/sync throughput ratio = %.1f, want ≈20", ratio)
		}
		// Paper: "over 8000 inference tasks could be queued at Globus".
		if async.HubQueuePeak < 8000 {
			t.Errorf("async fabric backlog = %d, want > 8000", async.HubQueuePeak)
		}
	}),

	// The storm's headline property: at 4× a single lock's admission
	// capacity, the sharded front-end sustains (close to) the offered storm
	// while the single lock caps out, visibly in both throughput and tail
	// latency. And its comparability: the shard arms of one storm size see
	// identical arrivals (the arrival RNG depends only on seed and size).
	"storm": gate(func(t *testing.T, rows []StormRow) {
		if len(rows) != len(StormUserCounts)*len(StormShardCounts) {
			t.Fatalf("%d arms, want %d storm sizes × %d shard counts", len(rows), len(StormUserCounts), len(StormShardCounts))
		}
		byCell := map[[2]int]StormRow{}
		for _, r := range rows {
			byCell[[2]int{r.Users, r.Shards}] = r
			if r.M.Requests != r.Users {
				t.Errorf("users=%d shards=%d: arm saw %d requests", r.Users, r.Shards, r.M.Requests)
			}
		}
		for _, users := range StormUserCounts {
			single, ok1 := byCell[[2]int{users, 1}]
			sharded, ok16 := byCell[[2]int{users, 16}]
			if !ok1 || !ok16 {
				t.Fatalf("users=%d: missing arm (have %v)", users, rows)
			}
			if single.M.Completed != users || sharded.M.Completed != users {
				t.Errorf("users=%d: completions single=%d sharded=%d, want all %d",
					users, single.M.Completed, sharded.M.Completed, users)
			}
			// The single lock admits ~1/CritSection ≈ 250k req/s; the storm
			// offers 1M/s. Sharded must clear at least 3× the single-lock rate.
			if sharded.M.ReqPerSec < 3*single.M.ReqPerSec {
				t.Errorf("users=%d: sharded %.0f req/s vs single-lock %.0f req/s, want ≥ 3×",
					users, sharded.M.ReqPerSec, single.M.ReqPerSec)
			}
			if sharded.M.P99LatS > single.M.P99LatS/10 {
				t.Errorf("users=%d: sharded p99 %.6fs vs single-lock p99 %.6fs, want ≤ 1/10",
					users, sharded.M.P99LatS, single.M.P99LatS)
			}
			if single.PeakShardQueue < 10*sharded.PeakShardQueue {
				t.Errorf("users=%d: peak queue single=%d sharded=%d, want single ≥ 10× sharded",
					users, single.PeakShardQueue, sharded.PeakShardQueue)
			}
		}
	}),

	// Churn at the headline sizes — migration, hard kills, cold restarts
	// beyond the initial ones — and the drain-aware c8 twin paying for its
	// cordons on the identical trace: routing away from incarnations about
	// to drain has to catch fewer in-flight requests in migrations AND leave
	// the caught ones cheaper.
	"federate": gate(func(t *testing.T, rows []FederateRow) {
		gateFederation(t, rows)
		var migrations int64
		var kills, colds int
		twins := map[string]FederateRow{}
		for _, r := range rows {
			if r.Mode == "open" && r.Clusters == 4 && r.Offered != 1_000_000 {
				t.Errorf("headline open-loop cell offered %d requests, want 10⁶", r.Offered)
			}
			if r.Mode == "webui" && r.Offered < 10_000 {
				t.Errorf("WebUI cell issued %d turns, want ≥ the 10⁴ sessions' first turns", r.Offered)
			}
			if r.Clusters == 8 {
				twins[r.Mode] = r
			}
			migrations += r.Migrations
			kills += r.HardKills
			colds += r.ColdStarts
		}
		if migrations == 0 {
			t.Error("no requests migrated between clusters")
		}
		if kills == 0 {
			t.Error("no walltime hard kills")
		}
		if colds <= len(rows) {
			t.Errorf("cold starts = %d; churn should force restarts beyond the initial ones", colds)
		}
		open, ok1 := twins["open"]
		cordon, ok2 := twins["cordon"]
		if !ok1 || !ok2 {
			t.Fatal("the family lost the c8 open/cordon twin pair")
		}
		if cordon.Migrations >= open.Migrations {
			t.Errorf("cordon twin migrated %d requests, not below the drain-blind %d", cordon.Migrations, open.Migrations)
		}
		if cordon.MigratedMedianS >= open.MigratedMedianS {
			t.Errorf("cordon twin migrated-latency median %.2fs not below the drain-blind %.2fs",
				cordon.MigratedMedianS, open.MigratedMedianS)
		}
	}),

	// Elasticity — the scaler fires in BOTH directions (Fig4's
	// grow-and-shrink story), pools deepen past one instance, the cap refuses
	// at least one growth step, demand drives cold starts — and each
	// predictive cell paying for itself against its reactive twin on the
	// identical trace: p99 strictly lower on the trend-forecastable diurnal
	// shape, no worse on the square wave (bursty has no trend for the Holt
	// forecaster to lead), refused-at-cap no worse everywhere.
	"autoscale": gate(func(t *testing.T, rows []FederateRow) {
		gateFederation(t, rows)
		var ups, refused, colds, prewarms int
		reactive := map[string]FederateRow{}
		for _, r := range rows {
			cell := fmt.Sprintf("%s c%d", r.Shape, r.Clusters)
			if r.ScaleUps+r.PreWarms == 0 || r.ScaleDowns == 0 {
				t.Errorf("%s: scaler fired up=%d pre=%d down=%d, want both directions nonzero", cell, r.ScaleUps, r.PreWarms, r.ScaleDowns)
			}
			if r.Predictive && r.PreWarms == 0 {
				t.Errorf("%s: predictive cell never pre-warmed", cell)
			}
			if !r.Predictive && r.PreWarms != 0 {
				t.Errorf("%s: reactive cell recorded %d pre-warms; the predictive path leaked", cell, r.PreWarms)
			}
			if r.PeakInstances <= 1 {
				t.Errorf("%s: peak instances = %d, pools never grew", cell, r.PeakInstances)
			}
			if !r.Predictive {
				reactive[cell] = r
			}
			ups += r.ScaleUps
			refused += r.ScaleRefused
			colds += r.ColdStarts
			prewarms += r.PreWarms
		}
		if refused == 0 {
			t.Error("no scale-up was ever refused at the MaxInstances cap")
		}
		if colds <= ups+prewarms {
			t.Errorf("cold starts = %d ≤ scale-ups %d + pre-warms %d; demand-driven starts missing", colds, ups, prewarms)
		}
		predictive := 0
		for _, p := range rows {
			if !p.Predictive {
				continue
			}
			predictive++
			cell := fmt.Sprintf("%s c%d", p.Shape, p.Clusters)
			r, ok := reactive[cell]
			if !ok {
				t.Errorf("%s: predictive cell has no reactive twin", cell)
				continue
			}
			if p.Shape == "diurnal" && p.M.P99LatS >= r.M.P99LatS {
				t.Errorf("%s: predictive p99 %.2fs not below reactive %.2fs on the same trace", cell, p.M.P99LatS, r.M.P99LatS)
			}
			if p.M.P99LatS > r.M.P99LatS {
				t.Errorf("%s: predictive p99 %.2fs worse than reactive %.2fs on the same trace", cell, p.M.P99LatS, r.M.P99LatS)
			}
			if p.ScaleRefused > r.ScaleRefused {
				t.Errorf("%s: predictive refused-at-cap %d worse than reactive %d", cell, p.ScaleRefused, r.ScaleRefused)
			}
		}
		if predictive == 0 {
			t.Error("the family has no predictive cells")
		}
	}),
}

// gateFederation checks what every federate and autoscale run claims to
// exercise: open-loop traces complete, no request fails, the priority
// ladder fires on every rung, and walltime drains happen.
func gateFederation(t *testing.T, rows []FederateRow) {
	t.Helper()
	var rungs [3]int64
	drains := 0
	for _, r := range rows {
		if r.Mode != "webui" && r.M.Completed != r.Offered {
			t.Errorf("%s %s c%d: completed %d of %d open-loop requests", r.Mode, r.Shape, r.Clusters, r.M.Completed, r.Offered)
		}
		if r.M.Failed != 0 {
			t.Errorf("%s %s c%d: %d failed requests", r.Mode, r.Shape, r.Clusters, r.M.Failed)
		}
		rungs[0] += r.Rungs.Active
		rungs[1] += r.Rungs.Capacity
		rungs[2] += r.Rungs.FirstConf
		drains += r.Drains
	}
	if rungs[0] == 0 || rungs[1] == 0 || rungs[2] == 0 {
		t.Errorf("priority ladder not hit on all rungs: active=%d capacity=%d first-conf=%d", rungs[0], rungs[1], rungs[2])
	}
	if drains == 0 {
		t.Error("no walltime drains")
	}
}

// TestReportRendersAllExperiments checks the unknown-name error offers every
// name the table accepts.
func TestReportRendersAllExperiments(t *testing.T) {
	err := ReportOn(nil, "nonsense", DefaultSeed, Parallel)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range experimentTable {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("unknown-experiment error %q does not offer %q", err, e.name)
		}
	}
}
