package experiments

import (
	"fmt"
	"io"
	"strings"
)

// experiment is one row of the report: the name -exp selects it by and the
// function that runs it on a fleet and renders it.
type experiment struct {
	name  string
	run   func(w io.Writer, f Fleet, seed int64)
	inAll bool
}

// experimentTable lists every experiment in report order; ReportOn, its
// error string and first-bench's -exp usage all derive from it.
var experimentTable = []experiment{
	{"fig3", func(w io.Writer, f Fleet, seed int64) { ReportFig3(w, RunFig3On(f, seed)) }, true},
	{"fig4", func(w io.Writer, f Fleet, seed int64) { ReportFig4(w, RunFig4On(f, seed)) }, true},
	{"fig5", func(w io.Writer, f Fleet, seed int64) { ReportFig5(w, RunFig5On(f, seed)) }, true},
	{"table1", func(w io.Writer, f Fleet, seed int64) { ReportTable1(w, RunTable1On(f, seed)) }, true},
	{"batch", func(w io.Writer, f Fleet, seed int64) {
		ReportBatch(w, RunBatch(seed), RunBatchAmortizationOn(f, seed))
	}, true},
	{"opt1", func(w io.Writer, f Fleet, seed int64) {
		ReportAblation(w, "Optimization 1: result polling vs futures", RunOpt1PollingOn(f, seed), false)
	}, true},
	{"opt2", func(w io.Writer, f Fleet, seed int64) {
		ReportAblation(w, "Optimization 2: per-request introspection vs token cache", RunOpt2AuthCacheOn(f, seed), false)
	}, true},
	{"opt3", func(w io.Writer, f Fleet, seed int64) {
		ReportAblation(w, "Optimization 3: sync (9 workers) vs async gateway — Artillery 100 req/s × 300 s", RunOpt3AsyncGatewayOn(f, seed), true)
	}, true},
	{"routing", func(w io.Writer, f Fleet, seed int64) { ReportRouting(w, RunAblationRoutingOn(f, seed)) }, true},
	{"storm", func(w io.Writer, f Fleet, seed int64) { ReportStorm(w, RunStormOn(f, seed)) }, true},
	{"federate", func(w io.Writer, f Fleet, seed int64) { ReportFederate(w, RunFederateOn(f, seed)) }, true},
	{"autoscale", func(w io.Writer, f Fleet, seed int64) { ReportAutoScale(w, RunAutoScaleOn(f, seed)) }, true},
	// livefed is explicit-only: its live cells run on the scaled wall
	// clock, so the latency columns are not byte-identical across runs and
	// would break the rendered-report determinism suites that pin "all".
	{"livefed", func(w io.Writer, f Fleet, seed int64) { ReportLiveFed(w, RunLiveFedOn(f, seed)) }, false},
}

// ExperimentNames returns every value ReportOn accepts, "|"-separated in
// report order with "all" last: the -exp usage string.
func ExperimentNames() string {
	names := make([]string, 0, len(experimentTable)+1)
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), "|")
}

// ReportOn renders the experiment named which ("all" or "": every one but
// livefed) to w in the paper's row/series layout with paper-vs-measured
// columns; cmd/first-bench drives it. Workers=1 reproduces the sequential
// reference run byte for byte.
func ReportOn(w io.Writer, which string, seed int64, f Fleet) error {
	if which == "" || which == "all" {
		for _, e := range experimentTable {
			if e.inAll {
				e.run(w, f, seed)
			}
		}
		return nil
	}
	for _, e := range experimentTable {
		if e.name == which {
			e.run(w, f, seed)
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q (want %s)", which, ExperimentNames())
}

// ReportLiveFed prints the live-stack chaos family and its sim-vs-real
// calibration table: outcome census under the seeded fault storm, then the
// live routing-rung shares, tail latency, and failover pressure next to
// the DES twin's.
func ReportLiveFed(w io.Writer, rows []LiveFedRow) {
	fmt.Fprintln(w, "== Live federation under fire: seeded chaos through the real stack, calibrated against the DES ==")
	fmt.Fprintln(w, "clus  reqs   ok    failover-ok  shed  typed-err  untyped  retry-amp  trips  rechecks")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %6d %6d %10d %6d %9d %8d  %8.2f  %5d  %8d\n",
			r.Clusters, r.Requests, r.OK, r.FailoverOK, r.Shed, r.TypedErr, r.Untyped,
			r.RetryAmp, r.Trips, r.AuthRechecks)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "calibration (live vs DES twin replaying the executed schedule):")
	fmt.Fprintf(w, "clus  rung a/c/f live%%            rung a/c/f sim%%             p99 live/sim(s)   failover-per-req live/sim   gap(pts)  ratio  gate(±%.0fpts, %.0fx)\n",
		CalibRungTolerancePts, CalibRateRatioMax)
	for _, r := range rows {
		la, lc, lf := rungShares(r.RungActive, r.RungCapacity, r.RungFirstConf)
		sa, sc, sf := rungShares(r.Sim.Rungs.Active, r.Sim.Rungs.Capacity, r.Sim.Rungs.FirstConf)
		cal := r.Calibrate()
		verdict := "PASS"
		if !cal.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-4d  %5.1f/%5.1f/%5.1f           %5.1f/%5.1f/%5.1f            %6.2f/%6.2f     %8.4f/%8.4f      %7.2f  %5.2f  %s\n",
			r.Clusters, la, lc, lf, sa, sc, sf, r.P99S, r.Sim.M.P99LatS,
			cal.LiveFailoverPerReq, cal.SimMigrationsPerReq,
			cal.RungGapPts, cal.RateRatio, verdict)
		for _, v := range cal.Violations {
			fmt.Fprintf(w, "      !! %s\n", v)
		}
	}
	fmt.Fprintln(w)
}

// rungShares converts rung counts to percentages.
func rungShares(a, c, f int64) (float64, float64, float64) {
	total := a + c + f
	if total == 0 {
		return 0, 0, 0
	}
	return 100 * float64(a) / float64(total), 100 * float64(c) / float64(total), 100 * float64(f) / float64(total)
}

// ReportAutoScale prints the Fig4-style elastic-deployment family: shifting
// demand growing and shrinking per-cluster instance pools through the real
// scheduler cold-start and drain paths.
func ReportAutoScale(w io.Writer, rows []AutoScaleRow) {
	fmt.Fprintln(w, "== Auto-scaling: elastic instance pools inside federated clusters (Fig4 beyond paper size) ==")
	fmt.Fprintln(w, "shape       clus  offered   done     req/s  med-lat(s)  p99(s)  up/pre/down/refuse  peak-inst  cold/drain/kill  migr    util mean/max%")
	for _, r := range rows {
		shape := r.Shape
		if r.Predictive {
			shape += "+pred"
		}
		fmt.Fprintf(w, "%-11s %-4d %8d %8d %8.1f  %9.2f %7.2f  %4d/%3d/%4d/%5d  %9d  %4d/%4d/%3d %8d    %5.1f/%5.1f\n",
			shape, r.Clusters, r.Offered, r.M.Completed, r.M.ReqPerSec, r.M.MedianLatS, r.M.P99LatS,
			r.ScaleUps, r.PreWarms, r.ScaleDowns, r.ScaleRefused, r.PeakInstances,
			r.ColdStarts, r.Drains, r.HardKills, r.Migrations,
			r.UtilMeanPct, r.UtilMaxPct)
	}
	fmt.Fprintln(w)
}

// ReportFederate prints the federation-at-scale family: open-loop traces and
// closed-loop WebUI sessions routed by the real priority ladder across 2-8
// churning clusters.
func ReportFederate(w io.Writer, rows []FederateRow) {
	fmt.Fprintln(w, "== Federation at scale: priority routing across churning clusters (§4.5 beyond paper size) ==")
	fmt.Fprintln(w, "mode   clus  offered   done     req/s  med-lat(s)  p99(s)  rung a/c/f              migr  migr-med(s)  cold/drain/kill  util mean/max%  sq-peak")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-4d %8d %8d %8.1f  %9.2f %7.2f  %8d/%7d/%5d %7d  %10.2f  %4d/%4d/%3d   %5.1f/%5.1f     %5d\n",
			r.Mode, r.Clusters, r.Offered, r.M.Completed, r.M.ReqPerSec, r.M.MedianLatS, r.M.P99LatS,
			r.Rungs.Active, r.Rungs.Capacity, r.Rungs.FirstConf,
			r.Migrations, r.MigratedMedianS,
			r.ColdStarts, r.Drains, r.HardKills,
			r.UtilMeanPct, r.UtilMaxPct, r.SchedQueuedPeak)
	}
	fmt.Fprintln(w)
}

// ReportStorm prints the arrival-storm study: front-end admission under a
// flood of distinct one-shot users, single lock vs sharded.
func ReportStorm(w io.Writer, rows []StormRow) {
	fmt.Fprintf(w, "== Arrival storm: gateway front-end admission, %.0g req/s offered, sharded vs single lock ==\n", StormRatePerSec)
	fmt.Fprintln(w, "users     shards  adm-req/s   med-lat(us)   p99-lat(us)  peak-shard-queue")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9d %-6d %10.0f  %11.1f  %11.1f  %12d\n",
			r.Users, r.Shards, r.M.ReqPerSec, r.M.MedianLatS*1e6, r.M.P99LatS*1e6, r.PeakShardQueue)
	}
	fmt.Fprintln(w)
}

// ReportRouting prints the routing-policy ablation.
func ReportRouting(w io.Writer, rows []RoutingRow) {
	fmt.Fprintln(w, "== Design ablation: instance routing policy (4×70B, heavy-tailed load) ==")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s req/s=%6.2f tok/s=%7.0f med-lat=%6.2fs p99=%7.2fs\n",
			r.Policy, r.M.ReqPerSec, r.M.TokPerSec, r.M.MedianLatS, r.M.P99LatS)
	}
	fmt.Fprintln(w)
}

func pv(measured, paper float64) string {
	if paper == 0 {
		return fmt.Sprintf("%8.1f        —", measured)
	}
	return fmt.Sprintf("%8.1f %8.1f", measured, paper)
}

// ReportFig3 prints Figure 3's four panels as a table.
func ReportFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintln(w, "== Figure 3: FIRST vs vLLM-Direct, Llama-3.3-70B, 1000 reqs, rate sweep ==")
	fmt.Fprintln(w, "rate  system        req/s  (paper)    tok/s  (paper)   med-lat(s) (paper)  duration(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %-12s %s  %s  %s  %10.1f\n",
			r.Rate, r.System,
			pv(r.M.ReqPerSec, r.PaperReqPS),
			pv(r.M.TokPerSec, r.PaperTokPS),
			pv(r.M.MedianLatS, r.PaperMedianS),
			r.M.DurationS)
	}
	fmt.Fprintln(w)
}

// ReportFig4 prints the auto-scaling figure.
func ReportFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "== Figure 4: auto-scaling, Llama-3.3-70B, infinite rate, 1..4 instances ==")
	fmt.Fprintln(w, "inst  req/s  (paper)    tok/s  (paper)   scale (paper)   med-lat(s) (paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %s  %s  %5.2f  %5.2f  %s\n",
			r.Instances,
			pv(r.M.ReqPerSec, r.PaperReqPS),
			pv(r.M.TokPerSec, r.PaperTokPS),
			r.TokScale, r.PaperScale,
			pv(r.M.MedianLatS, r.PaperMedianS))
	}
	fmt.Fprintln(w)
}

// ReportFig5 prints the OpenAI comparison.
func ReportFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "== Figure 5: FIRST (Llama-3.1-8B) vs OpenAI API (GPT-4o-mini) ==")
	fmt.Fprintln(w, "system                      req/s  (paper)    tok/s  (paper)   med-lat(s) (paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %s  %s  %s\n",
			r.System,
			pv(r.M.ReqPerSec, r.PaperReqPS),
			pv(r.M.TokPerSec, r.PaperTokPS),
			pv(r.M.MedianLatS, r.PaperMedianS))
	}
	fmt.Fprintln(w)
}

// ReportTable1 prints the WebUI concurrency table in the paper's layout.
func ReportTable1(w io.Writer, cells []Table1Cell) {
	fmt.Fprintln(w, "== Table 1: WebUI benchmark per model (TP=tok/s, Req=req/s; paper in parens) ==")
	fmt.Fprintln(w, "model           conc   60s TP/s (paper)   60s Req/s (paper)  120s TP/s (paper)  120s Req/s (paper)")
	type key struct {
		model string
		conc  int
	}
	byKey := make(map[key]map[int]Table1Cell)
	var order []key
	for _, c := range cells {
		k := key{c.Model, c.Concurrency}
		if byKey[k] == nil {
			byKey[k] = make(map[int]Table1Cell)
			order = append(order, k)
		}
		byKey[k][c.WindowS] = c
	}
	for _, k := range order {
		c60, c120 := byKey[k][60], byKey[k][120]
		fmt.Fprintf(w, "%-15s %4d  %8.1f (%7.1f)  %8.2f (%6.2f)  %8.1f (%7.1f)  %8.2f (%6.2f)\n",
			k.model, k.conc,
			c60.TokPS, c60.PaperTokPS, c60.ReqPS, c60.PaperReqPS,
			c120.TokPS, c120.PaperTokPS, c120.ReqPS, c120.PaperReqPS)
	}
	fmt.Fprintln(w)
}

// ReportBatch prints the batch-mode result and the amortization sweep.
func ReportBatch(w io.Writer, b BatchResult, amort []AmortizationPoint) {
	fmt.Fprintln(w, "== §5.3.1 Batch mode: Llama-3.3-70B, 1000 long-form requests, dedicated job ==")
	fmt.Fprintf(w, "requests=%d output_tokens=%d load=%.0fs total=%.0fs (paper 409s)\n",
		b.Requests, b.OutputTokens, b.LoadTimeS, b.TotalTimeS)
	fmt.Fprintf(w, "overall throughput %.0f tok/s (paper %.0f), generation-only %.0f tok/s\n",
		b.OverallTokPS, b.PaperTokPS, b.GenerateTokPS)
	fmt.Fprintln(w, "cold-start amortization:")
	for _, p := range amort {
		fmt.Fprintf(w, "  n=%-6d overall=%7.0f tok/s  load-share=%4.1f%%\n", p.Requests, p.OverallTokPS, p.LoadShare*100)
	}
	fmt.Fprintln(w)
}

// ReportAblation prints a before/after optimization comparison.
func ReportAblation(w io.Writer, title string, rows []AblationRow, hubQueue bool) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "%-42s req/s=%6.2f tok/s=%7.0f med-lat=%6.2fs p99=%7.2fs completed=%d",
			r.Config, r.M.ReqPerSec, r.M.TokPerSec, r.M.MedianLatS, r.M.P99LatS, r.M.Completed)
		if hubQueue {
			fmt.Fprintf(w, " queued-at-fabric=%d", r.HubQueuePeak)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
