package experiments

// Shape guards: these tests pin the qualitative findings of every paper
// figure/table — who wins, where crossovers fall, how scaling trends — so
// calibration drift that would break the reproduction fails CI.

import (
	"strings"
	"testing"
)

func fig3Lookup(rows []Fig3Row, rate, system string) Fig3Row {
	for _, r := range rows {
		if r.Rate == rate && r.System == system {
			return r
		}
	}
	return Fig3Row{}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	rows := RunFig3On(Parallel, DefaultSeed)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 rates × 2 systems)", len(rows))
	}

	// Low rate: FIRST pays the fabric overhead (9.2 vs 3.0 s in the paper).
	f1 := fig3Lookup(rows, "1", "FIRST")
	d1 := fig3Lookup(rows, "1", "vLLM-Direct")
	if f1.M.MedianLatS <= d1.M.MedianLatS+3 {
		t.Errorf("at 1 req/s FIRST median %.1fs should exceed direct %.1fs by several seconds",
			f1.M.MedianLatS, d1.M.MedianLatS)
	}
	if d1.M.MedianLatS < 2.0 || d1.M.MedianLatS > 4.0 {
		t.Errorf("direct median at 1 req/s = %.1fs, want ≈3.0s", d1.M.MedianLatS)
	}

	// Saturation: FIRST sustains materially higher throughput (9.2 vs 5.8).
	fInf := fig3Lookup(rows, "inf", "FIRST")
	dInf := fig3Lookup(rows, "inf", "vLLM-Direct")
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
	f10 := fig3Lookup(rows, "10", "FIRST")
	d10 := fig3Lookup(rows, "10", "vLLM-Direct")
	if f10.M.ReqPerSec <= d10.M.ReqPerSec {
		t.Errorf("at 10 req/s FIRST %.2f should already beat direct %.2f",
			f10.M.ReqPerSec, d10.M.ReqPerSec)
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	rows := RunFig4On(Parallel, DefaultSeed)
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
	if rows[3].TokScale >= 3.6 {
		t.Errorf("4-instance scaling %.2f× too close to linear", rows[3].TokScale)
	}
	if rows[3].TokScale < 2.0 {
		t.Errorf("4-instance scaling %.2f× too weak", rows[3].TokScale)
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
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	rows := RunFig5On(Parallel, DefaultSeed)
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
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	cells := RunTable1On(Parallel, DefaultSeed)
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
}

func TestBatchShape(t *testing.T) {
	b := RunBatch(DefaultSeed)
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
	amort := RunBatchAmortizationOn(Parallel, DefaultSeed)
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
}

func TestOpt1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	rows := RunOpt1PollingOn(Parallel, DefaultSeed)
	before, after := rows[0], rows[1]
	delta := before.M.MedianLatS - after.M.MedianLatS
	// Polling on a 2s grid adds ~1s median observation delay.
	if delta < 0.4 || delta > 2.1 {
		t.Errorf("polling median penalty = %.2fs, want ≈1s", delta)
	}
}

func TestOpt2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	rows := RunOpt2AuthCacheOn(Parallel, DefaultSeed)
	before, after := rows[0], rows[1]
	if before.M.MedianLatS < after.M.MedianLatS+2 {
		t.Errorf("uncached introspection penalty too small: %.1f vs %.1f",
			before.M.MedianLatS, after.M.MedianLatS)
	}
	if before.M.ReqPerSec >= after.M.ReqPerSec {
		t.Errorf("rate-limited introspection should cut throughput: %.2f vs %.2f",
			before.M.ReqPerSec, after.M.ReqPerSec)
	}
}

func TestOpt3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	rows := RunOpt3AsyncGatewayOn(Parallel, DefaultSeed)
	sync, async := rows[0], rows[1]
	ratio := async.M.ReqPerSec / sync.M.ReqPerSec
	// Paper: "response throughput rates could be increased by a factor of 20".
	if ratio < 10 || ratio > 35 {
		t.Errorf("async/sync throughput ratio = %.1f, want ≈20", ratio)
	}
	// Paper: "over 8000 inference tasks could be queued at Globus".
	if async.HubQueuePeak < 8000 {
		t.Errorf("async fabric backlog = %d, want > 8000", async.HubQueuePeak)
	}
}

func TestRoutingAblationConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	rows := RunAblationRoutingOn(Parallel, DefaultSeed)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The documented negative result: continuous batching absorbs dispatch
	// imbalance, so all policies land within 10% of each other.
	base := rows[0].M.ReqPerSec
	for _, r := range rows[1:] {
		ratio := r.M.ReqPerSec / base
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("%s diverges from least-loaded by %.0f%%", r.Policy, (ratio-1)*100)
		}
	}
}

func TestReportRendersAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	var sink discard
	if err := ReportOn(&sink, "batch", DefaultSeed, Parallel); err != nil {
		t.Fatal(err)
	}
	if sink == 0 {
		t.Error("report wrote nothing")
	}
	err := ReportOn(&sink, "nonsense", DefaultSeed, Parallel)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range experimentTable {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("unknown-experiment error %q does not offer %q", err, e.name)
		}
	}
}

type discard int

func (d *discard) Write(p []byte) (int, error) {
	*d += discard(len(p))
	return len(p), nil
}
