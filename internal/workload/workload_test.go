package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode"

	"github.com/argonne-first/first/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, ShareGPT(), Poisson(5), 42)
	b := Generate(100, ShareGPT(), Poisson(5), 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Generate(100, ShareGPT(), Poisson(5), 43)
	same := true
	for i := range a {
		if a[i].PromptTok != c[i].PromptTok {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestShareGPTMarginals(t *testing.T) {
	trace := Generate(20000, ShareGPT(), Infinite(), 1)
	st := Summarize(trace)
	// Calibration: mean output ≈182 (Fig. 3: 1677 tok/s at 9.2 req/s).
	if math.Abs(st.MeanOutput-182) > 12 {
		t.Errorf("mean output = %.1f, want ≈182", st.MeanOutput)
	}
	if math.Abs(st.MeanPrompt-220) > 15 {
		t.Errorf("mean prompt = %.1f, want ≈220", st.MeanPrompt)
	}
}

func TestShareGPTShortMarginals(t *testing.T) {
	st := Summarize(Generate(20000, ShareGPTShort(), Infinite(), 2))
	if math.Abs(st.MeanOutput-131) > 10 {
		t.Errorf("mean output = %.1f, want ≈131 (Fig. 5)", st.MeanOutput)
	}
}

func TestBatchGenMarginals(t *testing.T) {
	st := Summarize(Generate(10000, BatchGen(), Infinite(), 3))
	if math.Abs(st.MeanOutput-866) > 60 {
		t.Errorf("mean output = %.1f, want ≈866 (§5.3.1 batch)", st.MeanOutput)
	}
}

func TestWebUIHeavyTail(t *testing.T) {
	webui := Summarize(Generate(20000, WebUI(), Infinite(), 4))
	sharegpt := Summarize(Generate(20000, ShareGPT(), Infinite(), 4))
	if webui.MaxOutput <= sharegpt.MaxOutput {
		t.Errorf("WebUI tail (max %d) should exceed ShareGPT (max %d)",
			webui.MaxOutput, sharegpt.MaxOutput)
	}
	if webui.MaxOutput < 3000 {
		t.Errorf("WebUI max output = %d, expected heavy tail past 3000", webui.MaxOutput)
	}
}

func TestLengthsAlwaysPositiveAndCapped(t *testing.T) {
	specs := []LengthSpec{ShareGPT(), ShareGPTShort(), BatchGen(), WebUI()}
	err := quick.Check(func(seed int64, which uint8) bool {
		spec := specs[int(which)%len(specs)]
		rng := sim.NewRNG(seed)
		for i := 0; i < 50; i++ {
			p, o := spec.SampleLengths(rng)
			if p < 1 || o < 1 || p > spec.maxPrompt() || o > spec.maxOutput() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestPoissonArrivalsMonotoneAndRated(t *testing.T) {
	trace := Generate(5000, ShareGPT(), Poisson(10), 5)
	var prev time.Duration
	for _, r := range trace {
		if r.ArrivalAt < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = r.ArrivalAt
	}
	// 5000 arrivals at 10/s should span ≈500s.
	span := trace[len(trace)-1].ArrivalAt.Seconds()
	if span < 430 || span > 570 {
		t.Errorf("span = %.1fs, want ≈500s", span)
	}
}

func TestDeterministicArrivalGaps(t *testing.T) {
	trace := Generate(10, ShareGPT(), Arrival{RatePerSec: 2, Deterministic: true}, 6)
	for i := 1; i < len(trace); i++ {
		gap := trace[i].ArrivalAt - trace[i-1].ArrivalAt
		if gap != 500*time.Millisecond {
			t.Fatalf("gap %d = %v, want 500ms", i, gap)
		}
	}
}

func TestInfiniteArrivalsAllAtZero(t *testing.T) {
	trace := Generate(100, ShareGPT(), Infinite(), 7)
	for _, r := range trace {
		if r.ArrivalAt != 0 {
			t.Fatalf("infinite-rate arrival at %v", r.ArrivalAt)
		}
	}
}

func TestMaterializeAndEstimateTokens(t *testing.T) {
	trace := Generate(20, ShareGPT(), Infinite(), 8)
	Materialize(trace, 9)
	for _, r := range trace {
		if r.Prompt == "" {
			t.Fatal("prompt not materialized")
		}
		est := EstimateTokens(r.Prompt)
		if est < r.PromptTok/2 || est > r.PromptTok*2 {
			t.Errorf("estimate %d far from target %d", est, r.PromptTok)
		}
	}
}

func TestEstimateTokensEdgeCases(t *testing.T) {
	if EstimateTokens("") != 0 {
		t.Error("empty text should be 0 tokens")
	}
	if EstimateTokens("   ") != 1 {
		t.Error("whitespace-only should clamp to 1")
	}
	if EstimateTokens("one two three") != 3 {
		t.Error("word counting broken")
	}
}

// TestEstimateTokensMatchesFields holds the in-place count equal to the
// len(strings.Fields(s)) it replaced (the 0 → 1 clamp for non-empty text
// included) over the inputs where a hand-rolled scanner and strings.Fields
// could part ways — ASCII and Unicode spaces, U+0085 and U+00A0 (spaces whose
// UTF-8 forms share a lead byte with letters), invalid UTF-8 — over seeded
// random mixes of those, and over the prompts the benchmarks send; and pins
// it at zero allocations, which is the point of not calling Fields.
func TestEstimateTokensMatchesFields(t *testing.T) {
	want := func(s string) int {
		if n := len(strings.Fields(s)); n > 0 || s == "" {
			return n
		}
		return 1
	}
	pieces := []string{
		"a", "word", "x,y", " ", "  ", "\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2003", "\u3000",
		"é", "日本語", "\u200b", "\xff", "\xc2", "\xe2\x80", "\x85", "\xa0", "\xc2\x85x", "\x00",
	}
	cases := append([]string{"", "one two three", " lead", "trail ", "a\u00a0b", "a\xc2", "\xc2\xa0"}, pieces...)
	rng := sim.NewRNG(18)
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for j := rng.Intn(12); j > 0; j-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		cases = append(cases, b.String())
	}
	for i := 0; i < 50; i++ {
		cases = append(cases, SyntheticPrompt(rng, rng.Intn(200)))
	}
	for _, s := range cases {
		if got := EstimateTokens(s); got != want(s) {
			t.Errorf("EstimateTokens(%q) = %d, strings.Fields counts %d", s, got, want(s))
		}
	}

	prompt := SyntheticPrompt(rng, 64) + "\u3000tail\xff"
	if got := testing.AllocsPerRun(100, func() {
		if EstimateTokens(prompt) == 0 {
			t.Fatal("no tokens in a prompt")
		}
	}); got != 0 {
		t.Errorf("EstimateTokens allocates %.1f/op, want 0", got)
	}
}

func TestSyntheticPromptLength(t *testing.T) {
	rng := sim.NewRNG(10)
	p := SyntheticPrompt(rng, 100)
	if got := EstimateTokens(p); got < 90 || got > 110 {
		t.Errorf("synthetic prompt tokens = %d, want ≈100", got)
	}
	if SyntheticPrompt(rng, 0) == "" {
		t.Error("n<1 should still produce text")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.N != 0 || st.MeanOutput != 0 {
		t.Errorf("empty summary = %+v", st)
	}
	if st.String() == "" {
		t.Error("String() should render")
	}
}

// runeEstimateTokens and runeNextField are EstimateTokens and NextField as
// they were before their ASCII fast paths: one rune loop each. They are the
// oracles the current ones must match.
func runeEstimateTokens(text string) int {
	if text == "" {
		return 0
	}
	n, inField := 0, false
	for _, r := range text {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

func runeNextField(s string, i int) (start, end int) {
	start = -1
	for j, r := range s[i:] {
		switch space := unicode.IsSpace(r); {
		case start < 0 && !space:
			start = i + j
		case start >= 0 && space:
			return start, i + j
		}
	}
	if start < 0 {
		return len(s), len(s)
	}
	return start, len(s)
}

// fieldSeeds switch from bytes to runes at every place they can: a
// multi-byte rune first, last, inside a word, right after one, as a space
// (NEL, NBSP, ideographic space) and cut short or invalid.
var fieldSeeds = []string{
	"", " ", "one two three", "  lead and trail  ", "tab\tsep\nnl\v\f\r",
	"é", "café au lait", "a b", "a\u0085b", "word　word", "x\xff y",
	"ascii then \xc2", "\xc2\xa0lead", "end é", "日本語 text", "\x00 \x7f",
}

func FuzzEstimateTokens(f *testing.F) {
	for _, s := range fieldSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := EstimateTokens(s), runeEstimateTokens(s); got != want {
			t.Fatalf("EstimateTokens(%q) = %d, the rune loop counts %d", s, got, want)
		}
	})
}

func FuzzNextField(f *testing.F) {
	for i, s := range fieldSeeds {
		f.Add(s, i%5)
	}
	f.Fuzz(func(t *testing.T, s string, i int) {
		if i %= len(s) + 1; i < 0 { // any byte offset, mid-rune ones included
			i += len(s) + 1
		}
		gs, ge := NextField(s, i)
		ws, we := runeNextField(s, i)
		if gs != ws || ge != we {
			t.Fatalf("NextField(%q, %d) = %d, %d; the rune loop finds %d, %d", s, i, gs, ge, ws, we)
		}
	})
}
