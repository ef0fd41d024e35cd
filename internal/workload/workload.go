// Package workload generates the synthetic request traces that substitute
// for the ShareGPT dataset in the paper's benchmarks (§5.2.2): per-request
// prompt/output token lengths drawn from seeded lognormal (optionally
// heavy-tailed) mixtures, plus the arrival processes the benchmark script
// uses (fixed request rates and the "infinite" burst mode).
package workload

import (
	"fmt"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"github.com/argonne-first/first/internal/sim"
)

// Request is one inference request in a trace.
type Request struct {
	ID        int
	ArrivalAt time.Duration // offset from trace start
	PromptTok int
	OutputTok int
	Prompt    string // synthesized text (only when materialized)
}

// LengthSpec describes the token-length marginals of a trace.
type LengthSpec struct {
	// Mean prompt length and coefficient of variation.
	PromptMean float64
	PromptCV   float64
	// Mean output length and coefficient of variation.
	OutputMean float64
	OutputCV   float64
	// HeavyTailP mixes in a Pareto tail for outputs with this probability
	// (0 disables). Used by the WebUI workload to reproduce Table 1's
	// long-run throughput depression (inspection paradox on long outputs).
	HeavyTailP     float64
	HeavyTailShape float64 // Pareto alpha, e.g. 1.5
	// Caps (0 = default).
	MaxPrompt int
	MaxOutput int
}

// ShareGPT mirrors the effective marginals of the paper's 70B benchmark runs
// (mean output ≈ 182 tok/req ⇒ 9.2 req/s × 182 ≈ 1677 tok/s in Fig. 3).
func ShareGPT() LengthSpec {
	return LengthSpec{
		PromptMean: 220, PromptCV: 0.9,
		OutputMean: 182, OutputCV: 0.75,
		MaxPrompt: 2048, MaxOutput: 1024,
	}
}

// ShareGPTShort is the 8B-run variant (Fig. 5: 3283/25.1 ≈ 131 tok/req).
func ShareGPTShort() LengthSpec {
	return LengthSpec{
		PromptMean: 200, PromptCV: 0.9,
		OutputMean: 131, OutputCV: 0.75,
		MaxPrompt: 2048, MaxOutput: 1024,
	}
}

// BatchGen is the batch-mode workload (§5.3.1: 1000 requests, 2117 tok/s,
// 409 s ⇒ ≈866 output tok/req — long-form generation).
func BatchGen() LengthSpec {
	return LengthSpec{
		PromptMean: 300, PromptCV: 0.6,
		OutputMean: 866, OutputCV: 0.45,
		MaxPrompt: 4096, MaxOutput: 4096,
	}
}

// WebUI is the interactive chat workload for Table 1: moderate means with a
// heavy output tail. The tail drives the paper's 60 s-vs-120 s effect: long
// generations accumulate in the running batch over time (inspection
// paradox), so longer measurement windows see lower completion throughput.
func WebUI() LengthSpec {
	return LengthSpec{
		PromptMean: 150, PromptCV: 1.0,
		OutputMean: 140, OutputCV: 0.7,
		HeavyTailP: 0.10, HeavyTailShape: 1.15,
		MaxPrompt: 2048, MaxOutput: 8000,
	}
}

// FederateOpen is the open-loop federation workload: short scientific
// queries (classification, extraction, quick Q&A) sized so a million-request
// trace stays tractable while still exercising continuous batching.
func FederateOpen() LengthSpec {
	return LengthSpec{
		PromptMean: 64, PromptCV: 0.8,
		OutputMean: 32, OutputCV: 0.7,
		MaxPrompt: 512, MaxOutput: 256,
	}
}

func (s LengthSpec) maxPrompt() int {
	if s.MaxPrompt > 0 {
		return s.MaxPrompt
	}
	return 4096
}

func (s LengthSpec) maxOutput() int {
	if s.MaxOutput > 0 {
		return s.MaxOutput
	}
	return 4096
}

// SampleLengths draws one (prompt, output) pair.
func (s LengthSpec) SampleLengths(rng *sim.RNG) (prompt, output int) {
	p := s.PromptMean
	if s.PromptCV > 0 {
		p = rng.LogNormalMeanCV(s.PromptMean, s.PromptCV)
	}
	o := s.OutputMean
	if s.OutputCV > 0 {
		o = rng.LogNormalMeanCV(s.OutputMean, s.OutputCV)
	}
	if s.HeavyTailP > 0 && rng.Bernoulli(s.HeavyTailP) {
		o = rng.Pareto(s.OutputMean*2, s.HeavyTailShape)
	}
	prompt = clampInt(int(p+0.5), 1, s.maxPrompt())
	output = clampInt(int(o+0.5), 1, s.maxOutput())
	return prompt, output
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Arrival describes the arrival process of a trace.
type Arrival struct {
	// RatePerSec > 0: Poisson arrivals at that rate.
	// RatePerSec <= 0: "infinite" rate — all requests arrive at t=0
	// (the vLLM benchmark script's burst mode, §5.2.2).
	RatePerSec float64
	// Deterministic uses fixed inter-arrival gaps instead of Poisson.
	Deterministic bool
}

// Infinite is the burst arrival process.
func Infinite() Arrival { return Arrival{RatePerSec: 0} }

// Poisson returns a Poisson arrival process at rate r req/s.
func Poisson(r float64) Arrival { return Arrival{RatePerSec: r} }

// Generate produces a trace of n requests with the given lengths and
// arrivals, deterministic for a given seed.
func Generate(n int, lengths LengthSpec, arrival Arrival, seed int64) []Request {
	rng := sim.NewRNG(seed)
	reqs := make([]Request, n)
	var t float64
	for i := 0; i < n; i++ {
		p, o := lengths.SampleLengths(rng)
		reqs[i] = Request{ID: i, PromptTok: p, OutputTok: o}
		if arrival.RatePerSec > 0 {
			gap := 1.0 / arrival.RatePerSec
			if !arrival.Deterministic {
				gap = rng.Exp(gap)
			}
			t += gap
			reqs[i].ArrivalAt = time.Duration(t * float64(time.Second))
		}
	}
	return reqs
}

// Materialize fills in synthetic prompt text sized to each request's token
// count (≈1 word per token) so the live HTTP path carries realistic bodies.
func Materialize(reqs []Request, topicSeed int64) {
	rng := sim.NewRNG(topicSeed)
	for i := range reqs {
		reqs[i].Prompt = SyntheticPrompt(rng, reqs[i].PromptTok)
	}
}

var topicWords = []string{
	"genomic", "sequence", "variant", "climate", "ensemble", "particle",
	"collision", "detector", "simulation", "lattice", "tokamak", "plasma",
	"protein", "folding", "catalyst", "neutrino", "telescope", "spectra",
	"reactor", "turbulence", "mesh", "solver", "gradient", "tensor",
}

// SyntheticPrompt builds a deterministic pseudo-scientific prompt of roughly
// n tokens.
func SyntheticPrompt(rng *sim.RNG, n int) string {
	if n < 1 {
		n = 1
	}
	var b strings.Builder
	b.Grow(n * 8)
	b.WriteString("Explain the following observations:")
	for i := 0; i < n-4; i++ {
		b.WriteByte(' ')
		b.WriteString(topicWords[rng.Intn(len(topicWords))])
	}
	return b.String()
}

// Stats summarizes a trace for logging and test assertions.
type Stats struct {
	N           int
	MeanPrompt  float64
	MeanOutput  float64
	TotalOutput int
	MaxOutput   int
}

// Summarize computes trace statistics.
func Summarize(reqs []Request) Stats {
	st := Stats{N: len(reqs)}
	if st.N == 0 {
		return st
	}
	var sp, so int
	for _, r := range reqs {
		sp += r.PromptTok
		so += r.OutputTok
		if r.OutputTok > st.MaxOutput {
			st.MaxOutput = r.OutputTok
		}
	}
	st.MeanPrompt = float64(sp) / float64(st.N)
	st.MeanOutput = float64(so) / float64(st.N)
	st.TotalOutput = so
	return st
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d mean_prompt=%.1f mean_output=%.1f total_output=%d",
		s.N, s.MeanPrompt, s.MeanOutput, s.TotalOutput)
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts; every byte from utf8.RuneSelf up starts or continues a
// multi-byte sequence and needs the rune loop.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// EstimateTokens approximates the token count of a text the way the gateway
// does for logging and rate accounting (≈1 token per whitespace-separated
// word plus punctuation slack). It equals len(strings.Fields(text)) — same
// unicode.IsSpace rule, non-empty text of only spaces counting 1 — but counts
// the fields in place instead of building the slice. It walks bytes against
// asciiSpace and decodes runes only from the first byte of a multi-byte
// sequence on.
//
//first:hotpath pinned by TestEstimateTokensMatchesFields (workload_test.go)
func EstimateTokens(text string) int {
	if text == "" {
		return 0
	}
	n, inField := 0, false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			n = countFields(text[i:], n, inField)
			break
		}
		if asciiSpace[c] {
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

// countFields adds to n the fields that begin in s, which continues a text
// whose last rune before s was inside a field when inField is set.
func countFields(s string, n int, inField bool) int {
	for _, r := range s {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
	}
	return n
}

// NextField returns the bounds of the first word of s at or after byte i,
// where, as in strings.Fields, runs of unicode.IsSpace separate words;
// start == end == len(s) when none is left. Like EstimateTokens it walks
// bytes until the first of a multi-byte sequence, then runes.
func NextField(s string, i int) (start, end int) {
	start = -1
	for j := i; j < len(s); j++ {
		c := s[j]
		if c >= utf8.RuneSelf {
			return nextFieldRunes(s, j, start)
		}
		switch space := asciiSpace[c]; {
		case start < 0 && !space:
			start = j
		case start >= 0 && space:
			return start, j
		}
	}
	if start < 0 {
		return len(s), len(s)
	}
	return start, len(s)
}

// nextFieldRunes is NextField's rune loop from byte i on, start being the
// word's first byte when one has begun before i and -1 otherwise.
func nextFieldRunes(s string, i, start int) (int, int) {
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
