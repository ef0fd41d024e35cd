package serving

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/perfmodel"
)

// EmbedEngine is the Infinity-style embedding backend (§3.3). Embedding
// vectors are deterministic pseudo-embeddings derived from the input text:
// stable across calls, approximately unit-norm, and with the property that
// texts sharing vocabulary land closer together — enough structure for the
// RAG case study (§6.2) to retrieve meaningfully.
type EmbedEngine struct {
	model perfmodel.ModelSpec
	gpu   perfmodel.GPUSpec
	clk   clock.Clock

	mu    sync.Mutex
	stats Stats
}

// NewEmbedEngine validates that the model is an embedding model.
func NewEmbedEngine(model perfmodel.ModelSpec, gpu perfmodel.GPUSpec, clk clock.Clock) (*EmbedEngine, error) {
	if model.Kind != perfmodel.KindEmbedding {
		return nil, fmt.Errorf("serving: %s is not an embedding model", model.Name)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &EmbedEngine{model: model, gpu: gpu, clk: clk}, nil
}

// Dim returns the embedding dimensionality.
func (e *EmbedEngine) Dim() int { return e.model.EmbedDim }

// Stats returns a snapshot of activity counters.
func (e *EmbedEngine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Embed computes embeddings for the inputs, sleeping out the modeled batch
// cost on the engine's clock.
func (e *EmbedEngine) Embed(ctx context.Context, inputs []string) ([][]float32, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	var totalTok int
	out := make([][]float32, len(inputs))
	for i, text := range inputs {
		tok := approxTokens(text)
		totalTok += tok
		out[i] = PseudoEmbedding(text, e.model.EmbedDim)
	}
	cost := e.model.EmbedTime(totalTok, e.gpu)
	select {
	case <-e.clk.After(cost):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	e.mu.Lock()
	e.stats.Submitted += int64(len(inputs))
	e.stats.Completed += int64(len(inputs))
	e.stats.PrefillTokens += int64(totalTok)
	e.stats.BusyTime += cost
	e.mu.Unlock()
	return out, nil
}

func approxTokens(text string) int {
	n := len(text) / 4
	if n < 1 {
		n = 1
	}
	return n
}

// PseudoEmbedding returns a deterministic unit-norm vector for text. Each
// whitespace-delimited term contributes a hashed random direction, so texts
// with overlapping vocabulary have higher cosine similarity.
func PseudoEmbedding(text string, dim int) []float32 {
	if dim <= 0 {
		dim = 64
	}
	vec := make([]float64, dim)
	start := 0
	addTerm := func(term string) {
		if term == "" {
			return
		}
		h := fnv.New64a()
		h.Write([]byte(term))
		seed := h.Sum64()
		// xorshift over the term hash yields the term's direction.
		x := seed | 1
		for d := 0; d < dim; d++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			vec[d] += float64(int64(x)) / math.MaxInt64 // in [-1,1)
		}
	}
	for i := 0; i <= len(text); i++ {
		if i == len(text) || text[i] == ' ' || text[i] == '\n' || text[i] == '\t' {
			addTerm(text[start:i])
			start = i + 1
		}
	}
	var norm float64
	for _, v := range vec {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	out := make([]float32, dim)
	if norm == 0 {
		out[0] = 1
		return out
	}
	for i, v := range vec {
		out[i] = float32(v / norm)
	}
	return out
}
