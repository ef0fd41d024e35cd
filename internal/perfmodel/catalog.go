package perfmodel

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The model catalog mirrors §4.2 of the paper: Qwen2.5 (7/14/32B),
// Meta-Llama 3/3.1/3.3 (8/70/405B), Mistral/Mixtral, the AuroraGPT suite,
// vision models, and NV-Embed-v2 for embeddings. Cost-model constants are
// calibrated to the targets in the package comment (perfmodel.go; their
// provenance is ROADMAP.md item 17); models not used in the evaluation carry
// size-scaled estimates.

func chatModel(name string, paramsB float64, tp int, base, slope, prefillUS float64, maxBatch int) ModelSpec {
	return ModelSpec{
		Name:           name,
		Kind:           KindChat,
		ParamsB:        paramsB,
		TensorParallel: tp,
		WeightsGB:      paramsB * 2.0, // fp16/bf16
		KVBytesPerTok:  kvBytes(paramsB),
		DecodeBase:     time.Duration(base * float64(time.Millisecond)),
		DecodeSlope:    time.Duration(slope * float64(time.Microsecond)),
		PrefillPerTok:  time.Duration(prefillUS * float64(time.Microsecond)),
		MaxBatch:       maxBatch,
	}
}

// kvBytes approximates fp16 GQA KV bytes per token per sequence by size
// class (80 layers × 8 kv-heads × 128 dim × 2 × 2B ≈ 0.33 MB for 70B).
func kvBytes(paramsB float64) float64 {
	switch {
	case paramsB >= 200:
		return 800e3
	case paramsB >= 60:
		return 330e3
	case paramsB >= 20:
		return 200e3
	default:
		return 70e3
	}
}

// Catalog models. The evaluation models are calibrated tightly. At steady
// state the engine admits completed sequences' replacements every
// iteration, so the effective iteration cost is
//
//	t_eff(B) = base + slope·B + (B/out_len)·prompt_len·prefill
//
// For Llama-3.3-70B (TP=8) with the ShareGPT marginals (prompt≈220,
// out≈182): t(1) ≈ 15 ms/tok ⇒ a 182-token completion ≈ 2.95 s (Fig. 3's
// direct point at 1 req/s), and t_eff(256) ≈ 152.7 ms ⇒ ≈1677 output tok/s
// saturated (Fig. 3's FIRST peak). Llama-3.1-8B (TP=4) saturates at
// ≈3283 tok/s (Fig. 5). Gemma-27B sits between them (Table 1).
var builtin = []ModelSpec{
	chatModel("meta-llama/Llama-3.3-70B-Instruct", 70, 8, 14.5, 479, 50, 256),
	chatModel("meta-llama/Meta-Llama-3.1-8B-Instruct", 8, 4, 6.0, 251, 20, 256),
	chatModel("meta-llama/Meta-Llama-3.1-70B-Instruct", 70, 8, 14.5, 479, 50, 256),
	chatModel("meta-llama/Meta-Llama-3.1-405B-Instruct", 405, 32, 38.0, 1900, 200, 128),
	chatModel("google/gemma-2-27b-it", 27, 4, 10.0, 350, 30, 256),
	chatModel("Qwen/Qwen2.5-7B-Instruct", 7, 1, 9.0, 280, 25, 256),
	chatModel("Qwen/Qwen2.5-14B-Instruct", 14, 2, 10.0, 320, 30, 256),
	chatModel("Qwen/Qwen2.5-32B-Instruct", 32, 4, 11.0, 400, 35, 256),
	chatModel("mistralai/Mistral-7B-Instruct-v0.3", 7, 1, 9.0, 280, 25, 256),
	chatModel("mistralai/Mixtral-8x22B-Instruct-v0.1", 141, 8, 17.0, 600, 80, 192),
	chatModel("argonne/AuroraGPT-7B", 7, 1, 9.0, 280, 25, 256),
	chatModel("argonne/AuroraGPT-IT-v4-0125", 7, 1, 9.0, 280, 25, 256),
	chatModel("argonne/AuroraGPT-Tulu3-SFT-0125", 8, 1, 9.2, 285, 26, 256),
	visionModel("Qwen/Qwen2-VL-72B-Instruct", 72, 8),
	visionModel("meta-llama/Llama-3.2-90B-Vision-Instruct", 90, 8),
	{
		Name:           "nvidia/NV-Embed-v2",
		Kind:           KindEmbedding,
		ParamsB:        7.85,
		TensorParallel: 1,
		WeightsGB:      16,
		EmbedPerTok:    45 * time.Microsecond,
		EmbedDim:       4096,
		MaxBatch:       64,
		DecodeBase:     time.Millisecond,
		DecodeSlope:    time.Microsecond,
	},
	// GPT-4o-mini stands in for Fig. 5's external comparator; its spec only
	// matters to the external-API latency model, estimated ~8B class.
	chatModel("openai/gpt-4o-mini", 8, 1, 6.0, 251, 20, 256),
}

func visionModel(name string, paramsB float64, tp int) ModelSpec {
	m := chatModel(name, paramsB, tp, 16.0, 560, 100, 128)
	m.Kind = KindVision
	return m
}

// Catalog is a registry of model specs; new models can be registered at
// runtime (§4.2: "Adding a new model is straightforward").
type Catalog struct {
	mu     sync.RWMutex
	models map[string]ModelSpec
}

// NewCatalog returns a catalog preloaded with the built-in models.
func NewCatalog() *Catalog {
	c := &Catalog{models: make(map[string]ModelSpec, len(builtin))}
	for _, m := range builtin {
		c.models[m.Name] = m
	}
	return c
}

// Register adds or replaces a model spec after validation.
func (c *Catalog) Register(m ModelSpec) error {
	if err := m.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.models[m.Name] = m
	return nil
}

// Lookup returns the spec for a model name.
func (c *Catalog) Lookup(name string) (ModelSpec, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.models[name]
	if !ok {
		return ModelSpec{}, fmt.Errorf("perfmodel: unknown model %q", name)
	}
	return m, nil
}

// MustLookup is Lookup for static names in experiments; it panics on error.
func (c *Catalog) MustLookup(name string) ModelSpec {
	m, err := c.Lookup(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Names returns all model names sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.models))
	for n := range c.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default is the shared built-in catalog.
var Default = NewCatalog()

// Short aliases used throughout tests and experiments.
const (
	Llama70B  = "meta-llama/Llama-3.3-70B-Instruct"
	Llama8B   = "meta-llama/Meta-Llama-3.1-8B-Instruct"
	Llama405B = "meta-llama/Meta-Llama-3.1-405B-Instruct"
	Gemma27B  = "google/gemma-2-27b-it"
	Qwen32B   = "Qwen/Qwen2.5-32B-Instruct"
	NVEmbed   = "nvidia/NV-Embed-v2"
	GPT4oMini = "openai/gpt-4o-mini"
	AuroraGPT = "argonne/AuroraGPT-7B"
)
