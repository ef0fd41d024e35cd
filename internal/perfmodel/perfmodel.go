// Package perfmodel holds the hardware and model performance models that
// substitute for the paper's physical testbed (Sophia: 24 NVIDIA DGX-A100
// nodes). Every timing the serving engines, schedulers, and experiments use
// — weight-load times, prefill and decode iteration costs, VRAM footprints —
// comes from this package, so the calibration lives in exactly one place.
//
// Calibration targets (their provenance is ROADMAP.md item 17):
// Llama-3.3-70B on 8×A100 produces ~15 ms/token at batch 1 (≈3.0 s
// end-to-end for a 182-token completion, matching Fig. 3's direct-vLLM
// point at 1 req/s) and saturates around 1700+ output tok/s at the
// engine's 256-sequence batch cap.
package perfmodel

import (
	"fmt"
	"time"
)

// GPUSpec describes one accelerator type.
type GPUSpec struct {
	Name     string
	MemoryGB float64
	// LoadGBps is the sustained weight-load bandwidth from node-local
	// storage into a single GPU's HBM (model loading parallelizes across
	// the GPUs of a tensor-parallel group).
	LoadGBps float64
	// Relative throughput multiplier vs an A100-40GB (1.0).
	Speedup float64
}

// Standard GPU catalog entries (Sophia is DGX-A100; Polaris has A100-40 too).
var (
	A100_40 = GPUSpec{Name: "A100-40GB", MemoryGB: 40, LoadGBps: 2.0, Speedup: 1.0}
	A100_80 = GPUSpec{Name: "A100-80GB", MemoryGB: 80, LoadGBps: 2.0, Speedup: 1.05}
	MI250   = GPUSpec{Name: "MI250", MemoryGB: 64, LoadGBps: 1.6, Speedup: 0.85}
)

// ModelKind separates generation models from embedding models.
type ModelKind int

const (
	KindChat ModelKind = iota
	KindVision
	KindEmbedding
)

func (k ModelKind) String() string {
	switch k {
	case KindChat:
		return "chat"
	case KindVision:
		return "vision"
	case KindEmbedding:
		return "embedding"
	default:
		return "unknown"
	}
}

// ModelSpec describes a hosted model and its serving cost model.
type ModelSpec struct {
	Name    string
	Kind    ModelKind
	ParamsB float64 // parameters, billions

	// Deployment shape.
	TensorParallel int     // GPUs per instance
	WeightsGB      float64 // on-disk/in-HBM weight size
	KVBytesPerTok  float64 // KV cache bytes per token per sequence

	// Continuous-batching cost model: one decode iteration over a batch of
	// b running sequences costs DecodeBase + DecodeSlope*b. Prefill costs
	// PrefillPerTok per prompt token (amortized into the iteration that
	// admits the sequence). All values are for the model's native TP size
	// on A100-40GB; GPUSpec.Speedup scales them.
	DecodeBase    time.Duration
	DecodeSlope   time.Duration
	PrefillPerTok time.Duration

	// MaxBatch is the engine's max_num_seqs (vLLM default 256).
	MaxBatch int

	// EmbedPerTok is the embedding cost per input token (embedding models).
	EmbedPerTok time.Duration
	// EmbedDim is the embedding dimensionality (embedding models).
	EmbedDim int
}

// Validate reports obvious misconfigurations.
func (m ModelSpec) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("perfmodel: model name empty")
	}
	if m.TensorParallel <= 0 {
		return fmt.Errorf("perfmodel: %s: tensor parallel must be positive", m.Name)
	}
	if m.Kind == KindEmbedding {
		if m.EmbedDim <= 0 || m.EmbedPerTok <= 0 {
			return fmt.Errorf("perfmodel: %s: embedding model needs EmbedDim and EmbedPerTok", m.Name)
		}
		return nil
	}
	if m.MaxBatch <= 0 {
		return fmt.Errorf("perfmodel: %s: MaxBatch must be positive", m.Name)
	}
	if m.DecodeBase <= 0 || m.DecodeSlope <= 0 {
		return fmt.Errorf("perfmodel: %s: decode cost model unset", m.Name)
	}
	return nil
}

// LoadTime returns the cold-start weight-load time onto a TP group of the
// given GPU type: weights stream in parallel across the group's GPUs, plus a
// fixed engine initialization overhead that grows with model size.
func (m ModelSpec) LoadTime(gpu GPUSpec) time.Duration {
	per := m.WeightsGB / float64(m.TensorParallel) / gpu.LoadGBps
	initOverhead := 10 + m.ParamsB/8 // seconds: CUDA graphs, allocator, tokenizer
	return time.Duration((per + initOverhead) * float64(time.Second))
}

// DecodeIter returns the duration of one decode iteration with batch size b.
func (m ModelSpec) DecodeIter(b int, gpu GPUSpec) time.Duration {
	if b < 1 {
		b = 1
	}
	d := m.DecodeBase + time.Duration(b)*m.DecodeSlope
	return scaleBySpeed(d, gpu)
}

// PrefillTime returns the prompt-processing cost for n prompt tokens.
func (m ModelSpec) PrefillTime(n int, gpu GPUSpec) time.Duration {
	if n < 0 {
		n = 0
	}
	return scaleBySpeed(time.Duration(n)*m.PrefillPerTok, gpu)
}

// EmbedTime returns the embedding cost for n input tokens.
func (m ModelSpec) EmbedTime(n int, gpu GPUSpec) time.Duration {
	if n < 1 {
		n = 1
	}
	base := 8 * time.Millisecond
	return scaleBySpeed(base+time.Duration(n)*m.EmbedPerTok, gpu)
}

// PeakDecodeTokPerSec returns the asymptotic output-token throughput of one
// instance at its batch cap — useful for capacity planning and assertions.
func (m ModelSpec) PeakDecodeTokPerSec(gpu GPUSpec) float64 {
	iter := m.DecodeIter(m.MaxBatch, gpu)
	if iter <= 0 {
		return 0
	}
	return float64(m.MaxBatch) / iter.Seconds()
}

// VRAMNeededGB returns the per-instance VRAM requirement: weights plus a
// working KV allocation (vLLM reserves gpu_memory_utilization×VRAM and fills
// the rest with KV pages; we require weights to fit with 10% headroom).
func (m ModelSpec) VRAMNeededGB() float64 {
	return m.WeightsGB * 1.1
}

// KVCapacityTokens returns how many total KV tokens fit in the instance's
// remaining VRAM after weights, at 90% utilization of the TP group.
func (m ModelSpec) KVCapacityTokens(gpu GPUSpec) int {
	total := gpu.MemoryGB * float64(m.TensorParallel) * 0.90
	free := total - m.WeightsGB
	if free <= 0 || m.KVBytesPerTok <= 0 {
		return 0
	}
	return int(free * 1e9 / m.KVBytesPerTok)
}

func scaleBySpeed(d time.Duration, gpu GPUSpec) time.Duration {
	if gpu.Speedup <= 0 || gpu.Speedup == 1.0 {
		return d
	}
	return time.Duration(float64(d) / gpu.Speedup)
}
