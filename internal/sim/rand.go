package sim

import (
	"math"
	"math/rand"
)

// RNG wraps a seeded source with the distributions the workload and overhead
// models need. All experiment randomness flows through RNG so runs are
// reproducible from a single seed.
type RNG struct {
	r *rand.Rand
	// lnMemo holds LogNormalMeanCV's (μ, σ) for the last two (mean, cv)
	// pairs it was asked for, lnNext the slot the next new pair replaces: a
	// workload.LengthSpec alternates exactly two pairs, so a draw pays one
	// Exp instead of two Logs, a Sqrt and an Exp.
	lnMemo [2]lnParams
	lnNext int
}

// lnParams is one (mean, cv) pair with the lognormal parameters it implies.
type lnParams struct{ mean, cv, mu, sigma float64 }

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent stream (stable for a given label ordering).
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponential sample with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Normal returns a normal sample.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// LogNormalMeanCV returns a lognormal sample parameterized by its mean and
// coefficient of variation (stddev/mean), which is how the workload specs
// are written. The parameters are computed once per pair while it stays among
// the last two asked for; the expressions are the closed form's, so every
// sample is bit-identical to evaluating it on every call.
func (g *RNG) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	for i := range g.lnMemo {
		if p := &g.lnMemo[i]; p.mean == mean && p.cv == cv {
			return g.LogNormal(p.mu, p.sigma)
		}
	}
	sigma2 := math.Log(1 + cv*cv)
	p := lnParams{mean: mean, cv: cv, mu: math.Log(mean) - sigma2/2, sigma: math.Sqrt(sigma2)}
	g.lnMemo[g.lnNext] = p
	g.lnNext ^= 1
	return g.LogNormal(p.mu, p.sigma)
}

// Pareto returns a bounded Pareto sample with shape alpha and minimum xm.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }
