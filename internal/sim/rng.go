package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source with the distribution helpers the
// workload models need. Each consumer (application generator, client driver,
// scheduler jitter, …) should own its own stream, derived from the master
// seed, so that adding a new consumer does not perturb existing ones.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed rewinds the stream to the state NewRNG(seed) starts in, without
// allocating — long-running consumers (the serving pipeline's periodic
// compaction) reuse one stream across deterministic episodes.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Fork derives an independent child stream. The child's sequence depends
// only on the parent's seed and the label, not on how many values the parent
// has produced, when used via ForkLabeled; plain Fork consumes one value.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// ForkLabeled derives a child stream from a stable label so that sibling
// consumers do not disturb each other's sequences.
func ForkLabeled(seed int64, label string) *RNG {
	h := uint64(seed)
	for _, c := range label {
		h = h*1099511628211 + uint64(c)
	}
	return NewRNG(int64(h & math.MaxInt64))
}

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0,n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// ClampedNormal draws Normal(mean, stddev) truncated into [lo,hi] by
// clamping. Clamping (rather than rejection) keeps the draw count per
// request fixed, which keeps workloads reproducible under model tweaks.
func (g *RNG) ClampedNormal(mean, stddev, lo, hi float64) float64 {
	v := g.Normal(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Pick returns an index drawn from the discrete distribution given by
// weights (which need not be normalized). Pick panics if weights is empty or
// sums to zero.
func (g *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("sim: Pick requires positive total weight")
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }
