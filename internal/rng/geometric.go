package rng

import "math"

// GeometricInf is the saturated return value of Geometric: the sampled
// failure run does not fit in a uint64 (or p is zero, making success
// impossible). Callers treat it as "beyond any horizon"; adding it to a
// slot number would overflow, so compare before adding.
const GeometricInf = math.MaxUint64

// Geometric returns a draw of the number of failures before the first
// success in independent Bernoulli(p) trials: P(G = g) = (1-p)^g · p for
// g ≥ 0. It consumes exactly one uniform variate, via inversion of the
// geometric CDF (G = ⌊ln U / ln(1-p)⌋).
//
// Geometric is the slot-skip primitive of the event-skip simulation
// kernel (internal/kernel): a station — or an aggregate channel state —
// whose per-slot success probability is p for a stretch of slots can
// jump straight to its next success by drawing the length of the
// failure run instead of flipping a coin per slot.
//
// p ≥ 1 returns 0 (immediate success). p ≤ 0, and draws whose failure
// run exceeds uint64 range, return GeometricInf.
func (r *Rand) Geometric(p float64) uint64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return GeometricInf
	}
	// Float64Open never returns 0 or 1, so the logarithm is finite and
	// negative, and the ratio is non-negative.
	g := math.Log(r.Float64Open()) / Log1m(p)
	if g >= math.MaxUint64 || math.IsNaN(g) {
		return GeometricInf
	}
	return uint64(g)
}
