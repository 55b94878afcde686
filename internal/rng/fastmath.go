package rng

import "math"

// Log1m returns log(1−p) for p ∈ [0, 1). math.Log1p is pure Go and
// dominates profiles of the samplers in this package and of
// internal/kernel's skip kernel, while math.Log has an assembly
// implementation on the platforms we target. Computing
// log(1−p) directly is safe whenever the subtraction does not cancel
// (p not tiny); a short series covers the tiny-p range with relative
// error below 1e-17.
func Log1m(p float64) float64 {
	if p > 1e-4 {
		return math.Log(1 - p)
	}
	return -p * (1 + p*(0.5+p*(1.0/3+p*0.25)))
}
