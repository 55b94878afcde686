package kernel

import (
	"math"

	"repro/internal/rng"
)

// deadExponent is the (m-1)·p threshold beyond which a slot class is
// treated as never succeeding: (1-p)^(m-1) ≤ e^{-(m-1)p}, so the success
// probability is below m·p·e^{-64} < 10^{-20} — more than ten orders of
// magnitude under one expected event per the longest representable run
// (10^10 slots). Cutting it costs less distributional distortion than
// floating-point rounding and saves an exp+log per phase for every class
// that is hopeless (e.g. the BT class while thousands of stations
// contend).
const deadExponent = 64

// successProb is the kernel-internal fast path of SuccessProb: identical
// except for the dead-class cutoff and the rng.Log1m fast path.
func successProb(m int, p float64) float64 {
	switch {
	case m <= 0 || p <= 0:
		return 0
	case m == 1:
		return math.Min(p, 1)
	case p >= 1:
		return 0
	default:
		e := float64(m-1) * p
		if e >= deadExponent {
			return 0
		}
		return float64(m) * p * math.Exp(float64(m-1)*rng.Log1m(p))
	}
}
