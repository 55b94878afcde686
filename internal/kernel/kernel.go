// Package kernel is the event-skip simulation core shared by the engines
// in internal/engine and internal/dynamic. It exploits one
// observation about the paper's protocols: almost every slot is silent,
// and silence carries no information a protocol acts on beyond simple
// counting — so executions can jump from interesting slot to interesting
// slot instead of resolving every slot.
//
// The kernel has three parts:
//
//   - FairRun (fairskip.go) samples the slot of the next successful
//     delivery of a fair protocol directly, using the phase declarations
//     of protocol.SkipController: exact geometric draws for constant-
//     probability slot classes, thinned (rejection-sampled) geometric
//     draws for boundedly varying ones. Exact in distribution with
//     respect to the per-slot chain.
//
//   - Window (occupancy.go) samples one window of a windowed protocol —
//     m balls into w bins, deliveries are the singleton bins — choosing
//     among a ball-by-ball O(m) sampler, a bin-by-bin O(w) binomial-chain
//     sampler, and, for saturated windows whose expected singleton count
//     is tiny, a direct draw of the singleton count from its
//     inclusion–exclusion distribution in O(1) series terms.
//
//   - Calendar (calendar.go) is a two-level hierarchical timing wheel
//     holding pending transmission attempts, the event queue behind
//     dynamic.WindowEngine, which batch runs (dynamic.RunWindowEvent)
//     and live sessions (internal/session) step. O(1) amortized per
//     scheduled attempt, against O(log n) for the binary heap it
//     replaces.
//
// Every sampler consumes randomness from the caller's rng.Rand stream, so
// rep-indexed reproducibility (internal/montecarlo) is preserved: a given
// (stream, code path) still yields one deterministic execution. Relative
// to the per-slot reference paths the draw sequences necessarily differ —
// that is the point — and the distributional equivalence is enforced by
// Kolmogorov–Smirnov tests in this package, internal/engine, internal/sim
// and internal/dynamic.
package kernel

import (
	"errors"
	"math"
)

// ErrSlotLimit is returned when an execution exceeds its slot budget
// before all messages are delivered.
var ErrSlotLimit = errors.New("kernel: slot limit exceeded before all messages were delivered")

// SuccessProb returns P₁(m, p) = m·p·(1−p)^(m−1), the probability that a
// slot carries a successful delivery when m active stations each transmit
// with probability p. Computed in log space for large m. It is the single
// definition used by both the kernel and internal/engine.
func SuccessProb(m int, p float64) float64 {
	switch {
	case m <= 0 || p <= 0:
		return 0
	case m == 1:
		return math.Min(p, 1)
	case p >= 1:
		return 0 // all m > 1 stations transmit: certain collision
	default:
		return float64(m) * p * math.Exp(float64(m-1)*math.Log1p(-p))
	}
}

// maxSuccessProb bounds SuccessProb(m, p) over p ∈ [lo, hi]. P₁(m, ·) is
// unimodal with its maximum at p = 1/m (and monotone increasing for
// m = 1, where 1/m = 1 is the right endpoint), so the bound is attained
// at 1/m clamped into the interval.
func maxSuccessProb(m int, lo, hi float64) float64 {
	p := 1 / float64(m)
	if p < lo {
		p = lo
	}
	if p > hi {
		p = hi
	}
	return successProb(m, p)
}
