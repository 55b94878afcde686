package kernel

import (
	"fmt"
	"math"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// This file samples fair-protocol executions success by success.
//
// Within one SkipPhase the slots split into a special class (constant
// probability) and a regular class (probability in [RegularLo,
// RegularHi]). With m active stations a slot of probability p succeeds
// with q = P₁(m, p), so over the phase's quiet stretch the two classes
// are independent sequences of Bernoulli trials:
//
//   - Special class: constant q_s — the index of the first success is
//     exactly Geometric(q_s). One draw.
//
//   - Regular class: varying q_t ≤ q_max := max over p ∈ [lo, hi] of
//     P₁(m, p). Thinning (rejection sampling): draw candidate indices
//     from Geometric(q_max), accept each candidate t with probability
//     q_t/q_max. The accepted process is exactly the non-homogeneous
//     Bernoulli first-success process — the standard thinning argument,
//     discrete-time version. When lo == hi the accept test is skipped
//     (q_t ≡ q_max: every candidate accepted), making the draw exact
//     with no rejection cost.
//
// The next success is the minimum across the two classes; everything up
// to it is skipped in O(1) via SkipController.SkipTo, which replays the
// silent-slot bookkeeping in closed form.

// firstResidue returns the smallest slot ≥ from with slot ≡ r (mod p).
func firstResidue(from, p, r uint64) uint64 {
	return from + (r+p-from%p)%p
}

// countResidue returns the number of slots in [a, b) with slot ≡ r (mod p).
func countResidue(a, b, p, r uint64) uint64 {
	if b <= a {
		return 0
	}
	f := func(y uint64) uint64 { // slots in [0, y) ≡ r (mod p)
		if y <= r {
			return 0
		}
		return (y-r-1)/p + 1
	}
	return f(b) - f(a)
}

// geometric draws Geometric(q) — failures before the first success —
// given the precomputed denominator denom = log(1-q) < 0, so the
// denominator is paid once per phase instead of once per draw.
func geometric(src *rng.Rand, denom float64) uint64 {
	g := math.Log(src.Float64Open()) / denom
	if g >= math.MaxUint64 || math.IsNaN(g) {
		return rng.GeometricInf
	}
	return uint64(g)
}

// nthRegular returns the n-th slot ≥ from (0-indexed) that is NOT ≡ r
// (mod p). For p ≤ 1 every slot is regular.
func nthRegular(from, n, p, r uint64) uint64 {
	if p <= 1 {
		return from + n
	}
	if from%p == r {
		from++
	}
	per := p - 1 // regular slots per period
	s := from + (n/per)*p
	for i := n % per; i > 0; i-- {
		s++
		if s%p == r {
			s++
		}
	}
	return s
}

// FairRun simulates static k-selection under the fair protocol ctrl and
// returns the slot of the k-th delivery. If the slot budget is exhausted
// first it returns ErrSlotLimit (wrapped), with the number of undelivered
// messages in the error text. Cost is O(1) per delivery plus O(1) per
// controller phase, independent of the number of slots skipped.
func FairRun(k int, ctrl protocol.SkipController, src *rng.Rand, maxSlots uint64) (uint64, error) {
	if k < 0 {
		return 0, fmt.Errorf("kernel: negative k %d", k)
	}
	m := k
	if m == 0 {
		return 0, nil
	}
	slot := uint64(1)
	for slot <= maxSlots {
		ph := ctrl.SkipPhase(slot)
		end := ph.End
		if end < slot {
			end = slot
		}
		if end > maxSlots {
			end = maxSlots
		}
		p, r := ph.Period, ph.SpecialResidue
		if p == 0 {
			p = 1
		}

		// Special class: exact geometric over its constant probability.
		var spec uint64
		specFound := false
		if p >= 2 {
			if qs := successProb(m, ph.SpecialProb); qs > 0 {
				if first := firstResidue(slot, p, r); first <= end {
					n := (end-first)/p + 1 // special slots in the phase
					if g := geometric(src, rng.Log1m(qs)); g < n {
						spec = first + g*p
						specFound = true
					}
				}
			}
		}

		// Regular class: thinned geometric against the dominating q_max.
		var reg uint64
		regFound := false
		lo, hi := ph.RegularLo, ph.RegularHi
		if qmax := maxSuccessProb(m, lo, hi); qmax > 0 {
			denom := rng.Log1m(qmax)
			cur := slot
			for {
				var cnt uint64 // regular slots in [cur, end]
				if p <= 1 {
					cnt = end - cur + 1
				} else {
					cnt = (end + 1 - cur) - countResidue(cur, end+1, p, r)
				}
				if cnt == 0 {
					break
				}
				g := geometric(src, denom)
				if g >= cnt {
					break // no further candidate inside the phase
				}
				c := nthRegular(cur, g, p, r)
				if specFound && c > spec {
					break // the special class already succeeded earlier
				}
				if lo < hi {
					// Accept with q_c/q_max (thinning); ProbQuiet is the
					// probability at c given the quiet stretch before it.
					q := successProb(m, ctrl.ProbQuiet(c))
					if src.Float64()*qmax >= q {
						cur = c + 1
						continue
					}
				}
				reg = c
				regFound = true
				break
			}
		}

		if !specFound && !regFound {
			ctrl.SkipTo(end + 1)
			slot = end + 1
			continue
		}
		c := spec
		if !specFound || (regFound && reg < spec) {
			c = reg
		}
		ctrl.SkipTo(c)
		m--
		ctrl.Observe(c, true)
		if m == 0 {
			return c, nil
		}
		slot = c + 1
	}
	return 0, fmt.Errorf("%w (limit %d, remaining %d of %d)", ErrSlotLimit, maxSlots, m, k)
}
