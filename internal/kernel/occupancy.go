package kernel

import (
	"math"

	"repro/internal/rng"
)

// This file samples one window of a windowed protocol: m active stations
// each pick one of w slots uniformly at random (m balls into w bins) and
// the singleton bins are deliveries. Three exact samplers cover the three
// regimes:
//
//   - stepByBall, O(m): sample each ball's bin. A bounded uniform costs
//     roughly a tenth of a binomial draw (which pays an exp and a log for
//     its q^n factor), so this wins up to m ≈ ballBinCostRatio·w.
//
//   - stepByBin, O(w): sample occupancies in slot order via the binomial
//     chain N_j ~ Binomial(remaining, 1/(w−j+1)). Cheapest when m ≫ w
//     and the window is still expected to deliver.
//
//   - stepBySeries, O(series terms): for saturated windows (m ≫ w) the
//     expected singleton count ES = m·(1−1/w)^(m−1) is tiny and almost
//     every window is silent. Draw the singleton count S directly from
//     its exact distribution
//
//       P(S = s) = C(w,s)·(m)_s·A(m−s, w−s) / w^m,
//       A(m',w') = Σ_j (−1)^j C(w',j)·(m')_j·(w'−j)^(m'−j),
//
//     where A counts placements with no singleton (inclusion–exclusion
//     over the forced-singleton bins). Terms decay like ES^j/j!, so the
//     alternating series needs ~15 terms at ES = 1/2 — independent of w.
//     Conditioned on S = s, bin exchangeability makes the singleton slot
//     set a uniform s-subset of the w slots, so the last-delivery slot is
//     sampled with s more uniforms. This turns the saturated phases of
//     Exp Back-on/Back-off from O(w) per window into O(1).
//
// All three are exact in distribution; stepBySeries truncates terms below
// 10⁻¹⁸, far under the 2⁻⁵³ resolution of the uniform it inverts.

const (
	// seriesMinWindow is the smallest window handed to stepBySeries; under
	// it the O(w) binomial chain is already cheap.
	seriesMinWindow = 64
	// seriesMaxES is the largest expected singleton count handed to
	// stepBySeries; above it windows deliver frequently enough that the
	// cumulative-sum walk over P(S=s) loses to the binomial chain.
	seriesMaxES = 0.5
	// seriesEps truncates the alternating series; the discarded tail is
	// bounded by the first omitted term.
	seriesEps = 1e-18
	// ballBinCostRatio is the measured cost of one binomial draw in units
	// of one bounded-uniform draw: ball-by-ball (m uniforms) beats the
	// binomial chain (w binomials) up to m ≈ ballBinCostRatio·w. At 12 the
	// chain's band m/12 < w closes almost exactly onto the series branch's
	// ES ≤ 1/2 envelope (ES ≤ 1/2 ⇔ w ≲ m/ln(2m)), measured fastest on
	// the Exp Back-on/Back-off grid.
	ballBinCostRatio = 12
)

// Window samples windowed-protocol windows. The zero value is ready to
// use; reusing one across executions amortizes the O(max window) scratch
// of the ball-by-ball branch.
type Window struct {
	counts  []int32 // per-bin occupancy scratch for the ball-by-ball branch
	touched []int32 // bins touched in this window, for O(m) reset
}

// Step throws m balls into w bins and returns the number of singleton
// bins and the 1-based slot index of the last singleton (0 if none),
// choosing the cheapest exact sampler for the regime.
func (o *Window) Step(m, w int, src *rng.Rand) (delivered, last int) {
	if m <= ballBinCostRatio*w {
		return o.stepByBall(m, w, src)
	}
	if w >= seriesMinWindow {
		x := float64(m-1) / float64(w)
		if x >= deadExponent {
			// ES ≤ m·e⁻⁶⁴: silent to within floating-point noise
			// (the same argument as deadExponent). No draws consumed.
			return 0, 0
		}
		if es := float64(m) * math.Exp(float64(m-1)*rng.Log1m(1/float64(w))); es <= seriesMaxES {
			return stepBySeries(m, w, src)
		}
	}
	return stepByBin(m, w, src)
}

// stepByBall samples each ball's bin: O(m) uniforms. Used when m is not
// much larger than w. Correct for any m, w ≥ 1.
func (o *Window) stepByBall(m, w int, src *rng.Rand) (delivered, last int) {
	if cap(o.counts) < w {
		o.counts = make([]int32, w)
	}
	counts := o.counts[:w]
	o.touched = o.touched[:0]
	for i := 0; i < m; i++ {
		b := int32(src.Uint64n(uint64(w)))
		if counts[b] == 0 {
			o.touched = append(o.touched, b)
		}
		counts[b]++
	}
	for _, b := range o.touched {
		if counts[b] == 1 {
			delivered++
			if int(b)+1 > last {
				last = int(b) + 1
			}
		}
		counts[b] = 0
	}
	return delivered, last
}

// stepByBin samples bin occupancies in slot order via the binomial chain
// N_j ~ Binomial(remaining, 1/(w−j+1)): O(w) binomial draws. Used when
// m > w and the window is not saturated enough for stepBySeries.
func stepByBin(m, w int, src *rng.Rand) (delivered, last int) {
	rem := m
	for j := 0; j < w && rem > 0; j++ {
		var nj int
		if left := w - j; left == 1 {
			nj = rem // all remaining balls land in the last bin
		} else {
			nj = src.Binomial(rem, 1/float64(left))
		}
		if nj == 1 {
			delivered++
			last = j + 1
		}
		rem -= nj
	}
	return delivered, last
}

// seriesRatio is the common term ratio of the singleton-count series:
// with mr balls and wr bins remaining after i forced singletons,
//
//	ratio = [(mr−i)/(i+1)] · ((wr−i−1)/(wr−i))^(mr−i−1)
//
// relates consecutive terms both along j (within one P(S=s) series) and
// along s (between the leading terms of consecutive s).
func seriesRatio(mr, wr, i int) float64 {
	return float64(mr-i) / float64(i+1) *
		math.Exp(float64(mr-i-1)*rng.Log1m(1/float64(wr-i)))
}

// singletonPMF returns P(S = s) by summing the alternating series with
// leading term t0 = C(w,s)·(m)_s·(w−s)^(m−s)/w^m (supplied by the caller,
// maintained incrementally across s).
func singletonPMF(m, w, s int, t0 float64) float64 {
	sum, t := t0, t0
	sign := -1.0
	for j := 0; j < m-s && j < w-s; j++ {
		t *= seriesRatio(m-s, w-s, j)
		if t < seriesEps {
			break
		}
		sum += sign * t
		sign = -sign
	}
	return sum
}

// stepBySeries draws the singleton count S from its exact distribution by
// inverting one uniform against the cumulative series, then places the S
// singletons as a uniform S-subset of the w slots. Requires m > w ≥
// seriesMinWindow and small ES (enforced by Step's dispatch).
func stepBySeries(m, w int, src *rng.Rand) (delivered, last int) {
	u := src.Float64()
	t0 := 1.0 // leading term for s = 0: w^m/w^m
	cum := 0.0
	s := 0
	for {
		cum += singletonPMF(m, w, s, t0)
		if u < cum {
			break
		}
		// Advance the leading term: t0(s+1) = t0(s)·C ratio (see
		// seriesRatio). When it underflows, the true tail mass is below
		// floating-point resolution of u — clamp.
		t0 *= seriesRatio(m, w, s)
		s++
		if t0 < seriesEps || s >= w {
			break
		}
	}
	if s == 0 {
		return 0, 0
	}
	// Conditioned on S = s the singleton slots are a uniform s-subset:
	// draw s distinct slots by rejection (collision probability ≤ s/w,
	// negligible for s ≪ w).
	var picked [64]int
	if s > len(picked) {
		s = len(picked) // unreachable for ES ≤ seriesMaxES; safety clamp
	}
	for i := 0; i < s; {
		b := int(src.Uint64n(uint64(w)))
		dup := false
		for _, p := range picked[:i] {
			if p == b {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		picked[i] = b
		i++
		if b+1 > last {
			last = b + 1
		}
	}
	return s, last
}
