package rng

import "math"

// _btrsCutoff is the n*p value above which the transformed-rejection
// sampler is used instead of sequential inversion. Inversion costs O(n*p)
// per draw, so the cutoff balances the two methods' constant factors.
const _btrsCutoff = 16

// Binomial returns a draw from Binomial(n, p): the number of successes in
// n independent Bernoulli(p) trials. It is exact (not a normal
// approximation) for all n and p.
//
// For n*min(p,1-p) below a small cutoff it uses sequential CDF inversion;
// above the cutoff it uses Hörmann's BTRS transformed-rejection algorithm
// ("The generation of binomial random variates", 1993), which runs in O(1)
// expected time independent of n. This matters because the windowed-protocol
// engine draws per-slot occupancies Binomial(m, 1/w) with m up to 10^7.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with n < 0")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit the symmetry Binomial(n,p) = n - Binomial(n,1-p) so the
	// samplers only deal with p <= 1/2 (both require it for efficiency and,
	// for BTRS, correctness of the constants).
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < _btrsCutoff {
		return r.binomialInversion(n, p)
	}
	return r.binomialBTRS(n, p)
}

// binomialInversion draws Binomial(n, p) by walking the CDF from 0.
// Expected cost O(n*p + 1); requires p <= 1/2 for efficiency only.
func (r *Rand) binomialInversion(n int, p float64) int {
	q := 1 - p
	// s = p/q, f = q^n computed in log space to survive large n.
	logQ := Log1m(p)
	f := math.Exp(float64(n) * logQ)
	if f <= 0 {
		// q^n underflowed (enormous n with p just below cutoff/n). Fall back
		// to a sum of two halves, each of which is better conditioned.
		h := n / 2
		return r.Binomial(h, p) + r.Binomial(n-h, p)
	}
	s := p / q
	u := r.Float64()
	k := 0
	for {
		if u < f {
			return k
		}
		u -= f
		f *= s * float64(n-k) / float64(k+1)
		k++
		if k > n {
			// Floating-point residue: the probabilities summed to slightly
			// less than u. The mass beyond n is zero, so return n.
			return n
		}
	}
}

// binomialBTRS draws Binomial(n, p) using the BTRS algorithm of Hörmann
// (transformed rejection with direct log-gamma acceptance). Requires
// p <= 1/2 and n*p >= 10.
func (r *Rand) binomialBTRS(n int, p float64) int {
	q := 1 - p
	nf := float64(n)
	spq := math.Sqrt(nf * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	urvr := 0.86 * vr
	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / q)
	m := math.Floor((nf + 1) * p) // mode
	hm := lfact(m) + lfact(nf-m)

	for {
		v := r.Float64()
		var u float64
		if v <= urvr {
			u = v/vr - 0.43
			k := math.Floor((2*a/(0.5-math.Abs(u))+b)*u + c)
			return int(k)
		}
		if v >= vr {
			u = r.Float64() - 0.5
		} else {
			u = v/vr - 0.93
			u = math.Copysign(0.5, u) - u
			v = r.Float64() * vr
		}
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		v = v * alpha / (a/(us*us) + b)
		if math.Log(v) <= hm-lfact(kf)-lfact(nf-kf)+(kf-m)*lpq {
			return int(kf)
		}
	}
}

// lfact returns log(x!) for non-negative real x via the log-gamma function.
func lfact(x float64) float64 {
	v, _ := math.Lgamma(x + 1)
	return v
}
