// Package stats holds the summary statistics the benchmark reports and
// the rules its comparisons apply: medians and quartiles (computed as
// Python's statistics.quantiles does, so a spread read here matches one
// read by any script over the same run files), the tail-percentile
// rule, the Mann–Whitney U rank test and the paired-run win rule.
package stats

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (NaN when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4). With a
// single value both quartiles are that value; with none they are NaN.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		const n = 4
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// IQR returns the distance between the quartiles of xs.
func IQR(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return q3 - q1
}

// Spread returns IQR(xs) as a share of Median(xs): the run-to-run
// spread a metric is judged by. It is +Inf when the median is 0.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return IQR(xs) / math.Abs(m)
}

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func Quantile(xs []float64, q float64) float64 {
	return quantileSorted(sorted(xs), q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// TailLevels are the percentiles the tail rule chooses from, deepest
// first.
var TailLevels = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// TailLevel applies the percentile rule: the deepest of TailLevels
// with at least ten of n samples beyond it. With fewer than twenty
// samples no level qualifies and the median (0.5) is returned.
func TailLevel(n int) float64 {
	for _, q := range TailLevels {
		if float64(n)*(1-q) >= 10-1e-9 { // 1-q is inexact in binary
			return q
		}
	}
	return 0.5
}

// MannWhitney compares two independent samples with the Mann–Whitney U
// test. It returns U for b (the number of (a, b) pairs where b ranks
// higher, ties counting one half) and the two-sided p-value of the
// normal approximation with tie correction. p is 1 when either sample
// is empty or every value ties.
func MannWhitney(a, b []float64) (u, p float64) {
	na, nb := len(a), len(b)
	if na == 0 || nb == 0 {
		return 0, 1
	}
	type obs struct {
		v     float64
		fromB bool
	}
	all := make([]obs, 0, na+nb)
	for _, v := range a {
		all = append(all, obs{v, false})
	}
	for _, v := range b {
		all = append(all, obs{v, true})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	n := float64(na + nb)
	var rankB, tieSum float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // mean of ranks i+1 … j
		t := float64(j - i)
		tieSum += t*t*t - t
		for k := i; k < j; k++ {
			if all[k].fromB {
				rankB += rank
			}
		}
		i = j
	}
	u = rankB - float64(nb)*float64(nb+1)/2
	mean := float64(na) * float64(nb) / 2
	variance := float64(na) * float64(nb) / 12 * ((n + 1) - tieSum/(n*(n-1)))
	if variance <= 0 {
		return u, 1
	}
	z := (math.Abs(u-mean) - 0.5) / math.Sqrt(variance) // continuity correction
	if z < 0 {
		z = 0
	}
	return u, math.Erfc(z / math.Sqrt2)
}

// Pairs summarizes paired runs of a parent (a) and a change (b): pair i
// is (a[i], b[i]), and a win is a pair where the change reads better.
type Pairs struct {
	// N is the number of pairs; Wins and Losses count strict
	// improvements and regressions (ties count for neither).
	N, Wins, Losses int
}

// Pair counts wins over the first min(len(a), len(b)) pairs.
// higherBetter selects the metric's direction.
func Pair(a, b []float64, higherBetter bool) Pairs {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := Pairs{N: n}
	for i := 0; i < n; i++ {
		d := b[i] - a[i]
		if !higherBetter {
			d = -d
		}
		switch {
		case d > 0:
			out.Wins++
		case d < 0:
			out.Losses++
		}
	}
	return out
}

// Gain applies the pair rule for claiming an improvement: at least ten
// pairs, the change winning at least nine tenths of them, and the
// medians differing in the better direction by more than the parent's
// own spread (the distance between its quartiles).
func Gain(a, b []float64, higherBetter bool) bool {
	p := Pair(a, b, higherBetter)
	if p.N < 10 || 10*p.Wins < 9*p.N {
		return false
	}
	gap := Median(b) - Median(a)
	if !higherBetter {
		gap = -gap
	}
	return gap > IQR(a)
}

// Dominates reports whether every value of b reads better than every
// value of a.
func Dominates(a, b []float64, higherBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if higherBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
