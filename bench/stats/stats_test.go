package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python 3's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{5, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {600, 0.95}, {1000, 0.99}, {200000, 0.99}} {
		if got := TailLevel(c.n); got != c.q {
			t.Errorf("TailLevel(%d) = %v, want %v", c.n, got, c.q)
		}
	}
}

func TestMannWhitney(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	u, p := MannWhitney(a, b)
	if u != 100 || p > 0.001 {
		t.Errorf("separated samples: U=%v p=%v, want U=100 and p<0.001", u, p)
	}
	u, p = MannWhitney(a, a)
	if u != 50 || p < 0.9 {
		t.Errorf("identical samples: U=%v p=%v, want U=50 and p≈1", u, p)
	}
}

func TestGainNeedsPairsWinsAndGap(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	if !Gain(parent, faster, false) {
		t.Error("a uniform 10% drop in a lower-is-better metric should be a gain")
	}
	if Gain(parent[:9], faster[:9], false) {
		t.Error("nine pairs must not be enough")
	}
	small := []float64{99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 99.5}
	if Gain(parent, small, false) {
		t.Error("a gap inside the parent's IQR must not be a gain")
	}
	if !Dominates(parent, faster, false) || Dominates(parent, small, false) {
		t.Error("Dominates disagrees with the samples")
	}
}
