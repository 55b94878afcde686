package main

import (
	"bytes"
	"strings"
	"testing"
)

// series returns n values spread ±spread around center, interleaved so
// that consecutive values sit on opposite sides of the center.
func series(center, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		off := spread * float64(i%5) / 4
		if i%2 == 1 {
			off = -off
		}
		out[i] = center + off
	}
	return out
}

func TestJudge(t *testing.T) {
	parent := series(100, 2, 10)
	cases := []struct {
		name         string
		change       []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"clear win", series(80, 2, 10), false, 0.10, verdictBetter},
		{"clear win, higher is better", series(120, 2, 10), true, 0.10, verdictBetter},
		{"tie", series(100, 2, 10), false, 0.10, verdictHolds},
		{"regression inside the bound", series(105, 2, 10), false, 0.10, verdictHolds},
		{"regression beyond the bound", series(115, 2, 10), false, 0.10, verdictRegression},
		{"unresolved", series(100, 40, 10), false, 0.10, verdictUnresolved},
		{"wide spread but every run better", series(50, 20, 10), false, 0.10, verdictDominates},
		{"too few pairs to claim", series(80, 2, 9), false, 0.10, verdictHolds},
		{"per-layer metric", series(101, 2, 10), false, 0, verdictInfo},
		{"no values", nil, false, 0.10, verdictMissing},
	}
	for _, c := range cases {
		if got := judge(parent, c.change, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRunsPrintsEveryMetricAndFailures(t *testing.T) {
	mk := func(p50s []float64, failed int) runFile {
		f := runFile{Format: runFormat}
		for _, v := range p50s {
			f.Runs = append(f.Runs, runRecord{Workload: "serve-hits", result: result{Correct: failed == 0, Attempted: 100,
				Failed: failed, Metrics: map[string]metricValue{"p50_ms": {Value: v, Unit: "ms"}}}})
		}
		return f
	}
	var out bytes.Buffer
	metrics := []compareMetric{{name: "p50_ms", unit: "ms", bound: 0.1}}
	if err := compareRuns(&out, mk(series(100, 2, 10), 0), mk(series(80, 2, 10), 1), metrics); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"serve-hits", "p50_ms", "void: more failures", "change 10/1000"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}
