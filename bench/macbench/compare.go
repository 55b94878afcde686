package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"repro/bench/stats"
)

// benchmarkFile is the part of BENCHMARK.json macbench reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmark loads BENCHMARK.json.
func readBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// findBenchmarkFile locates BENCHMARK.json from the repository root or
// from inside bench/.
func findBenchmarkFile() string {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "BENCHMARK.json"
}

// Verdicts compare prints.
const (
	verdictBetter     = "better"           // the pair rule holds
	verdictDominates  = "better-every-run" // spread too wide, but every change run beats every parent run
	verdictRegression = "regression"       // median worse by more than the bound
	verdictUnresolved = "unresolved"       // spread wider than the bound
	verdictHolds      = "no-regression"    // within the bound, no claimable gain
	verdictInfo       = "info"             // per-layer metric: no bound, no claim
	verdictMissing    = "missing"          // one side has no values
)

// judge classifies a metric's parent (a) and change (b) values. bound is
// the share of the parent's median the metric may worsen by; a bound of
// 0 marks a per-layer metric, which is reported but never judged
// against a bound.
func judge(a, b []float64, higherBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing
	}
	if bound == 0 {
		if stats.Gain(a, b, higherBetter) {
			return verdictBetter
		}
		return verdictInfo
	}
	if math.Max(stats.Spread(a), stats.Spread(b)) > bound {
		if stats.Dominates(a, b, higherBetter) {
			return verdictDominates
		}
		return verdictUnresolved
	}
	worse := (stats.Median(b) - stats.Median(a)) / math.Abs(stats.Median(a))
	if higherBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return verdictRegression
	case stats.Gain(a, b, higherBetter):
		return verdictBetter
	default:
		return verdictHolds
	}
}

// compareMetric is one metric as compare judges it.
type compareMetric struct {
	name, unit   string
	higherBetter bool
	bound        float64
	trace        int // the run mode that reports the metric
}

// runCompare implements `macbench compare [-benchmark FILE] A.json B.json`:
// A holds the parent's runs and B the change's, pair i being the i-th
// run of a workload in each file.
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", findBenchmarkFile(), "BENCHMARK.json holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare takes two run files (parent, change), got %d arguments", fs.NArg())
	}
	bench, err := readBenchmark(*benchPath)
	if err != nil {
		return err
	}
	a, err := readRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRunFile(fs.Arg(1))
	if err != nil {
		return err
	}
	var metrics []compareMetric
	for _, m := range bench.EndToEnd {
		metrics = append(metrics, compareMetric{m.Name, m.Unit, m.Better == "higher", m.Bound, 0})
	}
	for _, m := range bench.PerLayer {
		metrics = append(metrics, compareMetric{m.Name, m.Unit, m.Better == "higher", 0, 1})
	}
	return compareRuns(stdout, a, b, metrics)
}

// compareRuns prints one row per (workload, metric) present in either
// file and a failure summary per workload.
func compareRuns(w io.Writer, a, b runFile, metrics []compareMetric) error {
	workloads := map[string]bool{}
	for _, r := range append(append([]runRecord(nil), a.Runs...), b.Runs...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tΔ\twins/pairs\tU p\tverdict")
	for _, wl := range names {
		for _, m := range metrics {
			av, afail := values(a, wl, m)
			bv, bfail := values(b, wl, m)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m.higherBetter, m.bound)
			if (v == verdictBetter || v == verdictDominates) && bfail > afail {
				v = "void: more failures"
			}
			pairs := stats.Pair(av, bv, m.higherBetter)
			_, p := stats.MannWhitney(av, bv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%d/%d\t%.3g\t%s\n", wl, m.name, m.unit,
				summary(av), summary(bv), delta(av, bv), pairs.Wins, pairs.N, p, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, wl := range names {
		fa, na := failures(a, wl)
		fb, nb := failures(b, wl)
		fmt.Fprintf(w, "%s: failed operations parent %d/%d, change %d/%d\n", wl, fa, na, fb, nb)
	}
	return nil
}

// values collects a metric across the runs of one workload in the
// metric's run mode, with the total failed operations of those runs.
func values(f runFile, workload string, m compareMetric) (vs []float64, failed int) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != m.trace {
			continue
		}
		failed += r.Failed
		if v, ok := r.Metrics[m.name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs, failed
}

func failures(f runFile, workload string) (failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

func summary(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	q1, q3 := stats.Quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", stats.Median(vs), q1, q3, len(vs))
}

func delta(a, b []float64) string {
	if len(a) == 0 || len(b) == 0 || stats.Median(a) == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(stats.Median(b)-stats.Median(a))/math.Abs(stats.Median(a)))
}
