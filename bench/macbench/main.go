// Command macbench is the repository's benchmark. It measures the two
// end-to-end paths a user of this repository takes — a macsim run from
// start to finish, and a client driving macsimd until the result bytes
// come back — on five workloads, using binaries built from the
// checkout, and checks every output. A traced run measures the layers
// underneath in-process and splits each workload's time by layer.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload all|NAME[,NAME…]] [-seed N] [-seconds S] [-trace 0|1] [-spans DIR] [-o run.json]
//	bash bench/run.sh compare [-benchmark BENCHMARK.json] parent.json change.json
//
// bench/run.sh keeps every build product under .bench_build/; inside
// bench/, `go run ./macbench` runs the same program. The last line of
// standard output is the run's result as one JSON object; -o also
// appends the run, with its environment, to a run file that compare
// reads. bench/README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/bench/stats"
)

// lateLimit is the open-loop validity guard: a run whose generator
// started its p99 submission later than this measured the generator,
// not the daemon.
const lateLimit = 5 * time.Millisecond

func main() {
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := runCompare(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "macbench compare:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("macbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    string
		seed     uint64
		seconds  float64
		trace    int
		spansDir string
		outPath  string
		binDir   string
	)
	fs.StringVar(&names, "workload", "all", "workloads to run: all, or a comma-separated list of "+strings.Join(workloadNames(), ", "))
	fs.StringVar(&names, "workloads", "all", "alias of -workload")
	fs.Uint64Var(&seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&seconds, "seconds", 12, "timed phase of each workload, in seconds")
	fs.IntVar(&trace, "trace", 0, "0 measures the end-to-end metrics; 1 runs the traced suite and reports the per-layer metrics")
	fs.StringVar(&spansDir, "spans", ".bench_build/trace", "directory a traced run writes spans.jsonl to")
	fs.StringVar(&outPath, "o", "", "append the run to this run file")
	fs.StringVar(&binDir, "bin", ".bench_build/bin", "directory the macsim and macsimd binaries are built into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := parseWorkloads(names)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err == nil && (trace != 0 && trace != 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err == nil && seconds <= 0 {
		err = fmt.Errorf("-seconds must be > 0, got %v", seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "macbench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p := newProcs(".bench_build/tmp")
	defer p.close()
	e := &env{procs: p, bins: binDir, sc: fullScale}
	d := time.Duration(seconds * float64(time.Second))

	var recs []runRecord
	code := 0
	if trace == 1 {
		res, err := runTraced(ctx, e, seed, selected, spansDir, stdout)
		if err != nil {
			return fail(ctx, stderr, err)
		}
		recs = append(recs, runRecord{Workload: strings.Join(selected, ","), Seed: seed, Trace: 1, Seconds: seconds, result: res})
	} else {
		took, err := buildBinaries(ctx, p, binDir)
		if err != nil {
			return fail(ctx, stderr, err)
		}
		fmt.Fprintf(stderr, "macbench: built macsim and macsimd in %.1fs (not measured)\n", took.Seconds())
		for _, w := range workloads {
			if !slices.Contains(selected, w.name) {
				continue
			}
			m, err := w.run(e, ctx, seed, d)
			if err != nil {
				return fail(ctx, stderr, fmt.Errorf("%s: %w", w.name, err))
			}
			printMeasured(stdout, w.name, seed, m)
			metrics, _ := metricSet(endToEnd, m.metrics(false))
			raw, _ := metricSet(endToEnd, m.metrics(true))
			res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}
			if m.lateP99 > lateLimit.Seconds() {
				fmt.Fprintf(stderr, "macbench: %s: the generator ran %.2f ms late at p99 (limit %v); the run is invalid\n",
					w.name, m.lateP99*1e3, lateLimit)
				code = 1
			}
			recs = append(recs, runRecord{Workload: w.name, Seed: seed, Trace: 0, Seconds: seconds, result: res,
				Raw: raw, ReferenceMs: stats.Median(m.refs)})
		}
	}
	machine := currentEnv()
	for i := range recs {
		recs[i].Env = machine
		if !recs[i].Correct {
			code = 1
		}
		line, err := json.Marshal(recs[i].result)
		if err != nil {
			return fail(ctx, stderr, err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if outPath != "" {
		if err := appendRuns(outPath, recs...); err != nil {
			return fail(ctx, stderr, err)
		}
	}
	return code
}

// fail reports err and returns the exit code: 130 after an interrupt.
func fail(ctx context.Context, stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "macbench:", err)
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		return 130
	}
	return 1
}

// parseWorkloads resolves the -workload list, in benchmark order.
func parseWorkloads(list string) ([]string, error) {
	if strings.TrimSpace(list) == "all" {
		return workloadNames(), nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if !slices.Contains(workloadNames(), n) {
			return nil, fmt.Errorf("unknown workload %q (valid: all, %s)", n, strings.Join(workloadNames(), ", "))
		}
		want[n] = true
	}
	var out []string
	for _, n := range workloadNames() {
		if want[n] {
			out = append(out, n)
		}
	}
	return out, nil
}
