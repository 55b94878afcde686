// Package harness orchestrates the paper's evaluation (§5): it sweeps
// simulated protocol configurations over network sizes
// k ∈ {10, 10², …, 10⁷}, averages repeated runs, and renders the results
// as the paper's Figure 1 (average steps vs k, log-log) and Table 1
// (steps/nodes ratio vs the analysis constants).
//
// Every (system, k) cell is one point of internal/montecarlo's
// replication grid, so all runs share its single worker pool. Every run
// draws its randomness from a stream derived from (master seed, system,
// k, run), and each cell folds its runs in run order, so results are
// bit-for-bit reproducible regardless of scheduling. Setting
// Sweep.Precision replaces the fixed repetition count with adaptive
// precision: each cell replicates until its Student-t confidence
// interval meets the requested relative precision, reusing the exact
// per-run streams of fixed mode.
package harness

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/montecarlo"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
)

// System is one protocol configuration under test.
type System interface {
	// Name returns the configuration's display name, as in the paper's
	// Figure 1 legend.
	Name() string
	// AnalysisRatio returns the steps/nodes ratio predicted by the
	// protocol's analysis for this configuration at network size k, as in
	// Table 1's "Analysis" column (e.g. "7.4"); symbolic forms are
	// returned verbatim.
	AnalysisRatio(k int) string
	// Run simulates one execution of static k-selection and returns the
	// number of slots until all k messages were delivered.
	Run(k int, src *rng.Rand) (uint64, error)
}

// FairSystem adapts a fair-protocol controller constructor into a System
// using the O(1)/slot aggregate engine. The constructor receives k because
// some baselines (Log-Fails Adaptive) derive parameters from it; the
// paper's own protocols ignore it.
type FairSystem struct {
	name     string
	analysis func(k int) string
	newCtrl  func(k int) (protocol.Controller, error)
}

// NewFairSystem builds a System from a fair-protocol constructor.
func NewFairSystem(name string, analysis func(k int) string,
	newCtrl func(k int) (protocol.Controller, error)) *FairSystem {
	return &FairSystem{name: name, analysis: analysis, newCtrl: newCtrl}
}

// Name implements System.
func (s *FairSystem) Name() string { return s.name }

// AnalysisRatio implements System.
func (s *FairSystem) AnalysisRatio(k int) string { return s.analysis(k) }

// NewController builds one fresh shared controller state machine, sized
// for k contenders (protocols that do not derive parameters from k
// ignore it; pass 0 when no contender estimate exists). Controllers are
// stateful and single-use. It exposes the constructor behind Run so
// dynamic drivers (internal/arena, internal/throughput) can run registry
// systems on the event-driven engines, mirroring
// WindowSystem.NewSchedule.
func (s *FairSystem) NewController(k int) (protocol.Controller, error) {
	return s.newCtrl(k)
}

// Run implements System.
func (s *FairSystem) Run(k int, src *rng.Rand) (uint64, error) {
	ctrl, err := s.newCtrl(k)
	if err != nil {
		return 0, fmt.Errorf("harness: %s at k=%d: %w", s.name, k, err)
	}
	return engine.FairRun(k, ctrl, src, 0)
}

// WindowSystem adapts a window-schedule constructor into a System using
// the balls-in-bins aggregate engine. Runner scratch buffers are pooled
// across parallel workers.
type WindowSystem struct {
	name     string
	analysis func(k int) string
	newSched func(k int) (protocol.Schedule, error)
	pool     sync.Pool
}

// NewWindowSystem builds a System from a window-schedule constructor.
func NewWindowSystem(name string, analysis func(k int) string,
	newSched func(k int) (protocol.Schedule, error)) *WindowSystem {
	return &WindowSystem{name: name, analysis: analysis, newSched: newSched}
}

// Name implements System.
func (s *WindowSystem) Name() string { return s.name }

// AnalysisRatio implements System.
func (s *WindowSystem) AnalysisRatio(k int) string { return s.analysis(k) }

// NewSchedule builds one fresh private window schedule, sized for k
// contenders (oblivious protocols such as Exp Back-on/Back-off ignore
// k; pass 0 when no contender estimate exists, as internal/session
// does for stations arriving over time). Each schedule is stateful and
// single-use: one station, one schedule.
func (s *WindowSystem) NewSchedule(k int) (protocol.Schedule, error) {
	return s.newSched(k)
}

// Run implements System.
func (s *WindowSystem) Run(k int, src *rng.Rand) (uint64, error) {
	sched, err := s.newSched(k)
	if err != nil {
		return 0, fmt.Errorf("harness: %s at k=%d: %w", s.name, k, err)
	}
	runner, _ := s.pool.Get().(*engine.WindowRunner)
	if runner == nil {
		runner = &engine.WindowRunner{}
	}
	defer s.pool.Put(runner)
	return runner.Run(k, sched, src, 0)
}

// fixedRatio renders a constant analysis ratio to one decimal, as printed
// in Table 1.
func fixedRatio(r float64) func(int) string {
	return func(int) string { return fmt.Sprintf("%.1f", r) }
}

// PaperSystems returns the five protocol configurations of the paper's
// evaluation, in the order of Table 1's rows: Log-Fails Adaptive with
// ξt = 1/2 and ξt = 1/10 (ε ≈ 1/(k+1), ξδ = ξβ = 0.1), One-Fail Adaptive
// (δ = 2.72), Exp Back-on/Back-off (δ = 0.366) and Loglog-Iterated
// Back-off (r = 2).
func PaperSystems() []System {
	lfa := func(xiT float64) func(k int) (protocol.Controller, error) {
		return func(k int) (protocol.Controller, error) {
			return baseline.NewLogFailsAdaptive(1/(float64(k)+1), xiT)
		}
	}
	return []System{
		NewFairSystem("Log-Fails Adaptive (2)",
			fixedRatio(analysis.LFARatio(baseline.DefaultLFAXiDelta, baseline.DefaultLFAXiBeta, 0.5)),
			lfa(0.5)),
		NewFairSystem("Log-Fails Adaptive (10)",
			fixedRatio(analysis.LFARatio(baseline.DefaultLFAXiDelta, baseline.DefaultLFAXiBeta, 0.1)),
			lfa(0.1)),
		NewFairSystem("One-Fail Adaptive",
			fixedRatio(analysis.OFARatio(core.DefaultOFADelta)),
			func(int) (protocol.Controller, error) {
				return core.NewOneFailAdaptive(core.DefaultOFADelta)
			}),
		NewWindowSystem("Exp Back-on/Back-off",
			fixedRatio(analysis.EBBRatio(core.DefaultEBBDelta)),
			func(int) (protocol.Schedule, error) {
				return core.NewExpBackonBackoff(core.DefaultEBBDelta)
			}),
		NewWindowSystem("Loglog-Iterated Backoff",
			func(int) string { return "Θ(loglog k/logloglog k)" },
			func(int) (protocol.Schedule, error) {
				return baseline.NewLoglogIteratedBackoff(baseline.DefaultLLIBBase)
			}),
	}
}

// PaperKs returns the network sizes of the paper's evaluation:
// 10, 10², …, 10^maxExp. The paper uses maxExp = 7.
func PaperKs(maxExp int) []int {
	ks := make([]int, 0, maxExp)
	k := 1
	for e := 1; e <= maxExp; e++ {
		k *= 10
		ks = append(ks, k)
	}
	return ks
}

// DefaultRuns is the number of runs averaged per point, as in the paper
// ("the average of 10 runs for each algorithm").
const DefaultRuns = 10

// Sweep describes a full experiment grid.
type Sweep struct {
	// Ks lists the network sizes; defaults to PaperKs(5) if empty.
	Ks []int
	// Runs is the number of executions averaged per (system, k);
	// defaults to DefaultRuns.
	Runs int
	// Seed is the master seed; every run derives an independent stream
	// from (Seed, system name, k, run index).
	Seed uint64
	// Parallelism bounds concurrent runs; defaults to GOMAXPROCS.
	Parallelism int
	// Precision, when enabled (Epsilon > 0), switches the sweep to
	// adaptive-precision replication: Runs is ignored and each
	// (system, k) cell executes between Precision.MinReps and
	// Precision.MaxReps runs, stopping once the Student-t confidence
	// interval of its mean slots is narrower than Epsilon·mean at the
	// requested confidence. Run r of a cell draws the identical stream in
	// both modes, so MinReps == MaxReps == Runs reproduces fixed-rep
	// results exactly. The zero value keeps the classic fixed-rep sweep.
	Precision montecarlo.Precision
	// Progress, if non-nil, is invoked after each completed run, outside
	// any internal lock. It may be called concurrently from multiple
	// workers and must be safe for concurrent use.
	Progress func(system string, k int, run int, steps uint64)
}

// Cell is one (system, k) aggregate.
type Cell struct {
	K     int
	Steps stats.Summary
}

// Ratio returns mean steps divided by k, the quantity tabulated in Table 1.
func (c *Cell) Ratio() float64 {
	if c.K == 0 {
		return 0
	}
	return c.Steps.Mean() / float64(c.K)
}

// SeriesResult is one system's sweep outcome across all k.
type SeriesResult struct {
	System System
	Cells  []Cell // ascending k, aligned with the sweep's Ks
}

// Run executes the sweep over the given systems and returns one
// SeriesResult per system, in input order.
func (s Sweep) Run(systems []System) ([]SeriesResult, error) {
	return s.RunContext(context.Background(), systems)
}

// RunContext is Run with cancellation: once ctx is canceled no further
// run starts and ctx's error is returned, as is the first run error.
// Runs already executing finish (a single run is not interruptible);
// with the usual many-runs grids cancellation therefore takes effect
// within one run.
func (s Sweep) RunContext(ctx context.Context, systems []System) ([]SeriesResult, error) {
	ks := s.Ks
	if len(ks) == 0 {
		ks = PaperKs(5)
	}
	ks = append([]int(nil), ks...)
	sort.Ints(ks)
	runs := s.Runs
	if runs <= 0 {
		runs = DefaultRuns
	}

	results := make([]SeriesResult, len(systems))
	for i, sys := range systems {
		results[i] = SeriesResult{System: sys, Cells: make([]Cell, len(ks))}
		for j, k := range ks {
			results[i].Cells[j].K = k
		}
	}
	// Point i of the grid is one (system, k) cell, largest k first so the
	// long runs are not left for last. Run r of a cell draws the same
	// stream in both modes, so MinReps == MaxReps == Runs reproduces
	// fixed-rep results exactly.
	cell := func(i int) (System, *Cell) {
		n := len(systems)
		return systems[i%n], &results[i%n].Cells[len(ks)-1-i/n]
	}
	cells, err := montecarlo.Grid(ctx, s.Precision, runs, s.Parallelism, len(systems)*len(ks),
		func(i, run int) (float64, func(bool), error) {
			sys, c := cell(i)
			n, err := sys.Run(c.K, rng.NewStream(s.Seed, sys.Name(), fmt.Sprint(c.K), fmt.Sprint(run)))
			if err != nil {
				return 0, nil, err
			}
			if s.Progress != nil {
				s.Progress(sys.Name(), c.K, run, n)
			}
			return float64(n), nil, nil
		})
	if err != nil {
		return nil, err
	}
	for i := range cells {
		_, c := cell(i)
		c.Steps = cells[i].Stats
	}
	return results, nil
}

// GeometricKs returns n network sizes spaced geometrically from lo to hi
// (inclusive), deduplicated after rounding; it is used by the examples
// and ablation benches for denser sweeps than the paper's powers of ten.
func GeometricKs(lo, hi, n int) []int {
	if n < 2 || lo < 1 || hi <= lo {
		return []int{lo}
	}
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(n-1))
	ks := make([]int, 0, n)
	prev := 0
	x := float64(lo)
	for i := 0; i < n; i++ {
		k := int(math.Round(x))
		if k != prev {
			ks = append(ks, k)
			prev = k
		}
		x *= ratio
	}
	return ks
}
