// Package montecarlo is the replication engine: the one place this
// repository schedules repeated simulation runs. The static sweeps of
// internal/harness and the λ-sweeps of internal/throughput — and through
// them the arena, specs, the CLI and the server — each hand Grid one
// grid of points × replications.
//
// The paper's guarantees are stated in expectation and with high
// probability, so any reported point estimate carries Monte Carlo
// error. A fixed repetition count either over-simulates easy
// (low-variance) points or under-simulates hard ones. An enabled
// Precision instead replicates each point until the Student-t
// confidence interval for the mean of its primary metric is narrower
// than a requested relative precision ε at confidence level c —
// "throughput to ±1% at 95%" as an input rather than an afterthought —
// subject to MinReps/MaxReps bounds. Fixed-rep mode is the same plan
// with a single checkpoint at the requested count.
//
// Determinism is load-bearing throughout this repository (canonical
// cache keys, byte-identical front ends, golden tests), so the engine
// is deterministic by construction:
//
//   - Replication r of a point always computes the same value: the
//     caller derives its randomness from the point and r alone (the
//     same (seed, labels, rep) streams in both modes), never from
//     scheduling.
//   - The stopping decision is evaluated only at fixed checkpoints
//     (MinReps, then ×3/2 growth, then MaxReps), with all replications
//     up to the checkpoint folded in index order. The checkpoint
//     schedule depends only on the Precision, never on Parallelism or
//     GOMAXPROCS, so a laptop and a 64-core server stop at the same
//     replication count.
//
// All points share one pool of workers sized to GOMAXPROCS (or the
// caller's bound), and each point follows its checkpoints on its own,
// with no barrier between points; parallelism changes only wall-clock
// time, never results.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/stats"
)

// Precision is the adaptive stopping rule: replicate until the
// two-sided Student-t confidence interval for the mean of the primary
// metric, at level Confidence, has half-width ≤ Epsilon·|mean|. The
// zero value (Epsilon 0) disables adaptivity — fixed-rep mode.
type Precision struct {
	// Epsilon is the requested relative precision (0.01 = ±1%). It must
	// be in (0, 1); 0 means adaptive stopping is disabled.
	Epsilon float64
	// Confidence is the two-sided confidence level of the interval
	// (default 0.95); must be in (0, 1).
	Confidence float64
	// MinReps is the minimum number of replications before the stopping
	// rule is first consulted (default 3, minimum 2 — variance needs two
	// observations).
	MinReps int
	// MaxReps caps replications when the target precision is not reached
	// (default 64). MinReps == MaxReps reproduces fixed-rep mode exactly:
	// the same replication indices, hence the same streams and results.
	MaxReps int
}

// Enabled reports whether adaptive stopping is requested.
func (p Precision) Enabled() bool { return p.Epsilon > 0 }

// Defaults for the optional Precision fields.
const (
	DefaultConfidence = 0.95
	DefaultMinReps    = 3
	DefaultMaxReps    = 64
)

// WithDefaults fills unset optional fields. It does not validate;
// Validate does.
func (p Precision) WithDefaults() Precision {
	if p.Confidence == 0 {
		p.Confidence = DefaultConfidence
	}
	if p.MinReps == 0 {
		p.MinReps = DefaultMinReps
	}
	if p.MaxReps == 0 {
		p.MaxReps = DefaultMaxReps
	}
	return p
}

// Validate checks a Precision with defaults applied. The zero value
// (adaptivity disabled) is valid.
func (p Precision) Validate() error {
	if math.IsNaN(p.Epsilon) || p.Epsilon < 0 {
		// A malformed epsilon must not silently read as "disabled".
		return fmt.Errorf("montecarlo: epsilon must be in (0, 1), got %v", p.Epsilon)
	}
	if !p.Enabled() {
		return nil
	}
	if p.Epsilon >= 1 {
		return fmt.Errorf("montecarlo: epsilon must be in (0, 1), got %v", p.Epsilon)
	}
	if !(p.Confidence > 0 && p.Confidence < 1) {
		return fmt.Errorf("montecarlo: confidence must be in (0, 1), got %v", p.Confidence)
	}
	if p.MinReps < 2 {
		return fmt.Errorf("montecarlo: minReps must be ≥ 2, got %d", p.MinReps)
	}
	if p.MaxReps < p.MinReps {
		return fmt.Errorf("montecarlo: maxReps must be ≥ minReps (%d), got %d", p.MinReps, p.MaxReps)
	}
	return nil
}

// checkpoints returns the replication counts at which the stopping rule
// is consulted: MinReps, then ×3/2 growth (at least +1), capped at
// MaxReps. The schedule depends only on the bounds, so stopping points
// are machine-independent.
func (p Precision) checkpoints() []int {
	var pts []int
	for n := p.MinReps; ; {
		pts = append(pts, n)
		if n >= p.MaxReps {
			return pts
		}
		next := n + n/2
		if next <= n {
			next = n + 1
		}
		if next > p.MaxReps {
			next = p.MaxReps
		}
		n = next
	}
}

// converged applies the stopping rule to the folded summary.
func (p Precision) converged(s *stats.Summary) bool {
	if s.N() < 2 {
		return false
	}
	half := s.CIAt(p.Confidence)
	mean := math.Abs(s.Mean())
	if mean == 0 {
		// Relative precision is undefined at mean 0; only a degenerate
		// (zero-width) interval counts as converged.
		return half == 0
	}
	return half <= p.Epsilon*mean
}

// Result is one point's estimate.
type Result struct {
	// Stats folds the primary metric of replications 0..Reps-1 in index
	// order — byte-identical to what fixed-rep mode at Runs = Reps would
	// accumulate.
	Stats stats.Summary
	// Reps is the number of replications executed.
	Reps int
}

// Grid replicates task over points × replications on one pool of at
// most parallelism workers (GOMAXPROCS when ≤ 0) and returns one Result
// per point.
//
// Every point follows the same plan. With prec disabled (Epsilon 0) it
// is fixed-rep mode: each point runs exactly runs replications, a single
// checkpoint. With prec enabled, runs is ignored and each point consults
// the stopping rule at prec's checkpoints on its own; no point waits for
// another, so a point that stops early frees the pool for the rest.
//
// task(point, rep) must be safe for concurrent invocation with distinct
// arguments and deterministic in them; it returns the replication's
// primary metric. Each point's metrics are folded in replication order,
// so a Result is independent of scheduling and parallelism. The fold a
// task returns, if non-nil, is called under the engine's lock in that
// same order once rep and every replication before it have completed,
// and is dropped afterwards; last reports that rep is the point's final
// replication.
//
// Workers start the lowest-numbered point with a replication ready to
// run, so callers list the costliest points first; with parallelism 1
// replications run one after another in point order. A failure stops
// new replications, as does ctx cancellation; replications already
// running finish. Grid then returns ctx's error, or else the failure of
// the lowest point, then lowest replication, among those that ran. A
// panicking task fails like an erroring one, with the stack in its
// error.
func Grid(ctx context.Context, prec Precision, runs, parallelism, points int,
	task func(point, rep int) (float64, func(last bool), error)) ([]Result, error) {
	prec = prec.WithDefaults()
	if err := prec.Validate(); err != nil {
		return nil, err
	}
	stops := []int{runs}
	if prec.Enabled() {
		stops = prec.checkpoints()
	} else if runs < 1 {
		return nil, fmt.Errorf("montecarlo: runs must be ≥ 1, got %d", runs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}

	g := &grid{prec: prec, stops: stops, points: make([]point, points)}
	g.idle.L = &g.mu
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.idle.Broadcast()
		g.mu.Unlock()
	})
	defer stop()
	var wg sync.WaitGroup
	for w := min(parallelism, points*stops[len(stops)-1]); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.work(ctx, task)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.err != nil {
		return nil, g.err
	}
	results := make([]Result, points)
	for i := range g.points {
		results[i] = g.points[i].res
	}
	return results, nil
}

// grid is the shared state of one Grid call, guarded by mu.
type grid struct {
	mu     sync.Mutex
	idle   sync.Cond // signaled when a replication completes or ctx ends
	prec   Precision
	stops  []int // the checkpoint schedule every point follows
	points []point
	first  int // lowest point not yet finished
	active int // replications running

	err           error // first failure by (point, rep)
	errPt, errRep int
}

// point is one point's progress through the plan.
type point struct {
	stop    int               // index of the current checkpoint in grid.stops
	next    int               // next replication to start
	pending map[int]completed // replications done but not yet folded
	done    bool              // the plan stopped this point
	res     Result            // Reps counts the replications folded so far
}

type completed struct {
	v    float64
	fold func(last bool)
}

// work runs replications until none is left to start.
func (g *grid) work(ctx context.Context, task func(int, int) (float64, func(bool), error)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.err == nil && ctx.Err() == nil {
		i, rep, ok := g.start()
		if !ok {
			if g.active == 0 {
				return // every point finished
			}
			g.idle.Wait()
			continue
		}
		g.active++
		g.mu.Unlock()
		v, fold, err := call(task, i, rep)
		// Taking the next replication under an uncontended lock never
		// blocks, so a busy worker would reach no scheduling point until
		// async preemption. Yield between replications: without it the
		// GC's background mark worker starves, marking falls to
		// allocation assists, and the heap overshoots its goal — a daemon
		// running two sweeps at once saw its peak RSS jump by a third.
		runtime.Gosched()
		g.mu.Lock()
		g.active--
		g.complete(i, rep, v, fold, err)
		g.idle.Broadcast()
	}
}

// start claims the lowest point's next replication below its current
// checkpoint.
func (g *grid) start() (i, rep int, ok bool) {
	for i = g.first; i < len(g.points); i++ {
		p := &g.points[i]
		if !p.done && p.next < g.stops[p.stop] {
			p.next++
			return i, p.next - 1, true
		}
	}
	return 0, 0, false
}

// complete records replication rep of point i and folds the point's
// completed prefix in replication order, applying the stopping rule at
// each checkpoint.
func (g *grid) complete(i, rep int, v float64, fold func(bool), err error) {
	if err != nil {
		if g.err == nil || i < g.errPt || i == g.errPt && rep < g.errRep {
			g.err, g.errPt, g.errRep = err, i, rep
		}
		return
	}
	p := &g.points[i]
	if p.pending == nil {
		p.pending = map[int]completed{}
	}
	p.pending[rep] = completed{v, fold}
	for c, ok := p.pending[p.res.Reps]; ok; c, ok = p.pending[p.res.Reps] {
		delete(p.pending, p.res.Reps)
		p.res.Stats.Add(c.v)
		p.res.Reps++
		last := false
		if p.res.Reps == g.stops[p.stop] {
			if p.stop == len(g.stops)-1 || g.prec.converged(&p.res.Stats) {
				p.done, last = true, true
			} else {
				p.stop++
			}
		}
		if c.fold != nil {
			c.fold(last)
		}
	}
	for g.first < len(g.points) && g.points[g.first].done {
		g.first++
	}
}

// call runs one replication, turning a panic into its error.
func call(task func(int, int) (float64, func(bool), error), i, rep int) (v float64, fold func(bool), err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("montecarlo: point %d replication %d panicked: %v\n%s", i, rep, r, debug.Stack())
		}
	}()
	return task(i, rep)
}
