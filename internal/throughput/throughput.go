// Package throughput measures how the repository's contention-resolution
// protocols behave as sustained traffic approaches saturation — the
// throughput-vs-arrival-rate question the dynamic extension of the paper
// (§6 future work) poses, and the framing of the adversarial-arrival
// literature (Bender & Kuszmaul 2020; the adversarial contention-
// resolution survey of 2024).
//
// A sweep offers each protocol the same workloads at increasing offered
// load λ (messages per slot) and records, per (protocol, λ): sustained
// throughput (delivered messages per channel slot), delivery-latency
// quantiles, the peak backlog of simultaneously active stations, and
// whether the run drained within its slot budget. Below the protocol's
// saturation point throughput tracks λ and latency stays flat; above it
// the backlog diverges and latency explodes — the sweep table makes the
// knee visible per protocol.
//
// Workloads are described by internal/scenario: the sweep instantiates a
// scenario.Workload per (λ, run) — arrival schedule, jam mask and
// population mix — and offers the identical instance to every protocol.
// The legacy Shape selector maps onto the benign scenarios.
//
// Every (protocol, λ) pair is one point of internal/montecarlo's
// replication grid, so all executions share its single worker pool.
// Replication counts are either fixed (Config.Runs) or adaptive
// (Config.Precision): under a precision target each point repeats until
// the Student-t confidence interval of its mean throughput is narrower
// than ε·mean at the requested confidence, so easy points stop after a
// few runs and the slot budget concentrates where variance is high.
//
// Windowed (back-off) protocols run on the event-driven engine
// (dynamic.RunWindowEvent) and scale to millions of messages. Adaptive
// fair protocols run on dynamic.RunFair, which keeps the per-node
// simulator's draws (one coin per station per slot) but calls each
// controller only at its skip-phase ends and at successes; runs with a
// mixed station population stay on the exact per-node simulator. Both
// are practical at moderate sizes.
package throughput

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/montecarlo"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Shape selects the arrival pattern of a sweep's workloads.
type Shape uint8

// Arrival shapes.
const (
	// Poisson is a memoryless arrival process at rate λ (statistical
	// arrivals).
	Poisson Shape = iota
	// Bursty delivers batches of BurstSize simultaneous messages spaced
	// so the long-run offered load is λ (the batched worst case §1 of the
	// paper cites as frequent in practice). With n ≤ BurstSize messages
	// the shape degenerates to a single batch at slot 1 — the paper's
	// static problem.
	Bursty
	// OnOff alternates Poisson arrivals at rate 2λ during on-phases of
	// OnOffPhase slots with silent off-phases of equal length: the
	// long-run offered load is λ but the instantaneous load is doubled,
	// an adversarial duty-cycle pattern.
	OnOff
)

// BurstSize is the batch size of the Bursty shape.
const BurstSize = scenario.DefaultBurstSize

// OnOffPhase is the phase length, in slots, of the OnOff shape.
const OnOffPhase = scenario.DefaultOnOffPhase

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case OnOff:
		return "onoff"
	default:
		return fmt.Sprintf("Shape(%d)", uint8(s))
	}
}

// ParseShape resolves a shape name as used by the macsim CLI.
func ParseShape(name string) (Shape, error) {
	switch strings.ToLower(name) {
	case "poisson":
		return Poisson, nil
	case "bursty", "burst", "bursts":
		return Bursty, nil
	case "onoff", "on-off":
		return OnOff, nil
	default:
		return 0, fmt.Errorf("throughput: unknown arrival shape %q (want poisson, bursty or onoff)", name)
	}
}

// Scenario returns the shape's equivalent workload scenario — the
// extension point internal/scenario generalizes: the benign shapes are
// just the impairment-free members of the catalog.
func (s Shape) Scenario() (scenario.Workload, error) {
	switch s {
	case Poisson:
		return scenario.Workload{Name: "poisson", Arrivals: scenario.Poisson{}}, nil
	case Bursty:
		return scenario.Workload{Name: "bursty", Arrivals: scenario.Bursty{Size: BurstSize}}, nil
	case OnOff:
		return scenario.Workload{Name: "onoff", Arrivals: scenario.OnOff{Phase: OnOffPhase}}, nil
	default:
		return scenario.Workload{}, fmt.Errorf("throughput: unknown shape %v", s)
	}
}

// Generate materializes n messages at offered load lambda (a finite
// value > 0) under the shape's scenario.
func (s Shape) Generate(n int, lambda float64, src *rng.Rand) (dynamic.Workload, error) {
	scn, err := s.Scenario()
	if err != nil {
		return dynamic.Workload{}, err
	}
	return scn.Arrivals.Generate(n, lambda, src)
}

// Protocol is one protocol configuration under saturation test. Exactly
// one of NewController and NewSchedule must be set.
type Protocol struct {
	// Name is the display name.
	Name string
	// NewController builds a fresh fair-protocol controller per
	// execution; fair protocols run on dynamic.RunFair.
	NewController func() (protocol.Controller, error)
	// NewSchedule builds a fresh windowed-protocol schedule per
	// execution; windowed protocols run on the event-driven engine.
	NewSchedule func() (protocol.Schedule, error)
	// Clock selects the station clock mode. Fair protocols should use
	// dynamic.ClockGlobal: under local clocks One-Fail Adaptive's BT step
	// livelocks across arrival parities (see internal/dynamic).
	Clock dynamic.Clock
}

// newStation builds one station of the protocol under test, for runs
// that need explicit per-node stations (mixed populations).
func (p Protocol) newStation() (protocol.Station, error) {
	switch {
	case p.NewSchedule != nil:
		sched, err := p.NewSchedule()
		if err != nil {
			return nil, err
		}
		return protocol.NewWindowStation(sched), nil
	case p.NewController != nil:
		ctrl, err := p.NewController()
		if err != nil {
			return nil, err
		}
		return protocol.NewFairStation(ctrl), nil
	default:
		return nil, fmt.Errorf("throughput: protocol %q has no constructor", p.Name)
	}
}

// run executes one scenario instance under the protocol's engine: the
// event-driven engine for homogeneous windowed runs, dynamic.RunFair for
// homogeneous fair runs, and the exact per-node simulator for any mixed
// station population.
func (p Protocol) run(inst scenario.Instance, src *rng.Rand, maxSlots uint64) (dynamic.Result, error) {
	opts := []dynamic.Option{dynamic.WithClock(p.Clock), dynamic.WithMaxSlots(maxSlots)}
	if inst.Jammed != nil {
		opts = append(opts, dynamic.WithJammer(inst.Jammed))
	}
	if inst.Background != nil {
		return dynamic.RunMixed(inst.Arrivals, func(i int) (protocol.Station, error) {
			if inst.Background(i) {
				return inst.NewBackground()
			}
			return p.newStation()
		}, src, opts...)
	}
	switch {
	case p.NewSchedule != nil:
		return dynamic.RunWindowEvent(inst.Arrivals, p.NewSchedule, src, opts...)
	case p.NewController != nil:
		return dynamic.RunFair(inst.Arrivals, p.NewController, src, opts...)
	default:
		return dynamic.Result{}, fmt.Errorf("throughput: protocol %q has no constructor", p.Name)
	}
}

// DefaultProtocols returns the standard saturation lineup: the paper's
// windowed protocol, the two monotone back-off baselines, and the paper's
// adaptive protocol on a global clock.
func DefaultProtocols() []Protocol {
	return []Protocol{
		{Name: "Exp Back-on/Back-off", NewSchedule: func() (protocol.Schedule, error) {
			return core.NewExpBackonBackoff(core.DefaultEBBDelta)
		}},
		{Name: "Loglog-Iterated Backoff", NewSchedule: func() (protocol.Schedule, error) {
			return baseline.NewLoglogIteratedBackoff(baseline.DefaultLLIBBase)
		}},
		{Name: "Binary Exp Backoff", NewSchedule: func() (protocol.Schedule, error) {
			return baseline.NewExponentialBackoff(2)
		}},
		{Name: "One-Fail Adaptive", NewController: func() (protocol.Controller, error) {
			return core.NewOneFailAdaptive(core.DefaultOFADelta)
		}, Clock: dynamic.ClockGlobal},
	}
}

// WindowedProtocols returns only the windowed members of
// DefaultProtocols — the set that runs on the event-driven engine and
// scales to millions of messages.
func WindowedProtocols() []Protocol {
	all := DefaultProtocols()
	out := all[:0]
	for _, p := range all {
		if p.NewSchedule != nil {
			out = append(out, p)
		}
	}
	return out
}

// DefaultLambdas is the default offered-load grid, bracketing every
// protocol's saturation point.
func DefaultLambdas() []float64 {
	return []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4}
}

// Config parameterizes Run.
type Config struct {
	// Lambdas lists the offered loads; defaults to DefaultLambdas().
	// The sweep sorts them ascending, and every Series' Points follow
	// that ascending order, not the input order.
	Lambdas []float64
	// Messages is the number of messages per execution (default 2000).
	Messages int
	// Runs is the number of executions per (protocol, λ) (default 3).
	// When Precision is enabled it does not set the replication count;
	// it only bounds how many runs per λ share one workload instance
	// across protocols, which trades build time for memory and never
	// changes a result.
	Runs int
	// Precision, when enabled (Epsilon > 0), switches the sweep to
	// adaptive-precision replication (internal/montecarlo): each
	// (protocol, λ) point executes between Precision.MinReps and
	// Precision.MaxReps runs, stopping once the Student-t confidence
	// interval of its mean throughput is narrower than Epsilon·mean at
	// the requested confidence — low-variance points stop early, the
	// budget concentrates where variance is high. Run r of a point draws
	// the identical workload instance and protocol stream in both modes,
	// so MinReps == MaxReps == Runs reproduces fixed-rep results exactly
	// (matched pairs across protocols still hold per run index). The
	// zero value keeps the classic fixed-rep sweep.
	Precision montecarlo.Precision
	// Seed is the master seed (default 1). Workload randomness is keyed
	// by (Seed, scenario, λ, run) only, so every protocol faces identical
	// workloads — a matched-pairs comparison.
	Seed uint64
	// Shape selects a benign arrival pattern (default Poisson). It is
	// ignored when Scenario is set.
	Shape Shape
	// Scenario selects the full workload description — arrival schedule,
	// channel impairments, station population mix (internal/scenario).
	// The zero value derives the scenario from Shape.
	Scenario scenario.Workload
	// MaxSlots is the per-execution slot budget; 0 derives the
	// workload's dynamic.Workload.DrainBudget, enough for any stable
	// protocol to drain while terminating saturated runs.
	MaxSlots uint64
	// Parallelism bounds concurrent executions; defaults to GOMAXPROCS.
	Parallelism int
	// Progress, if non-nil, is invoked after each completed execution,
	// outside any internal lock. It may be called concurrently from
	// multiple workers and must be safe for concurrent use.
	Progress func(protocol string, lambda float64, run int, r dynamic.Result)
}

// LatencySampleCap bounds how many per-message latencies one execution
// contributes to Point.Latency.
const LatencySampleCap = 4096

// Point is one (protocol, λ) aggregate.
type Point struct {
	// Lambda is the offered load in messages per slot.
	Lambda float64
	// Throughput summarizes, per run, delivered messages per channel slot
	// measured to completion (or to the budget for saturated runs).
	Throughput stats.Summary
	// Latency pools per-message delivery latencies (slots) across runs.
	// To keep memory independent of Messages, each run contributes a
	// stride-sample of at most LatencySampleCap latencies; statistics are
	// exact below the cap and representative estimates above it.
	Latency stats.Summary
	// Backlog summarizes the peak number of simultaneously active
	// stations per run.
	Backlog stats.Summary
	// Collisions summarizes collision slots per run.
	Collisions stats.Summary
	// Completed counts runs that delivered every message within budget.
	Completed int
	// Runs is the number of executions behind this point.
	Runs int
}

// Saturated reports whether any run failed to drain within its budget.
func (p *Point) Saturated() bool { return p.Completed < p.Runs }

// Series is one protocol's sweep outcome across all λ.
type Series struct {
	Protocol Protocol
	Points   []Point // ascending λ, aligned with the sweep's Lambdas
}

// outcome is one execution's aggregation-ready extract: scalars plus a
// bounded latency sample, held only until the engine folds it.
type outcome struct {
	throughput float64
	hasRate    bool // slots > 0, so throughput is defined
	latency    []float64
	backlog    float64
	collisions float64
	completed  bool
}

// extract reduces one execution's result to its aggregation extract.
func extract(res dynamic.Result, budget uint64) outcome {
	var out outcome
	slots := res.Completion
	if !res.Completed {
		slots = budget
	}
	if slots > 0 {
		out.hasRate = true
		out.throughput = float64(res.Delivered) / float64(slots)
	}
	out.latency = res.Latency.Sampled(LatencySampleCap)
	out.backlog = float64(res.MaxBacklog)
	out.collisions = float64(res.Collisions)
	out.completed = res.Completed
	return out
}

// fold accumulates one outcome into the point. Callers fold in run
// order so aggregates are independent of scheduling.
func (p *Point) fold(out *outcome) {
	if out.hasRate {
		p.Throughput.Add(out.throughput)
	}
	for _, v := range out.latency {
		p.Latency.Add(v)
	}
	p.Backlog.Add(out.backlog)
	p.Collisions.Add(out.collisions)
	if out.completed {
		p.Completed++
	}
}

// instances shares each (λ, run) scenario instance among a sweep's
// protocols. The first execution that needs one builds it, and the
// cache holds it until every point at that λ has run it or stopped
// short of it.
//
// Only runs below Runs are held. In fixed-rep mode that is every run;
// the points of a λ start all their runs before the next λ's start, so
// besides the instances running executions use, the cache holds at most
// one λ's runs. Under adaptive precision a protocol may run all MaxReps
// replications before the next protocol starts, and holding each for
// the others would keep them all live. There only the first Runs are
// shared (Runs defaults to 3, as MinReps does), and each later run is
// built by the execution that runs it. Every build of (λ, run) draws
// the same stream, so sharing never changes a result.
type instances struct {
	build   func(lIdx, run int) (scenario.Instance, error)
	points  int // points per λ, one per protocol
	runs    int // runs below this are shared
	mu      sync.Mutex
	live    map[[2]int]*instance // by (λ index, run)
	stopped []int                // by λ index: points that finished
}

type instance struct {
	once    sync.Once
	inst    scenario.Instance
	err     error
	readers int // points at its λ that may still run it
}

// get returns instance run at λ index lIdx, building it on first use.
// A point that has not yet run it cannot have stopped past it, so its
// readers are the λ's points that have not stopped.
func (c *instances) get(lIdx, run int) (scenario.Instance, error) {
	if run >= c.runs {
		return c.build(lIdx, run)
	}
	key := [2]int{lIdx, run}
	c.mu.Lock()
	e := c.live[key]
	if e == nil {
		e = &instance{readers: c.points - c.stopped[lIdx]}
		c.live[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.inst, e.err = c.build(lIdx, run) })
	return e.inst, e.err
}

// release records that one point has finished running instance run.
func (c *instances) release(lIdx, run int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop([2]int{lIdx, run})
}

// stop records that a point at λ index lIdx finished after reps
// executions: it will read none of the instances from run reps on.
func (c *instances) stop(lIdx, reps int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped[lIdx]++
	for key := range c.live {
		if key[0] == lIdx && key[1] >= reps {
			c.drop(key)
		}
	}
}

func (c *instances) drop(key [2]int) {
	if e := c.live[key]; e != nil {
		if e.readers--; e.readers == 0 {
			delete(c.live, key)
		}
	}
}

// Run executes the λ-sweep over the given protocols and returns one
// Series per protocol, in input order. Every execution draws its
// randomness from streams derived from (Seed, scenario, λ, run) and
// (Seed, protocol, λ, run), and each point folds its executions in run
// order, so results are bit-for-bit reproducible regardless of
// scheduling or Parallelism.
func Run(protocols []Protocol, cfg Config) ([]Series, error) {
	return RunContext(context.Background(), protocols, cfg)
}

// RunContext is Run with cancellation: once ctx is canceled no further
// execution starts and ctx's error is returned, as is the first
// execution error. Executions already running finish (a single
// execution is not interruptible).
func RunContext(ctx context.Context, protocols []Protocol, cfg Config) ([]Series, error) {
	lambdas := cfg.Lambdas
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas()
	}
	lambdas = append([]float64(nil), lambdas...)
	sort.Float64s(lambdas)
	for _, l := range lambdas {
		if !(l > 0) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("throughput: offered load must be a finite value > 0, got %v", l)
		}
	}
	scn := cfg.Scenario
	if scn.Arrivals == nil {
		// Only the zero value falls back to Shape: a partially built
		// scenario (a jam mask or population without arrivals) is a
		// configuration bug, and silently swapping in the benign shape
		// would report clean-channel results as the requested ones.
		if scn.Name != "" || scn.Channel != nil || scn.Population != nil {
			return nil, fmt.Errorf("throughput: scenario %q has no arrival generator", scn.Name)
		}
		var err error
		if scn, err = cfg.Shape.Scenario(); err != nil {
			return nil, err
		}
	}
	if scn.Name == "" {
		scn.Name = "custom"
	}
	messages := cfg.Messages
	if messages <= 0 {
		messages = 2000
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 3
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	// Point i of the grid is one (protocol, λ) pair, highest load first:
	// saturated runs burn their whole budget and must not be left for
	// last. Every protocol faces the identical instance of each (λ, run)
	// — arrival sequence, jam mask and population assignment — because
	// the instance stream ignores the protocol: a matched-pairs
	// comparison. Protocols share the instances of runs below Runs (see
	// instances), so a fixed-rep sweep builds each (λ, run) once.
	n := len(protocols)
	at := func(i int) (protoIdx, lIdx int) { return i % n, len(lambdas) - 1 - i/n }
	insts := &instances{
		build: func(lIdx, run int) (scenario.Instance, error) {
			return scn.Instantiate(messages, lambdas[lIdx],
				rng.NewStream(seed, "throughput-workload", scn.Name, fmt.Sprint(lambdas[lIdx]), fmt.Sprint(run)))
		},
		points:  n,
		runs:    runs,
		live:    map[[2]int]*instance{},
		stopped: make([]int, len(lambdas)),
	}
	results := make([]Series, n)
	for protoIdx, p := range protocols {
		results[protoIdx] = Series{Protocol: p, Points: make([]Point, len(lambdas))}
		for lIdx, l := range lambdas {
			results[protoIdx].Points[lIdx].Lambda = l
		}
	}
	grid, err := montecarlo.Grid(ctx, cfg.Precision, runs, cfg.Parallelism, n*len(lambdas),
		func(i, run int) (float64, func(bool), error) {
			protoIdx, lIdx := at(i)
			p, lambda := protocols[protoIdx], lambdas[lIdx]
			inst, err := insts.get(lIdx, run)
			if err != nil {
				return 0, nil, err
			}
			budget := cfg.MaxSlots
			if budget == 0 {
				budget = inst.Arrivals.DrainBudget()
			}
			res, err := p.run(inst,
				rng.NewStream(seed, "throughput-run", p.Name, fmt.Sprint(lambda), fmt.Sprint(run)), budget)
			insts.release(lIdx, run)
			if err != nil {
				return 0, nil, err
			}
			if cfg.Progress != nil {
				cfg.Progress(p.Name, lambda, run, res)
			}
			out := extract(res, budget)
			return out.throughput, func(last bool) {
				results[protoIdx].Points[lIdx].fold(&out)
				if last {
					insts.stop(lIdx, run+1)
				}
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i := range grid {
		protoIdx, lIdx := at(i)
		results[protoIdx].Points[lIdx].Runs = grid[i].Reps
	}
	return results, nil
}
