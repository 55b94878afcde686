// Package arena runs every registered protocol configuration — the
// paper's originals and the no-collision-detection families of the
// related work (internal/nocd) — through a shared gauntlet of
// adversarial workload scenarios, and ranks them by robustness.
//
// The arena composes the layers beneath it rather than reimplementing
// them: protocols come from harness.NamedSystems (so the CLI, spec and
// serving layers name arena contestants exactly as they name sweep
// protocols), workloads come from the internal/scenario catalog
// (thundering herd, ρ-bounded adversary, jammed channel, …), and each
// (protocol, scenario) cell executes through internal/throughput's
// matched-pairs sweep at one fixed offered load — every protocol faces
// byte-identical arrival sequences, jam masks and population
// assignments, and replication is either fixed-count or
// adaptive-precision (internal/montecarlo).
//
// The score of a cell is the fraction of the offered load the protocol
// sustained: mean delivered-per-slot throughput divided by λ, measured
// to completion or to the drain budget for saturated runs. 1.0 means
// the protocol kept up with the adversary; 0 means it delivered
// nothing. A protocol's overall robustness is the unweighted mean of
// its scenario scores, with a CI95 propagated from the per-scenario
// confidence intervals. Results are bit-for-bit reproducible for a
// given seed regardless of parallelism.
package arena

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dynamic"
	"repro/internal/harness"
	"repro/internal/montecarlo"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/throughput"
)

// Defaults for Config's zero values.
const (
	// DefaultLambda is the offered load every cell runs at: high enough
	// to stress adaptive protocols, low enough that stable protocols
	// drain.
	DefaultLambda = 0.2
	// DefaultMessages is the number of messages per execution.
	DefaultMessages = 400
	// DefaultRuns is the fixed replication count per cell.
	DefaultRuns = 3
)

// DefaultScenarios returns the arena's standard adversarial gauntlet:
// the thundering herd, the ρ-bounded adversary and the jammed channel.
// The full scenario catalog (scenario.Names) is accepted too.
func DefaultScenarios() []string {
	return []string{"herd", "rho", "jammed"}
}

// Config parameterizes Run.
type Config struct {
	// Protocols lists the contestants by registry name or alias
	// (harness.NamedSystems); empty means every registered
	// configuration.
	Protocols []string
	// Scenarios lists workload scenarios by catalog name
	// (internal/scenario); empty means DefaultScenarios(). Column order
	// in the result follows this order.
	Scenarios []string
	// Lambda is the offered load in messages per slot (default
	// DefaultLambda).
	Lambda float64
	// Messages is the number of messages per execution (default
	// DefaultMessages).
	Messages int
	// Runs is the number of executions per (protocol, scenario) cell
	// (default DefaultRuns). When Precision is enabled it only bounds
	// instance sharing, as throughput.Config.Runs describes.
	Runs int
	// Seed is the master seed (default 1). Workload randomness is keyed
	// by (Seed, scenario, λ, run) only, so every protocol faces
	// identical workloads.
	Seed uint64
	// Precision, when enabled, replaces Runs with adaptive-precision
	// replication per cell (see throughput.Config.Precision).
	Precision montecarlo.Precision
	// MaxSlots is the per-execution slot budget; 0 derives the
	// workload's drain budget.
	MaxSlots uint64
	// Parallelism bounds concurrent executions; defaults to GOMAXPROCS.
	Parallelism int
	// Progress, if non-nil, is invoked after each completed execution.
	// It may be called concurrently and must be safe for concurrent
	// use.
	Progress func(protocol, scenario string, run int, res dynamic.Result)
}

// ScenarioScore is one (protocol, scenario) cell of the ranking.
type ScenarioScore struct {
	// Scenario is the catalog name.
	Scenario string
	// Score is the sustained fraction of the offered load: mean
	// throughput / λ.
	Score float64
	// CI95 is the half-width of the score's 95% confidence interval
	// across runs.
	CI95 float64
	// Completed counts runs that drained every message within budget;
	// Runs is the number of executions behind the cell.
	Completed int
	Runs      int
}

// Saturated reports whether any of the cell's runs hit the slot budget
// before draining.
func (s *ScenarioScore) Saturated() bool { return s.Completed < s.Runs }

// Entry is one protocol's row of the ranking.
type Entry struct {
	// Protocol is the registry's canonical name.
	Protocol string
	// Display is the configuration's display name (System.Name).
	Display string
	// Scenarios holds the per-scenario cells, aligned with
	// Result.Scenarios.
	Scenarios []ScenarioScore
	// Overall is the unweighted mean of the scenario scores.
	Overall float64
	// CI95 is the propagated half-width: √(Σ CIᵢ²)/n.
	CI95 float64
}

// Result is a full arena outcome.
type Result struct {
	// Lambda, Messages and Runs echo the effective configuration.
	Lambda   float64
	Messages int
	Runs     int
	// Scenarios lists the gauntlet in column order.
	Scenarios []string
	// Ranking holds one entry per protocol, best overall score first
	// (ties broken by protocol name).
	Ranking []Entry
}

// contestant pairs a registry entry with its dynamic-engine adapter.
type contestant struct {
	name    string // canonical registry name
	display string
	proto   throughput.Protocol
}

// resolve maps registry names to throughput protocols. The contender
// estimate k sizes constructors that derive parameters from the network
// size (Log-Fails Adaptive).
func resolve(names []string, k int) ([]contestant, error) {
	if len(names) == 0 {
		names = harness.SystemNames()
	}
	out := make([]contestant, 0, len(names))
	seen := map[string]bool{}
	for _, name := range names {
		canon, err := harness.CanonicalSystemName(name)
		if err != nil {
			return nil, fmt.Errorf("arena: %w", err)
		}
		if seen[canon] {
			return nil, fmt.Errorf("arena: protocol %q listed twice", canon)
		}
		seen[canon] = true
		sys, err := harness.SystemByName(canon)
		if err != nil {
			return nil, fmt.Errorf("arena: %w", err)
		}
		c := contestant{name: canon, display: sys.Name()}
		switch s := sys.(type) {
		case *harness.FairSystem:
			c.proto = throughput.Protocol{
				Name:          canon,
				NewController: func() (protocol.Controller, error) { return s.NewController(k) },
				Clock:         dynamic.ClockGlobal,
			}
		case *harness.WindowSystem:
			c.proto = throughput.Protocol{
				Name:        canon,
				NewSchedule: func() (protocol.Schedule, error) { return s.NewSchedule(k) },
			}
		default:
			return nil, fmt.Errorf("arena: protocol %q has no dynamic-engine adapter", canon)
		}
		out = append(out, c)
	}
	return out, nil
}

// Run executes the arena and returns the robustness ranking.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation, inherited by every underlying
// throughput sweep.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = DefaultLambda
	}
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("arena: offered load must be a finite value > 0, got %v", lambda)
	}
	messages := cfg.Messages
	if messages <= 0 {
		messages = DefaultMessages
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = DefaultRuns
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = DefaultScenarios()
	}
	workloads := make([]scenario.Workload, len(scenarios))
	seenScn := map[string]bool{}
	for i, name := range scenarios {
		w, err := scenario.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("arena: %w", err)
		}
		if seenScn[w.Name] {
			return nil, fmt.Errorf("arena: scenario %q listed twice", w.Name)
		}
		seenScn[w.Name] = true
		workloads[i] = w
	}
	contestants, err := resolve(cfg.Protocols, messages)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Lambda:    lambda,
		Messages:  messages,
		Runs:      runs,
		Scenarios: make([]string, len(workloads)),
		Ranking:   make([]Entry, len(contestants)),
	}
	for i, w := range workloads {
		res.Scenarios[i] = w.Name
	}
	protocols := make([]throughput.Protocol, len(contestants))
	for i, c := range contestants {
		protocols[i] = c.proto
		res.Ranking[i] = Entry{
			Protocol:  c.name,
			Display:   c.display,
			Scenarios: make([]ScenarioScore, len(workloads)),
		}
	}

	// One matched-pairs throughput sweep per scenario: within a
	// scenario every protocol faces identical workload instances, and
	// the sweep's fixed fold order keeps results independent of
	// scheduling.
	for scnIdx, w := range workloads {
		w := w
		tcfg := throughput.Config{
			Lambdas:     []float64{lambda},
			Messages:    messages,
			Runs:        runs,
			Precision:   cfg.Precision,
			Seed:        seed,
			Scenario:    w,
			MaxSlots:    cfg.MaxSlots,
			Parallelism: cfg.Parallelism,
		}
		if cfg.Progress != nil {
			tcfg.Progress = func(protocol string, _ float64, run int, r dynamic.Result) {
				cfg.Progress(protocol, w.Name, run, r)
			}
		}
		series, err := throughput.RunContext(ctx, protocols, tcfg)
		if err != nil {
			return nil, fmt.Errorf("arena: scenario %q: %w", w.Name, err)
		}
		for i := range series {
			pt := &series[i].Points[0]
			res.Ranking[i].Scenarios[scnIdx] = ScenarioScore{
				Scenario:  w.Name,
				Score:     pt.Throughput.Mean() / lambda,
				CI95:      pt.Throughput.CIAt(0.95) / lambda,
				Completed: pt.Completed,
				Runs:      pt.Runs,
			}
		}
	}

	// Overall robustness: unweighted mean of scenario scores, CI95
	// propagated as the half-width of the mean of independent
	// estimates.
	for i := range res.Ranking {
		e := &res.Ranking[i]
		var sum, varSum float64
		for _, s := range e.Scenarios {
			sum += s.Score
			varSum += s.CI95 * s.CI95
		}
		n := float64(len(e.Scenarios))
		e.Overall = sum / n
		e.CI95 = math.Sqrt(varSum) / n
	}
	sort.SliceStable(res.Ranking, func(i, j int) bool {
		if res.Ranking[i].Overall != res.Ranking[j].Overall {
			return res.Ranking[i].Overall > res.Ranking[j].Overall
		}
		return res.Ranking[i].Protocol < res.Ranking[j].Protocol
	})
	return res, nil
}
