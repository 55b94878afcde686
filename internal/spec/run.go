// Execution: the single entry point that runs any ExperimentSpec with
// context cancellation and streams typed progress events. The library
// (mac.Run), the CLI and the HTTP job workers all execute experiments
// through Run — one code path, three front ends.

package spec

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"runtime/debug"
	"sync"

	"repro/internal/arena"
	"repro/internal/dynamic"
	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/throughput"
)

// Event is one typed progress record streamed by an Execution. The
// concrete types marshal to the NDJSON lines the HTTP /stream endpoint
// and the CLI's -stream flag emit.
type Event interface {
	// EventName returns the wire name ("progress").
	EventName() string
	// SimulatedSlots returns the channel slots this event accounts for
	// (0 when unknown), feeding work-rate metrics.
	SimulatedSlots() uint64
}

// SweepProgress is one completed static execution of a solve or
// evaluate experiment.
type SweepProgress struct {
	Event  string `json:"event"`
	System string `json:"system"`
	K      int    `json:"k"`
	Run    int    `json:"run"`
	Slots  uint64 `json:"slots"`
}

// EventName implements Event.
func (p SweepProgress) EventName() string { return p.Event }

// SimulatedSlots implements Event.
func (p SweepProgress) SimulatedSlots() uint64 { return p.Slots }

// DynamicProgress is one completed execution of a throughput or
// scenario experiment. Slots counts the drained run's completion time;
// saturated runs report 0 (their budget is not knowable here).
type DynamicProgress struct {
	Event     string  `json:"event"`
	Protocol  string  `json:"protocol"`
	Lambda    float64 `json:"lambda"`
	Run       int     `json:"run"`
	Delivered int     `json:"delivered"`
	Drained   bool    `json:"drained"`
	Slots     uint64  `json:"slots"`
}

// EventName implements Event.
func (p DynamicProgress) EventName() string { return p.Event }

// SimulatedSlots implements Event.
func (p DynamicProgress) SimulatedSlots() uint64 { return p.Slots }

// ArenaProgress is one completed execution of an arena experiment's
// (protocol, scenario) cell. Slots counts the drained run's completion
// time; saturated runs report 0.
type ArenaProgress struct {
	Event     string `json:"event"`
	Protocol  string `json:"protocol"`
	Scenario  string `json:"scenario"`
	Run       int    `json:"run"`
	Delivered int    `json:"delivered"`
	Drained   bool   `json:"drained"`
	Slots     uint64 `json:"slots"`
}

// EventName implements Event.
func (p ArenaProgress) EventName() string { return p.Event }

// SimulatedSlots implements Event.
func (p ArenaProgress) SimulatedSlots() uint64 { return p.Slots }

// StreamEnd is the terminal record of an NDJSON event stream, shared by
// the HTTP /stream endpoint and the CLI's -stream flag.
type StreamEnd struct {
	Event  string          `json:"event"` // "done" or "failed"
	ID     string          `json:"id,omitempty"`
	Status string          `json:"status,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Execution is one running (or finished) experiment. Progress events
// accumulate append-only, so any number of consumers can replay the
// stream from the start and then follow live.
type Execution struct {
	mu     sync.Mutex
	events []Event
	pulse  chan struct{} // closed and replaced on every state change
	done   bool
	result *Result
	err    error
}

// Run validates the spec (in place: defaults applied, names
// canonicalized) and starts executing it. Simulation work runs on
// background goroutines; canceling ctx aborts it promptly and
// surfaces ctx's error from Events and Result. Validation errors
// return synchronously.
func Run(ctx context.Context, s ExperimentSpec) (*Execution, error) {
	if err := s.Validate(Limits{}); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e := &Execution{pulse: make(chan struct{})}
	go e.run(ctx, s)
	return e, nil
}

// publish appends one progress event. Safe for concurrent use — sweep
// workers report from multiple goroutines.
func (e *Execution) publish(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = append(e.events, ev)
	close(e.pulse)
	e.pulse = make(chan struct{})
}

// finish records the terminal state.
func (e *Execution) finish(res *Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done = true
	e.result, e.err = res, err
	close(e.pulse)
	e.pulse = make(chan struct{})
}

// snapshot returns the events published since from, the current pulse
// channel (closed on the next change) and the terminal state.
func (e *Execution) snapshot(from int) (events []Event, pulse <-chan struct{}, done bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.events[from:], e.pulse, e.done, e.err
}

// Events streams the execution's progress events in publication order,
// following live until the experiment finishes; a terminal error (the
// first simulation error, or ctx's error after cancellation) is
// yielded last with a nil event. The sequence is re-iterable: each
// iteration replays from the start.
func (e *Execution) Events() iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		sent := 0
		for {
			events, pulse, done, err := e.snapshot(sent)
			for _, ev := range events {
				if !yield(ev, nil) {
					return
				}
				sent++
			}
			if done {
				if err != nil {
					yield(nil, err)
				}
				return
			}
			<-pulse
		}
	}
}

// Result blocks until the experiment finishes and returns its typed
// result, or the first error (ctx's error after cancellation).
func (e *Execution) Result() (*Result, error) {
	for {
		_, pulse, done, err := e.snapshot(0)
		if done {
			if err != nil {
				return nil, err
			}
			e.mu.Lock()
			res := e.result
			e.mu.Unlock()
			return res, nil
		}
		<-pulse
	}
}

// run dispatches on the spec kind. The spec arrives validated. A panic
// in simulation code fails this execution, with the stack in its error,
// rather than the process: replications are recovered by the
// replication engine's workers, everything else here.
func (e *Execution) run(ctx context.Context, s ExperimentSpec) {
	var (
		res *Result
		err error
	)
	defer func() {
		if r := recover(); r != nil {
			e.finish(nil, fmt.Errorf("spec: %s experiment panicked: %v\n%s", s.Kind, r, debug.Stack()))
		}
	}()
	switch s.Kind {
	case KindSolve:
		res, err = e.runSolve(ctx, s.Solve)
	case KindEvaluate:
		res, err = e.runEvaluate(ctx, s.Evaluate)
	case KindThroughput:
		res, err = e.runDynamic(ctx, s.Kind, s.Throughput)
	case KindScenario:
		res, err = e.runDynamic(ctx, s.Kind, s.Scenario)
	case KindArena:
		res, err = e.runArena(ctx, s.Arena)
	default:
		err = fmt.Errorf("spec: unknown experiment kind %q", s.Kind)
	}
	e.finish(res, err)
}

// runSolve executes one static k-selection instance, deriving the
// identical rng stream as mac.Protocol.Solve so all front ends
// reproduce the library bit for bit.
func (e *Execution) runSolve(ctx context.Context, s *SolveSpec) (*Result, error) {
	sys, err := harness.SystemBySpec(s.Protocol.Name, s.Protocol.Params)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	steps, err := sys.Run(s.K, rng.NewStream(s.Seed, "mac.Solve", sys.Name(), fmt.Sprint(s.K)))
	if err != nil {
		return nil, err
	}
	e.publish(SweepProgress{Event: "progress", System: sys.Name(), K: s.K, Slots: steps})
	return &Result{Kind: KindSolve, Solve: &SolveResult{
		Protocol: s.Protocol.Name,
		System:   sys.Name(),
		K:        s.K,
		Seed:     s.Seed,
		Slots:    steps,
		Ratio:    float64(steps) / float64(s.K),
		Analysis: sys.AnalysisRatio(s.K),
	}}, nil
}

// runEvaluate executes the static sweep.
func (e *Execution) runEvaluate(ctx context.Context, s *EvaluateSpec) (*Result, error) {
	systems, err := s.systems()
	if err != nil {
		return nil, err
	}
	ks := s.Ks
	if len(ks) == 0 {
		ks = harness.PaperKs(s.MaxExp)
	}
	sweep := harness.Sweep{
		Ks:        ks,
		Runs:      s.Runs,
		Seed:      s.Seed,
		Precision: s.Precision.engine(),
		Progress: func(system string, k, run int, steps uint64) {
			e.publish(SweepProgress{Event: "progress", System: system, K: k, Run: run, Slots: steps})
		},
	}
	results, err := sweep.RunContext(ctx, systems)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kind:     KindEvaluate,
		Evaluate: evaluateDocument(s.Seed, results),
		sweep:    results,
	}
	if s.Precision != nil {
		for _, series := range results {
			for i := range series.Cells {
				res.repsSaved += s.Precision.MaxReps - series.Cells[i].Steps.N()
			}
		}
	}
	return res, nil
}

// runArena executes the cross-paper robustness arena.
func (e *Execution) runArena(ctx context.Context, s *ArenaSpec) (*Result, error) {
	names := make([]string, len(s.Protocols))
	for i, p := range s.Protocols {
		names[i] = p.Name
	}
	cfg := arena.Config{
		Protocols: names,
		Scenarios: s.Scenarios,
		Lambda:    s.Lambda,
		Messages:  s.Messages,
		Runs:      s.Runs,
		Seed:      s.Seed,
		Precision: s.Precision.engine(),
		Progress: func(name, scn string, run int, r dynamic.Result) {
			var slots uint64
			if r.Completed {
				slots = r.Completion
			}
			e.publish(ArenaProgress{Event: "progress", Protocol: name, Scenario: scn,
				Run: run, Delivered: r.Delivered, Drained: r.Completed, Slots: slots})
		},
	}
	ranking, err := arena.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kind:      KindArena,
		Arena:     arenaDocument(s.Seed, ranking),
		arenaRank: ranking,
	}
	if s.Precision != nil {
		for _, entry := range ranking.Ranking {
			for i := range entry.Scenarios {
				res.repsSaved += s.Precision.MaxReps - entry.Scenarios[i].Runs
			}
		}
	}
	return res, nil
}

// runDynamic executes the λ-sweep shared by the throughput and
// scenario kinds.
func (e *Execution) runDynamic(ctx context.Context, kind ExperimentKind, s *ThroughputSpec) (*Result, error) {
	var cfg throughput.Config
	var workload string
	switch {
	case s.Config != nil:
		cfg = *s.Config
		workload = cfg.Scenario.Name
		if workload == "" {
			if cfg.Scenario.Arrivals != nil {
				workload = "custom"
			} else {
				workload = cfg.Shape.String()
			}
		}
	case kind == KindScenario:
		scn, err := scenario.ByName(s.Scenario)
		if err != nil {
			return nil, err
		}
		cfg = throughput.Config{Scenario: scn}
		workload = scn.Name
	default:
		shape, err := throughput.ParseShape(s.Shape)
		if err != nil {
			return nil, err
		}
		cfg = throughput.Config{Shape: shape}
		workload = shape.String()
	}
	if s.Config == nil {
		cfg.Lambdas = s.Lambdas
		cfg.Messages = s.Messages
		cfg.Runs = s.Runs
		cfg.Seed = s.Seed
		cfg.Precision = s.Precision.engine()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1 // the default throughput.Run would apply; made explicit for the result document
	}
	userProgress := cfg.Progress
	cfg.Progress = func(name string, lambda float64, run int, res dynamic.Result) {
		if userProgress != nil {
			userProgress(name, lambda, run, res)
		}
		// Saturated runs burn their full (unknown here) budget; counting
		// only drained completions undercounts slightly, which is fine
		// for a rate metric.
		var slots uint64
		if res.Completed {
			slots = res.Completion
		}
		e.publish(DynamicProgress{Event: "progress", Protocol: name, Lambda: lambda,
			Run: run, Delivered: res.Delivered, Drained: res.Completed, Slots: slots})
	}
	protocols := s.Lineup
	if len(protocols) == 0 {
		protocols = throughput.DefaultProtocols()
	}
	series, err := throughput.RunContext(ctx, protocols, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kind:       kind,
		Throughput: throughputDocument(workload, cfg.Seed, series),
		dynamic:    series,
	}
	if s.Config == nil && s.Precision != nil {
		for _, sr := range series {
			for i := range sr.Points {
				res.repsSaved += s.Precision.MaxReps - sr.Points[i].Runs
			}
		}
	}
	return res, nil
}
