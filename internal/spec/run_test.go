package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/throughput"
)

// panicSystem is a library-only System whose Run or AnalysisRatio
// panics, standing in for a simulation bug.
type panicSystem struct{ inRun bool }

func (panicSystem) Name() string { return "panicky" }

func (s panicSystem) AnalysisRatio(int) string {
	if !s.inRun {
		panic("analysis exploded")
	}
	return "-"
}

func (s panicSystem) Run(k int, _ *rng.Rand) (uint64, error) {
	if s.inRun {
		panic("run exploded")
	}
	return uint64(k), nil
}

// TestRunPanicFailsExecution: a panic in a replication (on the
// replication engine's workers) or in the execution's own goroutine
// fails that execution with an error naming the panic; the process, and
// so a daemon's other jobs, survive.
func TestRunPanicFailsExecution(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		spec ExperimentSpec
		want string
	}{
		{"evaluate replication", ForEvaluate(EvaluateSpec{Systems: []harness.System{panicSystem{inRun: true}},
			Ks: []int{8}, Runs: 2}), "run exploded"},
		{"evaluate document", ForEvaluate(EvaluateSpec{Systems: []harness.System{panicSystem{}},
			Ks: []int{8}, Runs: 2}), "analysis exploded"},
		{"throughput replication", ForThroughput(ThroughputSpec{Lambdas: []float64{0.1}, Messages: 20, Runs: 2,
			Lineup: []throughput.Protocol{{Name: "panicky", NewSchedule: func() (protocol.Schedule, error) {
				panic("schedule exploded")
			}}}}), "schedule exploded"},
	}
	for _, c := range cases {
		exec, err := Run(context.Background(), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = exec.Result()
		if err == nil || !strings.Contains(err.Error(), "panicked: "+c.want) ||
			!strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("%s: err = %v, want the panic %q with its stack", c.name, err, c.want)
		}
	}
}

func TestRunSolveStreamsAndResolves(t *testing.T) {
	t.Parallel()
	exec, err := Run(context.Background(), ForSolve(SolveSpec{K: 300, Seed: 11}))
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for ev, err := range exec.Events() {
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 1 {
		t.Fatalf("solve streamed %d events, want 1", len(events))
	}
	p, ok := events[0].(SweepProgress)
	if !ok || p.Event != "progress" || p.K != 300 || p.Slots == 0 {
		t.Fatalf("unexpected event %+v", events[0])
	}
	if p.SimulatedSlots() != p.Slots {
		t.Fatalf("SimulatedSlots = %d, want %d", p.SimulatedSlots(), p.Slots)
	}
	res, err := exec.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindSolve || res.Solve == nil || res.Solve.Slots != p.Slots {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.Solve.System != "One-Fail Adaptive" || res.Solve.Protocol != "one-fail" {
		t.Fatalf("unexpected result naming %+v", res.Solve)
	}
	// Events are re-iterable after completion.
	n := 0
	for _, err := range exec.Events() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("replay saw %d events", n)
	}
	// The document marshals to the wire codec.
	data, err := json.Marshal(res.Document())
	if err != nil {
		t.Fatal(err)
	}
	var doc SolveResult
	if err := json.Unmarshal(data, &doc); err != nil || doc != *res.Solve {
		t.Fatalf("document round trip: %s, %v", data, err)
	}
}

func TestRunSolveDeterministicAcrossExecutions(t *testing.T) {
	t.Parallel()
	slots := func() uint64 {
		exec, err := Run(context.Background(), ForSolve(SolveSpec{K: 200, Seed: 42}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res.Solve.Slots
	}
	if a, b := slots(), slots(); a != b {
		t.Fatalf("same spec gave %d then %d slots", a, b)
	}
}

func TestRunEvaluateEventsAndResult(t *testing.T) {
	t.Parallel()
	exec, err := Run(context.Background(), ForEvaluate(EvaluateSpec{
		Protocols: []ProtocolSpec{{Name: "ofa"}},
		Ks:        []int{10, 50},
		Runs:      2,
		Seed:      3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	for _, err := range exec.Events() {
		if err != nil {
			t.Fatal(err)
		}
		progress++
	}
	if progress != 4 { // 1 protocol × 2 sizes × 2 runs
		t.Fatalf("progress events = %d, want 4", progress)
	}
	res, err := exec.Result()
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Evaluate
	if doc == nil || len(doc.Series) != 1 || len(doc.Series[0].Cells) != 2 {
		t.Fatalf("unexpected evaluate document %+v", doc)
	}
	if doc.Series[0].System != "One-Fail Adaptive" || doc.Table1 == "" || doc.CSV == "" {
		t.Fatalf("document misses renderings: %+v", doc)
	}
	if len(res.Sweep()) != 1 {
		t.Fatalf("raw series missing: %d", len(res.Sweep()))
	}
}

func TestRunThroughputKinds(t *testing.T) {
	t.Parallel()
	exec, err := Run(context.Background(), ForScenario(ThroughputSpec{
		Scenario: "rho", Lambdas: []float64{0.1}, Messages: 100, Runs: 1, Seed: 5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	sawDynamic := false
	for ev, err := range exec.Events() {
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := ev.(DynamicProgress); ok {
			sawDynamic = true
			if p.Event != "progress" || p.Lambda != 0.1 {
				t.Fatalf("unexpected event %+v", p)
			}
		}
	}
	if !sawDynamic {
		t.Fatal("no dynamic progress events")
	}
	res, err := exec.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindScenario || res.Throughput == nil || res.Throughput.Scenario != "rho" {
		t.Fatalf("unexpected result %+v", res)
	}
	if len(res.Dynamic()) == 0 {
		t.Fatal("raw dynamic series missing")
	}
}

func TestRunValidationErrorIsSynchronous(t *testing.T) {
	t.Parallel()
	if _, err := Run(context.Background(), ForSolve(SolveSpec{K: -3})); err == nil {
		t.Fatal("invalid spec started an execution")
	}
}

// TestRunCancelMidSweep is the library-path acceptance test: canceling
// the mac.Run context mid-sweep stops simulation work promptly and
// surfaces context.Canceled from both the event stream and Result.
func TestRunCancelMidSweep(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Runs heavy enough (k=20'000, several ms each) that the cancel —
	// issued on the first progress event — lands long before the 200
	// queued runs could drain.
	exec, err := Run(ctx, ForEvaluate(EvaluateSpec{
		Protocols: []ProtocolSpec{{Name: "ofa"}},
		Ks:        []int{20000},
		Runs:      200,
		Seed:      1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var events atomic.Int32
	var streamErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, err := range exec.Events() {
			if err != nil {
				streamErr = err
				return
			}
			if events.Add(1) == 1 {
				cancel()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("event stream did not terminate after cancellation")
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream error = %v after %d events, want context.Canceled", streamErr, events.Load())
	}
	if _, err := exec.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result error = %v, want context.Canceled", err)
	}
	// The bulk of the 200 queued runs must never have executed.
	if n := events.Load(); n > 100 {
		t.Fatalf("%d runs executed after cancellation at run 1", n)
	}
}

// TestRunResultWithoutConsumingEvents: a caller that never iterates
// Events must still get the result — publication never blocks on
// consumers.
func TestRunResultWithoutConsumingEvents(t *testing.T) {
	t.Parallel()
	exec, err := Run(context.Background(), ForEvaluate(EvaluateSpec{
		Protocols: []ProtocolSpec{{Name: "exp-bb"}},
		Ks:        []int{10},
		Runs:      3,
		Seed:      2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Result()
	if err != nil || res.Evaluate == nil {
		t.Fatalf("Result = %+v, %v", res, err)
	}
}

// TestRunAdaptiveEvaluate drives an adaptive-precision evaluate
// experiment end to end through Run: the result document must report
// per-cell reps and error bars, and the execution must account the
// replications the stopping rule saved.
func TestRunAdaptiveEvaluate(t *testing.T) {
	t.Parallel()
	exec, err := Run(context.Background(), ForEvaluate(EvaluateSpec{
		Protocols: []ProtocolSpec{{Name: "exp-bb"}},
		Ks:        []int{200},
		Seed:      1,
		Precision: &PrecisionSpec{Epsilon: 0.3, Confidence: 0.9, MinReps: 2, MaxReps: 40},
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Result()
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Evaluate.Series[0].Cells[0]
	if cell.RepsUsed < 2 || cell.RepsUsed >= 40 {
		t.Fatalf("RepsUsed = %d, want early stop in [2, 40)", cell.RepsUsed)
	}
	if cell.Runs != cell.RepsUsed {
		t.Fatalf("Runs (%d) and RepsUsed (%d) disagree", cell.Runs, cell.RepsUsed)
	}
	if cell.CI95 <= 0 {
		t.Fatalf("CI95 = %v, want > 0 for a noisy cell", cell.CI95)
	}
	if want := 40 - cell.RepsUsed; res.RepsSaved() != want {
		t.Fatalf("RepsSaved = %d, want %d", res.RepsSaved(), want)
	}
	// The document round-trips the new fields.
	data, err := json.Marshal(res.Document())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"repsUsed"`, `"ci95"`} {
		if !json.Valid(data) || !bytes.Contains(data, []byte(field)) {
			t.Fatalf("document missing %s: %s", field, data)
		}
	}
}

// TestRunAdaptiveThroughput drives an adaptive scenario experiment end
// to end and checks the dynamic result document.
func TestRunAdaptiveThroughput(t *testing.T) {
	t.Parallel()
	exec, err := Run(context.Background(), ForThroughput(ThroughputSpec{
		Lambdas:   []float64{0.05},
		Messages:  200,
		Seed:      1,
		Precision: &PrecisionSpec{Epsilon: 0.4, Confidence: 0.9, MinReps: 2, MaxReps: 16},
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Result()
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for _, s := range res.Throughput.Series {
		for _, p := range s.Points {
			if p.RepsUsed < 2 || p.RepsUsed > 16 {
				t.Fatalf("%s: RepsUsed = %d out of bounds", s.Protocol, p.RepsUsed)
			}
			saved += 16 - p.RepsUsed
		}
	}
	if res.RepsSaved() != saved {
		t.Fatalf("RepsSaved = %d, want %d", res.RepsSaved(), saved)
	}
}
