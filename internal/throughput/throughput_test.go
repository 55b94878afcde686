package throughput

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/montecarlo"
	"repro/internal/rng"
	"repro/internal/scenario"
)

func TestParseShape(t *testing.T) {
	t.Parallel()
	for name, want := range map[string]Shape{
		"poisson": Poisson, "bursty": Bursty, "burst": Bursty, "onoff": OnOff, "On-Off": OnOff,
	} {
		got, err := ParseShape(name)
		if err != nil || got != want {
			t.Fatalf("ParseShape(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got.String() == "" {
			t.Fatalf("shape %v has empty name", got)
		}
	}
	if _, err := ParseShape("uniform"); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestGenerateRejectsBadLoad(t *testing.T) {
	t.Parallel()
	for _, shape := range []Shape{Poisson, Bursty, OnOff} {
		if _, err := shape.Generate(10, 0, rng.New(1)); err == nil {
			t.Fatalf("%v: λ=0 accepted", shape)
		}
		if _, err := shape.Generate(10, -1, rng.New(1)); err == nil {
			t.Fatalf("%v: λ=-1 accepted", shape)
		}
	}
	if _, err := Shape(99).Generate(10, 0.5, rng.New(1)); err == nil {
		t.Fatal("unknown shape generated a workload")
	}
	// A vanishing λ would overflow uint64 slot arithmetic in any shape.
	for _, shape := range []Shape{Poisson, Bursty, OnOff} {
		if _, err := shape.Generate(200, 1e-18, rng.New(1)); err == nil {
			t.Fatalf("%v: λ below the representable span accepted", shape)
		}
	}
}

// TestGenerateShapes verifies the structural invariants of each arrival
// shape: exact message count, non-decreasing slots ≥ 1, and a realized
// offered load near λ.
func TestGenerateShapes(t *testing.T) {
	t.Parallel()
	const n, lambda = 4096, 0.25
	for _, shape := range []Shape{Poisson, Bursty, OnOff} {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			w, err := shape.Generate(n, lambda, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if w.N() != n {
				t.Fatalf("n = %d, want %d", w.N(), n)
			}
			if w.Arrivals[0] < 1 {
				t.Fatalf("first arrival %d < 1", w.Arrivals[0])
			}
			for i := 1; i < n; i++ {
				if w.Arrivals[i] < w.Arrivals[i-1] {
					t.Fatalf("arrivals not monotone at %d: %d < %d", i, w.Arrivals[i], w.Arrivals[i-1])
				}
			}
			got := float64(n) / float64(w.Span())
			if math.Abs(got-lambda) > lambda/3 {
				t.Fatalf("realized load %.3f, want ~%.3f", got, lambda)
			}
		})
	}
}

func TestGenerateBursty(t *testing.T) {
	t.Parallel()
	// 200 messages in bursts of 64: 64+64+64+8, gaps of 64/0.5 = 128.
	w, err := Bursty.Generate(200, 0.5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 200 {
		t.Fatalf("n = %d, want 200", w.N())
	}
	for i, a := range w.Arrivals {
		want := uint64(1 + (i/BurstSize)*128)
		if a != want {
			t.Fatalf("message %d arrives at %d, want %d", i, a, want)
		}
	}
}

func TestGenerateOnOffRespectsPhases(t *testing.T) {
	t.Parallel()
	w, err := OnOff.Generate(3000, 0.3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range w.Arrivals {
		// Arrival slots are 1-based; phase index of slot s is (s-1)/P,
		// and odd phases are silent.
		if ((a-1)/OnOffPhase)%2 != 0 {
			t.Fatalf("message %d arrives at %d inside an off-phase", i, a)
		}
	}
}

// TestRunSweepStructure runs a small two-protocol sweep end to end and
// checks the aggregate structure: stable points track λ, the table, CSV
// and plot render every protocol, and workloads are matched across
// protocols by construction.
func TestRunSweepStructure(t *testing.T) {
	t.Parallel()
	protos := []Protocol{DefaultProtocols()[0], DefaultProtocols()[3]} // EBB (window), OFA (fair)
	var calls atomic.Int64
	cfg := Config{
		Lambdas:  []float64{0.05, 0.1},
		Messages: 400,
		Runs:     2,
		Seed:     3,
		Progress: func(string, float64, int, dynamic.Result) { calls.Add(1) },
	}
	series, err := Run(protos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	if got := calls.Load(); got != 2*2*2 {
		t.Fatalf("progress calls = %d, want 8", got)
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: points = %d, want 2", s.Protocol.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Completed != p.Runs {
				t.Fatalf("%s λ=%v: %d/%d drained at a gentle load", s.Protocol.Name, p.Lambda, p.Completed, p.Runs)
			}
			// At loads far below saturation, throughput ≈ λ.
			if got := p.Throughput.Mean(); math.Abs(got-p.Lambda) > p.Lambda/3 {
				t.Fatalf("%s λ=%v: throughput %.3f, want ~λ", s.Protocol.Name, p.Lambda, got)
			}
			if p.Latency.N() != cfg.Messages*cfg.Runs {
				t.Fatalf("%s λ=%v: %d latencies, want %d", s.Protocol.Name, p.Lambda, p.Latency.N(), cfg.Messages*cfg.Runs)
			}
		}
	}
	for _, render := range []string{Table(series), CSV(series), Plot(series)} {
		for _, p := range protos {
			if !strings.Contains(render, p.Name) {
				t.Fatalf("rendering misses %q:\n%s", p.Name, render)
			}
		}
	}
	if !strings.HasPrefix(CSV(series), "protocol,lambda,") {
		t.Fatalf("CSV header wrong:\n%s", CSV(series))
	}
}

// TestRunSaturationKnee: at an offered load beyond Exp Back-on/Back-off's
// saturation point the sweep must report degraded throughput, while the
// same load is sustained by binary exponential backoff — the ranking the
// dynamic-arrival literature predicts for gentle loads vs batched work.
func TestRunSaturationKnee(t *testing.T) {
	t.Parallel()
	protos := WindowedProtocols() // EBB, LLIB, BEB
	series, err := Run(protos, Config{
		Lambdas:  []float64{0.3},
		Messages: 6000,
		Runs:     2,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ebb, beb := series[0].Points[0], series[2].Points[0]
	if ebb.Throughput.Mean() > 0.15 {
		t.Fatalf("EBB at λ=0.3 sustained %.3f msgs/slot, expected saturation well below 0.15", ebb.Throughput.Mean())
	}
	// The short run's drain tail shaves the measured rate below λ even
	// for a stable protocol; 0.22 still cleanly separates the two.
	if beb.Throughput.Mean() < 0.22 || beb.Throughput.Mean() < 2*ebb.Throughput.Mean() {
		t.Fatalf("binary exp backoff at λ=0.3 sustained only %.3f msgs/slot (EBB: %.3f)",
			beb.Throughput.Mean(), ebb.Throughput.Mean())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	t.Parallel()
	if _, err := Run(DefaultProtocols()[:1], Config{Lambdas: []float64{-0.1}, Messages: 10}); err == nil {
		t.Fatal("negative λ accepted")
	}
	bad := []Protocol{{Name: "empty"}}
	if _, err := Run(bad, Config{Lambdas: []float64{0.1}, Messages: 10, Runs: 1}); err == nil {
		t.Fatal("protocol without constructor accepted")
	}
	// A partially built scenario (impairments but no arrivals) must error
	// rather than silently fall back to the benign shape.
	half := Config{Lambdas: []float64{0.1}, Messages: 10, Runs: 1,
		Scenario: scenario.Workload{Name: "half", Channel: scenario.JamRandom{Rate: 0.1}}}
	if _, err := Run(DefaultProtocols()[:1], half); err == nil {
		t.Fatal("scenario without arrivals accepted")
	}
}

func TestGenerateBurstyRejectsExcessiveLoad(t *testing.T) {
	t.Parallel()
	// The shape cannot offer more than BurstSize messages per slot and
	// must say so rather than silently cap and mislabel the load.
	if _, err := Bursty.Generate(200, 200, rng.New(1)); err == nil {
		t.Fatal("λ beyond the bursty shape's capacity accepted")
	}
	if _, err := Bursty.Generate(200, float64(BurstSize)+0.5, rng.New(1)); err == nil {
		t.Fatal("λ just above the bursty shape's capacity accepted")
	}
	// λ = BurstSize is exactly representable (gap 1, a burst every slot).
	w, err := Bursty.Generate(200, float64(BurstSize), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 200 {
		t.Fatalf("n = %d, want 200", w.N())
	}
}

// TestRunScenarioImpairments drives the sweep through the catalog's
// impaired scenarios: a jammed channel must cost throughput or latency
// relative to the clean run of the identical shape, and a mixed
// population must still drain at a gentle load.
func TestRunScenarioImpairments(t *testing.T) {
	t.Parallel()
	protos := []Protocol{DefaultProtocols()[2]} // binary exponential backoff
	base := Config{Lambdas: []float64{0.05}, Messages: 300, Runs: 2, Seed: 11}

	clean, err := Run(protos, base)
	if err != nil {
		t.Fatal(err)
	}
	jammedCfg := base
	jammedCfg.Scenario = scenario.Workload{
		Name:     "jammed",
		Arrivals: scenario.Poisson{},
		Channel:  scenario.JamRandom{Rate: 0.3},
	}
	jammed, err := Run(protos, jammedCfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, jp := clean[0].Points[0], jammed[0].Points[0]
	if jp.Completed != jp.Runs {
		t.Fatalf("jammed runs did not drain: %d/%d", jp.Completed, jp.Runs)
	}
	if jp.Latency.Mean() <= cp.Latency.Mean() {
		t.Fatalf("jamming did not cost latency: %.1f ≤ %.1f", jp.Latency.Mean(), cp.Latency.Mean())
	}
	if jp.Collisions.Mean() <= cp.Collisions.Mean() {
		t.Fatalf("jamming did not cost collisions: %.1f ≤ %.1f", jp.Collisions.Mean(), cp.Collisions.Mean())
	}

	mixedCfg := base
	mixedCfg.Scenario = scenario.Workload{
		Name:     "mixed",
		Arrivals: scenario.Poisson{},
		Population: &scenario.Population{
			Fraction:      0.5,
			Background:    "Binary Exp Backoff",
			NewBackground: scenario.NewBackgroundBackoff,
		},
	}
	mixed, err := Run(protos, mixedCfg)
	if err != nil {
		t.Fatal(err)
	}
	mp := mixed[0].Points[0]
	if mp.Completed != mp.Runs {
		t.Fatalf("mixed-population runs did not drain: %d/%d", mp.Completed, mp.Runs)
	}
	if mp.Latency.N() != base.Messages*base.Runs {
		t.Fatalf("mixed run recorded %d latencies, want %d", mp.Latency.N(), base.Messages*base.Runs)
	}
}

// TestRunDeterministic: two sweeps with the same configuration must be
// bit-for-bit identical regardless of worker scheduling — the property
// the `macsim scenario` golden output relies on.
func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Lambdas:  []float64{0.05, 0.15},
		Messages: 250,
		Runs:     3,
		Seed:     7,
		Scenario: scenario.Workload{
			Name:     "jammed",
			Arrivals: scenario.RhoBounded{},
			Channel:  scenario.JamRandom{Rate: 0.1},
		},
	}
	protos := WindowedProtocols()
	one, err := Run(protos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 1 // maximally different scheduling
	two, err := Run(protos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if CSV(one) != CSV(two) {
		t.Fatalf("sweep not deterministic:\n%s\nvs\n%s", CSV(one), CSV(two))
	}
	if Table(one) != Table(two) {
		t.Fatal("table rendering not deterministic")
	}
}

// TestRunAdversarialScenarios smoke-runs each adversarial arrival
// generator through the full sweep machinery.
func TestRunAdversarialScenarios(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"rho", "herd", "adaptive"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			scn, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			series, err := Run(WindowedProtocols()[:1], Config{
				Lambdas: []float64{0.1}, Messages: 300, Runs: 1, Seed: 3, Scenario: scn,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := series[0].Points[0]
			if p.Latency.N() == 0 {
				t.Fatal("no latencies recorded")
			}
		})
	}
}

// TestRunContextCancel: once the context is canceled, workers must stop
// starting queued executions and the sweep must return ctx.Err() — the
// lever mac.Run and the serving subsystem's job cancellation rely on.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs atomic.Int32
	cfg := Config{
		Lambdas:     []float64{0.05, 0.1, 0.2, 0.3},
		Messages:    200,
		Runs:        8,
		Seed:        1,
		Parallelism: 2,
		Progress: func(string, float64, int, dynamic.Result) {
			if runs.Add(1) == 2 {
				cancel()
			}
		},
	}
	if _, err := RunContext(ctx, DefaultProtocols(), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext after cancel: err = %v, want context.Canceled", err)
	}
	// 4 protocols × 4 λ × 8 runs = 128 queued executions; after the
	// cancel at execution 2 only the in-flight ones may finish.
	if n := runs.Load(); n > 2+4 {
		t.Fatalf("%d executions finished after cancellation at execution 2", n)
	}
}

// TestRunContextAlreadyCanceled: a canceled context aborts before any
// workload is even materialized.
func TestRunContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int32
	cfg := Config{Lambdas: []float64{0.1}, Messages: 100, Runs: 2,
		Progress: func(string, float64, int, dynamic.Result) { runs.Add(1) }}
	if _, err := RunContext(ctx, WindowedProtocols(), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs.Load() != 0 {
		t.Fatalf("%d executions ran under a canceled context", runs.Load())
	}
}

// TestAdaptiveMatchesFixedAtPinnedReps is the λ-sweep half of the
// seed-determinism proof: with MinReps == MaxReps == Runs, adaptive
// mode replays the identical workload instances and protocol streams,
// so every aggregate — including the pooled latency sample and the
// matched-pairs property across protocols — reproduces fixed-rep
// results bit for bit.
func TestAdaptiveMatchesFixedAtPinnedReps(t *testing.T) {
	t.Parallel()
	const runs = 3
	protocols := WindowedProtocols()[:2]
	base := Config{Lambdas: []float64{0.05, 0.2}, Messages: 300, Seed: 9}
	fixedCfg := base
	fixedCfg.Runs = runs
	fixedRes, err := Run(protocols, fixedCfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCfg := base
	adaptiveCfg.Precision = montecarlo.Precision{Epsilon: 1e-12, Confidence: 0.95, MinReps: runs, MaxReps: runs}
	adaptiveRes, err := Run(protocols, adaptiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fixedRes {
		for j := range fixedRes[i].Points {
			f, a := &fixedRes[i].Points[j], &adaptiveRes[i].Points[j]
			same := f.Lambda == a.Lambda && f.Runs == a.Runs && f.Completed == a.Completed &&
				f.Throughput.Mean() == a.Throughput.Mean() &&
				f.Throughput.Variance() == a.Throughput.Variance() &&
				f.Latency.N() == a.Latency.N() && f.Latency.Mean() == a.Latency.Mean() &&
				f.Backlog.Max() == a.Backlog.Max() && f.Collisions.Mean() == a.Collisions.Mean()
			if !same {
				t.Fatalf("%s λ=%v: adaptive point %+v != fixed point %+v",
					fixedRes[i].Protocol.Name, f.Lambda, *a, *f)
			}
		}
	}
}

// TestAdaptiveStopsEarly checks that a loose target stops a
// low-variance point well short of MaxReps, and that the per-point rep
// counts are reported via Point.Runs.
func TestAdaptiveStopsEarly(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Lambdas:  []float64{0.05},
		Messages: 400,
		Seed:     1,
		Precision: montecarlo.Precision{
			Epsilon: 0.25, Confidence: 0.9, MinReps: 2, MaxReps: 32,
		},
	}
	res, err := Run(WindowedProtocols()[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := res[0].Points[0]
	if pt.Runs >= 32 || pt.Runs < 2 {
		t.Fatalf("reps used = %d, want early stop in [2, 32)", pt.Runs)
	}
	if pt.Throughput.N() != pt.Runs {
		t.Fatalf("Throughput.N() = %d, want Runs = %d", pt.Throughput.N(), pt.Runs)
	}
}

// TestAdaptiveInvalidPrecision verifies precision validation surfaces
// from the sweep entry point.
func TestAdaptiveInvalidPrecision(t *testing.T) {
	t.Parallel()
	cfg := Config{Lambdas: []float64{0.1}, Messages: 50,
		Precision: montecarlo.Precision{Epsilon: 0.1, Confidence: 0.95, MinReps: 1, MaxReps: 4}}
	if _, err := Run(WindowedProtocols()[:1], cfg); err == nil {
		t.Fatal("want validation error for minReps < 2")
	}
}

// TestAdaptiveCancellation verifies ctx cancellation aborts the
// adaptive sweep between batches.
func TestAdaptiveCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cfg := Config{Lambdas: []float64{0.05, 0.1, 0.2}, Messages: 200, Seed: 3,
		Precision: montecarlo.Precision{Epsilon: 1e-12, Confidence: 0.95, MinReps: 2, MaxReps: 1000},
		Progress: func(string, float64, int, dynamic.Result) {
			once.Do(cancel)
		}}
	if _, err := RunContext(ctx, WindowedProtocols()[:1], cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// countingArrivals counts the workload instances a sweep builds per λ.
type countingArrivals struct {
	mu    sync.Mutex
	built map[float64]int
}

func (c *countingArrivals) Generate(n int, lambda float64, src *rng.Rand) (dynamic.Workload, error) {
	c.mu.Lock()
	c.built[lambda]++
	c.mu.Unlock()
	return scenario.Poisson{}.Generate(n, lambda, src)
}

// TestInstancesShared: every protocol reads the same (λ, run)
// instance. A fixed-rep sweep builds each one once. Under adaptive
// precision, where protocols stop at different replication counts,
// only the first Runs runs are shared: later protocols rebuild the
// rest, but no execution builds more than its own.
func TestInstancesShared(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{
		{Runs: 3, Parallelism: 3},
		{Runs: 3, Parallelism: 1},
		{Runs: 2, Precision: montecarlo.Precision{Epsilon: 0.05, Confidence: 0.95, MinReps: 2, MaxReps: 12}, Parallelism: 3},
	} {
		arr := &countingArrivals{built: map[float64]int{}}
		cfg.Lambdas, cfg.Messages, cfg.Seed = []float64{0.05, 0.2}, 150, 4
		cfg.Scenario = scenario.Workload{Name: "counted", Arrivals: arr}
		series, err := Run(DefaultProtocols(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j, l := range cfg.Lambdas {
			most, least, all := 0, math.MaxInt, 0
			for _, s := range series {
				most, least = max(most, s.Points[j].Runs), min(least, s.Points[j].Runs)
				all += s.Points[j].Runs
			}
			built := arr.built[l]
			if !cfg.Precision.Enabled() {
				if built != most {
					t.Fatalf("%+v λ=%v: %d instances built for %d runs per protocol", cfg, l, built, most)
				}
				continue
			}
			if j == 1 && most == least {
				t.Fatalf("λ=%v: every protocol stopped at %d runs; want a case where they differ", l, most)
			}
			// Runs 0 and 1 are built once; every other execution builds its own.
			if want := all - (len(series)-1)*cfg.Runs; built != want {
				t.Fatalf("λ=%v: %d instances built for %d executions, want %d", l, built, all, want)
			}
		}
	}
}

// TestInstancesDroppedWhenNoPointCanRead pins the instance cache's
// lifetime rule: an instance goes once every point at its λ has run it
// or stopped short of it, and one built after a point stopped does not
// wait for that point.
func TestInstancesDroppedWhenNoPointCanRead(t *testing.T) {
	t.Parallel()
	c := &instances{
		build:   func(int, int) (scenario.Instance, error) { return scenario.Instance{}, nil },
		points:  2,
		runs:    4,
		live:    map[[2]int]*instance{},
		stopped: make([]int, 1),
	}
	c.get(0, 0) // point A runs 0
	c.release(0, 0)
	c.get(0, 1) // point A runs 1
	c.release(0, 1)
	if len(c.live) != 2 {
		t.Fatalf("%d live instances, want 2 until point B reads or passes them", len(c.live))
	}
	c.get(0, 0) // point B runs 0, then stops
	c.release(0, 0)
	c.stop(0, 1)
	if len(c.live) != 0 {
		t.Fatalf("%d live instances after every point ran or passed them, want 0", len(c.live))
	}
	c.get(0, 2) // point A runs 2, after B stopped: A is its only reader
	c.release(0, 2)
	if len(c.live) != 0 {
		t.Fatalf("instance built after a point stopped still waits for it")
	}
}

// TestInstancesHeldBelowRuns: the cache holds only runs below Runs; a
// point that runs past them builds the rest for itself, and so does
// every later point.
func TestInstancesHeldBelowRuns(t *testing.T) {
	t.Parallel()
	builds := map[int]int{}
	c := &instances{
		build: func(_, run int) (scenario.Instance, error) {
			builds[run]++
			return scenario.Instance{}, nil
		},
		points:  3,
		runs:    2,
		live:    map[[2]int]*instance{},
		stopped: make([]int, 1),
	}
	for point := 0; point < 3; point++ {
		for run := 0; run < 5; run++ {
			c.get(0, run)
			if len(c.live) > c.runs {
				t.Fatalf("point %d run %d: %d instances held, want at most %d", point, run, len(c.live), c.runs)
			}
			c.release(0, run)
		}
		c.stop(0, 5)
	}
	want := map[int]int{0: 1, 1: 1, 2: 3, 3: 3, 4: 3}
	if !reflect.DeepEqual(builds, want) {
		t.Fatalf("builds by run %v, want %v", builds, want)
	}
	if len(c.live) != 0 {
		t.Fatalf("%d live instances after every point stopped", len(c.live))
	}
}
