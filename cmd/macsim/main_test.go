package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	mac "repro"
)

// capture runs fn with stdout redirected and returns what it printed.
// The pipe is drained concurrently so large outputs cannot deadlock the
// writer.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done, runErr
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-experiment", "nope"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error must teach the valid names, not just reject (they used to
	// live only in the flag help text).
	for _, want := range []string{"table1", "throughput", "scenario", "ablation-monotone"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("experiment error does not list %q: %v", want, err)
		}
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	err := run([]string{"-experiment", "run", "-protocol", "nope"})
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	for _, want := range []string{"one-fail", "exp-bb", "log-fails-10", "exp-backoff",
		"bk-cascade", "cjz-ladder", "jz-robust"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("protocol error does not list %q: %v", want, err)
		}
	}
}

func TestRunUnknownScenario(t *testing.T) {
	err := run([]string{"scenario", "-scenario", "nope", "-quiet"})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, want := range []string{"rho", "herd", "adaptive", "jammed", "mixed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("scenario error does not list %q: %v", want, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSingle(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-experiment", "run", "-protocol", "one-fail", "-k", "200", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "One-Fail Adaptive") || !strings.Contains(out, "k=200") {
		t.Fatalf("unexpected output: %s", out)
	}
}

func TestRunTable1Small(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-experiment", "table1", "-maxexp", "2", "-runs", "2", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "One-Fail Adaptive", "Analysis"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceSmall(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-experiment", "trace", "-protocol", "exp-bb", "-k", "3", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "solved k=3") {
		t.Fatalf("trace output missing summary:\n%s", out)
	}
}

func TestRunTraceRejectsLargeK(t *testing.T) {
	if err := run([]string{"-experiment", "trace", "-k", "100000"}); err == nil {
		t.Fatal("huge trace accepted")
	}
}

func TestRunCSVOutput(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-experiment", "table1", "-maxexp", "1", "-runs", "2", "-out", "csv", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "system,k,runs,") {
		t.Fatalf("CSV output wrong:\n%s", out)
	}
}

func TestRunAblations(t *testing.T) {
	for _, exp := range []string{"ablation-ofa", "ablation-ebb", "ablation-monotone"} {
		out, err := capture(t, func() error {
			return run([]string{"-experiment", exp, "-k", "300", "-runs", "2", "-quiet"})
		})
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out, "ratio") {
			t.Fatalf("%s output missing ratios:\n%s", exp, out)
		}
	}
}

func TestRunDynamicSmall(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-experiment", "dynamic", "-k", "50", "-rate", "0.05", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "One-Fail Adaptive") || !strings.Contains(out, "max-backlog") {
		t.Fatalf("dynamic output wrong:\n%s", out)
	}
}

func TestRunThroughputSmall(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-experiment", "throughput", "-lambdas", "0.05,0.1",
			"-messages", "200", "-runs", "1", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p99 lat", "Exp Back-on/Back-off", "One-Fail Adaptive", "Sustained throughput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("throughput output missing %q:\n%s", want, out)
		}
	}
}

func TestRunThroughputSubcommandForm(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"throughput", "-lambdas", "0.05", "-messages", "150",
			"-runs", "1", "-shape", "bursty", "-out", "csv", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "protocol,lambda,") {
		t.Fatalf("throughput CSV output wrong:\n%s", out)
	}
}

// scenarioGoldenArgs is the fixed invocation behind the determinism and
// golden checks: small enough for CI, yet running every catalog
// scenario over the full protocol lineup.
var scenarioGoldenArgs = []string{"scenario", "-messages", "120", "-runs", "1",
	"-lambdas", "0.1", "-seed", "9", "-quiet"}

// TestRunScenarioDeterministic: two invocations with the same flags must
// produce byte-identical output (the acceptance bar for the scenario
// subsystem — workload generation, jam masks, population draws and
// aggregation are all keyed by the seed alone).
func TestRunScenarioDeterministic(t *testing.T) {
	first, err := capture(t, func() error { return run(scenarioGoldenArgs) })
	if err != nil {
		t.Fatal(err)
	}
	second, err := capture(t, func() error { return run(scenarioGoldenArgs) })
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("scenario output not byte-identical across invocations:\n--- first\n%s\n--- second\n%s", first, second)
	}
	// Every catalog scenario and protocol appears.
	for _, want := range []string{"poisson", "bursty", "onoff", "rho", "herd", "adaptive", "jammed", "mixed",
		"Exp Back-on/Back-off", "One-Fail Adaptive"} {
		if !strings.Contains(first, want) {
			t.Fatalf("scenario output missing %q:\n%s", want, first)
		}
	}
}

// TestRunScenarioGolden pins the scenario subcommand's output to the
// checked-in golden file, so accidental changes to workload generation,
// rng streams or rendering are caught as diffs.
func TestRunScenarioGolden(t *testing.T) {
	out, err := capture(t, func() error { return run(scenarioGoldenArgs) })
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/scenario_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("scenario output diverges from testdata/scenario_golden.txt:\n%s", out)
	}
}

// throughputGoldenArgs mirrors scenarioGoldenArgs for the throughput
// subcommand: a fixed, CI-cheap invocation over the full dynamic
// protocol lineup whose default output (table + plot) is pinned.
var throughputGoldenArgs = []string{"throughput", "-messages", "120", "-runs", "1",
	"-lambdas", "0.1,0.2", "-seed", "9", "-quiet"}

// TestRunThroughputGolden pins the throughput subcommand's output to
// the checked-in golden file, so accidental changes to workload
// generation, rng streams, aggregation or rendering are caught as
// diffs.
func TestRunThroughputGolden(t *testing.T) {
	out, err := capture(t, func() error { return run(throughputGoldenArgs) })
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/throughput_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("throughput output diverges from testdata/throughput_golden.txt:\n%s", out)
	}
}

// arenaGoldenArgs is a fixed, CI-cheap arena invocation: the full
// registry (no -protocols filter) over the default adversarial gauntlet
// at seed 1, as the acceptance bar specifies.
var arenaGoldenArgs = []string{"arena", "-messages", "120", "-runs", "1", "-seed", "1", "-quiet"}

// TestRunArenaGolden pins `macsim arena -seed 1` output to the
// checked-in golden file: the ranking must cover the paper's original
// protocols and all three no-collision-detection families, byte for
// byte.
func TestRunArenaGolden(t *testing.T) {
	out, err := capture(t, func() error { return run(arenaGoldenArgs) })
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/arena_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("arena output diverges from testdata/arena_golden.txt:\n%s", out)
	}
	for _, want := range []string{"one-fail", "exp-bb", "log-fails-2", "log-fails-10", "loglog-iterated",
		"bk-cascade", "cjz-ladder", "jz-robust", "herd", "rho", "jammed", "±"} {
		if !strings.Contains(out, want) {
			t.Fatalf("arena golden missing %q:\n%s", want, out)
		}
	}
}

// TestRunSessionGolden pins `macsim session -replay` of a steered
// checkpoint to the checked-in golden stream. The log raises the load
// near capacity, turns on a duty-cycle jammer, hot-swaps the protocol
// over a backlog of hundreds and switches the jammer off, so arrivals,
// deliveries, collision redraws and the swap rebuild all sit on the
// pinned draw sequence. Comparing live output against replay in one
// binary cannot catch a draw-order change; this golden can.
func TestRunSessionGolden(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"session", "-replay", "testdata/session_checkpoint.json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/session_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("session replay diverges from testdata/session_golden.txt:\n%s", out)
	}
	for _, want := range []string{`"set-lambda"`, `"pattern"`, `"loglog-iterated"`, `"mode":"off"`, `"reason":"maxWindows"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("session golden missing %s", want)
		}
	}
}

// TestRunArenaCSVAndJSON: the CSV and text renderings come verbatim
// from the result document, so the CLI's bytes are exactly what
// /v1/arena serves.
func TestRunArenaCSVAndJSON(t *testing.T) {
	args := []string{"arena", "-protocols", "exp-bb,cjz-ladder", "-scenarios", "herd",
		"-messages", "60", "-runs", "1", "-seed", "5", "-quiet"}
	text, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	csv, err := capture(t, func() error { return run(append(args, "-out", "csv")) })
	if err != nil {
		t.Fatal(err)
	}
	jsonOut, err := capture(t, func() error { return run(append(args, "-json")) })
	if err != nil {
		t.Fatal(err)
	}
	var doc mac.ArenaResult
	if err := json.Unmarshal([]byte(jsonOut), &doc); err != nil {
		t.Fatal(err)
	}
	if text != doc.Table {
		t.Fatalf("text output diverges from the document's table:\n--- text\n%s\n--- document\n%s", text, doc.Table)
	}
	if csv != doc.CSV {
		t.Fatalf("csv output diverges from the document's csv:\n--- csv\n%s\n--- document\n%s", csv, doc.CSV)
	}
	if len(doc.Ranking) != 2 || len(doc.Scenarios) != 1 {
		t.Fatalf("unexpected arena document shape: %d protocols, %d scenarios", len(doc.Ranking), len(doc.Scenarios))
	}
	for _, e := range doc.Ranking {
		if e.Rank < 1 || e.Display == "" || len(e.Scenarios) != 1 {
			t.Fatalf("malformed ranking entry %+v", e)
		}
	}
}

func TestRunVersionFlag(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-version"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "macsim ") {
		t.Fatalf("version output %q", out)
	}
}

func TestRunScenarioSingleCSV(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"scenario", "-scenario", "rho", "-messages", "100", "-runs", "1",
			"-lambdas", "0.1", "-out", "csv", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "# scenario: rho\nprotocol,lambda,") {
		t.Fatalf("scenario CSV output wrong:\n%s", out)
	}
	if strings.Contains(out, "poisson") {
		t.Fatalf("single-scenario run leaked other scenarios:\n%s", out)
	}
}

func TestRunThroughputRejectsBadFlags(t *testing.T) {
	if err := run([]string{"throughput", "-shape", "uniform", "-quiet"}); err == nil {
		t.Fatal("unknown shape accepted")
	}
	if err := run([]string{"throughput", "-lambdas", "0.1,zap", "-quiet"}); err == nil {
		t.Fatal("malformed -lambdas accepted")
	}
}

// TestRunSolveJSONGolden pins `macsim solve -json` to the checked-in
// golden document — the exact bytes POST /v1/solve would cache and
// serve for the same experiment, so the two codecs cannot drift.
func TestRunSolveJSONGolden(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"solve", "-json", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/solve_json_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("solve -json diverges from testdata/solve_json_golden.txt:\ngot:  %swant: %s", out, golden)
	}
	// The run/solve aliases are one experiment.
	viaRun, err := capture(t, func() error {
		return run([]string{"-experiment", "run", "-json", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if viaRun != out {
		t.Fatalf("run and solve aliases diverge:\n%s\n%s", viaRun, out)
	}
}

// TestRunJSONGoldens pins the -json documents of multi-point sweeps —
// a fixed-rep Table 1 grid, an adaptive Table 1 grid and an adaptive
// λ-sweep — byte for byte, so a change to how replications are
// scheduled, folded or stopped shows up as a diff.
func TestRunJSONGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"table1_json_golden.txt", []string{"table1", "-maxexp", "5", "-runs", "2", "-seed", "1"}},
		{"table1_adaptive_json_golden.txt", []string{"table1", "-maxexp", "4", "-epsilon", "0.05", "-seed", "1"}},
		{"throughput_adaptive_json_golden.txt", []string{"throughput", "-lambdas", "0.05,0.2",
			"-messages", "200", "-epsilon", "0.2", "-seed", "1"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			out, err := capture(t, func() error { return run(append(c.args, "-json", "-quiet")) })
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile("testdata/" + c.golden)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(golden) {
				t.Fatalf("%v diverges from testdata/%s:\ngot:  %swant: %s", c.args, c.golden, out, golden)
			}
		})
	}
}

// TestRunSolveStream: -stream emits NDJSON progress events plus the
// terminal record, using the HTTP API's codecs.
func TestRunSolveStream(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"solve", "-k", "200", "-stream", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream lines = %d, want 2:\n%s", len(lines), out)
	}
	var progress mac.SweepProgress
	if err := json.Unmarshal([]byte(lines[0]), &progress); err != nil {
		t.Fatal(err)
	}
	if progress.Event != "progress" || progress.K != 200 || progress.Slots == 0 {
		t.Fatalf("unexpected progress line %+v", progress)
	}
	var end mac.StreamEnd
	if err := json.Unmarshal([]byte(lines[1]), &end); err != nil {
		t.Fatal(err)
	}
	if end.Event != "done" || end.Status != "done" || len(end.Result) == 0 {
		t.Fatalf("unexpected terminal line %+v", end)
	}
	var doc mac.SolveResult
	if err := json.Unmarshal(end.Result, &doc); err != nil || doc.Slots != progress.Slots {
		t.Fatalf("terminal result %+v does not match progress %+v (%v)", doc, progress, err)
	}
}

// TestRunThroughputJSON: the λ-sweep's -json document carries the same
// series the text renderers draw.
func TestRunThroughputJSON(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"throughput", "-lambdas", "0.1", "-messages", "150",
			"-runs", "1", "-json", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc mac.ThroughputResult
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Scenario != "poisson" || len(doc.Series) == 0 || len(doc.Series[0].Points) != 1 {
		t.Fatalf("unexpected throughput document %+v", doc)
	}
}

// TestSpecKeyParityAcrossFrontEnds is the three-front-end half of the
// canonical-key satellite: the identical experiment expressed via CLI
// flags (real flag parsing), a library struct, and the HTTP JSON body
// must hash to byte-identical cache keys. Float formatting cases
// (0.2 vs 0.20) ride on the -lambdas flag.
func TestSpecKeyParityAcrossFrontEnds(t *testing.T) {
	key := func(t *testing.T, es mac.ExperimentSpec) string {
		t.Helper()
		if err := es.Validate(mac.Limits{}); err != nil {
			t.Fatal(err)
		}
		k, err := es.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	cliSpec := func(t *testing.T, args []string) mac.ExperimentSpec {
		t.Helper()
		opts, err := parseOptions(args)
		if err != nil {
			t.Fatal(err)
		}
		switch opts.experiment {
		case "solve", "run":
			return solveSpec(opts)
		case "table1", "figure1", "paper":
			return evaluateSpec(opts)
		case "throughput":
			es, err := throughputSpec(opts)
			if err != nil {
				t.Fatal(err)
			}
			return es
		case "scenario":
			es, err := scenarioSpec(opts, opts.scenario)
			if err != nil {
				t.Fatal(err)
			}
			return es
		case "arena":
			return arenaSpec(opts)
		}
		t.Fatalf("experiment %q has no spec", opts.experiment)
		return mac.ExperimentSpec{}
	}
	cases := []struct {
		name    string
		cliArgs []string
		library mac.ExperimentSpec
		kind    mac.ExperimentKind
		http    string
	}{
		{
			name:    "solve via alias and defaults",
			cliArgs: []string{"solve", "-protocol", "ofa", "-k", "500", "-seed", "7"},
			library: mac.SolveExperiment(mac.SolveSpec{Protocol: mac.ProtocolSpec{Name: "one-fail"}, K: 500, Seed: 7}),
			kind:    mac.KindSolve,
			http:    `{"protocol":"one-fail","k":500,"seed":7}`,
		},
		{
			name:    "throughput with float formatting 0.2 vs 0.20",
			cliArgs: []string{"throughput", "-lambdas", "0.10,0.20", "-messages", "300", "-runs", "2", "-seed", "9", "-shape", "burst"},
			library: mac.ThroughputExperiment(mac.ThroughputSpec{Shape: "bursty", Lambdas: []float64{0.1, 0.2}, Messages: 300, Runs: 2, Seed: 9}),
			kind:    mac.KindThroughput,
			http:    `{"shape":"bursty","lambdas":[0.1,0.2],"messages":300,"runs":2,"seed":9}`,
		},
		{
			name:    "scenario herd",
			cliArgs: []string{"scenario", "-scenario", "herd", "-lambdas", "0.1", "-messages", "120", "-runs", "1", "-seed", "9"},
			library: mac.ScenarioExperiment(mac.ThroughputSpec{Scenario: "herd", Lambdas: []float64{0.1}, Messages: 120, Runs: 1, Seed: 9}),
			kind:    mac.KindScenario,
			http:    `{"scenario":"herd","lambdas":[0.10],"messages":120,"runs":1,"seed":9}`,
		},
		{
			name:    "evaluate sweep",
			cliArgs: []string{"table1", "-maxexp", "3", "-runs", "4", "-seed", "2"},
			library: mac.EvaluateExperiment(mac.EvaluateSpec{MaxExp: 3, Runs: 4, Seed: 2}),
			kind:    mac.KindEvaluate,
			http:    `{"maxExp":3,"runs":4,"seed":2}`,
		},
		{
			name:    "arena via aliases and explicit flags",
			cliArgs: []string{"arena", "-protocols", "ofa,bkc", "-scenarios", "herd", "-rate", "0.20", "-messages", "300", "-runs", "2", "-seed", "9"},
			library: mac.ArenaExperiment(mac.ArenaSpec{
				Protocols: []mac.ProtocolSpec{{Name: "one-fail"}, {Name: "bk-cascade"}},
				Scenarios: []string{"herd"}, Lambda: 0.2, Messages: 300, Runs: 2, Seed: 9}),
			kind: mac.KindArena,
			http: `{"protocols":["one-fail","bk-cascade"],"scenarios":["herd"],"lambda":0.2,"messages":300,"runs":2,"seed":9}`,
		},
		{
			name:    "arena all defaults expand to the explicit registry",
			cliArgs: []string{"arena"},
			library: mac.ArenaExperiment(mac.ArenaSpec{}),
			kind:    mac.KindArena,
			http:    `{}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cliKey := key(t, cliSpec(t, tc.cliArgs))
			libKey := key(t, tc.library)
			decoded, err := mac.DecodeExperiment(tc.kind, []byte(tc.http))
			if err != nil {
				t.Fatal(err)
			}
			httpKey := key(t, decoded)
			if cliKey != libKey || libKey != httpKey {
				t.Fatalf("keys diverge:\ncli:  %s\nlib:  %s\nhttp: %s", cliKey, libKey, httpKey)
			}
		})
	}
}

// TestRunJSONUnsupportedExperiments: -json is only meaningful for the
// spec-backed experiments; simulator-level ones still run (text only).
func TestRunScenarioJSONEmitsNDJSON(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"scenario", "-scenario", "rho", "-lambdas", "0.1",
			"-messages", "100", "-runs", "1", "-json", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc mac.ThroughputResult
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Scenario != "rho" {
		t.Fatalf("scenario document names %q", doc.Scenario)
	}
}

func TestRunJSONRejectedForNonSpecExperiments(t *testing.T) {
	for _, args := range [][]string{
		{"trace", "-json", "-k", "3"},
		{"cd", "-stream"},
		{"ablation-ofa", "-json"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "spec-backed") {
			t.Fatalf("%v: err = %v, want spec-backed rejection", args, err)
		}
	}
}

// TestRunThroughputAdaptivePrecision: -epsilon/-confidence switch the
// λ-sweep to adaptive stopping, the JSON document reports the per-point
// replication counts and error bars, and the CLI spelling hashes to the
// same canonical key as the equivalent HTTP JSON body.
func TestRunThroughputAdaptivePrecision(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"throughput", "-lambdas", "0.05", "-messages", "200",
			"-epsilon", "0.4", "-confidence", "0.9", "-json", "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc mac.ThroughputResult
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	for _, s := range doc.Series {
		for _, p := range s.Points {
			if p.RepsUsed < 2 || p.RepsUsed > 64 {
				t.Fatalf("%s: repsUsed = %d, want within [minReps, maxReps]", s.Protocol, p.RepsUsed)
			}
			if p.RepsUsed != p.Runs {
				t.Fatalf("%s: repsUsed %d != runs %d", s.Protocol, p.RepsUsed, p.Runs)
			}
		}
	}

	// Canonical-key parity: CLI flags vs HTTP JSON body.
	opts, err := parseOptions([]string{"throughput", "-lambdas", "0.05", "-messages", "200",
		"-epsilon", "0.4", "-confidence", "0.9"})
	if err != nil {
		t.Fatal(err)
	}
	cliES, err := throughputSpec(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cliES.Validate(mac.Limits{}); err != nil {
		t.Fatal(err)
	}
	cliKey, err := cliES.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	httpES, err := mac.DecodeExperiment(mac.KindThroughput,
		[]byte(`{"lambdas":[0.05],"messages":200,"precision":{"epsilon":0.4,"confidence":0.9}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := httpES.Validate(mac.Limits{}); err != nil {
		t.Fatal(err)
	}
	httpKey, err := httpES.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if cliKey != httpKey {
		t.Fatalf("CLI key %s != HTTP key %s for the same adaptive experiment", cliKey, httpKey)
	}
}
