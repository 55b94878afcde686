package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/bench/stats"
	"repro/internal/spec"
)

// arenaSize is the arena configuration of arena-gauntlet; zero fields
// take the arena's defaults.
type arenaSize struct {
	protocols, scenarios []string
	messages, runs       int
}

// scale sizes every workload and probe. fullScale is the benchmark;
// toyScale keeps the tests fast.
type scale struct {
	staticMaxExp, staticRuns int
	arena                    arenaSize
	sessionWindows           int
	hitSpecs                 int
	freshRate                float64 // serve-fresh arrivals per second
	minSamples               int     // CLI samples per run, at least
	setupReps                int     // set-ups per run; setup_s is their median

	// traced suite
	probeOps      int
	windowK       int
	specRunBodies int
	storeOps      int
	hitsPass      time.Duration
	freshPass     time.Duration
}

var fullScale = scale{
	staticMaxExp: 6, staticRuns: 2,
	arena:          arenaSize{runs: 1},
	sessionWindows: 100_000,
	hitSpecs:       64,
	freshRate:      20,
	minSamples:     3,
	setupReps:      3,
	probeOps:       1 << 20,
	windowK:        1_000_000,
	specRunBodies:  16,
	storeOps:       40,
	hitsPass:       2 * time.Second,
	freshPass:      5 * time.Second,
}

var toyScale = scale{
	staticMaxExp: 2, staticRuns: 1,
	arena:          arenaSize{protocols: []string{"one-fail", "exp-bb"}, scenarios: []string{"herd"}, messages: 40, runs: 1},
	sessionWindows: 2000,
	hitSpecs:       8,
	freshRate:      40,
	minSamples:     1,
	setupReps:      1,
	probeOps:       1 << 10,
	windowK:        1000,
	specRunBodies:  2,
	storeOps:       2,
	hitsPass:       150 * time.Millisecond,
	freshPass:      250 * time.Millisecond,
}

func (sc scale) staticArgs(seed uint64) []string {
	return []string{"table1", "-maxexp", strconv.Itoa(sc.staticMaxExp), "-runs", strconv.Itoa(sc.staticRuns),
		"-seed", strconv.FormatUint(seed, 10), "-json", "-quiet"}
}

func (sc scale) arenaArgs(seed uint64) []string {
	args := []string{"arena", "-seed", strconv.FormatUint(seed, 10), "-json", "-quiet"}
	a := sc.arena
	if len(a.protocols) > 0 {
		args = append(args, "-protocols", strings.Join(a.protocols, ","))
	}
	if len(a.scenarios) > 0 {
		args = append(args, "-scenarios", strings.Join(a.scenarios, ","))
	}
	if a.messages > 0 {
		args = append(args, "-messages", strconv.Itoa(a.messages))
	}
	if a.runs > 0 {
		args = append(args, "-runs", strconv.Itoa(a.runs))
	}
	return args
}

// env is what every workload runs against.
type env struct {
	procs *procs
	bins  string // directory holding the macsim and macsimd binaries
	sc    scale
}

func (e *env) bin(name string) string { return filepath.Join(e.bins, name) }

// measured is one untraced run of a workload.
type measured struct {
	clock
	// openLoop marks a phase whose operations arrive on a schedule:
	// its ops_per_s measures whether the daemon kept up, not speed, and
	// is never scaled.
	openLoop  bool
	rssMiB    float64
	attempted int
	failed    int
	lateP99   float64 // serve-fresh only: how late the generator ran, seconds
	problems  []string
}

// fail records n failed operations and, for the first few, why.
func (m *measured) fail(n int, format string, args ...any) {
	m.failed += n
	if len(m.problems) < 5 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// tailLevel is the percentile tail_ms reports for this run.
func (m *measured) tailLevel() float64 { return stats.TailLevel(len(m.raw.lat)) }

// metrics computes the end-to-end metrics from the scaled times, or
// from the raw ones.
func (m *measured) metrics(raw bool) map[string]float64 {
	t := m.scaled
	if raw {
		t = m.raw
	}
	elapsed := t.elapsed
	if m.openLoop {
		elapsed = m.raw.elapsed
	}
	return map[string]float64{
		"setup_s":     stats.Median(t.setups),
		"p50_ms":      stats.Median(t.lat) * 1e3,
		"tail_ms":     stats.Quantile(t.lat, m.tailLevel()) * 1e3,
		"ops_per_s":   float64(len(t.lat)) / elapsed,
		"peak_rss_mb": m.rssMiB,
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(e *env, ctx context.Context, seed uint64, d time.Duration) (*measured, error)
}

// workloads lists the benchmark's workloads in the order a full run
// executes them. BENCHMARK.json records why each was chosen.
var workloads = []workload{
	{"static-paper", func(e *env, ctx context.Context, seed uint64, d time.Duration) (*measured, error) {
		return e.runCLI(ctx, d, func(string) ([]string, error) { return e.sc.staticArgs(seed), nil }, checkStatic)
	}},
	{"arena-gauntlet", func(e *env, ctx context.Context, seed uint64, d time.Duration) (*measured, error) {
		return e.runCLI(ctx, d, func(string) ([]string, error) { return e.sc.arenaArgs(seed), nil }, checkArena)
	}},
	{"session-steer", func(e *env, ctx context.Context, seed uint64, d time.Duration) (*measured, error) {
		args := func(dir string) ([]string, error) {
			data, err := json.Marshal(sessionCheckpoint(seed, e.sc.sessionWindows))
			if err != nil {
				return nil, err
			}
			path := filepath.Join(dir, "checkpoint.json")
			return []string{"session", "-replay", path}, os.WriteFile(path, data, 0o644)
		}
		return e.runCLI(ctx, d, args, checkSession(e.sc.sessionWindows))
	}},
	{"serve-hits", (*env).runServeHits},
	{"serve-fresh", (*env).runServeFresh},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// macsim runs the CLI once and returns its standard output, wall time
// in seconds and peak RSS in KiB.
func (e *env) macsim(ctx context.Context, args ...string) ([]byte, float64, float64, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, e.bin("macsim"), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	c, err := e.procs.start(cmd)
	if err != nil {
		return nil, 0, 0, err
	}
	err = c.wait()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, wall, 0, fmt.Errorf("macsim %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return stdout.Bytes(), wall, c.maxRSSKiB(), nil
}

// runCLI measures a workload whose operation is one macsim process. Set
// up writes the inputs and starts the binary once (every sample pays
// process start-up itself); each sample's output must pass check and
// repeat the first sample's identity exactly.
func (e *env) runCLI(ctx context.Context, d time.Duration,
	inputs func(dir string) ([]string, error), check func([]byte) (string, error)) (*measured, error) {
	m := &measured{}
	dir, err := e.procs.tempDir("cli-")
	if err != nil {
		return nil, err
	}
	var args []string
	before := m.ref()
	for i := 0; i < e.sc.setupReps; i++ {
		t0 := time.Now()
		if args, err = inputs(dir); err != nil {
			return nil, err
		}
		if _, _, _, err := e.macsim(ctx, "-version"); err != nil {
			return nil, err
		}
		sec := time.Since(t0).Seconds()
		after := m.ref()
		m.setup(sec, before, after)
		before = after
	}
	var first string
	var rss []float64
	start := time.Now()
	for len(m.raw.lat) < e.sc.minSamples || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, wall, kib, err := e.macsim(ctx, args...)
		after := m.ref()
		m.attempted++
		if err != nil {
			m.fail(1, "%v", err)
			if m.attempted > 3*e.sc.minSamples && len(m.raw.lat) == 0 {
				return nil, err
			}
			before = after
			continue
		}
		m.ops([]float64{wall}, wall, before, after)
		before = after
		rss = append(rss, kib/1024)
		switch id, err := check(out); {
		case err != nil:
			m.fail(1, "%v", err)
		case first == "":
			first = id
		case id != first:
			m.fail(1, "sample %d differs from the first sample", m.attempted)
		}
	}
	m.rssMiB = stats.Median(rss)
	return m, nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkStatic validates a Table 1 document: One-Fail Adaptive's ratio
// at every k ≥ 10⁴ lies within ±5% of its analysis value.
func checkStatic(out []byte) (string, error) {
	var doc struct {
		Series []struct {
			System string `json:"system"`
			Cells  []struct {
				K        int     `json:"k"`
				Ratio    float64 `json:"ratio"`
				Analysis string  `json:"analysis"`
			} `json:"cells"`
		} `json:"series"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		return "", fmt.Errorf("static-paper document: %w", err)
	}
	ofa := false
	for _, s := range doc.Series {
		if s.System != "One-Fail Adaptive" {
			continue
		}
		ofa = true
		for _, c := range s.Cells {
			if c.K < 10_000 {
				continue
			}
			want, err := strconv.ParseFloat(c.Analysis, 64)
			if err != nil {
				return "", fmt.Errorf("One-Fail Adaptive analysis %q: %w", c.Analysis, err)
			}
			if math.Abs(c.Ratio-want) > 0.05*want {
				return "", fmt.Errorf("One-Fail Adaptive ratio %.3f at k=%d is not within 5%% of %.1f", c.Ratio, c.K, want)
			}
		}
	}
	if !ofa {
		return "", errors.New("static-paper document has no One-Fail Adaptive series")
	}
	return sha(out), nil
}

// checkArena validates an arena document: a complete ranking with one
// finite score per scenario.
func checkArena(out []byte) (string, error) {
	var doc struct {
		Scenarios []string `json:"scenarios"`
		Ranking   []struct {
			Protocol  string `json:"protocol"`
			Scenarios []struct {
				Score float64 `json:"score"`
			} `json:"scenarios"`
		} `json:"ranking"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		return "", fmt.Errorf("arena document: %w", err)
	}
	if len(doc.Ranking) == 0 || len(doc.Scenarios) == 0 {
		return "", errors.New("arena document has an empty ranking")
	}
	for _, e := range doc.Ranking {
		if len(e.Scenarios) != len(doc.Scenarios) {
			return "", fmt.Errorf("arena entry %s has %d scenario cells, want %d", e.Protocol, len(e.Scenarios), len(doc.Scenarios))
		}
		for _, c := range e.Scenarios {
			if c.Score < 0 || c.Score > 2 || math.IsNaN(c.Score) {
				return "", fmt.Errorf("arena entry %s has score %v", e.Protocol, c.Score)
			}
		}
	}
	return sha(out), nil
}

// checkSession validates a replay's NDJSON stream: it ends with the
// window budget reached. Its identity is the end event's extent, which
// must repeat exactly (which window aggregates a slow reader saw, and
// so the dropped count, may vary).
func checkSession(windows int) func([]byte) (string, error) {
	return func(out []byte) (string, error) {
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var end spec.SessionEnd
		if err := json.Unmarshal(lines[len(lines)-1], &end); err != nil || end.Event != "end" {
			return "", fmt.Errorf("session stream does not end with an end event: %.200s", lines[len(lines)-1])
		}
		if end.Reason != "maxWindows" || end.Windows != windows {
			return "", fmt.Errorf("session ended %q after %d windows, want maxWindows after %d", end.Reason, end.Windows, windows)
		}
		return fmt.Sprintf("windows=%d slots=%d delivered=%d backlog=%d", end.Windows, end.Slots, end.Delivered, end.Backlog), nil
	}
}

// printMeasured writes a workload's human-readable summary: each metric
// at reference speed and as measured.
func printMeasured(w io.Writer, name string, seed uint64, m *measured) {
	fmt.Fprintf(w, "%s seed=%d: %d operations, %d failed; reference %.3f ms (median of %d, nominal %g ms)\n",
		name, seed, m.attempted, m.failed, stats.Median(m.refs), len(m.refs), refNominalMs)
	values, raw := m.metrics(false), m.metrics(true)
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "tail_ms":
			note = fmt.Sprintf("  (p%g of %d samples)", 100*m.tailLevel(), len(m.raw.lat))
		case "setup_s":
			note = fmt.Sprintf("  (median of %d)", len(m.raw.setups))
		}
		fmt.Fprintf(w, "  %-12s %14.6g %-4s  measured %14.6g%s\n", d.name, values[d.name], d.unit, raw[d.name], note)
	}
	if m.lateP99 > 0 {
		fmt.Fprintf(w, "  generator late p99 %.3f ms\n", m.lateP99*1e3)
	}
	for _, p := range m.problems {
		fmt.Fprintln(w, "  failed:", p)
	}
}
