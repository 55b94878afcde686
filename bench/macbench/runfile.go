package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// runFormat tags run files so compare refuses anything else.
const runFormat = "macbench-run/1"

// metricValue is one measured value with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run: exactly the object the benchmark
// prints as the last line of its standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runEnv records where a run was measured.
type runEnv struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

// runRecord is one run as a run file stores it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Env      runEnv  `json:"env"`
	result
	// Raw holds an untraced run's end-to-end metrics as measured, before
	// scaling to reference speed; ReferenceMs is the run's median
	// reference time (see speed.go).
	Raw         map[string]metricValue `json:"raw,omitempty"`
	ReferenceMs float64                `json:"reference_ms,omitempty"`
}

// runFile is the document -o appends runs to and compare reads.
type runFile struct {
	Format string      `json:"format"`
	Runs   []runRecord `json:"runs"`
}

// currentEnv describes this process and machine. The commit comes from
// the build's version-control stamp; a build outside a git checkout
// has none and records "unknown".
func currentEnv() runEnv {
	env := runEnv{
		Commit:     "unknown",
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			env.Commit = rev
			if modified == "true" {
				env.Commit += "-dirty"
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPU = strings.TrimSpace(value)
				break
			}
		}
	}
	return env
}

// decodeRunFile parses and checks a run file. Everything compare later
// relies on is validated here, so a malformed file fails with an error
// instead of a wrong comparison.
func decodeRunFile(data []byte) (runFile, error) {
	var f runFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return runFile{}, fmt.Errorf("run file: %w", err)
	}
	if dec.More() {
		return runFile{}, errors.New("run file: trailing data after the document")
	}
	if f.Format != runFormat {
		return runFile{}, fmt.Errorf("run file: format %q, want %q", f.Format, runFormat)
	}
	for i, r := range f.Runs {
		switch {
		case r.Workload == "":
			return runFile{}, fmt.Errorf("run file: run %d has no workload", i)
		case r.Trace != 0 && r.Trace != 1:
			return runFile{}, fmt.Errorf("run file: run %d has trace %d, want 0 or 1", i, r.Trace)
		case r.Attempted < 1:
			return runFile{}, fmt.Errorf("run file: run %d attempted %d operations, want ≥ 1", i, r.Attempted)
		case r.Failed < 0 || r.Failed > r.Attempted:
			return runFile{}, fmt.Errorf("run file: run %d failed %d of %d operations", i, r.Failed, r.Attempted)
		}
		for _, set := range []map[string]metricValue{r.Metrics, r.Raw} {
			for name, m := range set {
				if name == "" || m.Unit == "" {
					return runFile{}, fmt.Errorf("run file: run %d has a metric without a name or unit", i)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					return runFile{}, fmt.Errorf("run file: run %d metric %s is not finite", i, name)
				}
			}
		}
	}
	return f, nil
}

// readRunFile loads and checks a run file from disk.
func readRunFile(path string) (runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return runFile{}, err
	}
	f, err := decodeRunFile(data)
	if err != nil {
		return runFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendRuns adds records to the run file at path, creating it if
// needed. The file is replaced atomically, so an interrupted write
// leaves the previous runs intact.
func appendRuns(path string, recs ...runRecord) error {
	f := runFile{Format: runFormat}
	if _, err := os.Stat(path); err == nil {
		if f, err = readRunFile(path); err != nil {
			return err
		}
	}
	f.Runs = append(f.Runs, recs...)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".macbench-run-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	w := bufio.NewWriter(tmp)
	if _, err := w.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
