package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

func TestAppendRunsRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	rec := runRecord{Workload: "static-paper", Seed: 7, Seconds: 12, Env: currentEnv(),
		result: result{Correct: true, Attempted: 5, Metrics: map[string]metricValue{"p50_ms": {Value: 1.5, Unit: "ms"}}}}
	for i := 0; i < 2; i++ {
		if err := appendRuns(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	f, err := readRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2 || !reflect.DeepEqual(f.Runs[1], rec) {
		t.Fatalf("read back %+v", f.Runs)
	}
	if f.Runs[0].Env.Go == "" || f.Runs[0].Env.NProc < 1 {
		t.Errorf("environment not recorded: %+v", f.Runs[0].Env)
	}
}

func TestDecodeRunFileRejects(t *testing.T) {
	for _, bad := range []string{
		``,
		`{"format":"other","runs":[]}`,
		`{"format":"macbench-run/1","runs":[{"workload":"","attempted":1}]}`,
		`{"format":"macbench-run/1","runs":[{"workload":"x","attempted":0}]}`,
		`{"format":"macbench-run/1","runs":[{"workload":"x","attempted":1,"failed":2}]}`,
		`{"format":"macbench-run/1","runs":[{"workload":"x","attempted":1,"trace":2}]}`,
		`{"format":"macbench-run/1","runs":[{"workload":"x","attempted":1,"metrics":{"m":{"value":1}}}]}`,
		`{"format":"macbench-run/1","runs":[],"extra":1}`,
		`{"format":"macbench-run/1","runs":[]} {}`,
	} {
		if _, err := decodeRunFile([]byte(bad)); err == nil {
			t.Errorf("decodeRunFile(%s) accepted", bad)
		}
	}
}

// FuzzDecodeRunFile checks that the run-file decoder never panics and
// that whatever it accepts survives an encode/decode round trip.
func FuzzDecodeRunFile(f *testing.F) {
	f.Add([]byte(`{"format":"macbench-run/1","runs":[]}`))
	f.Add([]byte(`{"format":"macbench-run/1","runs":[{"workload":"serve-hits","seed":1,"trace":0,"seconds":12,` +
		`"env":{"commit":"abc","go":"go1.24","nproc":2,"gomaxprocs":2,"cpu":"x"},"correct":true,"attempted":10,"failed":1,` +
		`"metrics":{"p50_ms":{"value":0.12,"unit":"ms"}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rf, err := decodeRunFile(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(rf)
		if err != nil {
			t.Fatalf("re-encoding an accepted file: %v", err)
		}
		rf2, err := decodeRunFile(again)
		if err != nil {
			t.Fatalf("re-decoding an accepted file: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(normalize(rf), normalize(rf2)) {
			t.Fatalf("round trip changed the file:\n%+v\n%+v", rf, rf2)
		}
	})
}

// normalize maps the empty and nil forms JSON does not distinguish.
func normalize(f runFile) runFile {
	if len(f.Runs) == 0 {
		f.Runs = nil
	}
	for i := range f.Runs {
		if len(f.Runs[i].Metrics) == 0 {
			f.Runs[i].Metrics = nil
		}
		if len(f.Runs[i].Raw) == 0 {
			f.Runs[i].Raw = nil
		}
	}
	return f
}
