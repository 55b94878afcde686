package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
)

// testBins holds macsim and macsimd built once for the package's tests.
var testBins string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "macbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p := newProcs(dir)
	if _, err := buildBinaries(context.Background(), p, dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testBins = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyEnv(t *testing.T) *env {
	t.Helper()
	p := newProcs(t.TempDir())
	t.Cleanup(p.close)
	return &env{procs: p, bins: testBins, sc: toyScale}
}

func TestWorkloadsRunAtToySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			m, err := w.run(toyEnv(t), context.Background(), 1, 250*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if m.attempted < 1 || m.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", m.failed, m.attempted, m.problems)
			}
			for _, raw := range []bool{false, true} {
				metrics, missing := metricSet(endToEnd, m.metrics(raw))
				if len(missing) > 0 {
					t.Fatalf("missing metrics %v", missing)
				}
				for name, v := range metrics {
					if !(v.Value > 0) || math.IsInf(v.Value, 0) {
						t.Errorf("%s (raw %v) = %v, want a positive finite value", name, raw, v.Value)
					}
				}
			}
		})
	}
}

func TestTracedSuiteReportsEveryLayerMetric(t *testing.T) {
	var out bytes.Buffer
	res, err := runTraced(context.Background(), toyEnv(t), 1, []string{"session-steer"}, t.TempDir(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced suite failed %d of %d operations:\n%s", res.Failed, res.Attempted, out.String())
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("missing %s", d.name)
		}
	}
	for _, w := range workloadNames() {
		if !bytes.Contains(out.Bytes(), []byte("trace "+w+":")) {
			t.Errorf("no breakdown printed for %s", w)
		}
	}
	if !bytes.Contains(out.Bytes(), []byte("tracing overhead")) {
		t.Error("no tracing overhead printed for the selected workload")
	}
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := readBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	better := map[bool]string{true: "higher", false: "lower"}
	check := func(kind string, defs []metricDef, listed map[string][2]string) {
		for _, d := range defs {
			got, ok := listed[d.name]
			if !ok {
				t.Errorf("%s metric %s is reported but not in BENCHMARK.json", kind, d.name)
				continue
			}
			if want := [2]string{d.unit, better[d.higherBetter]}; got != want {
				t.Errorf("%s metric %s: BENCHMARK.json says %v, macbench says %v", kind, d.name, got, want)
			}
			delete(listed, d.name)
		}
		for name := range listed {
			t.Errorf("%s metric %s is in BENCHMARK.json but not reported", kind, name)
		}
	}
	e2e := map[string][2]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = [2]string{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layer := map[string][2]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = [2]string{m.Unit, m.Better}
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, macbench runs %v", names, workloadNames())
	}
}

func TestInputsDependOnlyOnTheSeed(t *testing.T) {
	gen := func(seed uint64) [][]byte {
		var out [][]byte
		for _, v := range []any{
			hitBodies(seed, 64),
			freshSchedule(seed, 12*time.Second, 20),
			sessionCheckpoint(seed, 100_000),
		} {
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data)
		}
		return out
	}
	a, again, other := gen(1), gen(1), gen(2)
	for i := range a {
		if !bytes.Equal(a[i], again[i]) {
			t.Errorf("input %d differs between two generations at the same seed", i)
		}
		if bytes.Equal(a[i], other[i]) {
			t.Errorf("input %d is the same at seeds 1 and 2", i)
		}
	}
}

func TestInputsAreValidAndFreshSeedsUnique(t *testing.T) {
	sched := freshSchedule(7, 12*time.Second, 20)
	reqs := hitBodies(7, 64)
	for _, j := range sched {
		reqs = append(reqs, j.request)
	}
	seeds := map[uint64]bool{}
	for _, r := range reqs {
		es, err := spec.Decode(spec.ExperimentKind(r.Kind), r.Body)
		if err == nil {
			err = es.Validate(spec.Limits{})
		}
		if err != nil {
			t.Fatalf("%s %s: %v", r.Kind, r.Body, err)
		}
	}
	for _, j := range sched {
		var body struct{ Seed uint64 }
		if err := json.Unmarshal(j.Body, &body); err != nil {
			t.Fatal(err)
		}
		if seeds[body.Seed] {
			t.Fatalf("seed %d repeats in the serve-fresh schedule", body.Seed)
		}
		seeds[body.Seed] = true
	}
	kinds := map[string]int{}
	for _, j := range sched {
		kinds[j.Kind]++
	}
	if want := map[string]int{"solve": 144, "throughput": 48, "evaluate": 29, "arena": 19}; !maps.Equal(kinds, want) {
		t.Errorf("12 s at 20 jobs/s scheduled %v, want %v", kinds, want)
	}
	ck := sessionCheckpoint(7, 100_000)
	for i := range ck.Log {
		if err := ck.Log[i].Validate(spec.Limits{}); err != nil {
			t.Errorf("control %d: %v", i, err)
		}
	}
}

// A corrupted response or document must count as a failed operation.
func TestCorruptionCountsAsFailure(t *testing.T) {
	bodies := hitBodies(3, 8)
	warm := make([][]byte, len(bodies))
	byBody := map[string]int{}
	for i, b := range bodies {
		warm[i] = []byte(fmt.Sprintf(`{"kind":%q,"n":%d}`, b.Kind, i))
		byBody[string(b.Body)] = i
	}
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		out := append([]byte(nil), warm[byBody[buf.String()]]...)
		if served.Add(1)%3 == 0 {
			out[len(out)-2] ^= 1
		}
		w.Header().Set("X-Cache", "hit")
		w.Write(out)
	}))
	defer srv.Close()
	lr := hitLoop(context.Background(), newClient(2), srv.URL, bodies, warm, 1, 100*time.Millisecond, nil)
	if lr.failed == 0 || lr.failed == lr.attempted {
		t.Errorf("corrupting every third response failed %d of %d requests", lr.failed, lr.attempted)
	}

	sched := freshSchedule(3, 2*time.Second, 5)
	doc, err := runSpec(context.Background(), sched[0].request, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []jobResult{{ok: true, doc: doc}}
	if n := checkFresh(context.Background(), sched[:1], jobs); n != 0 {
		t.Fatalf("an intact document failed the serve-fresh check")
	}
	jobs[0].doc = append([]byte(nil), doc...)
	jobs[0].doc[len(doc)/2] ^= 1
	if n := checkFresh(context.Background(), sched[:1], jobs); n != 1 {
		t.Errorf("a corrupted document counted %d failures, want 1", n)
	}

	if _, err := checkSession(10)([]byte(`{"event":"window"}` + "\n")); err == nil {
		t.Error("a session stream without its end event passed")
	}
	bad := []byte(`{"series":[{"system":"One-Fail Adaptive","cells":[{"k":10000,"ratio":9.1,"analysis":"7.4"}]}]}`)
	if _, err := checkStatic(bad); err == nil {
		t.Error("a One-Fail Adaptive ratio 23% off its analysis passed")
	}
}
