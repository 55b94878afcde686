package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// newTestServer builds a started Server plus an httptest front end. When
// gated, every job blocks before executing until the returned gate
// receives (or is closed) — the lever behind the deterministic
// backpressure, coalescing and drain tests.
func newTestServer(t *testing.T, cfg Config, gated bool) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gate chan struct{}
	if gated {
		// The gate must exist before any job can execute; New started the
		// workers but no job has been submitted yet.
		gate = make(chan struct{})
		s.testGate = gate
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		if gated {
			// Unblock any worker still waiting so Close can finish.
			select {
			case <-gate:
			default:
				close(gate)
			}
		}
		ts.Close()
		s.Close()
	})
	return s, ts, gate
}

// post submits body to url and returns the response with its decoded
// submit envelope.
func post(t *testing.T, url, body string) (*http.Response, submitResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatalf("decoding submit response %s: %v", data, err)
		}
	}
	return resp, sub
}

// waitDone polls the job until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return jobView{}
}

// metricValue extracts a metric's value from the /metrics exposition.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func TestSolveSubmitPollAndCache(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)

	resp, sub := post(t, ts.URL+"/v1/solve", `{"protocol":"one-fail","k":500,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+sub.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", loc, sub.ID)
	}
	done := waitDone(t, ts.URL, sub.ID)
	if done.Status != StatusDone {
		t.Fatalf("job status = %s (%s)", done.Status, done.Error)
	}
	var res spec.SolveResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.K != 500 || res.Seed != 7 || res.Slots == 0 || res.System != "One-Fail Adaptive" {
		t.Fatalf("unexpected result %+v", res)
	}

	// The identical request — and its alias spelling — must be a cache
	// hit with the byte-identical result.
	for _, body := range []string{`{"protocol":"one-fail","k":500,"seed":7}`, `{"protocol":"ofa","k":500,"seed":7}`} {
		resp, sub := post(t, ts.URL+"/v1/solve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cached submit status = %d, want 200", resp.StatusCode)
		}
		if resp.Header.Get("X-Cache") != "hit" || !sub.Cached {
			t.Fatalf("resubmit of %s was not a cache hit", body)
		}
		if !bytes.Equal(sub.Result, done.Result) {
			t.Fatalf("cached result differs:\n%s\n%s", sub.Result, done.Result)
		}
	}
	if hits := metricValue(t, ts.URL, "macsimd_cache_hits_total"); hits != 2 {
		t.Fatalf("cache hits = %v, want 2", hits)
	}
	if rate := metricValue(t, ts.URL, "macsimd_cache_hit_rate"); rate <= 0.5 {
		t.Fatalf("cache hit rate = %v, want > 0.5", rate)
	}
}

func TestSubmitDefaultsHashIdentically(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)

	// An empty body and the explicit spelling of every default must hash
	// to the same canonical key: the second submit hits the cache.
	resp, sub := post(t, ts.URL+"/v1/solve", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	waitDone(t, ts.URL, sub.ID)
	resp2, _ := post(t, ts.URL+"/v1/solve", `{"protocol":"one-fail","k":1000,"seed":1}`)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("explicit defaults did not hit the empty-body cache entry (X-Cache=%q)",
			resp2.Header.Get("X-Cache"))
	}
}

func TestEvaluateStream(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)

	resp, sub := post(t, ts.URL+"/v1/evaluate",
		`{"protocols":["one-fail"],"ks":[10,50],"runs":2,"seed":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	stream, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var progress, terminal int
	var final spec.StreamEnd
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var ev spec.StreamEnd
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "progress":
			progress++
		case "done", "failed":
			terminal++
			final = ev
		default:
			t.Fatalf("unknown event %q", ev.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 1 protocol × 2 sizes × 2 runs.
	if progress != 4 {
		t.Fatalf("progress events = %d, want 4", progress)
	}
	if terminal != 1 || final.Event != "done" {
		t.Fatalf("terminal events = %d, final = %+v", terminal, final)
	}
	var res spec.EvaluateResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Cells) != 2 || !strings.Contains(res.Table1, "One-Fail Adaptive") {
		t.Fatalf("unexpected evaluate result %+v", res)
	}
}

func TestThroughputAndScenarioEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)

	resp, sub := post(t, ts.URL+"/v1/throughput",
		`{"lambdas":[0.2],"messages":120,"runs":1,"shape":"bursty","seed":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("throughput submit status = %d, want 202", resp.StatusCode)
	}
	done := waitDone(t, ts.URL, sub.ID)
	if done.Status != StatusDone {
		t.Fatalf("throughput job failed: %s", done.Error)
	}
	var res spec.ThroughputResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "bursty" || len(res.Series) == 0 || len(res.Series[0].Points) != 1 {
		t.Fatalf("unexpected throughput result %+v", res)
	}

	resp, sub = post(t, ts.URL+"/v1/scenario",
		`{"scenario":"rho","lambdas":[0.1],"messages":100,"runs":1,"seed":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scenario submit status = %d, want 202", resp.StatusCode)
	}
	done = waitDone(t, ts.URL, sub.ID)
	if done.Status != StatusDone {
		t.Fatalf("scenario job failed: %s", done.Error)
	}
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "rho" {
		t.Fatalf("scenario result names %q, want rho", res.Scenario)
	}
}

func TestBackpressure429(t *testing.T) {
	s, ts, gate := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, true)

	// Job A is dequeued by the single worker and blocks on the gate; job
	// B fills the queue's single slot; job C must bounce with 429.
	respA, subA := post(t, ts.URL+"/v1/solve", `{"k":100,"seed":1}`)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A status = %d", respA.StatusCode)
	}
	// Wait until the worker has dequeued A (queue depth back to 0).
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, ts.URL, "macsimd_queue_depth") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued job A")
		}
		time.Sleep(2 * time.Millisecond)
	}
	respB, subB := post(t, ts.URL+"/v1/solve", `{"k":101,"seed":1}`)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B status = %d", respB.StatusCode)
	}
	respC, _ := post(t, ts.URL+"/v1/solve", `{"k":102,"seed":1}`)
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C status = %d, want 429", respC.StatusCode)
	}
	if ra := respC.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer ≥ 1", ra)
	}
	if rejected := metricValue(t, ts.URL, "macsimd_rejected_total"); rejected != 1 {
		t.Fatalf("rejected = %v, want 1", rejected)
	}
	// The bounced job's id was never handed out; it must not linger in
	// the poll registry where a reject storm would evict real jobs.
	if n := s.reg.len(); n != 2 {
		t.Fatalf("registry holds %d jobs after a reject, want 2", n)
	}

	close(gate)
	if v := waitDone(t, ts.URL, subA.ID); v.Status != StatusDone {
		t.Fatalf("job A failed: %s", v.Error)
	}
	if v := waitDone(t, ts.URL, subB.ID); v.Status != StatusDone {
		t.Fatalf("job B failed: %s", v.Error)
	}
}

func TestDuplicateCoalescing(t *testing.T) {
	_, ts, gate := newTestServer(t, Config{Workers: 2, QueueDepth: 8}, true)

	const body = `{"k":300,"seed":11}`
	resp1, sub1 := post(t, ts.URL+"/v1/solve", body)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", resp1.StatusCode)
	}
	resp2, sub2 := post(t, ts.URL+"/v1/solve", body)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate submit status = %d", resp2.StatusCode)
	}
	if resp2.Header.Get("X-Cache") != "coalesced" {
		t.Fatalf("duplicate X-Cache = %q, want coalesced", resp2.Header.Get("X-Cache"))
	}
	if sub1.ID != sub2.ID {
		t.Fatalf("duplicate got its own job: %s vs %s", sub1.ID, sub2.ID)
	}
	if v := metricValue(t, ts.URL, "macsimd_coalesced_total"); v != 1 {
		t.Fatalf("coalesced = %v, want 1", v)
	}

	close(gate)
	done := waitDone(t, ts.URL, sub1.ID)
	if done.Status != StatusDone {
		t.Fatalf("coalesced job failed: %s", done.Error)
	}
	// After completion the shared key is a plain cache hit.
	resp3, _ := post(t, ts.URL+"/v1/solve", body)
	if resp3.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-completion X-Cache = %q, want hit", resp3.Header.Get("X-Cache"))
	}
}

func TestGracefulDrain(t *testing.T) {
	s, ts, gate := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, true)

	_, sub := post(t, ts.URL+"/v1/solve", `{"k":200,"seed":2}`)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining must refuse new work with 503 and report via /healthz.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := post(t, ts.URL+"/v1/solve", `{"k":999,"seed":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", health.StatusCode)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned before the in-flight job finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job completed during the drain.
	if v := waitDone(t, ts.URL, sub.ID); v.Status != StatusDone {
		t.Fatalf("in-flight job after drain: %s (%s)", v.Status, v.Error)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Limits: Limits{MaxK: 1000}}, false)

	cases := []struct {
		path, body string
	}{
		{"/v1/solve", `{"protocol":"nope"}`},
		{"/v1/solve", `{"k":-4}`},
		{"/v1/solve", `{"k":5000}`},      // over Limits.MaxK
		{"/v1/solve", `{"kk":5}`},        // unknown field must not hash to defaults
		{"/v1/solve", `{"k":"hundred"}`}, // type error
		{"/v1/evaluate", `{"maxExp":9}`},
		{"/v1/evaluate", `{"protocols":["zap"]}`},
		{"/v1/throughput", `{"lambdas":[0]}`},
		{"/v1/throughput", `{"shape":"uniform"}`},
		{"/v1/throughput", `{"scenario":"rho"}`}, // wrong endpoint
		{"/v1/scenario", `{"scenario":"nope"}`},
		{"/v1/scenario", `{"shape":"poisson"}`}, // wrong endpoint
	}
	for _, c := range cases {
		resp, _ := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

func TestDiscoveryEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Version: "test-1"}, false)

	resp, err := http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"one-fail", "ofa", "exp-backoff", "One-Fail Adaptive"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("/v1/protocols missing %q: %s", want, data)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"rho", "herd", "jammed", "mixed"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("/v1/scenarios missing %q: %s", want, data)
		}
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "test-1") {
		t.Fatalf("healthz = %d %s", resp.StatusCode, data)
	}
}

func TestServeListensAndShutsDown(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, ready) }()
	addr := <-ready

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	s.Close()
}

func TestMetricsExposition(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 3, QueueDepth: 17}, false)

	_, sub := post(t, ts.URL+"/v1/solve", `{"k":50,"seed":4}`)
	waitDone(t, ts.URL, sub.ID)
	post(t, ts.URL+"/v1/solve", `{"k":50,"seed":4}`) // hit

	if v := metricValue(t, ts.URL, "macsimd_queue_capacity"); v != 17 {
		t.Fatalf("queue capacity = %v", v)
	}
	if v := metricValue(t, ts.URL, "macsimd_workers"); v != 3 {
		t.Fatalf("workers = %v", v)
	}
	if v := metricValue(t, ts.URL, "macsimd_slots_simulated_total"); v <= 0 {
		t.Fatalf("slots simulated = %v, want > 0", v)
	}
	if v := metricValue(t, ts.URL, "macsimd_cache_entries"); v != 1 {
		t.Fatalf("cache entries = %v, want 1", v)
	}
	if v := metricValue(t, ts.URL, "macsimd_jobs_completed_total"); v != 1 {
		t.Fatalf("jobs completed = %v, want 1", v)
	}
	// The rate gauge must parse even when ~0 between scrapes.
	metricValue(t, ts.URL, "macsimd_slots_simulated_per_second")
}

func TestJobViewTimestamps(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)
	_, sub := post(t, ts.URL+"/v1/solve", `{"k":60,"seed":9}`)
	v := waitDone(t, ts.URL, sub.ID)
	if v.Started == nil || v.Finished == nil {
		t.Fatalf("terminal job missing timestamps: %+v", v)
	}
	if v.Kind != "solve" || !strings.HasPrefix(v.ID, v.Key[:12]) {
		t.Fatalf("job view id/kind wrong: %+v", v)
	}
}

func TestStreamOfFinishedJobReplaysAndTerminates(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)
	_, sub := post(t, ts.URL+"/v1/evaluate", `{"protocols":["exp-bb"],"ks":[20],"runs":1}`)
	waitDone(t, ts.URL, sub.ID)

	// Streaming an already-finished job must replay everything and close.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 { // 1 progress (1×1×1) + 1 done
		t.Fatalf("stream lines = %d, want 2:\n%s", len(lines), data)
	}
	var final spec.StreamEnd
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Event != "done" || len(final.Result) == 0 {
		t.Fatalf("final stream event %+v", final)
	}
}

// TestConcurrentStreamersShareEvents: several clients streaming the
// same job must each see the full event sequence (the event buffers are
// shared; the race detector guards the no-mutation invariant).
func TestConcurrentStreamersShareEvents(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)
	_, sub := post(t, ts.URL+"/v1/evaluate", `{"protocols":["one-fail"],"ks":[10,30],"runs":2}`)

	const streamers = 4
	errs := make(chan error, streamers)
	for i := 0; i < streamers; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var progress int
			var sawDone bool
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
			for sc.Scan() {
				var ev spec.StreamEnd
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					errs <- fmt.Errorf("bad line %q: %v", sc.Text(), err)
					return
				}
				switch ev.Event {
				case "progress":
					progress++
				case "done":
					sawDone = true
				}
			}
			if progress != 4 || !sawDone {
				errs <- fmt.Errorf("streamer saw %d progress events (want 4), done=%v", progress, sawDone)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < streamers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCachedThroughputIdenticalAcrossRestart(t *testing.T) {
	// Two fresh servers must compute the byte-identical result for the
	// same request — the determinism the cache layer relies on.
	body := `{"lambdas":[0.1],"messages":150,"runs":1,"seed":21}`
	results := make([]json.RawMessage, 2)
	for i := range results {
		_, ts, _ := newTestServer(t, Config{}, false)
		_, sub := post(t, ts.URL+"/v1/throughput", body)
		done := waitDone(t, ts.URL, sub.ID)
		if done.Status != StatusDone {
			t.Fatalf("run %d failed: %s", i, done.Error)
		}
		results[i] = done.Result
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("throughput results differ across servers:\n%s\n%s", results[0], results[1])
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// A small soak: distinct and duplicate jobs racing across shards;
	// everything must terminate and the counters must balance.
	_, ts, _ := newTestServer(t, Config{Workers: 4, QueueDepth: 128}, false)

	const distinct, dups = 8, 4
	ids := make(chan string, distinct*dups)
	errs := make(chan error, distinct*dups)
	for d := 0; d < distinct; d++ {
		for r := 0; r < dups; r++ {
			go func(d int) {
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
					strings.NewReader(fmt.Sprintf(`{"k":%d,"seed":6}`, 100+d)))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				var sub submitResponse
				if derr := json.NewDecoder(resp.Body).Decode(&sub); derr != nil {
					errs <- fmt.Errorf("status %d: %v", resp.StatusCode, derr)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusAccepted:
					if sub.ID != "" {
						ids <- sub.ID
					}
					errs <- nil
				default:
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
			}(d)
		}
	}
	for i := 0; i < distinct*dups; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(ids)
	for id := range ids {
		if v := waitDone(t, ts.URL, id); v.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
		}
	}
	// A worker leaves the inflight gauge just after its job view turns
	// done, so the gauge may trail the last waitDone briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := metricValue(t, ts.URL, "macsimd_jobs_inflight")
		if v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight after drain-down = %v", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v := metricValue(t, ts.URL, "macsimd_jobs_completed_total"); v != distinct {
		t.Fatalf("completed = %v, want %d", v, distinct)
	}
}

// del issues DELETE /v1/jobs/{id}.
func del(t *testing.T, base, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestCancelRunningJob is the HTTP-path acceptance test: killing a
// running job stops simulation work promptly — long before the sweep's
// remaining queued runs could have executed.
func TestCancelRunningJob(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1}, false)

	// A sweep whose runs are individually fast but long in aggregate
	// (tens of k=100'000 executions at ~tens of ms each), so the cancel
	// lands mid-sweep with a wide margin on both sides.
	const body = `{"protocols":["one-fail"],"ks":[100000],"runs":10,"seed":1}`
	resp, sub := post(t, ts.URL+"/v1/evaluate", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	// Follow the live stream until the first progress event proves the
	// job is mid-sweep, then cancel.
	stream, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	sawProgress := false
	for sc.Scan() {
		var ev spec.StreamEnd
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Event == "progress" {
			sawProgress = true
			break
		}
		if ev.Event == "done" || ev.Event == "failed" {
			break
		}
	}
	stream.Body.Close()
	if !sawProgress {
		t.Fatal("job finished before any progress event; cannot exercise mid-sweep cancel")
	}
	start := time.Now()
	if resp := del(t, ts.URL, sub.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}
	done := waitDone(t, ts.URL, sub.ID)
	if done.Status != StatusCanceled {
		t.Fatalf("status after cancel = %s (%s)", done.Status, done.Error)
	}
	// Promptness: the worker abandons the remaining runs within a couple
	// of in-flight executions, not the many seconds the full sweep needs.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if v := metricValue(t, ts.URL, "macsimd_jobs_canceled_total"); v != 1 {
		t.Fatalf("canceled counter = %v, want 1", v)
	}
	// A canceled job must not poison the cache: resubmitting the same
	// body must be a fresh miss, not a hit on a partial result.
	resp2, _ := post(t, ts.URL+"/v1/evaluate", body)
	if resp2.StatusCode != http.StatusAccepted || resp2.Header.Get("X-Cache") != "miss" {
		t.Fatalf("resubmit after cancel: %d %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if resp := del(t, ts.URL, resp2.Header.Get("Location")[len("/v1/jobs/"):]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cleanup cancel = %d", resp.StatusCode)
	}
}

// TestCancelQueuedJob: a job canceled while still waiting in the queue
// must never start simulating.
func TestCancelQueuedJob(t *testing.T) {
	s, ts, gate := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, true)

	// Job A blocks the single worker on the gate; job B sits queued.
	_, subA := post(t, ts.URL+"/v1/solve", `{"k":100,"seed":1}`)
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, ts.URL, "macsimd_queue_depth") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued job A")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, subB := post(t, ts.URL+"/v1/evaluate", `{"protocols":["one-fail"],"ks":[64],"runs":10}`)
	if resp := del(t, ts.URL, subB.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued = %d", resp.StatusCode)
	}
	// The canceled job is detached from the in-flight map immediately: an
	// identical resubmission must enqueue fresh work, not coalesce onto
	// the doomed job.
	respB2, subB2 := post(t, ts.URL+"/v1/evaluate", `{"protocols":["one-fail"],"ks":[64],"runs":10}`)
	if respB2.Header.Get("X-Cache") != "miss" || subB2.ID == subB.ID {
		t.Fatalf("resubmit after queued cancel coalesced: X-Cache=%q id=%s (canceled id %s)",
			respB2.Header.Get("X-Cache"), subB2.ID, subB.ID)
	}
	close(gate)
	if v := waitDone(t, ts.URL, subB2.ID); v.Status != StatusDone {
		t.Fatalf("resubmitted job: %s (%s)", v.Status, v.Error)
	}
	if v := waitDone(t, ts.URL, subA.ID); v.Status != StatusDone {
		t.Fatalf("job A: %s (%s)", v.Status, v.Error)
	}
	vB := waitDone(t, ts.URL, subB.ID)
	if vB.Status != StatusCanceled {
		t.Fatalf("queued job after cancel = %s (%s)", vB.Status, vB.Error)
	}
	// The canceled job never simulated: no progress events were
	// published and no slots were accounted beyond job A's.
	j, ok := s.reg.get(subB.ID)
	if !ok {
		t.Fatal("job B missing from registry")
	}
	if events, _, _ := j.snapshot(0); len(events) != 0 {
		t.Fatalf("canceled queued job published %d events", len(events))
	}
	// DELETE of an unknown id is a 404; of a finished job, a no-op 202.
	if resp := del(t, ts.URL, "unknown"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d", resp.StatusCode)
	}
	if resp := del(t, ts.URL, subA.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel finished = %d", resp.StatusCode)
	}
	if v := waitDone(t, ts.URL, subA.ID); v.Status != StatusDone {
		t.Fatalf("finished job flipped status after cancel: %s", v.Status)
	}
}

// TestSubmitKeyMatchesLibraryCanonicalKey: the key the server reports
// for a job is exactly spec.CanonicalKey of the equivalent library
// spec — one hash across front ends.
func TestSubmitKeyMatchesLibraryCanonicalKey(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)
	_, sub := post(t, ts.URL+"/v1/solve", `{"protocol":"ofa","k":123,"seed":9}`)

	es := spec.ForSolve(spec.SolveSpec{Protocol: spec.ProtocolSpec{Name: "one-fail"}, K: 123, Seed: 9})
	if err := es.Validate(limitsWithDefaults(Limits{})); err != nil {
		t.Fatal(err)
	}
	want, err := es.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if sub.Key != want {
		t.Fatalf("server key %s != library key %s", sub.Key, want)
	}
}

// TestArenaServing: POST /v1/arena runs the cross-paper robustness
// arena end to end. The served document — ranking, rendered table and
// CSV — must be byte-identical to what the library produces for the
// same spec, and the canonical key must match the library's, so the
// third front end joins the parity the CLI tests already pin.
func TestArenaServing(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)

	resp, sub := post(t, ts.URL+"/v1/arena",
		`{"protocols":["exp-bb","bkc","jz-robust"],"scenarios":["herd"],"messages":60,"runs":1,"seed":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	v := waitDone(t, ts.URL, sub.ID)
	if v.Status != StatusDone {
		t.Fatalf("job status = %s (%s)", v.Status, v.Error)
	}

	es := spec.ForArena(spec.ArenaSpec{
		Protocols: []spec.ProtocolSpec{{Name: "exp-bb"}, {Name: "bk-cascade"}, {Name: "jz-robust"}},
		Scenarios: []string{"herd"},
		Messages:  60,
		Runs:      1,
		Seed:      5,
	})
	if err := es.Validate(limitsWithDefaults(Limits{})); err != nil {
		t.Fatal(err)
	}
	key, err := es.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if sub.Key != key {
		t.Fatalf("server key %s != library key %s", sub.Key, key)
	}

	exec, err := spec.Run(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.Document())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("served arena document diverges from the library's:\nhttp: %s\nlib:  %s", v.Result, want)
	}

	var doc spec.ArenaResult
	if err := json.Unmarshal(v.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Ranking) != 3 || len(doc.Scenarios) != 1 || doc.Table == "" || doc.CSV == "" {
		t.Fatalf("unexpected arena document shape: %+v", doc)
	}
	for i, e := range doc.Ranking {
		if e.Rank != i+1 {
			t.Fatalf("ranking[%d].Rank = %d, want %d", i, e.Rank, i+1)
		}
	}

	// Bad arena requests are rejected at submit time.
	for _, body := range []string{
		`{"protocols":["nope"]}`,
		`{"protocols":[{"name":"one-fail","params":{"delta":2.9}}]}`,
		`{"scenarios":["nope"]}`,
		`{"lambda":-1}`,
	} {
		resp, _ := post(t, ts.URL+"/v1/arena", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestAdaptivePrecisionServing submits an adaptive-precision evaluate
// request end to end: the result document carries per-cell reps and
// error bars, and the replications the stopping rule saved surface in
// macsimd_reps_saved_total.
func TestAdaptivePrecisionServing(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)

	body := `{"protocols":["exp-bb"],"ks":[200],"precision":{"epsilon":0.3,"confidence":0.9,"minReps":2,"maxReps":40}}`
	_, sub := post(t, ts.URL+"/v1/evaluate", body)
	v := waitDone(t, ts.URL, sub.ID)

	var doc struct {
		Series []struct {
			Cells []struct {
				RepsUsed int     `json:"repsUsed"`
				CI95     float64 `json:"ci95"`
			} `json:"cells"`
		} `json:"series"`
	}
	if err := json.Unmarshal(v.Result, &doc); err != nil {
		t.Fatal(err)
	}
	cell := doc.Series[0].Cells[0]
	if cell.RepsUsed < 2 || cell.RepsUsed >= 40 {
		t.Fatalf("repsUsed = %d, want early stop in [2, 40)", cell.RepsUsed)
	}
	if cell.CI95 <= 0 {
		t.Fatalf("ci95 = %v, want > 0", cell.CI95)
	}
	if got, want := metricValue(t, ts.URL, "macsimd_reps_saved_total"), float64(40-cell.RepsUsed); got != want {
		t.Fatalf("macsimd_reps_saved_total = %v, want %v", got, want)
	}

	// The serving default caps maxReps at 64.
	resp, _ := post(t, ts.URL+"/v1/evaluate", `{"ks":[10],"precision":{"epsilon":0.1,"maxReps":1000}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized maxReps: status %d, want 400", resp.StatusCode)
	}
}
