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
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/stats"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/spec"
	"repro/internal/store"
)

// Sinks keep the compiler from discarding probed calls.
var (
	sinkU uint64
	sinkF float64
)

// suite is one traced run: fixed-count probes of single layers plus one
// in-process pass of every workload with spans around each call into a
// layer. Every traced run reports every per-layer metric, whichever
// workload it was started for; the selected workloads' passes are also
// run untraced first, which gives the tracing overhead. Reported times
// are at reference speed, as the end-to-end ones are; the printed
// breakdowns are as measured.
type suite struct {
	e      *env
	seed   uint64
	values map[string]float64

	attempted, failed int
	problems          []string
}

// fail records n operations that failed a correctness check.
func (s *suite) fail(n int, format string, args ...any) {
	s.failed += n
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// perOp runs fn reps times and returns the median nanoseconds per
// operation, fn performing ops operations per call.
func perOp(reps, ops int, fn func(rep int)) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn(i)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return stats.Median(xs)
}

// medianOf times fn once per item and returns the median duration in
// the given unit.
func medianOf(durations []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(durations))
	for i, d := range durations {
		xs[i] = float64(d) / float64(unit)
	}
	return stats.Median(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// passFunc runs one workload's in-process pass under tr (nil for the
// untraced repeat) and returns its per-operation cost in nanoseconds.
type passFunc func(ctx context.Context, tr *tracer) (float64, error)

// runTraced executes the traced suite and prints each pass's layer
// breakdown to w.
func runTraced(ctx context.Context, e *env, seed uint64, selected []string, spansDir string, w io.Writer) (result, error) {
	s := &suite{e: e, seed: seed, values: map[string]float64{}}
	hits := hitBodies(seed, e.sc.hitSpecs)
	fresh := freshSchedule(seed, e.sc.freshPass, e.sc.freshRate)

	// Every probe and traced pass runs between two reference timings,
	// and the times it records are scaled to reference speed (speed.go).
	var c clock
	factors := map[string]float64{}
	step := func(fn func() error) error {
		before := c.ref()
		err := fn()
		after := c.ref()
		for name := range s.values {
			if _, ok := factors[name]; !ok {
				factors[name] = speedFactor(before, after)
			}
		}
		return err
	}
	var doc []byte
	var hp *hitsPass
	for _, probe := range []func() error{
		func() error { s.probeRNG(); return nil },
		s.probeProtocols,
		s.probeKernel,
		func() error { s.probeSpecHits(hits); return nil },
		func() (err error) { doc, err = s.probeSpecRun(ctx, fresh); return err },
		func() error { return s.probeStore(doc) },
		func() (err error) { hp, err = s.newHitsPass(ctx, hits); return err },
	} {
		if err := step(probe); err != nil {
			return result{}, err
		}
	}
	defer hp.close()
	passes := []struct {
		name, label string
		run         passFunc
	}{
		{"static-paper", "sample", s.staticPass},
		{"arena-gauntlet", "sample", s.arenaPass},
		{"session-steer", "sample", s.sessionPass},
		{"serve-hits", "p50 request", hp.run},
		{"serve-fresh", "p50 job", func(ctx context.Context, tr *tracer) (float64, error) {
			return s.freshPass(ctx, tr, fresh)
		}},
	}
	tr := newTracer()
	costs := map[string][2]float64{}
	for _, p := range passes {
		var untraced, cost float64
		var err error
		if slices.Contains(selected, p.name) {
			if untraced, err = p.run(ctx, nil); err != nil {
				return result{}, fmt.Errorf("%s untraced pass: %w", p.name, err)
			}
		}
		if err := step(func() (err error) { cost, err = p.run(ctx, tr); return err }); err != nil {
			return result{}, fmt.Errorf("%s traced pass: %w", p.name, err)
		}
		costs[p.name] = [2]float64{cost, untraced}
	}
	for _, d := range perLayer {
		if d.unit == "ns" || d.unit == "us" || d.unit == "ms" {
			s.values[d.name] *= factors[d.name]
		}
	}
	hp.close() // waits for the last handler spans

	byPass := map[string][]span{}
	roots := map[uint64]string{}
	all := tr.snapshot()
	for _, sp := range all {
		if sp.Parent == 0 {
			roots[sp.Trace] = sp.Name
		}
	}
	for _, sp := range all {
		byPass[roots[sp.Trace]] = append(byPass[roots[sp.Trace]], sp)
	}
	for _, p := range passes {
		c := costs[p.name]
		printBreakdown(w, passReport{name: p.name, spans: byPass[p.name], cost: c[0], untraced: c[1], costLabel: p.label})
	}
	if spansDir != "" {
		path, err := tr.writeSpans(spansDir)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(all), path)
	}
	for _, p := range s.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	metrics, missing := metricSet(perLayer, s.values)
	if len(missing) > 0 {
		return result{}, fmt.Errorf("traced run did not measure %s", strings.Join(missing, ", "))
	}
	return result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}, nil
}

// probeRNG times each draw the simulators make.
func (s *suite) probeRNG() {
	n := s.e.sc.probeOps
	src := rng.New(s.seed)
	v := s.values
	v["rng.uint64_ns"] = perOp(5, n, func(int) {
		for i := 0; i < n; i++ {
			sinkU += src.Uint64()
		}
	})
	v["rng.bernoulli_ns"] = perOp(5, n, func(int) {
		for i := 0; i < n; i++ {
			if src.Bernoulli(0.25) {
				sinkU++
			}
		}
	})
	v["rng.geometric_ns"] = perOp(5, n, func(int) {
		for i := 0; i < n; i++ {
			sinkU += src.Geometric(0.05)
		}
	})
	v["rng.binomial_ns"] = perOp(5, n, func(int) {
		for i := 0; i < n; i++ {
			sinkU += uint64(src.Binomial(256, 0.05))
		}
	})
	v["rng.poisson_ns"] = perOp(5, n, func(int) {
		for i := 0; i < n; i++ {
			sinkU += uint64(src.Poisson(3.5))
		}
	})
}

// fairProbes are the fair registry configurations whose controller
// step is probed.
var fairProbes = []string{"one-fail", "log-fails-2", "log-fails-10", "bk-cascade", "jz-robust"}

// probeProtocols times one Prob+Observe step of each fair controller,
// fed a fixed success pattern with the channel's 1/e success rate.
func (s *suite) probeProtocols() error {
	n := s.e.sc.probeOps
	pr := newInputRand(s.seed, "protocol-probe")
	pattern := make([]bool, 4096)
	for i := range pattern {
		pattern[i] = pr.float() < 0.3679
	}
	for _, name := range fairProbes {
		sys, err := harness.SystemByName(name)
		if err != nil {
			return err
		}
		fs, ok := sys.(*harness.FairSystem)
		if !ok {
			return fmt.Errorf("protocol probe: %s is not a fair protocol", name)
		}
		ctrls := make([]protocol.Controller, 5)
		for i := range ctrls {
			c, err := fs.NewController(1000)
			if err != nil {
				return err
			}
			ctrls[i] = c
		}
		s.values["protocol.step_ns."+name] = perOp(len(ctrls), n, func(rep int) {
			c := ctrls[rep]
			for slot := uint64(1); slot <= uint64(n); slot++ {
				sinkF += c.Prob(slot)
				c.Observe(slot, pattern[slot&4095])
			}
		})
	}
	return nil
}

// probeKernel replays the window sequence of an exp-bb run through
// kernel.Window.Step and times the calendar queue.
func (s *suite) probeKernel() error {
	var runner engine.WindowRunner
	var seq []engine.WindowResult
	runner.SetTrace(func(r engine.WindowResult) { seq = append(seq, r) })
	sched, err := core.NewExpBackonBackoff(core.DefaultEBBDelta)
	if err != nil {
		return err
	}
	if _, err := runner.Run(s.e.sc.windowK, sched, rng.NewStream(s.seed, "macbench", "window-trace"), 0); err != nil {
		return err
	}
	s.values["kernel.windows"] = float64(len(seq))
	var win kernel.Window
	src := rng.New(s.seed)
	s.values["kernel.window_step_ns"] = perOp(5, len(seq), func(int) {
		for _, r := range seq {
			d, _ := win.Step(r.Active, r.Window, src)
			sinkU += uint64(d)
		}
	})

	// The calendar holds 1024 pending attempts; each operation pops the
	// earliest group and reschedules its members up to 4096 slots ahead.
	n := s.e.sc.probeOps
	s.values["kernel.calendar_op_ns"] = perOp(3, n, func(int) {
		c := kernel.NewCalendar()
		src := rng.New(s.seed)
		for id := int32(0); id < 1024; id++ {
			c.Schedule(1+src.Uint64n(4096), id)
		}
		var buf []int32
		for ops := 0; ops < n; {
			slot, group := c.PopGroup(buf)
			for _, id := range group {
				c.Schedule(slot+1+src.Uint64n(4096), id)
				ops++
			}
			buf = group
		}
	})
	return nil
}

// probeSpecHits times decode, validate and canonical hashing over the
// serve-hits bodies: the request-path work before the cache lookup.
func (s *suite) probeSpecHits(hits []request) {
	var dec, val, key []time.Duration
	for rep := 0; rep < 20; rep++ {
		for _, h := range hits {
			t0 := time.Now()
			es, err := spec.Decode(spec.ExperimentKind(h.Kind), h.Body)
			t1 := time.Now()
			if err == nil {
				err = es.Validate(spec.Limits{})
			}
			t2 := time.Now()
			if err == nil {
				_, err = es.CanonicalKey()
			}
			t3 := time.Now()
			if err != nil {
				s.fail(1, "spec probe %s %s: %v", h.Kind, h.Body, err)
				continue
			}
			dec, val, key = append(dec, t1.Sub(t0)), append(val, t2.Sub(t1)), append(key, t3.Sub(t2))
		}
	}
	s.values["spec.decode_us"] = medianOf(dec, time.Microsecond)
	s.values["spec.validate_us"] = medianOf(val, time.Microsecond)
	s.values["spec.key_us"] = medianOf(key, time.Microsecond)
}

// probeSpecRun times spec.Run and result encoding over the first
// serve-fresh bodies and returns the largest document, for the store
// probe.
func (s *suite) probeSpecRun(ctx context.Context, fresh []freshJob) ([]byte, error) {
	var runs, encs []time.Duration
	var largest []byte
	for _, j := range fresh[:min(len(fresh), s.e.sc.specRunBodies)] {
		t0 := time.Now()
		doc, err := runSpec(ctx, j.request, func() { runs = append(runs, time.Since(t0)) })
		if err != nil {
			return nil, err
		}
		encs = append(encs, time.Since(t0)-runs[len(runs)-1])
		if len(doc) > len(largest) {
			largest = doc
		}
	}
	if largest == nil {
		return nil, errors.New("spec probe: the serve-fresh schedule is empty")
	}
	s.values["spec.run_ms"] = medianOf(runs, time.Millisecond)
	s.values["spec.encode_ms"] = medianOf(encs, time.Millisecond)
	return largest, nil
}

// runSpec executes one submit body in-process exactly as a macsimd
// worker does and returns the result document's bytes. ran, if not
// nil, is called between execution and encoding.
func runSpec(ctx context.Context, r request, ran func()) ([]byte, error) {
	es, err := spec.Decode(spec.ExperimentKind(r.Kind), r.Body)
	if err != nil {
		return nil, err
	}
	exec, err := spec.Run(ctx, es)
	if err != nil {
		return nil, err
	}
	res, err := exec.Result()
	if err != nil {
		return nil, err
	}
	if ran != nil {
		ran()
	}
	return json.Marshal(res.Document())
}

// probeStore times the file store's job-record and result writes
// (each fsync'd) and result reads.
func (s *suite) probeStore(doc []byte) error {
	dir, err := s.e.procs.tempDir("store-probe-")
	if err != nil {
		return err
	}
	st, err := store.OpenFile(dir)
	if err != nil {
		return err
	}
	n := s.e.sc.storeOps
	keys := make([]string, n)
	var putJob, putRes, getRes []time.Duration
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(sum[:])
		rec := store.JobRecord{ID: fmt.Sprintf("%s-%d", keys[i][:12], i), Kind: "solve", Key: keys[i],
			Params: json.RawMessage(`{"protocol":"one-fail","k":20000,"seed":1}`), Status: store.StatusQueued, Created: time.Now()}
		t0 := time.Now()
		if err := st.PutJob(rec); err != nil {
			return err
		}
		t1 := time.Now()
		if err := st.PutResult(keys[i], doc); err != nil {
			return err
		}
		putJob, putRes = append(putJob, t1.Sub(t0)), append(putRes, time.Since(t1))
	}
	for i := 0; i < 5*n; i++ {
		t0 := time.Now()
		got, ok, err := st.GetResult(keys[i%n])
		getRes = append(getRes, time.Since(t0))
		if err != nil || !ok || !bytes.Equal(got, doc) {
			s.fail(1, "store probe: result %s did not read back", keys[i%n])
		}
	}
	s.values["store.put_job_us"] = medianOf(putJob, time.Microsecond)
	s.values["store.put_result_us"] = medianOf(putRes, time.Microsecond)
	s.values["store.get_result_us"] = medianOf(getRes, time.Microsecond)
	return nil
}

// spanSystem wraps a harness system so each static run becomes a span.
type spanSystem struct {
	harness.System
	name          string
	tr            *tracer
	trace, parent uint64
	log           *runLog
}

// runLog collects the static runs, which the harness's workers finish
// concurrently.
type runLog struct {
	mu   sync.Mutex
	runs []kernelRun
}

type kernelRun struct {
	fair bool
	k    int
	ns   float64
}

func (s spanSystem) Run(k int, src *rng.Rand) (uint64, error) {
	t0 := time.Now()
	n, err := s.System.Run(k, src)
	t1 := time.Now()
	s.tr.record(s.trace, s.tr.id(), s.parent, s.name, t0, t1)
	s.log.mu.Lock()
	s.log.runs = append(s.log.runs, kernelRun{fair: s.name == "kernel.fair", k: k, ns: float64(t1.Sub(t0))})
	s.log.mu.Unlock()
	return n, err
}

// staticPass runs the static-paper sweep through spec.Run, each run of
// the harness's worker pool a kernel.fair or kernel.window span.
func (s *suite) staticPass(ctx context.Context, tr *tracer) (float64, error) {
	trace, root, runID := tr.id(), tr.id(), tr.id()
	ev := spec.EvaluateSpec{MaxExp: s.e.sc.staticMaxExp, Runs: s.e.sc.staticRuns, Seed: s.seed}
	log := &runLog{}
	if tr != nil {
		for _, sys := range harness.PaperSystems() {
			name := "kernel.window"
			if _, ok := sys.(*harness.FairSystem); ok {
				name = "kernel.fair"
			}
			ev.Systems = append(ev.Systems, spanSystem{System: sys, name: name, tr: tr,
				trace: trace, parent: runID, log: log})
		}
	}
	t0 := time.Now()
	exec, err := spec.Run(ctx, spec.ForEvaluate(ev))
	if err != nil {
		return 0, err
	}
	res, err := exec.Result()
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	doc, err := json.Marshal(res.Document())
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	s.attempted++
	if _, err := checkStatic(doc); err != nil {
		s.fail(1, "static-paper pass: %v", err)
	}
	if tr == nil {
		return float64(t2.Sub(t0)), nil
	}
	tr.record(trace, runID, root, "spec.run", t0, t1)
	tr.record(trace, tr.id(), root, "spec.encode", t1, t2)
	tr.record(trace, root, 0, "static-paper", t0, t2)

	var fairNs, fairK, winNs, winK, busy float64
	for _, r := range log.runs {
		busy += r.ns
		if r.fair {
			fairNs, fairK = fairNs+r.ns, fairK+float64(r.k)
		} else {
			winNs, winK = winNs+r.ns, winK+float64(r.k)
		}
	}
	s.values["kernel.fair_ns_per_delivery"] = ratio(fairNs, fairK)
	s.values["kernel.window_ns_per_delivery"] = ratio(winNs, winK)
	s.values["harness.busy_frac"] = ratio(busy, float64(runtime.GOMAXPROCS(0))*float64(t1.Sub(t0)))
	s.values["harness.runs"] = float64(len(log.runs))
	return float64(t2.Sub(t0)), nil
}

// arenaPass runs the arena with one worker, so the progress callbacks
// delimit consecutive executions: each becomes a dynamic.fair or
// dynamic.window span. A scenario's workload generation is charged to
// its first execution; ranking and rendering are what remains.
func (s *suite) arenaPass(ctx context.Context, tr *tracer) (float64, error) {
	trace, root := tr.id(), tr.id()
	a := s.e.sc.arena
	fair := map[string]bool{}
	for _, name := range harness.SystemNames() {
		sys, err := harness.SystemByName(name)
		if err != nil {
			return 0, err
		}
		_, fair[name] = sys.(*harness.FairSystem)
	}
	var fairNs, winNs, fairDrainedNs, fairSlots, winDelivered, slots, saturated float64
	t0 := time.Now()
	last := t0
	cfg := arena.Config{Protocols: a.protocols, Scenarios: a.scenarios, Messages: a.messages, Runs: a.runs,
		Seed: s.seed, Parallelism: 1,
		Progress: func(protocol, _ string, _ int, r dynamic.Result) {
			now := time.Now()
			ns := float64(now.Sub(last))
			name := "dynamic.window"
			if fair[protocol] {
				name = "dynamic.fair"
				fairNs += ns
				if r.Completed {
					fairDrainedNs += ns
					fairSlots += float64(r.Completion)
				}
			} else {
				winNs += ns
				winDelivered += float64(r.Delivered)
			}
			if r.Completed {
				slots += float64(r.Completion)
			} else {
				saturated++
			}
			tr.record(trace, tr.id(), root, name, last, now)
			last = now
		}}
	res, err := arena.RunContext(ctx, cfg)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	var table, csv strings.Builder
	if err := arena.Table(&table, res); err != nil {
		return 0, err
	}
	if err := arena.CSV(&csv, res); err != nil {
		return 0, err
	}
	t2 := time.Now()
	s.attempted++
	want := len(a.protocols)
	if want == 0 {
		want = len(harness.SystemNames())
	}
	if len(res.Ranking) != want {
		s.fail(1, "arena-gauntlet pass: %d ranked protocols, want %d", len(res.Ranking), want)
	}
	if tr == nil {
		return float64(t2.Sub(t0)), nil
	}
	tr.record(trace, tr.id(), root, "arena.render", t1, t2)
	tr.record(trace, root, 0, "arena-gauntlet", t0, t2)
	s.values["dynamic.fair_share"] = ratio(fairNs, fairNs+winNs)
	s.values["dynamic.fair_ns_per_slot"] = ratio(fairDrainedNs, fairSlots)
	s.values["dynamic.window_ns_per_delivery"] = ratio(winNs, winDelivered)
	s.values["dynamic.slots"] = slots
	s.values["dynamic.saturated_runs"] = saturated
	s.values["arena.other_ms"] = (float64(t2.Sub(t0)) - fairNs - winNs) / 1e6
	return float64(t2.Sub(t0)), nil
}

// sessionPass replays the session-steer checkpoint in-process: the
// engine runs to its end first, then the buffered events are encoded
// as the CLI would print them.
func (s *suite) sessionPass(ctx context.Context, tr *tracer) (float64, error) {
	trace, root := tr.id(), tr.id()
	ck := sessionCheckpoint(s.seed, s.e.sc.sessionWindows)
	t0 := time.Now()
	sess, err := session.Replay(ctx, ck)
	if err != nil {
		return 0, err
	}
	if err := sess.Wait(); err != nil {
		return 0, err
	}
	t1 := time.Now()
	enc := json.NewEncoder(io.Discard)
	var end *spec.SessionEnd
	for ev, err := range sess.Events() {
		if err != nil {
			return 0, err
		}
		if err := enc.Encode(ev); err != nil {
			return 0, err
		}
		if e, ok := ev.(spec.SessionEnd); ok {
			end = &e
		}
	}
	t2 := time.Now()
	s.attempted++
	if end == nil || end.Reason != "maxWindows" || end.Windows != s.e.sc.sessionWindows {
		s.fail(1, "session-steer pass: end event %+v, want %d windows", end, s.e.sc.sessionWindows)
		return float64(t2.Sub(t0)), nil
	}
	if tr == nil {
		return float64(t2.Sub(t0)), nil
	}
	tr.record(trace, tr.id(), root, "session.engine", t0, t1)
	tr.record(trace, tr.id(), root, "session.encode", t1, t2)
	tr.record(trace, root, 0, "session-steer", t0, t2)
	s.values["session.ns_per_window"] = ratio(float64(t1.Sub(t0)), float64(end.Windows))
	s.values["session.windows"] = float64(end.Windows)
	s.values["session.dropped_frac"] = ratio(float64(end.Dropped), float64(end.Windows))
	return float64(t2.Sub(t0)), nil
}

// spanHeader carries a request's trace and parent span ids to the
// in-process server's handler span.
const spanHeader = "X-Bench-Span"

// loopback serves an in-process macsimd handler on 127.0.0.1:0 behind a
// middleware that records a server.handler span for every request
// carrying spanHeader.
type loopback struct {
	srv  *server.Server
	hs   *http.Server
	base string
	tr   atomic.Pointer[tracer]
	done chan struct{}
}

func newLoopback(srv *server.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: srv, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h := srv.Handler()
	l.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr := l.tr.Load()
		var trace, parent uint64
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d.%d", &trace, &parent); err == nil && tr != nil {
			tr.record(trace, tr.id(), parent, "server.handler", t0, time.Now())
		}
	})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the listener, waits for in-flight handlers and stops the
// server's workers.
func (l *loopback) close() {
	_ = l.hs.Close() // error only reports the listener already closed
	<-l.done
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = l.srv.Drain(ctx) // best effort: the pass is over
	l.srv.Close()
}

// hitsPass is the serve-hits pass: an in-process server warmed with the
// working set, probed through its handler directly and then driven over
// loopback HTTP by the same closed loop as the end-to-end workload.
type hitsPass struct {
	s      *suite
	hits   []request
	warm   [][]byte
	lb     *loopback
	client *http.Client
	once   sync.Once
}

func (s *suite) newHitsPass(ctx context.Context, hits []request) (*hitsPass, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	lb, err := newLoopback(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	hp := &hitsPass{s: s, hits: hits, lb: lb, client: newClient(2)}
	if hp.warm, err = warmUp(ctx, hp.client, lb.base, hits); err != nil {
		hp.close()
		return nil, err
	}
	// The handler alone, without a socket: decode → validate → hash →
	// cache → splice, on an httptest recorder.
	h := srv.Handler()
	var times []time.Duration
	for rep := 0; rep < 20; rep++ {
		for i, r := range hits {
			req := httptest.NewRequest(http.MethodPost, "/v1/"+r.Kind, bytes.NewReader(r.Body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			times = append(times, time.Since(t0))
			if !bytes.Equal(rec.Body.Bytes(), hp.warm[i]) {
				s.fail(1, "handler probe: %s response differs from its warm response", r.Kind)
			}
		}
	}
	s.values["server.handler_hit_us"] = medianOf(times, time.Microsecond)
	return hp, nil
}

func (hp *hitsPass) close() { hp.once.Do(hp.lb.close) }

func (hp *hitsPass) run(ctx context.Context, tr *tracer) (float64, error) {
	s := hp.s
	hp.lb.tr.Store(tr)
	defer hp.lb.tr.Store(nil)
	before, err := scrapeMetrics(ctx, hp.client, hp.lb.base)
	if err != nil {
		return 0, err
	}
	lr := hitLoop(ctx, hp.client, hp.lb.base, hp.hits, hp.warm, s.seed, s.e.sc.hitsPass, tr)
	after, err := scrapeMetrics(ctx, hp.client, hp.lb.base)
	if err != nil {
		return 0, err
	}
	s.attempted += lr.attempted
	if lr.failed > 0 {
		s.fail(lr.failed, "serve-hits pass: %d of %d requests failed", lr.failed, lr.attempted)
	}
	if len(lr.lat) == 0 {
		return 0, errors.New("serve-hits pass completed no request")
	}
	client := stats.Median(lr.lat) * 1e9
	if tr == nil {
		return client, nil
	}
	var handler []float64
	for _, sp := range tr.snapshot() {
		if sp.Name == "server.handler" && lr.traces[sp.Trace] {
			handler = append(handler, float64(sp.End-sp.Start))
		}
	}
	hitsDelta := after["macsimd_cache_hits_total"] - before["macsimd_cache_hits_total"]
	missDelta := after["macsimd_cache_misses_total"] - before["macsimd_cache_misses_total"]
	s.values["server.transport_us"] = (client - stats.Median(handler)) / 1e3
	s.values["server.hit_ratio"] = ratio(hitsDelta, hitsDelta+missDelta)
	return client, nil
}

// freshPass is the serve-fresh pass: an in-process server on a file
// store driven over loopback HTTP by the same open loop as the
// end-to-end workload, with the server's own job timestamps recorded as
// server.queue and server.run spans.
func (s *suite) freshPass(ctx context.Context, tr *tracer, sched []freshJob) (float64, error) {
	dir, err := s.e.procs.tempDir("fresh-pass-")
	if err != nil {
		return 0, err
	}
	st, err := store.OpenFile(dir)
	if err != nil {
		return 0, err
	}
	srv, err := server.New(server.Config{Store: st})
	if err != nil {
		return 0, err
	}
	lb, err := newLoopback(srv)
	if err != nil {
		srv.Close()
		return 0, err
	}
	lb.tr.Store(tr)
	client := newClient(2)
	before, err := scrapeMetrics(ctx, client, lb.base)
	if err != nil {
		lb.close()
		return 0, err
	}
	out := openLoop(ctx, lb.base, sched, tr)
	after, err := scrapeMetrics(ctx, client, lb.base)
	lb.close()
	if err != nil {
		return 0, err
	}
	s.attempted += len(sched)
	if n := failedJobs(out.jobs) + checkFresh(ctx, sched, out.jobs); n > 0 {
		s.fail(n, "serve-fresh pass: %d of %d jobs failed", n, len(sched))
	}
	lat := latencies(out.jobs)
	if len(lat) == 0 {
		return 0, errors.New("serve-fresh pass completed no job")
	}
	cost := stats.Median(lat) * 1e9
	if tr == nil {
		return cost, nil
	}
	var wait, run []float64
	for _, j := range out.jobs {
		if j.ok {
			wait = append(wait, float64(j.started.Sub(j.created))/1e6)
			run = append(run, float64(j.finished.Sub(j.started))/1e6)
		}
	}
	done := after["macsimd_jobs_completed_total"] - before["macsimd_jobs_completed_total"]
	s.values["server.queue_wait_ms.p50"] = stats.Median(wait)
	s.values["server.queue_wait_ms.p95"] = stats.Quantile(wait, 0.95)
	s.values["server.job_run_ms.p50"] = stats.Median(run)
	s.values["server.rejected"] = after["macsimd_rejected_total"] - before["macsimd_rejected_total"]
	s.values["store.writes_per_job"] = ratio(after["macsimd_store_writes_total"]-before["macsimd_store_writes_total"], done)
	s.values["loadgen.late_p99_ms"] = stats.Quantile(out.late, 0.99) * 1e3
	return cost, nil
}
