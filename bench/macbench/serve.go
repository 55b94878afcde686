package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/bench/stats"
)

// jobView is what the benchmark reads from a job poll.
type jobView struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
}

// waitJob polls a job every interval until it is terminal.
func waitJob(ctx context.Context, client *http.Client, base, id string, interval, limit time.Duration) (jobView, error) {
	deadline := time.Now().Add(limit)
	for {
		status, data, err := get(ctx, client, base+"/v1/jobs/"+id)
		if err != nil {
			return jobView{}, err
		}
		var v jobView
		if status != http.StatusOK {
			return v, fmt.Errorf("poll %s answered %d: %.200s", id, status, data)
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return v, fmt.Errorf("poll %s: %w", id, err)
		}
		switch v.Status {
		case "done":
			return v, nil
		case "failed", "canceled":
			return v, fmt.Errorf("job %s %s: %s", id, v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %s not done after %v", id, limit)
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// warmUp submits every body, waits for the jobs and returns each body's
// cache-hit response, the bytes every later hit must repeat.
func warmUp(ctx context.Context, client *http.Client, base string, bodies []request) ([][]byte, error) {
	for _, b := range bodies {
		status, _, data, err := post(ctx, client, base+"/v1/"+b.Kind, b.Body, nil)
		if err != nil {
			return nil, err
		}
		if status == http.StatusOK {
			continue // an identical body was already warm
		}
		var v jobView
		if status != http.StatusAccepted || json.Unmarshal(data, &v) != nil {
			return nil, fmt.Errorf("warming %s %s: answered %d: %.200s", b.Kind, b.Body, status, data)
		}
		if _, err := waitJob(ctx, client, base, v.ID, time.Millisecond, time.Minute); err != nil {
			return nil, fmt.Errorf("warming %s %s: %w", b.Kind, b.Body, err)
		}
	}
	warm := make([][]byte, len(bodies))
	for i, b := range bodies {
		status, cache, data, err := post(ctx, client, base+"/v1/"+b.Kind, b.Body, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK || cache != "hit" {
			return nil, fmt.Errorf("warm %s %s answered %d (X-Cache %q)", b.Kind, b.Body, status, cache)
		}
		warm[i] = data
	}
	return warm, nil
}

// loopResult is one closed loop's outcome.
type loopResult struct {
	lat               []float64 // seconds per completed request
	attempted, failed int
	elapsed           float64
	traces            map[uint64]bool // root trace ids, when traced
}

// hitLoop drives the serve-hits closed loop: two connections, each
// sending its next request when the previous one completes, picking
// bodies by zipf(1.1) from its own seeded stream. Every response must
// be a cache hit byte-equal to the body's warm response. Under a
// tracer each request is an operation whose id travels in spanHeader.
func hitLoop(ctx context.Context, client *http.Client, base string, bodies []request, warm [][]byte,
	seed uint64, d time.Duration, tr *tracer) loopResult {
	const conns = 2
	z := newZipf(len(bodies), 1.1)
	results := make([]loopResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(res *loopResult, c int) {
			defer wg.Done()
			r := newInputRand(seed, fmt.Sprintf("serve-hits/conn-%d", c))
			res.traces = map[uint64]bool{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := z.draw(r)
				var header http.Header
				trace, root := tr.id(), tr.id()
				if tr != nil {
					header = http.Header{spanHeader: {fmt.Sprintf("%d.%d", trace, root)}}
				}
				t0 := time.Now()
				status, cache, data, err := post(ctx, client, base+"/v1/"+bodies[i].Kind, bodies[i].Body, header)
				t1 := time.Now()
				res.attempted++
				if err != nil {
					res.failed++
					continue
				}
				res.lat = append(res.lat, t1.Sub(t0).Seconds())
				if status != http.StatusOK || cache != "hit" || !bytes.Equal(data, warm[i]) {
					res.failed++
				}
				if tr != nil {
					tr.record(trace, root, 0, "serve-hits", t0, t1)
					res.traces[trace] = true
				}
			}
		}(&results[c], c)
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start).Seconds(), traces: map[uint64]bool{}}
	for _, r := range results {
		out.lat = append(out.lat, r.lat...)
		out.attempted += r.attempted
		out.failed += r.failed
		for t := range r.traces {
			out.traces[t] = true
		}
	}
	return out
}

// runServeHits measures the cache-hit request path of a macsimd child.
// Each set-up starts a fresh daemon and warms the working set; the
// last one serves the timed phase.
func (e *env) runServeHits(ctx context.Context, seed uint64, d time.Duration) (*measured, error) {
	bodies := hitBodies(seed, e.sc.hitSpecs)
	client := newClient(2)
	m := &measured{}
	var dm *daemon
	var warm [][]byte
	before := m.ref()
	for i := 0; i < e.sc.setupReps; i++ {
		if dm != nil {
			dm.kill()
		}
		t0 := time.Now()
		var err error
		if dm, err = startDaemon(ctx, e.procs, e.bin("macsimd"), client); err != nil {
			return nil, err
		}
		if warm, err = warmUp(ctx, client, dm.base, bodies); err != nil {
			dm.kill()
			return nil, err
		}
		sec := time.Since(t0).Seconds()
		after := m.ref()
		m.setup(sec, before, after)
		before = after
	}
	defer dm.stop()
	// The closed loop pauses between its parts to time the reference.
	for part := 0; part < hitParts; part++ {
		lr := hitLoop(ctx, client, dm.base, bodies, warm, seed+uint64(part)<<32, d/hitParts, nil)
		after := m.ref()
		m.ops(lr.lat, lr.elapsed, before, after)
		before = after
		m.attempted += lr.attempted
		m.failed += lr.failed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := dm.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	m.rssMiB = rss
	if len(m.raw.lat) == 0 {
		return nil, fmt.Errorf("serve-hits completed no request\n%s", dm.logs)
	}
	return m, nil
}

// hitParts and freshParts are how many parts the serve-hits and
// serve-fresh phases are split into, with a reference timing between
// consecutive parts.
const (
	hitParts   = 6
	freshParts = 4
)

// jobResult is one serve-fresh job as the client saw it.
type jobResult struct {
	ok                         bool
	lat                        float64 // seconds from due time to the done poll
	doc                        []byte
	created, started, finished time.Time
}

// openLoopResult is one open-loop phase.
type openLoopResult struct {
	jobs    []jobResult
	late    []float64 // seconds each submission started after its due time
	elapsed float64   // seconds from the first due time to the last completion
}

// failedJobs counts the jobs that did not complete.
func failedJobs(jobs []jobResult) int {
	n := 0
	for _, j := range jobs {
		if !j.ok {
			n++
		}
	}
	return n
}

// latencies returns the completed jobs' latencies.
func latencies(jobs []jobResult) []float64 {
	var lat []float64
	for _, j := range jobs {
		if j.ok {
			lat = append(lat, j.lat)
		}
	}
	return lat
}

// openLoop drives the serve-fresh open loop over two connections. On
// the first, each scheduled job is submitted at its due time whatever
// happened to earlier ones; on the second, one poller asks after every
// outstanding job every 2 ms. A job's latency runs from its due time to
// the poll that returns it done, so a stalled generator or client
// counts against the jobs it delayed.
func openLoop(ctx context.Context, base string, sched []freshJob, tr *tracer) openLoopResult {
	submitC, pollC := newClient(1), newClient(1)
	out := openLoopResult{jobs: make([]jobResult, len(sched)), late: make([]float64, 0, len(sched))}
	// Sized to the schedule, so a submitter never waits on the poller.
	accepted := make(chan pendingJob, len(sched))
	polled := make(chan time.Time)
	go func() { polled <- pollJobs(ctx, pollC, base, accepted, out.jobs, tr) }()

	var wg sync.WaitGroup
	start := time.Now()
	for i, job := range sched {
		due := start.Add(job.Due)
		// A sleeping thread on a busy host wakes milliseconds late, so
		// the generator sleeps until shortly before each due time and
		// spins the rest.
		if wait := time.Until(due) - spinWindow; wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		for ctx.Err() == nil && time.Now().Before(due) {
			runtime.Gosched()
		}
		if ctx.Err() != nil {
			break
		}
		out.late = append(out.late, time.Since(due).Seconds())
		wg.Add(1)
		go func(i int, job freshJob) {
			defer wg.Done()
			p := pendingJob{i: i, due: due, trace: tr.id(), root: tr.id()}
			sub := tr.id()
			var header http.Header
			if tr != nil {
				header = http.Header{spanHeader: {fmt.Sprintf("%d.%d", p.trace, sub)}}
			}
			t0 := time.Now()
			status, cache, data, err := post(ctx, submitC, base+"/v1/"+job.Kind, job.Body, header)
			t1 := time.Now()
			var v jobView
			if err != nil || status != http.StatusAccepted || cache != "miss" || json.Unmarshal(data, &v) != nil {
				return // out.jobs[i] stays not ok
			}
			tr.record(p.trace, sub, p.root, "http.submit", t0, t1)
			p.id = v.ID
			accepted <- p
		}(i, job)
	}
	wg.Wait()
	close(accepted)
	last := <-polled
	out.elapsed = last.Sub(start).Seconds()
	return out
}

// spinWindow is how long before a due time the open-loop generator
// stops sleeping and spins.
const spinWindow = 2 * time.Millisecond

// pendingJob is a submitted serve-fresh job awaiting its result.
type pendingJob struct {
	i           int
	id          string
	due         time.Time
	trace, root uint64
}

// pollJobs polls every accepted job every 2 ms until each is terminal
// or a minute past its due time, recording results into jobs. It
// returns once accepted is closed and drained, with the time of the
// last completion.
func pollJobs(ctx context.Context, client *http.Client, base string, accepted <-chan pendingJob, jobs []jobResult, tr *tracer) time.Time {
	var last time.Time
	var outstanding []pendingJob
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	open := true
	for open || len(outstanding) > 0 {
		if len(outstanding) == 0 {
			p, ok := <-accepted // nothing to poll: wait for the next job
			if !ok {
				break
			}
			outstanding = append(outstanding, p)
		}
	drain:
		for open {
			select {
			case p, ok := <-accepted:
				if !ok {
					open = false
					break drain
				}
				outstanding = append(outstanding, p)
			default:
				break drain
			}
		}
		kept := outstanding[:0]
		for _, p := range outstanding {
			status, data, err := get(ctx, client, base+"/v1/jobs/"+p.id)
			now := time.Now()
			var v jobView
			switch {
			case ctx.Err() != nil:
				return last
			case err != nil || status != http.StatusOK || json.Unmarshal(data, &v) != nil,
				v.Status == "failed", v.Status == "canceled", now.Sub(p.due) > time.Minute:
				continue // jobs[p.i] stays not ok
			case v.Status != "done":
				kept = append(kept, p)
				continue
			}
			jobs[p.i] = jobResult{ok: true, lat: now.Sub(p.due).Seconds(), doc: v.Result,
				created: v.Created, started: v.Started, finished: v.Finished}
			last = now
			tr.record(p.trace, tr.id(), p.root, "server.queue", v.Created, v.Started)
			tr.record(p.trace, tr.id(), p.root, "server.run", v.Started, v.Finished)
			tr.record(p.trace, p.root, 0, "serve-fresh", p.due, now)
		}
		outstanding = kept
		select {
		case <-ctx.Done():
			return last
		case <-tick.C:
		}
	}
	return last
}

// checkFresh re-runs every served job in-process and counts documents
// that are not byte-equal to what the daemon served.
func checkFresh(ctx context.Context, sched []freshJob, jobs []jobResult) int {
	var mu sync.Mutex
	bad := 0
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want, err := runSpec(ctx, sched[i].request, nil)
				if err != nil || !bytes.Equal(want, jobs[i].doc) {
					mu.Lock()
					bad++
					mu.Unlock()
				}
			}
		}()
	}
	for i, j := range jobs {
		if j.ok {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	return bad
}

// runServeFresh measures fresh jobs on a macsimd child with a file
// store. Each set-up starts a daemon on an empty data directory.
func (e *env) runServeFresh(ctx context.Context, seed uint64, d time.Duration) (*measured, error) {
	sched := freshSchedule(seed, d, e.sc.freshRate)
	if len(sched) == 0 {
		return nil, errors.New("serve-fresh: the schedule is empty; raise -seconds")
	}
	client := newClient(2)
	m := &measured{openLoop: true}
	var dm *daemon
	var dir string
	before := m.ref()
	for i := 0; i < e.sc.setupReps; i++ {
		if dm != nil {
			dm.kill()
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		var err error
		if dir, err = e.procs.tempDir("fresh-"); err != nil {
			return nil, err
		}
		if dm, err = startDaemon(ctx, e.procs, e.bin("macsimd"), client, "-data-dir", dir); err != nil {
			return nil, err
		}
		sec := time.Since(t0).Seconds()
		after := m.ref()
		m.setup(sec, before, after)
		before = after
	}
	// The schedule runs as freshParts consecutive open loops; between
	// two, the outstanding jobs drain and the reference is timed.
	var jobs []jobResult
	var late []float64
	for part := 0; part < freshParts; part++ {
		lo, hi := d*time.Duration(part)/freshParts, d*time.Duration(part+1)/freshParts
		var seg []freshJob
		for _, j := range sched {
			if j.Due >= lo && j.Due < hi {
				j.Due -= lo
				seg = append(seg, j)
			}
		}
		out := openLoop(ctx, dm.base, seg, nil)
		after := m.ref()
		m.ops(latencies(out.jobs), out.elapsed, before, after)
		before = after
		jobs, late = append(jobs, out.jobs...), append(late, out.late...)
	}
	rss, err := dm.peakRSSMiB()
	dm.stop()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.attempted = len(sched)
	if n := failedJobs(jobs); n > 0 {
		m.fail(n, "%d jobs did not complete", n)
	}
	if n := checkFresh(ctx, sched, jobs); n > 0 {
		m.fail(n, "%d served documents differ from spec.Run", n)
	}
	m.rssMiB = rss
	m.lateP99 = stats.Quantile(late, 0.99)
	if len(m.raw.lat) == 0 {
		return nil, fmt.Errorf("serve-fresh completed no job\n%s", dm.logs)
	}
	return m, nil
}
