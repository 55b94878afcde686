// Package server is the simulation-serving subsystem: a long-running
// daemon that turns the repository's simulators — static sweeps
// (internal/harness), λ-sweep saturation experiments
// (internal/throughput) and the workload scenario catalog
// (internal/scenario) — into cacheable, streamable HTTP endpoints.
//
// Architecture, front to back:
//
//   - Submit endpoints (POST /v1/solve, /v1/evaluate, /v1/throughput,
//     /v1/scenario) normalize the request, hash it into a canonical key,
//     and answer from the sharded LRU result cache when possible —
//     every simulation is deterministic in (endpoint, params, seed), so
//     repeated queries cost zero simulation time.
//   - Cache misses become jobs on per-tenant sub-queues (identity from
//     the X-Tenant header) scheduled by deficit round-robin into a
//     worker pool; token buckets, per-tenant queue shares and the
//     global bound answer 429 with Retry-After — backpressure instead
//     of collapse. See docs/tenancy.md.
//   - Duplicate requests already in flight are coalesced onto the
//     existing job (singleflight) instead of simulating twice.
//   - Jobs are polled at GET /v1/jobs/{id} and streamed as NDJSON
//     progress events plus a terminal record at /v1/jobs/{id}/stream.
//   - Every job-state transition and every published result writes
//     through a pluggable store (internal/store); with a file-backed
//     store a restart recovers accepted-but-unfinished work under a
//     lease/retry discipline (durability.go, docs/durability.md) and
//     the LRU cache reads through to the persistent result store.
//   - With a static -peers list, submits route across a consistent-hash
//     ring (internal/cluster): a non-owner proxies the request a single
//     hop to the key's owner and streams the response back (proxy.go).
//   - GET /metrics exposes slots-simulated/sec, queue depth, cache hit
//     rate, the replications saved by adaptive-precision stopping
//     (macsimd_reps_saved_total) and the other counters in Prometheus
//     text format.
//   - Drain stops admission (503), waits for the queue and running
//     jobs to finish and flushes final job state to the store —
//     graceful shutdown on SIGTERM.
//
// The full endpoint reference — request schemas, job lifecycle,
// backpressure semantics, every metric — is docs/http-api.md.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/store"
)

// Config parameterizes New. The zero value serves with sensible
// defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (default
	// "127.0.0.1:8080").
	Addr string
	// Workers is the worker/shard count (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued jobs before submits answer 429 (default
	// 256).
	QueueDepth int
	// CacheEntries bounds the result cache (default 4096 entries).
	CacheEntries int
	// JobsRetained bounds the poll registry; terminal jobs beyond it are
	// evicted oldest-first (default 1024).
	JobsRetained int
	// RetryAfter is the backpressure hint on 429 responses (default 1s).
	RetryAfter time.Duration
	// DrainTimeout bounds the graceful drain on shutdown (default 30s).
	DrainTimeout time.Duration
	// Limits bound per-request simulation cost.
	Limits Limits
	// Version is reported by /healthz and the Server header.
	Version string

	// Tenancy (docs/tenancy.md). Tenant identity comes from the
	// X-Tenant header; requests without one belong to DefaultTenant.

	// Tenants configures per-tenant token-bucket admission; the key "*"
	// sets the bucket for tenants not listed explicitly. Unlisted
	// tenants without a "*" entry are unlimited.
	Tenants map[string]TenantLimits
	// DefaultTenant is the identity assumed when X-Tenant is absent
	// (default "default").
	DefaultTenant string
	// FairnessWeights sets each tenant's deficit-round-robin weight;
	// unlisted tenants weigh 1. Served simulation cost per tenant is
	// proportional to weight over any backlogged interval.
	FairnessWeights map[string]int
	// PriorityLane, when true, serves a tenant's interactive jobs
	// (cost-classified via Limits.InteractiveCost) before its batch
	// jobs. Cross-tenant shares are unaffected.
	PriorityLane bool
	// TenantQueueDepth bounds the jobs one tenant may have queued
	// (answering 429 beyond it), so a single tenant cannot occupy the
	// whole global queue. 0 means no per-tenant bound.
	TenantQueueDepth int

	// MaxSessions bounds concurrently running live sessions (POST
	// /v1/sessions answers 429 beyond it; default 64). Each session is
	// one goroutine simulating indefinitely, outside the worker pool.
	MaxSessions int

	// Durability and clustering (docs/durability.md).

	// Store persists job records and result documents. Nil means an
	// in-memory store: job state dies with the process, exactly the
	// single-process behavior. Wire a file store (store.OpenFile) and
	// accepted work survives restarts — including kill -9.
	Store store.Store
	// LeaseDuration is how long a worker owns a running job before a
	// restarted daemon may conclude the worker died and requeue the
	// work (default 15s).
	LeaseDuration time.Duration
	// MaxRetries bounds how many times a lease-expired job is requeued
	// before recovery fails it instead (default 3; negative means a
	// lease-expired job is never requeued).
	MaxRetries int
	// Peers is the static cluster membership as host:port advertise
	// addresses. Empty means single-node: no ring, no proxying. With
	// peers configured, each canonical key has one owner on a
	// consistent-hash ring and a non-owner proxies the submit a single
	// hop to the owner.
	Peers []string
	// SelfAddr is this node's own advertise address; it must appear in
	// Peers. Defaults to Addr.
	SelfAddr string

	// now is the clock the token buckets read; the tests override it.
	// Nil means time.Now.
	now func() time.Time
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.JobsRetained <= 0 {
		c.JobsRetained = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	if c.DefaultTenant == "" {
		c.DefaultTenant = "default"
	}
	if c.TenantQueueDepth > c.QueueDepth {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.Store == nil {
		// Zero result retention: the server's LRU stays the only
		// in-memory result tier, so the default configuration costs the
		// same memory as before the store existed.
		c.Store = store.Mem(0)
	}
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = 15 * time.Second
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 3
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.SelfAddr == "" {
		c.SelfAddr = c.Addr
	}
	if c.now == nil {
		c.now = time.Now
	}
	c.Limits = limitsWithDefaults(c.Limits)
	return c
}

// Server is the serving subsystem. Create with New, expose with
// Handler (or ListenAndServe), stop with Drain then Close.
type Server struct {
	cfg        Config
	cache      *cache
	store      store.Store
	pool       *pool
	reg        *registry
	sessionReg *sessionRegistry
	tenants    *tenants
	metrics    metrics
	mux        *http.ServeMux

	// Clustering: nil ring means single-node. The proxy client carries
	// forwarded requests to the owning peer (proxy.go).
	ring        *cluster.Ring
	proxyClient *http.Client

	mu       sync.Mutex
	inflight map[string]*job // canonical key → queued/running job
	timers   []*time.Timer   // lease-deferral timers (durability.go), stopped by Close

	draining atomic.Bool
	seq      atomic.Int64

	// testGate, when non-nil, is received from before each job executes;
	// the white-box tests use it to hold jobs in the queue and observe
	// backpressure, coalescing and drain deterministically.
	testGate chan struct{}
}

// New builds a Server, replays any persisted job records (recovery) and
// starts its worker pool. It fails only on invalid cluster membership.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		cache:      newCache(cfg.CacheEntries),
		store:      cfg.Store,
		reg:        newRegistry(cfg.JobsRetained),
		sessionReg: newSessionRegistry(cfg.JobsRetained),
		tenants:    newTenants(cfg.Tenants, cfg.now),
		inflight:   make(map[string]*job),
	}
	if len(cfg.Peers) > 0 {
		ring, err := cluster.New(cfg.SelfAddr, cfg.Peers)
		if err != nil {
			return nil, err
		}
		s.ring = ring
		s.proxyClient = newProxyClient()
	}
	s.metrics.started = time.Now()
	s.pool = newPool(cfg.Workers, cfg.QueueDepth,
		newScheduler(cfg.FairnessWeights, cfg.PriorityLane), s.execute)
	// Recovery before the workers start and before the mux serves:
	// requeued jobs line up under normal scheduling, and no fresh submit
	// can race the sequence-counter reseed.
	s.recoverJobs()
	s.pool.start()
	s.buildMux()
	return s, nil
}

// Close stops the workers after their current job and drops any pending
// lease-deferral timers. Call Drain first for a graceful stop.
func (s *Server) Close() {
	s.mu.Lock()
	timers := s.timers
	s.timers = nil
	s.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	s.pool.close()
}

// Drain stops admitting jobs (submits answer 503) and waits until the
// queue is empty and all running jobs finished, or ctx expires. Either
// way the final state of every registered job is flushed to the store,
// so a drained-then-restarted daemon reports finished work as done —
// and requeues whatever a timed-out drain left behind.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pool.drain(ctx)
	s.flushJobs()
	s.flushSessions()
	return err
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves the API on ln until ctx is canceled, then drains
// gracefully (bounded by Config.DrainTimeout) and shuts the listener
// down. It returns nil on a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{Handler: s.Handler()}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		// Order matters: refuse new submissions, then wait for in-flight
		// HTTP handlers (Shutdown) — a straggler that passed the draining
		// check may still be enqueueing — and only then drain the pool,
		// so every job the API answered 202 for actually runs.
		s.draining.Store(true)
		stopErr := httpSrv.Shutdown(dctx)
		drainErr := s.pool.drain(dctx)
		s.flushJobs()
		s.flushSessions()
		shutdownErr <- errors.Join(stopErr, drainErr)
	}()
	err := httpSrv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shutdownErr
}

// ListenAndServe listens on Config.Addr and calls Serve. ready, if
// non-nil, receives the bound address once listening (supports ":0").
func (s *Server) ListenAndServe(ctx context.Context, ready chan<- string) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return s.Serve(ctx, ln)
}

// buildMux wires the routes. Every submit endpoint is the same shim
// over one spec kind.
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	for path, kind := range map[string]spec.ExperimentKind{
		"/v1/solve":      spec.KindSolve,
		"/v1/evaluate":   spec.KindEvaluate,
		"/v1/throughput": spec.KindThroughput,
		"/v1/scenario":   spec.KindScenario,
		"/v1/arena":      spec.KindArena,
	} {
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
			s.handleSubmit(w, r, kind)
		})
	}
	mux.HandleFunc("GET /v1/jobs/{id}", s.handlePoll)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionPoll)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleSessionStream)
	mux.HandleFunc("POST /v1/sessions/{id}/control", s.handleSessionControl)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status. Responses are compact —
// cached results are spliced back verbatim on hits, so every path must
// emit the same bytes for the same result.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Server", "macsimd/"+s.cfg.Version)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // write error: the client hung up
}

// submitResponse is the envelope of a submit: either a finished cached
// result or a job to poll.
type submitResponse struct {
	jobView
	Cached bool `json:"cached"`
}

// handleSubmit is the shared submit path: resolve the tenant → decode
// into a spec of the endpoint's kind → validate → hash → cache (memory
// tier, then the persistent result store) → route (proxy to the ring
// owner when clustered) → coalesce → admit (token bucket, per-tenant
// and global queue bounds) → enqueue durably. Cache hits and coalesced
// duplicates cost the tenant nothing — admission controls new
// simulation work only.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, kind spec.ExperimentKind) {
	if s.draining.Load() {
		s.metrics.refused.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is draining"})
		return
	}
	tenant, err := s.tenantFor(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	body, err := readBody(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	es, err := spec.Decode(kind, body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if err := es.Validate(s.cfg.Limits); err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	key, err := es.CanonicalKey()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	// Cache: repeated queries cost zero simulation time. Memory tier
	// first; on a miss, read through to the persistent result store —
	// results published before a restart keep serving as hits.
	if result, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		s.serveCached(w, kind, key, result)
		return
	}
	if result, ok, err := s.store.GetResult(key); err == nil && ok {
		s.metrics.storeReads.Add(1)
		s.metrics.cacheHits.Add(1)
		s.cache.put(key, result)
		s.serveCached(w, kind, key, result)
		return
	}

	// Routing: when clustered, fresh work for a key this node does not
	// own is proxied one hop to the owner (proxy.go).
	if owner, ok := s.forwardTarget(r, key); ok {
		s.proxyTo(w, r, owner, body)
		return
	}
	if s.ring != nil {
		s.metrics.owned.Add(1)
	}

	// Coalesce: a duplicate of an in-flight job attaches to it instead
	// of simulating twice. Queue admission and registration happen under
	// the same lock that publishes the job to s.inflight, so any id a
	// coalesced duplicate can ever see belongs to a job that is both
	// pollable and actually queued.
	s.mu.Lock()
	if existing, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.metrics.coalesced.Add(1)
		w.Header().Set("X-Cache", "coalesced")
		w.Header().Set("Location", "/v1/jobs/"+existing.id)
		s.writeJSON(w, http.StatusAccepted, submitResponse{jobView: existing.view()})
		return
	}
	// A worker publishes its result before it retires the in-flight
	// entry, so a duplicate whose cache read above raced that window
	// finds the result now instead of simulating it again.
	if result, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.metrics.cacheHits.Add(1)
		s.serveCached(w, kind, key, result)
		return
	}

	// Admission: the tenant's token bucket first (429 with a bucket-
	// derived Retry-After), then its queue share, then the global bound.
	ts := s.tenants.get(tenant)
	if ts.bucket != nil {
		if ok, retry := ts.bucket.take(); !ok {
			s.mu.Unlock()
			ts.rejected.Add(1)
			s.reject429(w, ts, retry, fmt.Sprintf("tenant %q over admission rate", ts.name))
			return
		}
	}
	if lim := s.cfg.TenantQueueDepth; lim > 0 && ts.queued.Load() >= int64(lim) {
		s.mu.Unlock()
		s.reject429(w, ts, s.cfg.RetryAfter, fmt.Sprintf("tenant %q queue share full", ts.name))
		return
	}
	j := newJob(fmt.Sprintf("%s-%d", key[:ringPrefixLen], s.seq.Add(1)), es, key)
	j.tenant = ts.name
	j.cost = costUnits(es.EstimatedCost(), int64(s.cfg.Limits.InteractiveThreshold()))
	j.interactive = es.Interactive(s.cfg.Limits)
	// The canonical parameter document rides in the job's store record;
	// CanonicalKey already proved the spec encodes.
	j.params, _ = es.EncodeParams()
	if err := s.pool.submit(j); err != nil {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		s.reject429(w, ts, s.cfg.RetryAfter, err.Error())
		return
	}
	ts.queued.Add(1)
	ts.admitted.Add(1)
	s.inflight[key] = j
	evicted := s.reg.add(j)
	s.mu.Unlock()
	s.dropEvicted(evicted)
	// Durability barrier: the queued record is persisted before the 202
	// leaves — accepted work is never invisible to recovery.
	s.putJobRecord(j)
	s.metrics.enqueued.Add(1)
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	s.writeJSON(w, http.StatusAccepted, submitResponse{jobView: j.view()})
}

// serveCached answers a submit from a cached result document. This is
// the serving hot path — the envelope is spliced around the cached
// bytes (kind and key are plain tokens) instead of re-encoding them,
// and every tier (memory LRU, persistent store) emits identical bytes.
func (s *Server) serveCached(w http.ResponseWriter, kind spec.ExperimentKind, key string, result []byte) {
	var buf bytes.Buffer
	buf.Grow(len(result) + 96)
	buf.WriteString(`{"kind":"`)
	buf.WriteString(string(kind))
	buf.WriteString(`","key":"`)
	buf.WriteString(key)
	buf.WriteString(`","status":"done","cached":true,"result":`)
	buf.Write(result)
	buf.WriteString("}\n")
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Server", "macsimd/"+s.cfg.Version)
	h.Set("X-Cache", "hit")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// reject429 answers a submit with backpressure: 429, a Retry-After
// hint (whole seconds, rounded up), and the tenant's 429 accounting.
func (s *Server) reject429(w http.ResponseWriter, ts *tenantState, retry time.Duration, msg string) {
	ts.status429.Add(1)
	w.Header().Set("Retry-After", retryAfterHeader(retry))
	s.writeJSON(w, http.StatusTooManyRequests, apiError{Error: msg})
}

// execute runs one job on a pool worker: take the lease (running
// record in the store), dispatch the spec with the job's context, relay
// the execution's event stream into the job (and from there to any
// NDJSON streamer), publish the result durably, persist the terminal
// record, retire the in-flight entry. A job canceled while queued never
// starts simulating — handleCancel already persisted its terminal
// state.
func (s *Server) execute(workerID int, j *job) {
	if s.testGate != nil {
		<-s.testGate
	}
	ts := s.tenants.get(j.tenant)
	ts.queued.Add(-1)
	if !j.markRunning() {
		s.retire(j)
		return
	}
	s.putJobRecord(j) // the lease: running + deadline
	result, err := s.runJob(j)
	var data json.RawMessage
	if err == nil {
		data, err = json.Marshal(result.Document())
	}
	switch {
	case err == nil:
		// Publish before retiring the in-flight entry, so an identical
		// request always sees one of the two. The result document lands
		// in the store before the terminal record below — a crash between
		// the two re-runs the job into a content-addressed no-op.
		s.publishResult(j.key, data)
		s.metrics.jobsDone.Add(1)
		ts.served.Add(1)
	case errors.Is(err, context.Canceled):
		s.metrics.jobsCanceled.Add(1)
	default:
		s.metrics.jobsFailed.Add(1)
	}
	j.finish(data, err)
	s.putJobRecord(j)
	s.retire(j)
}

// retire removes the job's in-flight entry — unless a newer job already
// took the key over (a canceled job is detached eagerly by handleCancel,
// and an identical resubmission may be in flight under the same key).
func (s *Server) retire(j *job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// runJob dispatches the job's spec and consumes its event stream.
func (s *Server) runJob(j *job) (*spec.Result, error) {
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	exec, err := spec.Run(j.ctx, j.spec)
	if err != nil {
		return nil, err
	}
	for ev, err := range exec.Events() {
		if err != nil {
			break // the terminal error surfaces via Result below
		}
		s.metrics.slotsSimulated.Add(int64(ev.SimulatedSlots()))
		if data, merr := json.Marshal(ev); merr == nil {
			j.publish(data)
		}
	}
	res, err := exec.Result()
	if err == nil {
		s.metrics.repsSaved.Add(int64(res.RepsSaved()))
	}
	return res, err
}

// handleCancel serves DELETE /v1/jobs/{id}: cancel the job's context.
// A queued job flips straight to canceled and never starts simulating;
// a running sweep aborts between executions (one static run is not
// interruptible, so a lone solve finishes its run first). The canceled
// state is persisted immediately, so a restart does not resurrect
// canceled work even if the process dies before the worker notices.
// The job is detached from the in-flight map immediately, so an
// identical resubmission enqueues fresh work instead of coalescing onto
// the doomed job. Cancellation is idempotent and has no effect on a job
// that already finished. An id owned by a peer is proxied one hop.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.reg.get(id)
	if !ok {
		if s.proxyJobRequest(w, r, id) {
			return
		}
		s.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job id"})
		return
	}
	if j.cancelQueued() {
		s.metrics.jobsCanceled.Add(1)
		s.putJobRecord(j)
	} else {
		j.cancel()
		s.persistCanceled(j)
	}
	s.retire(j)
	s.writeJSON(w, http.StatusAccepted, j.view())
}

// handlePoll serves GET /v1/jobs/{id}; an id owned by a peer is proxied
// one hop.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.reg.get(id)
	if !ok {
		if s.proxyJobRequest(w, r, id) {
			return
		}
		s.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job id"})
		return
	}
	s.writeJSON(w, http.StatusOK, j.view())
}

// handleStream serves GET /v1/jobs/{id}/stream: replays the job's
// progress events as NDJSON, follows live until the job reaches a
// terminal state, then emits a "done"/"failed" record with the result.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.reg.get(id)
	if !ok {
		if s.proxyJobRequest(w, r, id) {
			return
		}
		s.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job id"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Server", "macsimd/"+s.cfg.Version)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(line []byte) bool {
		// Two writes, not append(line, '\n'): line aliases the job's
		// shared event buffer, and an append could write the newline into
		// the backing array under a concurrent streamer's feet.
		if _, err := w.Write(line); err != nil {
			return false
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	sent := 0
	for {
		events, pulse, status := j.snapshot(sent)
		for _, e := range events {
			if !emit(e) {
				return
			}
			sent++
		}
		if status.terminal() {
			break
		}
		select {
		case <-pulse:
		case <-r.Context().Done():
			return
		}
	}
	v := j.view()
	final := spec.StreamEnd{Event: "done", ID: v.ID, Status: string(v.Status), Error: v.Error, Result: v.Result}
	if v.Status != StatusDone {
		final.Event = "failed"
	}
	line, err := json.Marshal(final)
	if err != nil {
		return
	}
	emit(line)
}

// handleProtocols serves GET /v1/protocols: the named registry.
func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name   string `json:"name"`
		Alias  string `json:"alias"`
		System string `json:"system"`
	}
	reg := harness.NamedSystems()
	out := make([]entry, len(reg))
	for i, n := range reg {
		out[i] = entry{Name: n.Name, Alias: n.Alias, System: n.New().Name()}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleScenarios serves GET /v1/scenarios: the workload catalog.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, scenario.Names())
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, s.metrics.render(time.Now(), map[string]float64{
		"macsimd_queue_depth":     float64(s.pool.depth()),
		"macsimd_queue_capacity":  float64(s.cfg.QueueDepth),
		"macsimd_workers":         float64(s.cfg.Workers),
		"macsimd_jobs_inflight":   float64(s.pool.inflight()),
		"macsimd_jobs_running":    float64(s.pool.running.Load()),
		"macsimd_cache_entries":   float64(s.cache.len()),
		"macsimd_sessions_active": float64(s.sessionReg.active()),
	}))
	_, _ = io.WriteString(w, renderTenants(s.tenants.snapshot()))
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	s.writeJSON(w, status, map[string]string{"status": state, "version": s.cfg.Version})
}
