package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the server's counter set, exposed at /metrics in the
// Prometheus text exposition format. All counters are monotone atomics;
// the only derived quantities (cache hit rate, slots simulated per
// second) are computed at scrape time.
type metrics struct {
	// Submission outcomes. Every submit increments exactly one of these.
	cacheHits atomic.Int64 // served from the result cache, zero simulation
	coalesced atomic.Int64 // duplicate of an in-flight job, attached to it
	enqueued  atomic.Int64 // entered the queue as a fresh job (cache miss)
	rejected  atomic.Int64 // bounced with 429: the queue was full
	refused   atomic.Int64 // bounced with 503: the server was draining

	// Job outcomes.
	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	jobsCanceled atomic.Int64

	// Work accounting.
	slotsSimulated atomic.Int64 // channel slots simulated across all jobs
	repsSaved      atomic.Int64 // replications adaptive precision stopped short of maxReps

	// Durability (internal/store).
	storeWrites    atomic.Int64 // job records and result documents persisted
	storeErrors    atomic.Int64 // store writes and deletes that failed (the daemon carries on in memory)
	storeReads     atomic.Int64 // records and results read back from the store
	storeRecovered atomic.Int64 // job records replayed by the boot recovery pass
	storeRequeued  atomic.Int64 // recovered jobs put back on the queue

	// Live sessions (internal/session).
	sessionsOpened  atomic.Int64 // sessions accepted by POST /v1/sessions
	sessionWindows  atomic.Int64 // aggregation windows simulated across all sessions
	sessionControls atomic.Int64 // control messages accepted and applied
	sessionDropped  atomic.Int64 // window aggregates dropped by slow-consumer backpressure

	// Clustering (internal/cluster). Zero on single-node deployments.
	forwarded atomic.Int64 // submits proxied to the key's owning peer
	owned     atomic.Int64 // submits this node handled as the key's owner

	// Scrape state for the slots/sec rate: the rate is measured between
	// consecutive scrapes (the usual counter-delta a scraper would
	// compute, precomputed for human readers and the load generator).
	scrapeMu   sync.Mutex
	lastScrape time.Time
	lastSlots  int64
	started    time.Time
}

// stored counts one store write by its outcome.
func (m *metrics) stored(err error) {
	if err != nil {
		m.storeErrors.Add(1)
	} else {
		m.storeWrites.Add(1)
	}
}

// deleted counts a failed store delete; a successful one is not a write.
func (m *metrics) deleted(err error) {
	if err != nil {
		m.storeErrors.Add(1)
	}
}

// hitRate returns cache hits / (hits + fresh enqueues): the fraction of
// cacheable submissions that cost zero simulation time. Coalesced
// duplicates are excluded — they are neither a hit nor a miss, but a
// dedup of a miss in flight.
func (m *metrics) hitRate() float64 {
	hits := m.cacheHits.Load()
	total := hits + m.enqueued.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// slotsPerSecond returns the slots-simulated rate since the previous
// scrape (since start for the first scrape).
func (m *metrics) slotsPerSecond(now time.Time) float64 {
	m.scrapeMu.Lock()
	defer m.scrapeMu.Unlock()
	slots := m.slotsSimulated.Load()
	since := m.started
	base := int64(0)
	if !m.lastScrape.IsZero() {
		since, base = m.lastScrape, m.lastSlots
	}
	m.lastScrape, m.lastSlots = now, slots
	dt := now.Sub(since).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(slots-base) / dt
}

// render writes the exposition text. Gauges that live outside the
// counter set (queue depth, cache entries, in-flight jobs) are passed in
// by the server.
func (m *metrics) render(now time.Time, gauges map[string]float64) string {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("macsimd_cache_hits_total", "submissions served from the result cache", m.cacheHits.Load())
	counter("macsimd_cache_misses_total", "submissions that enqueued a fresh job", m.enqueued.Load())
	counter("macsimd_coalesced_total", "submissions attached to an identical in-flight job", m.coalesced.Load())
	counter("macsimd_rejected_total", "submissions bounced with 429 (queue full)", m.rejected.Load())
	counter("macsimd_refused_total", "submissions bounced with 503 (draining)", m.refused.Load())
	counter("macsimd_jobs_completed_total", "jobs that finished successfully", m.jobsDone.Load())
	counter("macsimd_jobs_failed_total", "jobs that finished with an error", m.jobsFailed.Load())
	counter("macsimd_jobs_canceled_total", "jobs retired by DELETE /v1/jobs/{id}", m.jobsCanceled.Load())
	counter("macsimd_slots_simulated_total", "channel slots simulated across all jobs", m.slotsSimulated.Load())
	counter("macsimd_reps_saved_total", "replications adaptive-precision stopping saved against the maxReps worst case", m.repsSaved.Load())
	counter("macsimd_store_writes_total", "job records and result documents persisted to the store", m.storeWrites.Load())
	counter("macsimd_store_errors_total", "store writes and deletes that failed; the daemon carried on in memory", m.storeErrors.Load())
	counter("macsimd_store_reads_total", "records and result documents read back from the store", m.storeReads.Load())
	counter("macsimd_store_recovered_total", "job records replayed by the boot recovery pass", m.storeRecovered.Load())
	counter("macsimd_store_requeued_total", "recovered jobs put back on the queue", m.storeRequeued.Load())
	counter("macsimd_sessions_opened_total", "live sessions accepted by POST /v1/sessions", m.sessionsOpened.Load())
	counter("macsimd_sessions_windows_total", "aggregation windows simulated across all live sessions", m.sessionWindows.Load())
	counter("macsimd_sessions_controls_total", "session control messages accepted and applied", m.sessionControls.Load())
	counter("macsimd_sessions_dropped_total", "session window aggregates dropped by slow-consumer backpressure", m.sessionDropped.Load())
	counter("macsimd_forwarded_total", "submissions proxied to the key's owning peer", m.forwarded.Load())
	counter("macsimd_owned_total", "submissions this node handled as the key's ring owner", m.owned.Load())
	gauge("macsimd_cache_hit_rate", "cache hits / (hits + misses)", m.hitRate())
	gauge("macsimd_slots_simulated_per_second", "slots simulated per second since the previous scrape", m.slotsPerSecond(now))
	// Deterministic order for the caller-supplied gauges.
	names := make([]string, 0, len(gauges))
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gauge(name, gaugeHelp[name], gauges[name])
	}
	return b.String()
}

// gaugeHelp documents the server-supplied gauges.
var gaugeHelp = map[string]string{
	"macsimd_queue_depth":     "jobs waiting across all tenant sub-queues",
	"macsimd_queue_capacity":  "bound on queued jobs before 429",
	"macsimd_workers":         "pool workers",
	"macsimd_jobs_inflight":   "jobs queued or running",
	"macsimd_jobs_running":    "jobs currently executing",
	"macsimd_cache_entries":   "entries resident in the result cache",
	"macsimd_sessions_active": "live sessions currently running",
}

// renderTenants writes the per-tenant metric families, one labeled
// sample per tenant under each family's shared HELP/TYPE header. The
// snapshot arrives sorted by name so output is deterministic.
func renderTenants(states []*tenantState) string {
	if len(states) == 0 {
		return ""
	}
	var b strings.Builder
	family := func(name, typ, help string, value func(*tenantState) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, ts := range states {
			fmt.Fprintf(&b, "%s{tenant=%q} %d\n", name, ts.name, value(ts))
		}
	}
	family("macsimd_tenant_admitted_total", "counter",
		"fresh jobs admitted to the tenant's sub-queue",
		func(ts *tenantState) int64 { return ts.admitted.Load() })
	family("macsimd_tenant_rejected_total", "counter",
		"admissions denied by the tenant's token bucket",
		func(ts *tenantState) int64 { return ts.rejected.Load() })
	family("macsimd_tenant_429_total", "counter",
		"all 429 responses to the tenant (bucket, tenant queue share, global queue)",
		func(ts *tenantState) int64 { return ts.status429.Load() })
	family("macsimd_tenant_served_total", "counter",
		"tenant jobs that finished successfully",
		func(ts *tenantState) int64 { return ts.served.Load() })
	family("macsimd_tenant_session_windows_total", "counter",
		"aggregation windows simulated for the tenant's live sessions",
		func(ts *tenantState) int64 { return ts.sessionWindows.Load() })
	family("macsimd_tenant_queued", "gauge",
		"tenant jobs currently waiting in the sub-queue",
		func(ts *tenantState) int64 { return ts.queued.Load() })
	return b.String()
}
