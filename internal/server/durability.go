// The durability layer: every job-state transition and every published
// result writes through Config.Store, and a recovery pass on boot
// replays the store back into the queue, so an accepted job survives
// kill -9 of the daemon. With the default in-memory store this is
// byte-for-byte the old single-process behavior (records die with the
// process); with a file-backed store (-data-dir) the contract becomes:
//
//   - a submit is answered 202 only after its queued record is durable;
//   - a worker takes a job under a lease (running record with a
//     deadline); a running record whose lease expired belongs to a
//     dead process;
//   - a result is fsynced under its canonical key before the job's
//     terminal record — crashing between the two re-runs the job,
//     which re-derives the identical bytes (every simulation is
//     deterministic in its spec), so the content-addressed rewrite is
//     a no-op;
//   - boot recovery re-registers terminal records for polling,
//     requeues queued records as-is, requeues lease-expired running
//     records with Retries+1 (failed beyond MaxRetries), and defers
//     still-leased running records until their lease expires.
//
// docs/durability.md is the operator guide.

package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/spec"
	"repro/internal/store"
)

// putJobRecord persists the job's current state. Record writes for one
// job serialize on j.storeMu, so the store always converges to the
// latest snapshot even when submit, worker and cancel race. Store
// errors leave the in-memory job authoritative — the server keeps
// serving; durability degrades to the in-memory contract, and
// macsimd_store_errors_total counts the failed write.
func (s *Server) putJobRecord(j *job) {
	j.storeMu.Lock()
	defer j.storeMu.Unlock()
	rec := j.record(s.cfg.now().Add(s.cfg.LeaseDuration))
	s.metrics.stored(s.store.PutJob(rec))
}

// publishResult durably publishes a completed job's result document
// under its canonical key, then installs it in the memory tier. Store
// first: a crash between the two leaves the result on disk and the
// job's record running, so recovery re-runs the job and the rewrite is
// a content-addressed no-op.
func (s *Server) publishResult(key string, doc []byte) {
	s.metrics.stored(s.store.PutResult(key, doc))
	s.cache.put(key, doc)
}

// persistCanceled persists cancellation of a job that was already
// running (or already terminal): the record is rewritten as canceled
// right away, so a crash before the worker observes the context
// cancellation cannot resurrect the job at the next boot. If the job
// beat the cancel and finished, the snapshot is already terminal and is
// persisted as-is; either way the worker's own terminal write (ordered
// behind this one by storeMu) converges the record to in-memory truth.
func (s *Server) persistCanceled(j *job) {
	j.storeMu.Lock()
	defer j.storeMu.Unlock()
	rec := j.record(s.cfg.now().Add(s.cfg.LeaseDuration))
	if !store.TerminalStatus(rec.Status) {
		rec.Status = store.StatusCanceled
		rec.Error = context.Canceled.Error()
		rec.LeaseUntil = time.Time{}
		if rec.Finished.IsZero() {
			rec.Finished = s.cfg.now()
		}
	}
	s.metrics.stored(s.store.PutJob(rec))
}

// dropEvicted deletes the store records of jobs the poll registry just
// evicted: the registry and the store retire terminal jobs together,
// bounding the data-dir the same way JobsRetained bounds memory.
// (Result documents are content-addressed and kept — they are the
// persistent cache, not per-job state.) A failed delete leaves a stale
// record behind and counts as a store error.
func (s *Server) dropEvicted(ids []string) {
	for _, id := range ids {
		s.metrics.deleted(s.store.DeleteJob(id))
	}
}

// recoverJobs is the boot recovery pass: replay every persisted record
// into the registry, the in-flight map and (for unfinished work) the
// queue. It runs before the HTTP mux serves and before the worker pool
// starts, so recovered jobs obey the same scheduling as fresh ones.
func (s *Server) recoverJobs() {
	recs, err := s.store.Jobs()
	if err != nil || len(recs) == 0 {
		return
	}
	now := s.cfg.now()
	maxSeq := int64(0)
	for _, rec := range recs {
		s.metrics.storeRecovered.Add(1)
		if seq := idSequence(rec.ID); seq > maxSeq {
			maxSeq = seq
		}
		switch {
		case store.TerminalStatus(rec.Status):
			s.registerTerminal(rec)
		case rec.Status == store.StatusQueued:
			s.requeueRecovered(rec, false)
		case rec.Status == store.StatusRunning:
			if rec.LeaseUntil.After(now) {
				// The lease has not expired: honor it, then reclaim.
				s.deferRecovered(rec, rec.LeaseUntil.Sub(now))
			} else {
				s.requeueRecovered(rec, true)
			}
		}
	}
	// Fresh job ids continue after the recovered ones, so a recovered
	// "abcdef-3" can never collide with a new job under the same key.
	if cur := s.seq.Load(); maxSeq > cur {
		s.seq.Store(maxSeq)
	}
}

// idSequence parses the trailing "-N" of a job id (ids are
// key-prefix-sequence); 0 when absent.
func idSequence(id string) int64 {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// registerTerminal rebuilds a finished job for the poll registry: a
// restart must report drained work as done, not lost. Done records
// re-attach their result document from the result store (and warm the
// memory tier with it).
func (s *Server) registerTerminal(rec store.JobRecord) {
	j := jobShell(rec)
	j.status = JobStatus(rec.Status)
	j.errMsg = rec.Error
	if j.status == StatusDone {
		if doc, ok, err := s.store.GetResult(rec.Key); err == nil && ok {
			s.metrics.storeReads.Add(1)
			j.result = doc
			s.cache.put(rec.Key, doc)
		}
	}
	s.mu.Lock()
	evicted := s.reg.add(j)
	s.mu.Unlock()
	s.dropEvicted(evicted)
}

// jobShell builds the common in-memory frame of a recovered job.
func jobShell(rec store.JobRecord) *job {
	j := newJob(rec.ID, spec.ExperimentSpec{Kind: spec.ExperimentKind(rec.Kind)}, rec.Key)
	j.kind = rec.Kind
	j.params = rec.Params
	j.tenant = rec.Tenant
	j.retries = rec.Retries
	if !rec.Created.IsZero() {
		j.created = rec.Created
	}
	j.started = rec.Started
	j.finished = rec.Finished
	return j
}

// rebuildJob reconstructs a runnable job from its record: decode the
// canonical parameter document, revalidate (which also recomputes the
// scheduler's cost classification) and wire a fresh context.
func (s *Server) rebuildJob(rec store.JobRecord) (*job, error) {
	es, err := spec.Decode(spec.ExperimentKind(rec.Kind), rec.Params)
	if err != nil {
		return nil, err
	}
	if err := es.Validate(s.cfg.Limits); err != nil {
		return nil, err
	}
	j := jobShell(rec)
	j.spec = es
	if j.tenant == "" {
		j.tenant = s.cfg.DefaultTenant
	}
	j.cost = costUnits(es.EstimatedCost(), int64(s.cfg.Limits.InteractiveThreshold()))
	j.interactive = es.Interactive(s.cfg.Limits)
	return j, nil
}

// requeueRecovered puts one unfinished record back on the queue.
// expired marks a lease-expired running record: the requeue costs a
// retry, and a record over MaxRetries is failed instead of looping a
// poisonous job forever. Recovery bypasses admission (token buckets,
// queue bounds): this work was admitted in a previous life.
func (s *Server) requeueRecovered(rec store.JobRecord, expired bool) {
	if expired {
		rec.Retries++
		if rec.Retries > s.cfg.MaxRetries {
			s.failRecovered(rec, fmt.Sprintf("lease expired; gave up after %d retries (-max-retries)", s.cfg.MaxRetries))
			return
		}
	}
	j, err := s.rebuildJob(rec)
	if err != nil {
		s.failRecovered(rec, fmt.Sprintf("unrecoverable job record: %v", err))
		return
	}
	s.enqueueRecovered(j)
}

// enqueueRecovered publishes a rebuilt job exactly like a fresh
// admit — registry, in-flight map, tenant gauge, queue — but through
// the pool's force path, which ignores the global capacity bound.
func (s *Server) enqueueRecovered(j *job) {
	ts := s.tenants.get(j.tenant)
	s.mu.Lock()
	s.pool.force(j)
	ts.queued.Add(1)
	s.inflight[j.key] = j
	evicted := s.reg.add(j)
	s.mu.Unlock()
	s.dropEvicted(evicted)
	s.metrics.storeRequeued.Add(1)
	s.putJobRecord(j)
}

// failRecovered terminates an unrecoverable record: persisted as
// failed, registered for polling, never executed.
func (s *Server) failRecovered(rec store.JobRecord, msg string) {
	rec.Status = store.StatusFailed
	rec.Error = msg
	rec.LeaseUntil = time.Time{}
	if rec.Finished.IsZero() {
		rec.Finished = s.cfg.now()
	}
	s.metrics.stored(s.store.PutJob(rec))
	s.metrics.jobsFailed.Add(1)
	s.registerTerminal(rec)
}

// deferRecovered honors a still-live lease found at boot: the job is
// registered (pollable, status queued) but only enters the queue when
// the lease expires — at which point the previous owner is declared
// dead and the requeue costs a retry, exactly like a lease found
// expired. The timer is dropped by Close.
func (s *Server) deferRecovered(rec store.JobRecord, wait time.Duration) {
	j, err := s.rebuildJob(rec)
	if err != nil {
		s.failRecovered(rec, fmt.Sprintf("unrecoverable job record: %v", err))
		return
	}
	s.mu.Lock()
	s.inflight[j.key] = j
	evicted := s.reg.add(j)
	timer := time.AfterFunc(wait, func() {
		j.mu.Lock()
		stillQueued := j.status == StatusQueued
		j.mu.Unlock()
		if !stillQueued {
			return // canceled while deferred
		}
		j.retries++
		if j.retries > s.cfg.MaxRetries {
			j.finish(nil, fmt.Errorf("lease expired; gave up after %d retries (-max-retries)", s.cfg.MaxRetries))
			s.metrics.jobsFailed.Add(1)
			s.putJobRecord(j)
			s.retire(j)
			return
		}
		ts := s.tenants.get(j.tenant)
		s.mu.Lock()
		s.pool.force(j)
		ts.queued.Add(1)
		s.mu.Unlock()
		s.metrics.storeRequeued.Add(1)
		s.putJobRecord(j)
	})
	s.timers = append(s.timers, timer)
	s.mu.Unlock()
	s.dropEvicted(evicted)
}

// flushJobs persists the current state of every registered job — the
// final barrier of a graceful drain. After a clean drain every job is
// terminal and this re-asserts it durably; after a drain that timed
// out it makes the still-queued and still-running jobs' records
// current, so the restart requeues exactly what was in flight.
func (s *Server) flushJobs() {
	for _, j := range s.reg.all() {
		s.putJobRecord(j)
	}
}
