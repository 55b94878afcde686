package server

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/store"
)

// specParts computes the canonical key and parameter document of a
// request body exactly as the submit path does — the raw material for
// hand-crafting store records that simulate a previous daemon's life.
func specParts(t *testing.T, kind spec.ExperimentKind, body string) (key string, params []byte) {
	t.Helper()
	es, err := spec.Decode(kind, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := es.Validate(limitsWithDefaults(Limits{})); err != nil {
		t.Fatal(err)
	}
	key, err = es.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	params, err = es.EncodeParams()
	if err != nil {
		t.Fatal(err)
	}
	return key, params
}

// waitTerminalRecord polls the store until the job's record is
// terminal. A worker finishes the in-memory job before it writes the
// terminal record, so a poll that has seen the job done can still read
// the running record for the length of one store write.
func waitTerminalRecord(t *testing.T, st store.Store, id string) store.JobRecord {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, ok, err := st.GetJob(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok && store.TerminalStatus(rec.Status) {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("record never became terminal: %+v (ok=%v)", rec, ok)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// failingStore is a store.Store whose writes and deletes all fail, as on
// a full or read-only disk; reads go to the wrapped store.
type failingStore struct{ store.Store }

var errDiskFull = errors.New("no space left on device")

func (failingStore) PutJob(store.JobRecord) error         { return errDiskFull }
func (failingStore) PutResult(string, []byte) error       { return errDiskFull }
func (failingStore) PutSession(store.SessionRecord) error { return errDiskFull }
func (failingStore) DeleteJob(string) error               { return errDiskFull }
func (failingStore) DeleteSession(string) error           { return errDiskFull }

// TestStoreWriteErrorsCounted: a failed store write is never silent. It
// moves macsimd_store_errors_total, not the writes counter, and the job
// still finishes in memory.
func TestStoreWriteErrorsCounted(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Store: failingStore{store.Mem(0)}}, false)
	_, sub := post(t, ts.URL+"/v1/solve", `{"k":200,"seed":11}`)
	if v := waitDone(t, ts.URL, sub.ID); v.Status != StatusDone {
		t.Fatalf("job status = %s (%s), want done despite the failing store", v.Status, v.Error)
	}
	// Queued, running and terminal records plus the result document; the
	// terminal record is written just after the job turns done.
	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, ts.URL, "macsimd_store_errors_total") < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("macsimd_store_errors_total = %v, want ≥ 4",
				metricValue(t, ts.URL, "macsimd_store_errors_total"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if w := metricValue(t, ts.URL, "macsimd_store_writes_total"); w != 0 {
		t.Fatalf("macsimd_store_writes_total = %v, want 0 when every write fails", w)
	}
}

// TestStoreDeleteErrorsCounted: with JobsRetained 1, each new job or
// session evicts the previous terminal one and deletes its record. A
// failed delete moves macsimd_store_errors_total, not the writes counter.
func TestStoreDeleteErrorsCounted(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Store: failingStore{store.Mem(0)}, JobsRetained: 1}, false)
	waitErrors := func(want float64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for metricValue(t, ts.URL, "macsimd_store_errors_total") < want {
			if time.Now().After(deadline) {
				t.Fatalf("macsimd_store_errors_total = %v, want %v",
					metricValue(t, ts.URL, "macsimd_store_errors_total"), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Each job fails four writes: queued, running and terminal records and
	// the result document. The second job evicts the first, whose delete
	// fails too.
	_, first := post(t, ts.URL+"/v1/solve", `{"k":200,"seed":11}`)
	waitDone(t, ts.URL, first.ID)
	waitErrors(4)
	_, second := post(t, ts.URL+"/v1/solve", `{"k":200,"seed":12}`)
	waitDone(t, ts.URL, second.ID)
	waitErrors(4 + 4 + 1)

	// Each session fails its record write when it ends; the second evicts
	// the first, whose delete fails too.
	endSession := func(body string) {
		t.Helper()
		v := openSession(t, ts.URL, body)
		deadline := time.Now().Add(10 * time.Second)
		for _, got := getSessionView(t, ts.URL, v.ID); got.Status == "running"; _, got = getSessionView(t, ts.URL, v.ID) {
			if time.Now().After(deadline) {
				t.Fatalf("session %s still running", v.ID)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	endSession(`{"window": 16, "maxWindows": 2}`)
	waitErrors(9 + 1)
	endSession(`{"window": 16, "maxWindows": 2, "seed": 2}`)
	waitErrors(10 + 1 + 1)
	if e := metricValue(t, ts.URL, "macsimd_store_errors_total"); e != 12 {
		t.Fatalf("macsimd_store_errors_total = %v, want 12", e)
	}
	if w := metricValue(t, ts.URL, "macsimd_store_writes_total"); w != 0 {
		t.Fatalf("macsimd_store_writes_total = %v, want 0", w)
	}
}

func TestSubmitPersistsQueuedRecordBeforeResponse(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts, gate := newTestServer(t, Config{Store: st, Workers: 1}, true)

	_, sub := post(t, ts.URL+"/v1/solve", `{"k":200,"seed":11}`)
	// The 202 has been answered; the worker is still held at the gate.
	// The queued record must already be durable.
	rec, ok, err := st.GetJob(sub.ID)
	if err != nil || !ok {
		t.Fatalf("queued record missing after 202: ok=%v err=%v", ok, err)
	}
	if rec.Status != store.StatusQueued || rec.Key != sub.Key || rec.Tenant != "default" {
		t.Fatalf("queued record = %+v", rec)
	}
	close(gate)
	waitDone(t, ts.URL, sub.ID)
	if rec := waitTerminalRecord(t, st, sub.ID); rec.Status != store.StatusDone {
		t.Fatalf("terminal record = %+v", rec)
	}
	if _, ok, _ := st.GetResult(sub.Key); !ok {
		t.Fatal("result document not persisted")
	}
}

func TestRecoveryRequeuesQueuedRecord(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, params := specParts(t, spec.KindSolve, `{"k":300,"seed":9}`)
	rec := store.JobRecord{
		ID: key[:ringPrefixLen] + "-1", Kind: "solve", Key: key, Params: params,
		Tenant: "default", Status: store.StatusQueued, Created: time.Now(),
	}
	if err := st.PutJob(rec); err != nil {
		t.Fatal(err)
	}

	// Boot a fresh daemon over the store: the accepted-but-unfinished
	// job must run to completion without any client resubmitting it.
	_, ts, _ := newTestServer(t, Config{Store: st}, false)
	if v := waitDone(t, ts.URL, rec.ID); v.Status != StatusDone {
		t.Fatalf("recovered job = %s (%s)", v.Status, v.Error)
	}
	if got := metricValue(t, ts.URL, "macsimd_store_recovered_total"); got != 1 {
		t.Fatalf("store_recovered_total = %v", got)
	}
	if got := metricValue(t, ts.URL, "macsimd_store_requeued_total"); got != 1 {
		t.Fatalf("store_requeued_total = %v", got)
	}
	// The published result serves an identical fresh submit as a hit.
	resp, _ := post(t, ts.URL+"/v1/solve", `{"k":300,"seed":9}`)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-recovery resubmit X-Cache = %q", resp.Header.Get("X-Cache"))
	}
}

func TestRecoveryRequeuesLeaseExpiredRecord(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, params := specParts(t, spec.KindSolve, `{"k":250,"seed":4}`)
	rec := store.JobRecord{
		ID: key[:ringPrefixLen] + "-2", Kind: "solve", Key: key, Params: params,
		Tenant: "default", Status: store.StatusRunning, Created: time.Now(),
		Started: time.Now(), LeaseUntil: time.Now().Add(-time.Second),
	}
	if err := st.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Store: st}, false)
	if v := waitDone(t, ts.URL, rec.ID); v.Status != StatusDone {
		t.Fatalf("lease-expired job = %s (%s)", v.Status, v.Error)
	}
	// The requeue cost one retry, recorded durably.
	if final := waitTerminalRecord(t, st, rec.ID); final.Status != store.StatusDone || final.Retries != 1 {
		t.Fatalf("final record = %+v", final)
	}
}

func TestRecoveryFailsBeyondMaxRetries(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, params := specParts(t, spec.KindSolve, `{"k":260,"seed":5}`)
	rec := store.JobRecord{
		ID: key[:ringPrefixLen] + "-3", Kind: "solve", Key: key, Params: params,
		Tenant: "default", Status: store.StatusRunning, Created: time.Now(),
		Started: time.Now(), LeaseUntil: time.Now().Add(-time.Second),
		Retries: 2,
	}
	if err := st.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Store: st, MaxRetries: 2}, false)
	v := waitDone(t, ts.URL, rec.ID)
	if v.Status != StatusFailed || v.Error == "" {
		t.Fatalf("over-retried job = %s (%q), want failed with a give-up error", v.Status, v.Error)
	}
	if got := metricValue(t, ts.URL, "macsimd_store_requeued_total"); got != 0 {
		t.Fatalf("store_requeued_total = %v, want 0", got)
	}
}

func TestRecoveryDefersLiveLease(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, params := specParts(t, spec.KindSolve, `{"k":270,"seed":6}`)
	rec := store.JobRecord{
		ID: key[:ringPrefixLen] + "-4", Kind: "solve", Key: key, Params: params,
		Tenant: "default", Status: store.StatusRunning, Created: time.Now(),
		Started: time.Now(), LeaseUntil: time.Now().Add(250 * time.Millisecond),
	}
	if err := st.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Store: st}, false)
	// The previous owner's lease is still live: the job is pollable but
	// not yet requeued.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deferred job poll = %d", resp.StatusCode)
	}
	if got := metricValue(t, ts.URL, "macsimd_store_requeued_total"); got != 0 {
		t.Fatalf("requeued before the lease expired: %v", got)
	}
	// Once the lease lapses, the job requeues (costing a retry) and
	// completes.
	if v := waitDone(t, ts.URL, rec.ID); v.Status != StatusDone {
		t.Fatalf("deferred job = %s (%s)", v.Status, v.Error)
	}
	if final := waitTerminalRecord(t, st, rec.ID); final.Retries != 1 {
		t.Fatalf("final record = %+v", final)
	}
}

func TestDrainedRestartReportsJobsDone(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1, _ := newTestServer(t, Config{Store: st}, false)
	_, sub := post(t, ts1.URL+"/v1/evaluate", `{"protocols":["one-fail"],"ks":[32],"runs":2,"seed":8}`)
	done := waitDone(t, ts1.URL, sub.ID)
	if done.Status != StatusDone {
		t.Fatalf("job = %s (%s)", done.Status, done.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	// A fresh daemon over the same data-dir reports the drained job as
	// done — with its result — instead of losing it.
	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2, _ := newTestServer(t, Config{Store: st2}, false)
	v := waitDone(t, ts2.URL, sub.ID)
	if v.Status != StatusDone || len(v.Result) == 0 {
		t.Fatalf("restarted daemon reports %s (result %d bytes)", v.Status, len(v.Result))
	}
	// And serves the identical submit from the persistent result tier.
	resp, sub2 := post(t, ts2.URL+"/v1/evaluate", `{"protocols":["one-fail"],"ks":[32],"runs":2,"seed":8}`)
	if resp.Header.Get("X-Cache") != "hit" || !sub2.Cached {
		t.Fatalf("restarted daemon missed the persisted result (X-Cache=%q)", resp.Header.Get("X-Cache"))
	}
}

func TestCanceledJobIsNotResurrected(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1, gate := newTestServer(t, Config{Store: st, Workers: 1, QueueDepth: 8}, true)

	// Job A holds the single worker at the gate; job B sits queued and
	// is canceled.
	_, subA := post(t, ts1.URL+"/v1/solve", `{"k":120,"seed":1}`)
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, ts1.URL, "macsimd_queue_depth") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued job A")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, subB := post(t, ts1.URL+"/v1/solve", `{"k":130,"seed":2}`)
	if resp := del(t, ts1.URL, subB.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	// The cancellation is already durable — before any drain.
	recB, ok, _ := st.GetJob(subB.ID)
	if !ok || recB.Status != store.StatusCanceled {
		t.Fatalf("canceled record = %+v (ok=%v)", recB, ok)
	}
	close(gate)
	waitDone(t, ts1.URL, subA.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2, _ := newTestServer(t, Config{Store: st2}, false)
	if v := waitDone(t, ts2.URL, subB.ID); v.Status != StatusCanceled {
		t.Fatalf("canceled job after restart = %s", v.Status)
	}
	if v := waitDone(t, ts2.URL, subA.ID); v.Status != StatusDone {
		t.Fatalf("finished job after restart = %s", v.Status)
	}
	if got := metricValue(t, ts2.URL, "macsimd_store_requeued_total"); got != 0 {
		t.Fatalf("restart requeued %v jobs, want 0 — canceled work resurrected", got)
	}
}

func TestPersistCanceledOverridesRunningRecord(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, _, gate := newTestServer(t, Config{Store: st, Workers: 1}, true)
	key, params := specParts(t, spec.KindSolve, `{"k":140,"seed":3}`)
	es, _ := spec.Decode(spec.KindSolve, params)
	j := newJob(key[:ringPrefixLen]+"-9", es, key)
	j.params = params
	j.tenant = "default"
	if !j.markRunning() {
		t.Fatal("markRunning on a fresh job returned false")
	}
	s.putJobRecord(j)
	if rec, ok, _ := st.GetJob(j.id); !ok || rec.Status != store.StatusRunning || rec.LeaseUntil.IsZero() {
		t.Fatalf("running record = %+v (ok=%v)", rec, ok)
	}
	j.cancel()
	s.persistCanceled(j)
	rec, ok, _ := st.GetJob(j.id)
	if !ok || rec.Status != store.StatusCanceled || !rec.LeaseUntil.IsZero() {
		t.Fatalf("canceled record = %+v (ok=%v)", rec, ok)
	}
	close(gate)
}

func TestRegistryEvictionDropsStoreRecords(t *testing.T) {
	st, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Store: st, JobsRetained: 2}, false)
	bodies := []string{`{"k":100,"seed":21}`, `{"k":100,"seed":22}`, `{"k":100,"seed":23}`}
	ids := make([]string, len(bodies))
	for i, body := range bodies {
		_, sub := post(t, ts.URL+"/v1/solve", body)
		ids[i] = sub.ID
		waitDone(t, ts.URL, sub.ID)
	}
	recs, err := st.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("store holds %d job records after eviction, want 2", len(recs))
	}
	// The result documents stay: they are the persistent cache.
	for i, body := range bodies {
		resp, _ := post(t, ts.URL+"/v1/solve", body)
		if resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("body %d (%s) missed after eviction", i, body)
		}
	}
}

func TestMaxRetriesNegativeMeansNoRequeue(t *testing.T) {
	cfg := Config{MaxRetries: -1}.withDefaults()
	if cfg.MaxRetries != 0 {
		t.Fatalf("MaxRetries = %d, want 0 (never requeue)", cfg.MaxRetries)
	}
	cfg = Config{}.withDefaults()
	if cfg.MaxRetries != 3 {
		t.Fatalf("default MaxRetries = %d, want 3", cfg.MaxRetries)
	}
	if cfg.LeaseDuration != 15*time.Second {
		t.Fatalf("default LeaseDuration = %v", cfg.LeaseDuration)
	}
}
