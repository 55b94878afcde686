// The session surface: long-running dynamic simulations
// (internal/session) exposed over HTTP. Unlike jobs, a session is not
// a cacheable unit of work — it is an open-ended process the client
// steers mid-flight — so sessions bypass the result cache, the queue
// and the worker pool entirely and run on their own goroutines, gated
// only by admission (tenant token bucket, Config.MaxSessions).
//
//	POST   /v1/sessions              open (body: spec.SessionSpec JSON)
//	GET    /v1/sessions/{id}         poll (view embeds the replay checkpoint)
//	GET    /v1/sessions/{id}/stream  NDJSON aggregates, controls, gaps, end
//	POST   /v1/sessions/{id}/control one control (JSON object or text line)
//	DELETE /v1/sessions/{id}         hard teardown (status "canceled")
//
// Session ids are key-prefixed like job ids ("<key12>-s<seq>"), so the
// shard ring routes polls, controls and streams to the owning node with
// the same prefix rule jobs use. On session end — and again on drain —
// the spec document and the slot-stamped control log are persisted as a
// store.SessionRecord: a SIGTERM'd daemon leaves every session's replay
// document on disk.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/session"
	"repro/internal/spec"
	"repro/internal/store"
)

// liveSession pairs a running session with its serving identity.
type liveSession struct {
	id      string
	key     string
	tenant  string
	params  json.RawMessage
	created time.Time
	sess    *session.Session
}

// sessionView is the API rendering of a session. Checkpoint embeds the
// current replay document, so one poll hands a client everything
// needed for macsim session -replay.
type sessionView struct {
	ID         string                 `json:"id"`
	Kind       string                 `json:"kind"`
	Key        string                 `json:"key"`
	Status     string                 `json:"status"`
	Windows    int                    `json:"windows"`
	Dropped    uint64                 `json:"dropped,omitempty"`
	Created    time.Time              `json:"created"`
	Checkpoint spec.SessionCheckpoint `json:"checkpoint"`
	Error      string                 `json:"error,omitempty"`
}

func (ls *liveSession) view() sessionView {
	v := sessionView{
		ID:         ls.id,
		Kind:       string(spec.KindSession),
		Key:        ls.key,
		Status:     ls.sess.Status(),
		Windows:    ls.sess.Windows(),
		Dropped:    ls.sess.Dropped(),
		Created:    ls.created,
		Checkpoint: ls.sess.Checkpoint(),
	}
	if v.Status == session.StatusFailed || v.Status == session.StatusCanceled {
		if err := waitErr(ls.sess); err != nil {
			v.Error = err.Error()
		}
	}
	return v
}

// waitErr reads a terminal session's error without blocking a live one.
func waitErr(s *session.Session) error {
	if s.Status() == session.StatusRunning {
		return nil
	}
	return s.Wait()
}

// sessionRegistry indexes sessions by id, bounded by evicting the
// oldest *terminal* sessions beyond cap; live sessions are never
// evicted (they are separately bounded by Config.MaxSessions).
type sessionRegistry struct {
	mu       sync.Mutex
	cap      int
	sessions map[string]*liveSession
	order    []string
}

func newSessionRegistry(cap int) *sessionRegistry {
	if cap < 1 {
		cap = 1
	}
	return &sessionRegistry{cap: cap, sessions: make(map[string]*liveSession)}
}

func (r *sessionRegistry) add(ls *liveSession) (evicted []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions[ls.id] = ls
	r.order = append(r.order, ls.id)
	if len(r.sessions) <= r.cap {
		return nil
	}
	kept := r.order[:0]
	for _, id := range r.order {
		old, ok := r.sessions[id]
		if !ok {
			continue
		}
		if len(r.sessions) > r.cap && old != ls && old.sess.Status() != session.StatusRunning {
			delete(r.sessions, id)
			evicted = append(evicted, id)
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
	return evicted
}

func (r *sessionRegistry) get(id string) (*liveSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls, ok := r.sessions[id]
	return ls, ok
}

func (r *sessionRegistry) all() []*liveSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*liveSession, 0, len(r.sessions))
	for _, ls := range r.sessions {
		out = append(out, ls)
	}
	return out
}

// active counts sessions still running — the Config.MaxSessions gate.
func (r *sessionRegistry) active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ls := range r.sessions {
		if ls.sess.Status() == session.StatusRunning {
			n++
		}
	}
	return n
}

// handleOpenSession serves POST /v1/sessions: tenant → decode →
// validate → hash → route (ring owner) → admit (token bucket, active-
// session cap) → open. The 201 body is the session view; the client
// follows up on /stream and /control.
func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
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
	sp, err := spec.DecodeSession(body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if err := sp.Validate(s.cfg.Limits); err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	key, err := sp.CanonicalKey()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if owner, ok := s.forwardTarget(r, key); ok {
		s.proxyTo(w, r, owner, body)
		return
	}

	ts := s.tenants.get(tenant)
	if ts.bucket != nil {
		if ok, retry := ts.bucket.take(); !ok {
			ts.rejected.Add(1)
			s.reject429(w, ts, retry, fmt.Sprintf("tenant %q over admission rate", ts.name))
			return
		}
	}
	if s.sessionReg.active() >= s.cfg.MaxSessions {
		s.reject429(w, ts, s.cfg.RetryAfter, fmt.Sprintf("session capacity (%d) reached", s.cfg.MaxSessions))
		return
	}

	params, _ := sp.EncodeParams() // CanonicalKey above already proved it encodes
	ls := &liveSession{
		id:      fmt.Sprintf("%s-s%d", key[:ringPrefixLen], s.seq.Add(1)),
		key:     key,
		tenant:  ts.name,
		params:  params,
		created: time.Now(),
	}
	// Observers charge the tenant and the global counters per simulated
	// window — the session analogue of per-job cost accounting. The
	// session must outlive this request, so it parents on Background,
	// not r.Context(); teardown is DELETE, a stop control, or drain.
	sess, err := session.Open(context.Background(), sp, session.WithObserver(session.Observer{
		OnWindow: func(win spec.SessionWindow) {
			s.metrics.sessionWindows.Add(1)
			s.metrics.slotsSimulated.Add(int64(win.Slots))
			ts.sessionWindows.Add(1)
		},
		OnControl: func(spec.ControlMessage) { s.metrics.sessionControls.Add(1) },
		OnDrop:    func(n int) { s.metrics.sessionDropped.Add(int64(n)) },
	}))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	ls.sess = sess
	for _, id := range s.sessionReg.add(ls) {
		s.metrics.deleted(s.store.DeleteSession(id))
	}
	s.metrics.sessionsOpened.Add(1)
	// Persist the terminal record the moment the session ends, whatever
	// ends it — stop control, window budget, failure or DELETE.
	go func() {
		_ = sess.Wait()
		s.writeSessionRecord(ls)
	}()
	w.Header().Set("Location", "/v1/sessions/"+ls.id)
	s.writeJSON(w, http.StatusCreated, ls.view())
}

// writeSessionRecord persists the session's replay document and final
// counters. Called on session end and again on drain; the write is a
// full replace, so repeats are harmless.
func (s *Server) writeSessionRecord(ls *liveSession) {
	ck := ls.sess.Checkpoint()
	logDoc, err := json.Marshal(ck.Log)
	if err != nil {
		logDoc = nil
	}
	rec := store.SessionRecord{
		ID:      ls.id,
		Key:     ls.key,
		Tenant:  ls.tenant,
		Params:  ls.params,
		Log:     logDoc,
		Status:  ls.sess.Status(),
		Windows: ls.sess.Windows(),
		Dropped: ls.sess.Dropped(),
		Created: ls.created,
		Stopped: time.Now(),
	}
	if werr := waitErr(ls.sess); werr != nil {
		rec.Error = werr.Error()
	}
	s.metrics.stored(s.store.PutSession(rec))
}

// flushSessions stops every live session and persists its record — the
// drain path. Sessions are interactive processes; a draining daemon
// cannot wait for a client to send stop, so teardown is hard
// (status "canceled") but the replay document survives.
func (s *Server) flushSessions() {
	live := s.sessionReg.all()
	for _, ls := range live {
		ls.sess.Stop()
	}
	for _, ls := range live {
		_ = ls.sess.Wait()
		s.writeSessionRecord(ls)
	}
}

// proxySessionRequest forwards a session request whose id this node
// does not own — proxyJobRequest with a body (control POSTs carry one).
func (s *Server) proxySessionRequest(w http.ResponseWriter, r *http.Request, id string, body []byte) bool {
	if s.ring == nil || len(id) < ringPrefixLen || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	owner := s.ring.Owner(id[:ringPrefixLen])
	if owner == s.ring.Self() {
		return false
	}
	s.proxyTo(w, r, owner, body)
	return true
}

// handleSessionPoll serves GET /v1/sessions/{id}. The view embeds the
// current checkpoint — spec plus slot-stamped control log — which is
// exactly the macsim session -replay input.
func (s *Server) handleSessionPoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ls, ok := s.sessionReg.get(id)
	if !ok {
		if s.proxySessionRequest(w, r, id, nil) {
			return
		}
		// A session that ended before a restart still answers from its
		// persisted record.
		if rec, ok, err := s.store.GetSession(id); err == nil && ok {
			s.metrics.storeReads.Add(1)
			s.writeJSON(w, http.StatusOK, sessionRecordView(rec))
			return
		}
		s.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown session id"})
		return
	}
	s.writeJSON(w, http.StatusOK, ls.view())
}

// sessionRecordView renders a persisted record in the live view's
// shape, rebuilding the checkpoint from the stored spec and log.
func sessionRecordView(rec store.SessionRecord) sessionView {
	v := sessionView{
		ID:      rec.ID,
		Kind:    string(spec.KindSession),
		Key:     rec.Key,
		Status:  rec.Status,
		Windows: rec.Windows,
		Dropped: rec.Dropped,
		Created: rec.Created,
		Error:   rec.Error,
	}
	v.Checkpoint.Event = "checkpoint"
	v.Checkpoint.Window = rec.Windows
	_ = json.Unmarshal(rec.Params, &v.Checkpoint.Session)
	_ = json.Unmarshal(rec.Log, &v.Checkpoint.Log)
	if v.Checkpoint.Session.Window > 0 {
		v.Checkpoint.Slot = uint64(rec.Windows)*uint64(v.Checkpoint.Session.Window) + 1
	}
	return v
}

// handleSessionControl serves POST /v1/sessions/{id}/control. The body
// is either a ControlMessage JSON object or one line of the text
// grammar ("set-lambda 0.3", "jam pattern 8:3", ...). The response is
// the stamped acknowledgment exactly as the stream and the control log
// carry it.
func (s *Server) handleSessionControl(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := readBody(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	ls, ok := s.sessionReg.get(id)
	if !ok {
		if s.proxySessionRequest(w, r, id, body) {
			return
		}
		s.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown session id"})
		return
	}
	msg, err := parseControlBody(body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	stamped, err := ls.sess.Control(r.Context(), msg)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "ended") {
			status = http.StatusConflict
		}
		s.writeJSON(w, status, apiError{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, spec.SessionControl{Event: "control", Control: stamped})
}

// parseControlBody accepts both control encodings: a JSON object, or a
// single line of the shared text grammar.
func parseControlBody(body []byte) (spec.ControlMessage, error) {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return spec.ControlMessage{}, fmt.Errorf("empty control body")
	}
	if trimmed[0] == '{' {
		var msg spec.ControlMessage
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&msg); err != nil {
			return spec.ControlMessage{}, fmt.Errorf("decoding control: %w", err)
		}
		msg.Slot = 0 // the session stamps the effective slot
		return msg, nil
	}
	return spec.ParseControl(string(trimmed))
}

// handleSessionStream serves GET /v1/sessions/{id}/stream: the
// session's events as NDJSON — window aggregates, control acks,
// checkpoints, gap markers where backpressure dropped aggregates, and
// the end record — following live until the session ends or the client
// disconnects.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ls, ok := s.sessionReg.get(id)
	if !ok {
		if s.proxySessionRequest(w, r, id, nil) {
			return
		}
		s.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown session id"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Server", "macsimd/"+s.cfg.Version)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for ev, err := range ls.sess.EventsContext(r.Context()) {
		var line []byte
		var merr error
		if err != nil {
			line, merr = json.Marshal(apiError{Error: err.Error()})
		} else {
			line, merr = json.Marshal(ev)
		}
		if merr != nil {
			return
		}
		line = append(line, '\n')
		if _, werr := w.Write(line); werr != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleSessionDelete serves DELETE /v1/sessions/{id}: hard teardown.
// The session ends with status "canceled"; its record (with the replay
// document) is persisted by the end watcher. For a clean, replayable
// end, POST a stop control instead.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ls, ok := s.sessionReg.get(id)
	if !ok {
		if s.proxySessionRequest(w, r, id, nil) {
			return
		}
		s.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown session id"})
		return
	}
	ls.sess.Stop()
	_ = ls.sess.Wait()
	s.writeJSON(w, http.StatusAccepted, ls.view())
}
