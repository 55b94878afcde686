// Package session implements live sessions: dynamic simulations that
// run indefinitely on the event-skip kernel, accept typed control
// messages mid-flight and stream windowed aggregates as spec-layer
// events. Every control is stamped with the slot at which it takes
// effect and appended to a control log; replaying (seed, initial spec,
// control log) — Replay, macsim session -replay — reproduces the run
// bit for bit. docs/sessions.md is the operator guide.
package session

import (
	"context"
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/spec"
)

// Session statuses.
const (
	StatusRunning  = "running"
	StatusStopped  = "stopped"
	StatusCanceled = "canceled"
	StatusFailed   = "failed"
)

// Observer receives serving-layer callbacks from a running session:
// metrics and tenant accounting hook in here. All callbacks fire on
// the session goroutine — keep them fast and non-blocking.
type Observer struct {
	// OnWindow fires after each simulated window's aggregate publishes.
	OnWindow func(w spec.SessionWindow)
	// OnControl fires after each accepted control is stamped and
	// logged.
	OnControl func(c spec.ControlMessage)
	// OnDrop fires when slow-consumer backpressure drops window
	// aggregates from the event buffer, with the count just dropped.
	OnDrop func(windows int)
}

// Option configures Open.
type Option func(*Session)

// WithObserver attaches serving-layer callbacks.
func WithObserver(o Observer) Option {
	return func(s *Session) { s.obs = o }
}

// entry is one buffered event with its monotone sequence number (the
// consumer cursor: replacement of a dropped window by a gap marker
// keeps the sequence number, so cursors never go backwards).
type entry struct {
	seq uint64
	ev  spec.Event
}

// controlReq carries one control into the session goroutine.
type controlReq struct {
	msg   spec.ControlMessage
	reply chan controlReply
}

type controlReply struct {
	msg spec.ControlMessage
	err error
}

// Session is one live (or finished) session. Obtain one from Open or
// Replay; mac.OpenSession is the façade.
type Session struct {
	spec     spec.SessionSpec
	obs      Observer
	cancel   context.CancelFunc
	controls chan controlReq
	replayed bool
	endC     chan struct{} // closed once the session has ended

	mu      sync.Mutex
	buf     []entry
	seq     uint64
	pulse   chan struct{} // closed and replaced on every change
	done    bool
	err     error
	status  string
	dropped uint64
	windows int
	slot    uint64 // next unsimulated slot
	log     []spec.ControlMessage
}

// Open validates the spec (in place: defaults applied, names
// canonicalized) and starts the session. Canceling ctx tears the
// session down promptly (status "canceled"); a stop control ends it
// cleanly (status "stopped").
func Open(ctx context.Context, sp spec.SessionSpec, opts ...Option) (*Session, error) {
	if err := sp.Validate(spec.Limits{}); err != nil {
		return nil, err
	}
	return open(ctx, sp, nil, opts)
}

// Replay re-executes a checkpoint document: the same engine consumes
// the recorded log's controls at their stamped slots instead of a live
// control channel, so every SessionWindow aggregate reproduces bit for
// bit. Pacing is ignored — replay runs flat out. The session ends
// where the original did: at a recorded stop, or after the spec's
// window budget; a checkpoint taken mid-run on an unbounded session
// (no stop in the log yet) replays up to the window it was taken at.
func Replay(ctx context.Context, ck spec.SessionCheckpoint, opts ...Option) (*Session, error) {
	sp := ck.Session
	if err := sp.Validate(spec.Limits{}); err != nil {
		return nil, err
	}
	sp.Pace = 0
	log := make([]spec.ControlMessage, len(ck.Log))
	copy(log, ck.Log)
	for i := range log {
		if err := log[i].Validate(spec.Limits{}); err != nil {
			return nil, fmt.Errorf("session: replay log entry %d: %w", i, err)
		}
		if i > 0 && log[i].Slot < log[i-1].Slot {
			return nil, fmt.Errorf("session: replay log entry %d: stamped slot %d before predecessor's %d", i, log[i].Slot, log[i-1].Slot)
		}
	}
	if sp.MaxWindows == 0 && (len(log) == 0 || log[len(log)-1].Type != spec.ControlStop) {
		// Without a recorded stop an unbounded spec would replay forever;
		// the checkpoint's own window count is the reproducible prefix.
		if ck.Window == 0 {
			return nil, fmt.Errorf("session: checkpoint of an unbounded session has no recorded stop and no simulated windows to replay")
		}
		sp.MaxWindows = ck.Window
	}
	return open(ctx, sp, log, opts)
}

func open(ctx context.Context, sp spec.SessionSpec, replayLog []spec.ControlMessage, opts []Option) (*Session, error) {
	e, err := newEngine(sp)
	if err != nil {
		return nil, err
	}
	return start(ctx, sp, e, replayLog, opts), nil
}

// start runs e as the session of sp on its own goroutine: live, or
// replaying replayLog when it is non-nil.
func start(ctx context.Context, sp spec.SessionSpec, e *engine, replayLog []spec.ControlMessage, opts []Option) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &Session{
		spec:     sp,
		cancel:   cancel,
		controls: make(chan controlReq),
		replayed: replayLog != nil,
		endC:     make(chan struct{}),
		pulse:    make(chan struct{}),
		status:   StatusRunning,
		slot:     1,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.replayed {
		go s.runReplay(ctx, e, replayLog)
	} else {
		go s.run(ctx, e)
	}
	return s
}

// Spec returns the initial validated spec.
func (s *Session) Spec() spec.SessionSpec { return s.spec }

// Control validates msg, hands it to the session goroutine and returns
// the slot-stamped message as recorded in the control log. It blocks
// until the session picks the control up (window boundaries come fast;
// paused sessions consume controls immediately) or ctx / the session
// ends.
func (s *Session) Control(ctx context.Context, msg spec.ControlMessage) (spec.ControlMessage, error) {
	if s.replayed {
		return spec.ControlMessage{}, fmt.Errorf("session: replay sessions accept no controls")
	}
	if err := msg.Validate(spec.Limits{}); err != nil {
		return spec.ControlMessage{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req := controlReq{msg: msg, reply: make(chan controlReply, 1)}
	select {
	case s.controls <- req:
	case <-ctx.Done():
		return spec.ControlMessage{}, ctx.Err()
	case <-s.endC:
		return spec.ControlMessage{}, fmt.Errorf("session: already ended")
	}
	select {
	case rep := <-req.reply:
		return rep.msg, rep.err
	case <-ctx.Done():
		return spec.ControlMessage{}, ctx.Err()
	case <-s.endC:
		// The session ended after taking the control: a reply sent
		// before the end is already buffered; otherwise it failed
		// while applying it.
		select {
		case rep := <-req.reply:
			return rep.msg, rep.err
		default:
			return spec.ControlMessage{}, fmt.Errorf("session: ended while applying the control")
		}
	}
}

// Stop tears the session down (status "canceled"). For a clean end
// with a logged, replayable boundary, send a stop control instead.
// Idempotent.
func (s *Session) Stop() { s.cancel() }

// Wait blocks until the session ends and returns its terminal error
// (nil for a clean stop or exhausted window budget).
func (s *Session) Wait() error {
	for {
		s.mu.Lock()
		done, err, pulse := s.done, s.err, s.pulse
		s.mu.Unlock()
		if done {
			return err
		}
		<-pulse
	}
}

// Status returns "running", "stopped", "canceled" or "failed".
func (s *Session) Status() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// Windows returns how many aggregation windows have been simulated.
func (s *Session) Windows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.windows
}

// Dropped returns how many window aggregates slow-consumer
// backpressure has dropped from the event buffer.
func (s *Session) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Log returns a copy of the slot-stamped control log.
func (s *Session) Log() []spec.ControlMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]spec.ControlMessage, len(s.log))
	copy(out, s.log)
	return out
}

// Checkpoint assembles the current replay document.
func (s *Session) Checkpoint() spec.SessionCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Session) checkpointLocked() spec.SessionCheckpoint {
	log := make([]spec.ControlMessage, len(s.log))
	copy(log, s.log)
	return spec.SessionCheckpoint{
		Event:   "checkpoint",
		Slot:    s.slot,
		Window:  s.windows,
		Session: s.spec,
		Log:     log,
	}
}

// Events streams the session's events in publication order, following
// live until it ends; the terminal error (ctx's error after
// cancellation) is yielded last with a nil event. The stream reads
// from the bounded buffer: a consumer that falls more than the buffer
// behind sees gap markers where dropped window aggregates were.
// Re-iterable; each iteration starts at the oldest buffered event.
func (s *Session) Events() iter.Seq2[spec.Event, error] {
	return s.EventsContext(context.Background())
}

// EventsContext is Events with consumer-side cancellation: when ctx
// ends, iteration stops with ctx's error even if the session never
// publishes again — the HTTP streamer's client-disconnect path, where
// a paused session must not pin a handler goroutine forever.
func (s *Session) EventsContext(ctx context.Context) iter.Seq2[spec.Event, error] {
	return func(yield func(spec.Event, error) bool) {
		var cursor uint64
		for {
			events, pulse, done, err := s.snapshot(cursor)
			for _, en := range events {
				if !yield(en.ev, nil) {
					return
				}
				cursor = en.seq
			}
			if done {
				if err != nil {
					yield(nil, err)
				}
				return
			}
			select {
			case <-pulse:
			case <-ctx.Done():
				yield(nil, ctx.Err())
				return
			}
		}
	}
}

// snapshot returns a copy of the buffered events with sequence numbers
// after cursor, the current pulse channel and the terminal state. The
// copy matters: the consumer iterates outside the lock while
// backpressure rewrites buffer entries in place (dropOldestLocked).
func (s *Session) snapshot(cursor uint64) ([]entry, <-chan struct{}, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.buf) && s.buf[i].seq <= cursor {
		i++
	}
	out := make([]entry, len(s.buf)-i)
	copy(out, s.buf[i:])
	return out, s.pulse, s.done, s.err
}

// publish appends one event to the bounded buffer. droppable marks
// window aggregates — the only events backpressure may discard. When
// the buffer is full the oldest droppable entry is replaced by (or
// merged into an adjacent) gap marker carrying the dropped window
// range; everything else (controls, checkpoints, gaps, the end event)
// survives, so the buffer can exceed its bound only by the trickle of
// non-droppable events.
func (s *Session) publish(ev spec.Event, droppable bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if droppable && len(s.buf) >= s.spec.Buffer {
		s.dropOldestLocked()
	}
	s.seq++
	s.buf = append(s.buf, entry{seq: s.seq, ev: ev})
	close(s.pulse)
	s.pulse = make(chan struct{})
}

// dropOldestLocked implements the drop-oldest-aggregate policy.
func (s *Session) dropOldestLocked() {
	for i := range s.buf {
		w, ok := s.buf[i].ev.(spec.SessionWindow)
		if !ok {
			continue
		}
		s.dropped++
		if s.obs.OnDrop != nil {
			s.obs.OnDrop(1)
		}
		if i > 0 {
			if g, ok := s.buf[i-1].ev.(spec.SessionGap); ok {
				// Extend the adjacent gap instead of stacking markers.
				g.To = w.Window
				g.Dropped++
				s.buf[i-1].ev = g
				s.buf = append(s.buf[:i], s.buf[i+1:]...)
				return
			}
		}
		s.buf[i].ev = spec.SessionGap{Event: "gap", From: w.Window, To: w.Window, Dropped: 1}
		return
	}
}

// noteWindow records a simulated window's bookkeeping.
func (s *Session) noteWindow(agg spec.SessionWindow) {
	s.mu.Lock()
	s.windows = agg.Window + 1
	s.slot = agg.Start + uint64(agg.Slots)
	s.mu.Unlock()
	if s.obs.OnWindow != nil {
		s.obs.OnWindow(agg)
	}
}

// finish publishes the end event and records the terminal state.
func (s *Session) finish(e *engine, reason, status string, err error) {
	end := spec.SessionEnd{
		Event:     "end",
		Reason:    reason,
		Windows:   e.widx,
		Slots:     e.next - 1,
		Delivered: e.delivered,
		Backlog:   e.win.Backlog(),
	}
	s.mu.Lock()
	end.Dropped = s.dropped
	s.seq++
	s.buf = append(s.buf, entry{seq: s.seq, ev: end})
	s.done = true
	s.status = status
	s.err = err
	close(s.pulse)
	s.pulse = make(chan struct{})
	s.mu.Unlock()
	close(s.endC)
}

// handle applies one live control at the current window boundary:
// stamp, validate against the engine, log (content controls only),
// publish the acknowledgment and reply to the caller.
func (s *Session) handle(e *engine, req controlReq, paused *bool) (stop bool) {
	msg := req.msg
	msg.Slot = e.next
	var err error
	switch msg.Type {
	case spec.ControlPause:
		*paused = true
	case spec.ControlResume:
		*paused = false
	case spec.ControlCheckpoint:
		s.mu.Lock()
		ck := s.checkpointLocked()
		s.mu.Unlock()
		s.publish(ck, false)
	case spec.ControlStop:
		stop = true
		s.logControl(msg)
	default: // content controls: set-lambda, jam, swap-protocol
		if err = e.apply(msg); err == nil {
			s.logControl(msg)
		}
	}
	req.reply <- controlReply{msg: msg, err: err}
	if err == nil && s.obs.OnControl != nil {
		s.obs.OnControl(msg)
	}
	return stop
}

// logControl appends a stamped content control to the log and
// publishes its acknowledgment event.
func (s *Session) logControl(msg spec.ControlMessage) {
	s.mu.Lock()
	s.log = append(s.log, msg)
	s.mu.Unlock()
	s.publish(spec.SessionControl{Event: "control", Control: msg}, false)
}

// run is the live session loop: apply queued controls at the window
// boundary, honor pacing and pauses, simulate one window, repeat.
func (s *Session) run(ctx context.Context, e *engine) {
	defer s.recoverPanic()
	var tickC <-chan time.Time
	if s.spec.Pace > 0 {
		interval := time.Duration(float64(time.Second) / s.spec.Pace)
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		tickC = tick.C
	}
	paused := false
	for {
		// Window boundary: drain every control already queued; while
		// paused (or waiting out the pace interval) keep accepting
		// controls instead of spinning.
		for {
			if paused {
				select {
				case req := <-s.controls:
					if s.handle(e, req, &paused) {
						s.finish(e, "stop", StatusStopped, nil)
						return
					}
				case <-ctx.Done():
					s.finish(e, "canceled", StatusCanceled, ctx.Err())
					return
				}
				continue
			}
			select {
			case req := <-s.controls:
				if s.handle(e, req, &paused) {
					s.finish(e, "stop", StatusStopped, nil)
					return
				}
				continue
			case <-ctx.Done():
				s.finish(e, "canceled", StatusCanceled, ctx.Err())
				return
			default:
			}
			break
		}
		if tickC != nil {
			waited := false
			for !waited {
				select {
				case req := <-s.controls:
					if s.handle(e, req, &paused) {
						s.finish(e, "stop", StatusStopped, nil)
						return
					}
				case <-tickC:
					waited = true
				case <-ctx.Done():
					s.finish(e, "canceled", StatusCanceled, ctx.Err())
					return
				}
			}
			if paused {
				continue
			}
		}
		agg, err := e.simulateWindow()
		if err != nil {
			s.fail(err)
			return
		}
		s.publish(agg, true)
		s.noteWindow(agg)
		if s.spec.MaxWindows > 0 && e.widx >= s.spec.MaxWindows {
			s.finish(e, "maxWindows", StatusStopped, nil)
			return
		}
	}
}

// runReplay re-executes a recorded control log: before each window,
// apply (in order) every content control stamped for the boundary
// slot, exactly as the live loop did.
func (s *Session) runReplay(ctx context.Context, e *engine, log []spec.ControlMessage) {
	defer s.recoverPanic()
	i := 0
	for {
		for i < len(log) && log[i].Slot <= e.next {
			msg := log[i]
			i++
			if msg.Type == spec.ControlStop {
				s.replayLog(log[:i])
				s.publish(spec.SessionControl{Event: "control", Control: msg}, false)
				s.finish(e, "stop", StatusStopped, nil)
				return
			}
			if err := e.apply(msg); err != nil {
				s.fail(err)
				return
			}
			s.replayLog(log[:i])
			s.publish(spec.SessionControl{Event: "control", Control: msg}, false)
		}
		if err := ctx.Err(); err != nil {
			s.finish(e, "canceled", StatusCanceled, err)
			return
		}
		agg, err := e.simulateWindow()
		if err != nil {
			s.fail(err)
			return
		}
		s.publish(agg, true)
		s.noteWindow(agg)
		if s.spec.MaxWindows > 0 && e.widx >= s.spec.MaxWindows {
			s.replayLog(log[:i])
			s.finish(e, "maxWindows", StatusStopped, nil)
			return
		}
	}
}

// replayLog mirrors the consumed prefix of the recorded log into the
// session's own log, so Checkpoint on a replay matches the original.
func (s *Session) replayLog(prefix []spec.ControlMessage) {
	s.mu.Lock()
	s.log = s.log[:0]
	s.log = append(s.log, prefix...)
	s.mu.Unlock()
}

// recoverPanic, deferred by the session goroutine, fails the session when
// its simulation panics, with the stack in the error, so one bad session
// ends itself rather than the process and every session and job in it.
func (s *Session) recoverPanic() {
	if r := recover(); r != nil {
		s.fail(fmt.Errorf("session: engine panicked: %v\n%s", r, debug.Stack()))
	}
}

// fail records a terminal engine error.
func (s *Session) fail(err error) {
	s.mu.Lock()
	s.done = true
	s.status = StatusFailed
	s.err = err
	close(s.pulse)
	s.pulse = make(chan struct{})
	s.mu.Unlock()
	close(s.endC)
}
