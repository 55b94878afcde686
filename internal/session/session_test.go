package session

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/protocol"
	"repro/internal/spec"
)

// collect consumes a session's whole event stream, returning the
// window aggregates as marshaled NDJSON lines (the byte-compare
// currency of the determinism golden test) plus every event seen.
func collect(t *testing.T, s *Session) (windowLines []string, events []spec.Event) {
	t.Helper()
	for ev, err := range s.Events() {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		events = append(events, ev)
		if _, ok := ev.(spec.SessionWindow); ok {
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			windowLines = append(windowLines, string(b))
		}
	}
	return windowLines, events
}

// control sends one parsed control line and fails the test on error.
func control(t *testing.T, s *Session, line string) spec.ControlMessage {
	t.Helper()
	msg, err := spec.ParseControl(line)
	if err != nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	stamped, err := s.Control(context.Background(), msg)
	if err != nil {
		t.Fatalf("control %q: %v", line, err)
	}
	return stamped
}

// waitWindows polls until the session has simulated at least n windows.
func waitWindows(t *testing.T, s *Session, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Windows() < n {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck at %d windows waiting for %d", s.Windows(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayDeterminism is the golden test of the subsystem: a live
// run with mid-flight controls — a lambda change, a jammer toggled on
// and off, a protocol hot-swap — is replayed twice from its
// checkpoint document, and all three window-aggregate streams must be
// byte-identical.
func TestReplayDeterminism(t *testing.T) {
	t.Parallel()
	sp := spec.SessionSpec{
		Protocol: spec.ProtocolSpec{Name: "exp-bb"},
		Lambda:   0.2,
		Seed:     7,
		Window:   32,
		Buffer:   65536, // no drops: the live stream must be complete to compare
	}
	s, err := Open(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// Collect concurrently so the consumer never falls behind.
	type collected struct {
		lines  []string
		events []spec.Event
	}
	liveC := make(chan collected, 1)
	go func() {
		lines, events := collect(t, s)
		liveC <- collected{lines, events}
	}()

	// Script mid-flight controls, letting the session advance between
	// them so the stamped slots land mid-run, not all at slot 1.
	control(t, s, "pause")
	control(t, s, "set-lambda 0.45")
	control(t, s, "resume")
	waitWindows(t, s, 3)
	control(t, s, "pause")
	jamOn := control(t, s, "jam pattern 8:3")
	control(t, s, "resume")
	waitWindows(t, s, 6)
	control(t, s, "pause")
	control(t, s, "jam off")
	swap := control(t, s, "swap-protocol exp-backoff")
	control(t, s, "resume")
	waitWindows(t, s, 9)
	control(t, s, "checkpoint")
	stop := control(t, s, "stop")
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if s.Status() != StatusStopped {
		t.Fatalf("status = %q, want %q", s.Status(), StatusStopped)
	}
	if s.Dropped() != 0 {
		t.Fatalf("live stream dropped %d windows; the golden compare needs a complete stream", s.Dropped())
	}
	if jamOn.Slot == 0 || swap.Slot <= jamOn.Slot || stop.Slot <= swap.Slot {
		t.Fatalf("controls did not land at advancing mid-run slots: jam@%d swap@%d stop@%d", jamOn.Slot, swap.Slot, stop.Slot)
	}
	live := <-liveC
	if len(live.lines) < 9 {
		t.Fatalf("only %d window aggregates collected", len(live.lines))
	}

	ck := s.Checkpoint()
	if got := len(ck.Log); got != 5 { // set-lambda, jam on, jam off, swap, stop
		t.Fatalf("control log has %d entries, want 5: %+v", got, ck.Log)
	}

	// The checkpoint document must survive a JSON round trip (it is
	// served over HTTP and fed to macsim session -replay as a file).
	doc, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var ck2 spec.SessionCheckpoint
	if err := json.Unmarshal(doc, &ck2); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		r, err := Replay(context.Background(), ck2)
		if err != nil {
			t.Fatal(err)
		}
		lines, _ := collect(t, r)
		if err := r.Wait(); err != nil {
			t.Fatalf("replay %d: %v", round, err)
		}
		if len(lines) != len(live.lines) {
			t.Fatalf("replay %d produced %d windows, live produced %d", round, len(lines), len(live.lines))
		}
		for i := range lines {
			if lines[i] != live.lines[i] {
				t.Fatalf("replay %d window %d differs:\nlive:   %s\nreplay: %s", round, i, live.lines[i], lines[i])
			}
		}
		if rs := r.Status(); rs != StatusStopped {
			t.Fatalf("replay %d status = %q", round, rs)
		}
	}
}

// TestReplayRejectsControls: replay sessions are read-only.
func TestReplayRejectsControls(t *testing.T) {
	t.Parallel()
	ck := spec.SessionCheckpoint{
		Session: spec.SessionSpec{MaxWindows: 2},
		Log:     []spec.ControlMessage{{Type: spec.ControlStop, Slot: 65}},
	}
	r, err := Replay(context.Background(), ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Control(context.Background(), spec.ControlMessage{Type: spec.ControlPause}); err == nil {
		t.Fatal("replay session accepted a control")
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureDropsOldest: a consumer that never reads must not
// grow the session's memory — the bounded buffer drops the oldest
// window aggregates, counts them, surfaces merged gap markers, and
// the union of surviving windows and gap ranges covers every window
// exactly once.
func TestBackpressureDropsOldest(t *testing.T) {
	t.Parallel()
	const maxWindows = 200
	sp := spec.SessionSpec{
		Lambda:     0.3,
		Seed:       11,
		Window:     16,
		Buffer:     16,
		MaxWindows: maxWindows,
	}
	var observed atomic.Int64
	s, err := Open(context.Background(), sp, WithObserver(Observer{
		OnDrop: func(n int) { observed.Add(int64(n)) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}

	_, events := collect(t, s)
	if len(events) > sp.Buffer+4 {
		t.Fatalf("buffer leaked: %d events survive a bound of %d", len(events), sp.Buffer)
	}
	covered := make([]bool, maxWindows)
	var gaps, gapDropped int
	var end *spec.SessionEnd
	for _, ev := range events {
		switch v := ev.(type) {
		case spec.SessionWindow:
			covered[v.Window] = true
		case spec.SessionGap:
			gaps++
			gapDropped += v.Dropped
			if v.Dropped != v.To-v.From+1 {
				t.Fatalf("gap %+v: dropped count does not match its range", v)
			}
			for w := v.From; w <= v.To; w++ {
				if covered[w] {
					t.Fatalf("window %d covered twice", w)
				}
				covered[w] = true
			}
		case spec.SessionEnd:
			end = &v
		}
	}
	for w, ok := range covered {
		if !ok {
			t.Fatalf("window %d neither delivered nor gap-covered", w)
		}
	}
	if gaps == 0 {
		t.Fatal("no gap marker on an overflowing stream")
	}
	dropped := s.Dropped()
	if dropped == 0 || int(dropped) != gapDropped {
		t.Fatalf("Dropped() = %d, gap markers account for %d", dropped, gapDropped)
	}
	if observed.Load() != int64(dropped) {
		t.Fatalf("OnDrop observed %d, session counted %d", observed.Load(), dropped)
	}
	if end == nil || end.Dropped != dropped || end.Windows != maxWindows || end.Reason != "maxWindows" {
		t.Fatalf("end event %+v, want reason maxWindows with %d dropped", end, dropped)
	}
}

// TestStopCancels: hard teardown via Stop (and via parent context)
// ends the session promptly with status canceled, and the stream
// terminates with the context error after an end event.
func TestStopCancels(t *testing.T) {
	t.Parallel()
	s, err := Open(context.Background(), spec.SessionSpec{Lambda: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitWindows(t, s, 1)
	s.Stop()
	if err := s.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if s.Status() != StatusCanceled {
		t.Fatalf("status = %q", s.Status())
	}
	var sawEnd bool
	var lastErr error
	for ev, err := range s.Events() {
		if err != nil {
			lastErr = err
			continue
		}
		if e, ok := ev.(spec.SessionEnd); ok {
			sawEnd = true
			if e.Reason != "canceled" {
				t.Fatalf("end reason = %q", e.Reason)
			}
		}
	}
	if !sawEnd || !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("stream end = (%v, %v), want canceled end event + error", sawEnd, lastErr)
	}
	if _, err := s.Control(context.Background(), spec.ControlMessage{Type: spec.ControlPause}); err == nil ||
		!strings.Contains(err.Error(), "ended") {
		t.Fatalf("control after end: %v", err)
	}

	// Parent-context cancellation takes the same path.
	ctx, cancel := context.WithCancel(context.Background())
	s2, err := Open(ctx, spec.SessionSpec{Lambda: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := s2.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("parent cancel: Wait = %v", err)
	}
}

// TestPauseFreezesSimulation: a paused session simulates nothing until
// resumed, while still accepting controls.
func TestPauseFreezesSimulation(t *testing.T) {
	t.Parallel()
	s, err := Open(context.Background(), spec.SessionSpec{Lambda: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	waitWindows(t, s, 1)
	control(t, s, "pause")
	frozen := s.Windows()
	time.Sleep(30 * time.Millisecond)
	if got := s.Windows(); got != frozen {
		t.Fatalf("paused session advanced from %d to %d windows", frozen, got)
	}
	control(t, s, "set-lambda 0.4") // controls still flow while paused
	control(t, s, "resume")
	waitWindows(t, s, frozen+1)
	control(t, s, "stop")
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPaceThrottles: a paced session advances at roughly the requested
// windows/second, not flat out (content is unaffected; replay of a
// paced run ignores pace, which TestReplayDeterminism covers for the
// unpaced direction).
func TestPaceThrottles(t *testing.T) {
	t.Parallel()
	s, err := Open(context.Background(), spec.SessionSpec{Lambda: 0.2, Seed: 6, Pace: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	time.Sleep(200 * time.Millisecond)
	if got := s.Windows(); got > 40 {
		t.Fatalf("paced session simulated %d windows in 200ms at 50 windows/s", got)
	}
	control(t, s, "stop")
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSwapRebuildsBacklog: after a protocol hot-swap under full jam,
// the backlog carries over — no message is lost or double-delivered
// across the swap boundary once the jammer lifts.
func TestSwapRebuildsBacklog(t *testing.T) {
	t.Parallel()
	sp := spec.SessionSpec{
		Lambda: 0.3,
		Seed:   9,
		Window: 32,
		Jam:    &spec.JamSpec{Mode: spec.JamOn},
	}
	// Tally through the observer, which sees every aggregate before any
	// buffer-overflow drop; an unpaced jam phase can run thousands of
	// windows before the controls land, far past the stream buffer.
	var mu sync.Mutex
	var arrivals, delivered, backlog int
	s, err := Open(context.Background(), sp, WithObserver(Observer{
		OnWindow: func(w spec.SessionWindow) {
			mu.Lock()
			arrivals += w.Arrivals
			delivered += w.Delivered
			backlog = w.Backlog
			mu.Unlock()
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	waitWindows(t, s, 2) // accumulate a jammed backlog
	control(t, s, "pause")
	control(t, s, "swap-protocol loglog-iterated")
	control(t, s, "jam off")
	control(t, s, "resume")
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		d := delivered
		mu.Unlock()
		if d > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("nothing delivered after the jammer lifted")
		}
		time.Sleep(time.Millisecond)
	}
	control(t, s, "stop")
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if arrivals != delivered+backlog {
		t.Fatalf("conservation violated: %d arrivals, %d delivered + %d backlog", arrivals, delivered, backlog)
	}
}

// TestEnginePanicFailsSession: a panic in simulation code, here a
// schedule constructor that panics on its 21st call, fails that session
// with the panic and its stack in the error, for live sessions and
// replays alike, and the process (this test binary) survives.
func TestEnginePanicFailsSession(t *testing.T) {
	t.Parallel()
	sp := spec.SessionSpec{Protocol: spec.ProtocolSpec{Name: "exp-bb"}, Lambda: 0.2, Seed: 3, Window: 32}
	if err := sp.Validate(spec.Limits{}); err != nil {
		t.Fatal(err)
	}
	for _, replayLog := range [][]spec.ControlMessage{nil, {}} {
		e, err := newEngine(sp)
		if err != nil {
			t.Fatal(err)
		}
		newSched, err := windowSchedules(sp.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		e.win = dynamic.NewWindowEngine(func() (protocol.Schedule, error) {
			if calls++; calls > 20 {
				panic("schedule constructor broke")
			}
			return newSched()
		}, e.src, dynamic.ClockLocal, nil)
		s := start(context.Background(), sp, e, replayLog, nil)
		err = s.Wait()
		if err == nil || !strings.Contains(err.Error(), "panicked: schedule constructor broke") ||
			!strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("replay=%v: Wait() = %v, want the panic and its stack", replayLog != nil, err)
		}
		if st := s.Status(); st != StatusFailed {
			t.Fatalf("replay=%v: status %q, want %q", replayLog != nil, st, StatusFailed)
		}
	}
}

// TestControlPanicFailsSession: a control whose application panics fails
// the session, and the Control call that sent it returns an error
// instead of waiting for a reply that never comes.
func TestControlPanicFailsSession(t *testing.T) {
	t.Parallel()
	// Pace 1 holds the first window for a second, so the control is
	// applied before any simulation; a nil window engine makes the jam
	// control panic.
	sp := spec.SessionSpec{Protocol: spec.ProtocolSpec{Name: "exp-bb"}, Lambda: 0.2, Seed: 3, Window: 32, Pace: 1}
	if err := sp.Validate(spec.Limits{}); err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(sp)
	if err != nil {
		t.Fatal(err)
	}
	e.win = nil
	s := start(context.Background(), sp, e, nil, nil)
	msg, err := spec.ParseControl("jam on")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Control(ctx, msg); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Control = %v, want the session's end", err)
	}
	if err := s.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Wait() = %v, want the panic", err)
	}
	if st := s.Status(); st != StatusFailed {
		t.Fatalf("status %q, want %q", st, StatusFailed)
	}
}
