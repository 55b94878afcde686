// The session engine: an unbounded dynamic simulation advanced one
// aggregation window at a time on dynamic.WindowEngine, the windowed
// event engine batch runs use too. This file adds only what is
// session-specific: per-window arrivals, controls and aggregation.
//
// Determinism is the load-bearing property. A session draws from ONE
// rng stream in a strict order fixed entirely by (seed, validated
// spec, slot-stamped control log):
//
//  1. At each window open, the Poisson arrival count for the window,
//     then one uniform slot per arrival.
//  2. Schedule seeding per arrival in ascending arrival-slot order
//     (ties broken by draw order, which the sort keeps stable).
//  3. Collision redraws in calendar pop order, which is itself
//     deterministic.
//
// Content controls apply only at window boundaries — the engine stamps
// each with the first slot of the next unsimulated window — so a
// control's effect is a pure function of its stamped slot, never of
// wall-clock arrival time. Pause, resume, checkpoint and pacing
// consume no randomness and cannot move any stamped slot... except
// that pausing delays which window the *next* control lands in; that
// is recorded faithfully by the stamp itself, so replay agrees.
//
// Arrivals are generated lazily per window, so the engine steps the
// channel only to the current window's last slot: later arrivals stay
// schedulable (dynamic.WindowEngine.StepTo never scans past its end).

package session

import (
	"fmt"
	"sort"

	"repro/internal/dynamic"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/stats"
)

// engine is the deterministic simulation core, shared verbatim by live
// sessions and replay.
type engine struct {
	src *rng.Rand
	win *dynamic.WindowEngine

	lambda float64
	window uint64 // aggregation window length in slots

	next      uint64 // first slot of the next unsimulated window
	widx      int    // next window index
	delivered uint64
}

// newEngine builds the engine for a validated spec. Stations run on
// their local clocks (the default dynamic deployment): the first window
// opens at the arrival slot.
func newEngine(sp spec.SessionSpec) (*engine, error) {
	newSched, err := windowSchedules(sp.Protocol)
	if err != nil {
		return nil, err
	}
	src := rng.NewStream(sp.Seed, "session")
	return &engine{
		src:    src,
		win:    dynamic.NewWindowEngine(newSched, src, dynamic.ClockLocal, sp.Jam.Mask()),
		lambda: sp.Lambda,
		window: uint64(sp.Window),
		next:   1,
	}, nil
}

// windowSchedules resolves a protocol spec to its windowed schedule
// constructor, rejecting fair protocols (spec validation already has;
// this guards the library path).
func windowSchedules(p spec.ProtocolSpec) (func() (protocol.Schedule, error), error) {
	sys, err := harness.SystemBySpec(p.Name, p.Params)
	if err != nil {
		return nil, err
	}
	ws, ok := sys.(*harness.WindowSystem)
	if !ok {
		return nil, fmt.Errorf("session: %q is not a windowed protocol", p.Name)
	}
	return func() (protocol.Schedule, error) { return ws.NewSchedule(0) }, nil
}

// apply executes one content control at the current window boundary.
// It is the single code path live control handling and replay share —
// which is what makes the stamped log sufficient for bit-identical
// reproduction.
func (e *engine) apply(msg spec.ControlMessage) error {
	switch msg.Type {
	case spec.ControlSetLambda:
		e.lambda = msg.Lambda
	case spec.ControlJam:
		e.win.SetJammer(msg.Jam.Mask())
	case spec.ControlSwapProtocol:
		// Every backlogged station redraws its schedule under the new
		// protocol from the boundary slot on, in arrival order.
		newSched, err := windowSchedules(*msg.Protocol)
		if err != nil {
			return err
		}
		return e.win.Swap(newSched, e.next)
	case spec.ControlStop:
		// Termination is decided by the caller; nothing to simulate.
	default:
		return fmt.Errorf("session: control %q is not a content control", msg.Type)
	}
	return nil
}

// simulateWindow advances the session by one aggregation window and
// returns its aggregate event.
func (e *engine) simulateWindow() (spec.SessionWindow, error) {
	start := e.next
	end := start + e.window - 1
	agg := spec.SessionWindow{
		Event:  "window",
		Window: e.widx,
		Start:  start,
		Slots:  int(e.window),
		Lambda: e.lambda,
	}
	var lat stats.Summary

	// Arrivals: the Poisson count for the window, then one uniform slot
	// each, sorted so stations are added in arrival order.
	n := e.src.Poisson(e.lambda * float64(e.window))
	if n > 0 {
		slots := make([]uint64, n)
		for i := range slots {
			slots[i] = start + e.src.Uint64n(e.window)
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		for _, arrival := range slots {
			if err := e.win.Add(arrival); err != nil {
				return agg, err
			}
		}
		agg.Arrivals = n
	}

	collisions, err := e.win.StepTo(end, func(arrival, slot uint64) {
		lat.Add(float64(slot - arrival + 1))
		agg.Delivered++
	})
	if err != nil {
		return agg, err
	}

	e.next = end + 1
	e.widx++
	e.delivered += uint64(agg.Delivered)
	agg.Collisions = int(collisions)
	agg.Backlog = e.win.Backlog()
	agg.Throughput = float64(agg.Delivered) / float64(e.window)
	if agg.Delivered > 0 {
		agg.LatencyP99 = lat.Quantile(0.99)
	}
	return agg, nil
}
