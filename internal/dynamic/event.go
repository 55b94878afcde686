package dynamic

import (
	"sort"

	"repro/internal/kernel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// This file implements the event-driven engine for windowed
// (back-on/back-off) protocols under dynamic arrivals.
//
// Windowed stations are oblivious to the channel: protocol.WindowStation
// ignores all feedback, and a station leaves only when its own
// transmission succeeds. Each station's transmission slots therefore form
// an independent stochastic process — one uniformly chosen slot per
// window of its private schedule — and the channel matters only at slots
// where at least one station transmits. Instead of driving every active
// station through every slot (O(active) per slot, as internal/sim does),
// the engine keeps every station's next transmission slot in a
// kernel.Calendar timing wheel and jumps from occupied slot to occupied
// slot in amortized O(1) per event. Silent slots are never visited, which
// is what makes million-message Poisson workloads feasible.
//
// The jump is exact in distribution: a success happens exactly when a
// popped slot carries one transmitter, a collision reschedules each
// collider into its next window, and no other information flows between
// stations. Statistical agreement with the per-node simulator is enforced
// by Kolmogorov–Smirnov tests in event_test.go, mirroring how
// internal/engine validates its aggregate engines.
//
// WindowEngine is the one copy of that loop. Batch runs (RunWindowEvent)
// add every station up front and step to their slot budget;
// internal/session adds each aggregation window's arrivals when the
// window opens and steps to the window's last slot.

// WindowEngine is the windowed event engine, steppable to any slot. Its
// four operations are NewWindowEngine, Add, StepTo and Swap. The draw
// order is a pure function of the call sequence: each Add draws the new
// station's schedule and first window, StepTo redraws colliders in
// calendar pop order, and Swap redraws the backlog in arrival order.
type WindowEngine struct {
	src      *rng.Rand
	newSched func() (protocol.Schedule, error)
	clock    Clock
	jammed   func(slot uint64) bool
	cal      *kernel.Calendar
	group    []int32 // reusable PopGroup buffer

	// stations is indexed by calendar id. A delivered station's entry
	// goes on free for the next Add, so memory follows the peak backlog
	// rather than the number of arrivals.
	stations []windowStation
	free     []int32
}

// windowStation is one backlogged message: its private window schedule
// position in global slot coordinates and its arrival.
type windowStation struct {
	sched protocol.Schedule
	// windowEnd is the last slot of the most recently drawn window.
	windowEnd uint64
	arrival   uint64
}

// next draws the station's next window and returns its uniformly chosen
// transmission slot, via the same protocol.DrawWindow primitive
// WindowStation uses.
func (st *windowStation) next(src *rng.Rand) (uint64, error) {
	end, chosen, err := protocol.DrawWindow(st.sched, st.windowEnd, src)
	if err != nil {
		return 0, err
	}
	st.windowEnd = end
	return chosen, nil
}

// NewWindowEngine opens an empty engine: newSched builds one private
// schedule per station, clock sets how an added station's first window
// aligns, and jammed (nil for a clean channel) is the jam mask.
func NewWindowEngine(newSched func() (protocol.Schedule, error), src *rng.Rand, clock Clock, jammed func(slot uint64) bool) *WindowEngine {
	return &WindowEngine{
		src:      src,
		newSched: newSched,
		clock:    clock,
		jammed:   jammed,
		cal:      kernel.NewCalendar(),
	}
}

// SetJammer replaces the jam mask for every slot not yet stepped.
func (e *WindowEngine) SetJammer(jammed func(slot uint64) bool) { e.jammed = jammed }

// Backlog returns the number of undelivered stations.
func (e *WindowEngine) Backlog() int { return len(e.stations) - len(e.free) }

// Add admits a message arriving at slot arrival, which must not precede
// the last slot stepped. As in the per-node simulator, a station on the
// local clock opens its first window at its arrival slot; on the global
// clock it fast-forwards through the windows that elapsed before its
// arrival and misses a chosen slot already in the past. Delivery latency
// is measured from arrival as given; an arrival of 0 is scheduled as 1.
func (e *WindowEngine) Add(arrival uint64) error {
	sched, err := e.newSched()
	if err != nil {
		return err
	}
	st := windowStation{sched: sched, arrival: arrival}
	start := max(arrival, 1)
	var slot uint64
	if e.clock == ClockLocal {
		st.windowEnd = start - 1
		slot, err = st.next(e.src)
	} else {
		for slot < start && err == nil {
			slot, err = st.next(e.src)
		}
	}
	if err != nil {
		return err
	}
	id := int32(len(e.stations))
	if n := len(e.free); n > 0 {
		id, e.free = e.free[n-1], e.free[:n-1]
		e.stations[id] = st
	} else {
		e.stations = append(e.stations, st)
	}
	e.cal.Schedule(slot, id)
	return nil
}

// StepTo advances the channel through slot end, visiting only occupied
// slots. A lone transmitter on an unjammed slot is delivered: deliver
// receives its arrival and the delivery slot, and the station leaves.
// Otherwise every transmitter redraws into its next window, in pop order.
// StepTo returns the number of such collision slots. The calendar never
// scans past end, so stations arriving after end can still be added.
func (e *WindowEngine) StepTo(end uint64, deliver func(arrival, slot uint64)) (collisions uint64, err error) {
	for {
		if _, ok := e.cal.PeekWithin(end); !ok {
			return collisions, nil
		}
		var slot uint64
		slot, e.group = e.cal.PopGroup(e.group)
		// A jammed slot destroys even a lone transmission (adversarial
		// noise); the transmitters perceive a collision and reschedule.
		// Jammed slots nobody occupies are never visited, which is sound:
		// windowed stations are oblivious to feedback they don't cause.
		if len(e.group) == 1 && !(e.jammed != nil && e.jammed(slot)) {
			id := e.group[0]
			deliver(e.stations[id].arrival, slot)
			e.free = append(e.free, id)
			continue
		}
		collisions++
		for _, id := range e.group {
			next, err := e.stations[id].next(e.src)
			if err != nil {
				return collisions, err
			}
			e.cal.Schedule(next, id)
		}
	}
}

// Swap hot-swaps the protocol at boundary slot from: every backlogged
// station gets a fresh schedule from newSched whose first window opens at
// from, redrawn in arrival order into a fresh calendar (pending attempts
// under the old schedules are void, and a timing wheel has no delete).
func (e *WindowEngine) Swap(newSched func() (protocol.Schedule, error), from uint64) error {
	e.newSched = newSched
	delivered := make([]bool, len(e.stations))
	for _, id := range e.free {
		delivered[id] = true
	}
	ids := make([]int32, 0, e.Backlog())
	for id := range e.stations {
		if !delivered[id] {
			ids = append(ids, int32(id))
		}
	}
	// Stations that arrived in the same slot are interchangeable once
	// redrawn, so ties need only some fixed order: the calendar id.
	sort.Slice(ids, func(i, j int) bool {
		a, b := e.stations[ids[i]].arrival, e.stations[ids[j]].arrival
		return a < b || (a == b && ids[i] < ids[j])
	})
	e.cal = kernel.NewCalendar()
	for _, id := range ids {
		st := &e.stations[id]
		sched, err := newSched()
		if err != nil {
			return err
		}
		st.sched = sched
		st.windowEnd = from - 1
		slot, err := st.next(e.src)
		if err != nil {
			return err
		}
		e.cal.Schedule(slot, id)
	}
	return nil
}

// RunWindowEvent executes a dynamic workload under a windowed protocol on
// the event-driven engine; newSched builds one private schedule per
// station. It accepts the same options and produces results distributed
// identically to RunWindow, but costs amortized O(1) per transmission
// event instead of O(active) per slot, scaling dynamic workloads to
// millions of messages.
func RunWindowEvent(w Workload, newSched func() (protocol.Schedule, error), src *rng.Rand, opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	eng := NewWindowEngine(newSched, src, cfg.clock, cfg.jammed)
	// Every station is added up front, so size the slab and free list once.
	eng.stations = make([]windowStation, 0, w.N())
	eng.free = make([]int32, 0, w.N())
	for _, arrival := range w.Arrivals {
		if err := eng.Add(arrival); err != nil {
			return Result{}, err
		}
	}

	// Backlog bookkeeping: the backlog changes only at arrivals and
	// deliveries, so its maximum is reached right after admitting every
	// arrival up to a delivery slot (or the end of the budget).
	var res Result
	sorted := make([]uint64, w.N())
	copy(sorted, w.Arrivals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	arrived := 0
	admit := func(upTo uint64) {
		for arrived < len(sorted) && sorted[arrived] <= upTo {
			arrived++
			// Departures only shrink the backlog between admits, so each
			// new maximum is reached exactly at the admitted arrival.
			if b := arrived - res.Delivered; b > res.MaxBacklog {
				res.MaxBacklog = b
				res.PeakBacklogSlot = sorted[arrived-1]
			}
		}
	}

	var err error
	res.Collisions, err = eng.StepTo(cfg.maxSlots, func(arrival, slot uint64) {
		admit(slot)
		res.Delivered++
		res.Completion = slot
		res.Latency.Add(float64(slot - arrival + 1))
	})
	if err != nil {
		return Result{}, err
	}
	if eng.Backlog() > 0 {
		// Budget exhausted: report partial results, as RunWindow does.
		admit(cfg.maxSlots)
		res.Completion = 0
		return res, nil
	}
	res.Completed = true
	return res, nil
}
