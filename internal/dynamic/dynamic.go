// Package dynamic explores the paper's stated future work (§6): the
// dynamic version of k-selection where messages arrive over time rather
// than in a single batch, under statistical (Poisson) or adversarial
// (bursty) arrivals.
//
// The paper's protocols are specified for batched arrivals; two dynamic
// deployments are explored here, selected by Clock:
//
//   - ClockLocal (default): each station runs its protocol on a local
//     clock started at its own message arrival ("upon message arrival
//     do …" in Algorithm 1). Stations are unsynchronized. This exposes a
//     genuine hazard of One-Fail Adaptive outside its batched model: its
//     BT-step transmits with probability 1 while σ = 0, so once both
//     arrival-parity classes hold two or more fresh stations, every slot
//     carries two guaranteed transmitters and the channel livelocks
//     (Result.Completed reports this).
//
//   - ClockGlobal: stations share the channel's global slot numbering
//     (as in a TDMA deployment), which keeps the AT/BT step parity
//     network-wide and avoids the cross-parity livelock.
//
// Stations are no longer state-synchronized either way, so a fair
// protocol still costs one coin per active station per slot. RunFair
// draws those coins in the per-node simulator's order, byte-identical to
// sim.Run, but reads each station's probability from its cached
// protocol.SkipPhase and calls the controller only at phase ends and
// successes (see fair.go); it is meant for moderate sizes. RunMixed
// keeps the per-node simulator for heterogeneous populations and is
// RunFair's oracle. Windowed (back-off) protocols are oblivious to the
// channel between their own transmissions, which admits an event-driven
// fast path: WindowEngine keeps every station's next transmission in a
// kernel.Calendar timing wheel and jumps between occupied slots in
// amortized O(1) per event, scaling dynamic workloads to millions of
// messages while remaining exact in distribution (see event.go).
// RunWindowEvent steps it to completion; internal/session steps it one
// aggregation window at a time.
package dynamic

import (
	"errors"
	"fmt"

	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Clock selects how a station maps channel slots to protocol steps.
type Clock uint8

// Clock modes.
const (
	// ClockLocal starts each station's step counter at its own arrival.
	ClockLocal Clock = iota
	// ClockGlobal uses the channel's slot number as every station's step
	// counter.
	ClockGlobal
)

// Workload is a dynamic arrival pattern: Arrivals[i] is the slot (1-based)
// at which message i arrives at its station.
type Workload struct {
	Arrivals []uint64
}

// N returns the number of messages.
func (w Workload) N() int { return len(w.Arrivals) }

// Span returns the last arrival slot (0 for an empty workload).
func (w Workload) Span() uint64 {
	var max uint64
	for _, a := range w.Arrivals {
		if a > max {
			max = a
		}
	}
	return max
}

// DrainBudget returns the standard slot budget for draining the
// workload: its arrival span plus 64 slots per message plus fixed
// slack — enough for any stable protocol to finish while terminating
// saturated runs. The throughput sweep and the adaptive adversary's
// pilot executions share this heuristic.
func (w Workload) DrainBudget() uint64 {
	return w.Span() + 64*uint64(w.N()) + 10_000
}

// Batch returns the paper's static workload: n messages all arriving at
// slot 1.
func Batch(n int) Workload {
	arrivals := make([]uint64, n)
	for i := range arrivals {
		arrivals[i] = 1
	}
	return Workload{Arrivals: arrivals}
}

// PoissonArrivals returns n messages whose arrival slots follow a Poisson
// process with the given expected arrivals per slot (rate > 0).
func PoissonArrivals(n int, rate float64, src *rng.Rand) (Workload, error) {
	if rate <= 0 {
		return Workload{}, fmt.Errorf("dynamic: Poisson rate must be > 0, got %v", rate)
	}
	arrivals := make([]uint64, n)
	t := 0.0
	for i := range arrivals {
		t += src.ExpFloat64() / rate
		slot := uint64(t) + 1
		arrivals[i] = slot
	}
	return Workload{Arrivals: arrivals}, nil
}

// BurstArrivals returns an adversarial bursty workload: bursts batches of
// size messages each, with consecutive batches gap slots apart (the
// worst-case pattern §1 cites as frequent in practice). The pattern is
// deterministic; gap must be ≥ 1.
func BurstArrivals(bursts, size int, gap uint64) (Workload, error) {
	if bursts < 1 || size < 1 {
		return Workload{}, fmt.Errorf("dynamic: bursts and size must be ≥ 1, got %d, %d", bursts, size)
	}
	if gap == 0 {
		return Workload{}, fmt.Errorf("dynamic: burst gap must be ≥ 1, got 0")
	}
	arrivals := make([]uint64, 0, bursts*size)
	slot := uint64(1)
	for b := 0; b < bursts; b++ {
		for i := 0; i < size; i++ {
			arrivals = append(arrivals, slot)
		}
		slot += gap
	}
	return Workload{Arrivals: arrivals}, nil
}

// localClockStation runs an inner station on a clock that starts at the
// station's own arrival slot, so "communication-step 1" is its first
// active slot, preserving the protocol's AT/BT step parity per node.
type localClockStation struct {
	inner   protocol.Station
	arrival uint64
}

// WillTransmit implements protocol.Station.
func (s *localClockStation) WillTransmit(slot uint64, src *rng.Rand) bool {
	return s.inner.WillTransmit(slot-s.arrival+1, src)
}

// Feedback implements protocol.Station.
func (s *localClockStation) Feedback(slot uint64, transmitted, received bool) {
	s.inner.Feedback(slot-s.arrival+1, transmitted, received)
}

var _ protocol.Station = (*localClockStation)(nil)

// Result summarizes a dynamic execution.
type Result struct {
	// Completed reports whether every message was delivered within the
	// slot budget. It is false when the execution livelocked (see the
	// package comment) or simply ran out of budget.
	Completed bool
	// Delivered is the number of messages delivered.
	Delivered int
	// Completion is the slot at which the last message was delivered
	// (0 if not Completed).
	Completion uint64
	// Latency summarizes per-message delivery latency in slots
	// (delivery slot − arrival slot + 1; a message delivered on its
	// arrival slot has latency 1). Partial on incomplete executions.
	Latency stats.Summary
	// MaxBacklog is the largest number of simultaneously active stations.
	MaxBacklog int
	// PeakBacklogSlot is the slot at which MaxBacklog was first reached
	// (0 for an empty workload). Adaptive adversaries in
	// internal/scenario read it off pilot executions.
	PeakBacklogSlot uint64
	// Collisions counts slots on which at least one transmission was
	// lost: two or more stations transmitted, or a lone transmission was
	// destroyed by a jammer. Jammed slots nobody occupied are not
	// counted (the event engine never visits them).
	Collisions uint64
}

// config carries run options.
type config struct {
	clock    Clock
	maxSlots uint64
	jammed   func(slot uint64) bool
}

// Option configures the Run* functions.
type Option func(*config)

// WithClock selects the station clock mode (default ClockLocal).
func WithClock(c Clock) Option {
	return func(cfg *config) { cfg.clock = c }
}

// WithMaxSlots caps the execution length; incomplete executions are
// reported via Result.Completed rather than an error. The default is
// 20 million slots.
func WithMaxSlots(n uint64) Option {
	return func(cfg *config) { cfg.maxSlots = n }
}

// WithJammer injects channel impairment: any slot for which jammed
// returns true carries adversarial noise, so even a lone transmitter
// collides and delivers nothing. The predicate must be pure (same slot,
// same answer) — the event-driven engine visits only occupied slots, the
// per-node simulator visits all of them, and both must see the same
// mask. A nil predicate leaves the channel clean.
func WithJammer(jammed func(slot uint64) bool) Option {
	return func(cfg *config) { cfg.jammed = jammed }
}

// wrap applies the configured clock to a station with the given arrival.
func (cfg *config) wrap(st protocol.Station, arrival uint64) protocol.Station {
	if cfg.clock == ClockGlobal {
		return st
	}
	return &localClockStation{inner: st, arrival: arrival}
}

// RunFair executes a dynamic workload under a fair protocol; newCtrl
// builds one private controller per station. Its draws and result are
// those of RunMixed over protocol.NewFairStation, but stations on a
// constant skip phase skip their per-slot controller calls (fair.go).
func RunFair(w Workload, newCtrl func() (protocol.Controller, error), src *rng.Rand, opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	ctrls := make([]protocol.Controller, w.N())
	for i := range ctrls {
		ctrl, err := newCtrl()
		if err != nil {
			return Result{}, err
		}
		ctrls[i] = ctrl
	}
	return runFair(w, ctrls, src, cfg), nil
}

// RunWindow executes a dynamic workload under a windowed protocol;
// newSched builds one private schedule per station.
func RunWindow(w Workload, newSched func() (protocol.Schedule, error), src *rng.Rand, opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	stations := make([]protocol.Station, w.N())
	for i := range stations {
		sched, err := newSched()
		if err != nil {
			return Result{}, err
		}
		stations[i] = cfg.wrap(protocol.NewWindowStation(sched), w.Arrivals[i])
	}
	return run(w, stations, src, cfg)
}

// RunMixed executes a dynamic workload over a heterogeneous station
// population: newStation builds the station carrying message i, so
// windowed and fair stations can share one channel (the mixed-population
// scenarios of internal/scenario). Heterogeneous runs use the exact
// per-node simulator — no aggregate shortcut applies when station kinds
// differ — and are practical at moderate sizes.
func RunMixed(w Workload, newStation func(i int) (protocol.Station, error), src *rng.Rand, opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	stations := make([]protocol.Station, w.N())
	for i := range stations {
		st, err := newStation(i)
		if err != nil {
			return Result{}, err
		}
		stations[i] = cfg.wrap(st, w.Arrivals[i])
	}
	return run(w, stations, src, cfg)
}

func newConfig(opts []Option) *config {
	cfg := &config{maxSlots: 20_000_000}
	for _, opt := range opts {
		opt(cfg)
	}
	return cfg
}

func run(w Workload, stations []protocol.Station, src *rng.Rand, cfg *config) (Result, error) {
	var res Result
	simOpts := []sim.Option{
		sim.WithArrivals(w.Arrivals),
		sim.WithMaxSlots(cfg.maxSlots),
		sim.WithTrace(func(r sim.SlotRecord) {
			if r.Active > res.MaxBacklog {
				res.MaxBacklog = r.Active
				res.PeakBacklogSlot = r.Slot
			}
			// Count slots on which at least one transmission was lost: a
			// genuine collision, or any transmission destroyed by the
			// jammer. Empty jammed slots are excluded — the simulator's
			// omniscient view calls them collisions, but the event engine
			// never visits them, and the two engines must agree.
			if r.Outcome == sim.Collision && (r.Transmitters > 1 ||
				(r.Transmitters == 1 && cfg.jammed != nil && cfg.jammed(r.Slot))) {
				res.Collisions++
			}
			if r.Outcome == sim.Success {
				res.Latency.Add(float64(r.Slot - w.Arrivals[r.Deliverer] + 1))
			}
		}),
	}
	if cfg.jammed != nil {
		simOpts = append(simOpts, sim.WithJammer(cfg.jammed))
	}
	simRes, err := sim.Run(stations, src, simOpts...)
	res.Delivered = simRes.Delivered
	switch {
	case err == nil:
		res.Completed = true
		res.Completion = simRes.Slots
	case errors.Is(err, sim.ErrSlotLimit):
		// Livelock or budget exhaustion: report partial results.
	default:
		return Result{}, err
	}
	return res, nil
}
