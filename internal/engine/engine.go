// Package engine provides scalable simulators for the two protocol
// families, exact in distribution with respect to the per-node simulator
// in internal/sim.
//
// # Why aggregation is exact
//
// Fair protocols (One-Fail Adaptive, Log-Fails Adaptive): every active
// station transmits with the same probability p each slot, and the shared
// state evolves only on globally observable events. With m active
// stations the slot is successful with probability
//
//	P₁(m, p) = m·p·(1−p)^(m−1),
//
// and the system state (m, controller state) is a Markov chain whose
// transitions depend only on whether the slot succeeded. By symmetry the
// identity of the deliverer is irrelevant to the completion time, so
// sampling success ~ Bernoulli(P₁) per slot reproduces the completion-time
// distribution of the per-node simulation exactly.
//
// Windowed protocols (Exp Back-on/Back-off, the back-off family): within
// one window of w slots, each of the m active stations picks one slot
// uniformly at random — m balls thrown into w bins. Deliveries are the
// bins with exactly one ball. The joint bin occupancy (N₁,…,N_w) is
// multinomial and can be sampled bin-by-bin in slot order as
//
//	N_j ~ Binomial(m − Σ_{i<j} N_i, 1/(w−j+1)),
//
// costing O(w) binomial draws, ball-by-ball costing O(m) uniform draws,
// or — for saturated windows — by drawing the singleton count directly
// from its inclusion–exclusion distribution in O(1) (kernel.Window picks
// the cheapest exact sampler per window). Stations that deliver
// leave at their chosen slot and do not affect others' already-made
// choices, so per-window aggregation is exact, including the slot index
// of the final delivery.
//
// Statistical agreement between these engines and internal/sim is
// enforced by the tests in this package (Kolmogorov–Smirnov tests on
// completion-time distributions, plus closed-form cases).
package engine

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// ErrSlotLimit is returned when an execution exceeds its slot budget
// before all messages are delivered.
var ErrSlotLimit = errors.New("engine: slot limit exceeded before all messages were delivered")

// DefaultMaxSlots is the default execution cap. Every protocol in this
// repository completes k = 10⁷ within ~1.5·10⁸ slots; the cap only exists
// to terminate livelocked protocols under test.
const DefaultMaxSlots = 10_000_000_000

// FairRun simulates static k-selection under the fair protocol ctrl and
// returns the number of slots until the k-th delivery. maxSlots of 0
// means DefaultMaxSlots.
//
// Controllers that implement protocol.SkipController (One-Fail Adaptive,
// Log-Fails Adaptive) run on the event-skip kernel: O(1) work per
// delivery and per controller phase, independent of the number of silent
// slots. Other controllers fall back to the per-slot reference loop
// FairRunSlot. The two paths consume randomness differently but are
// identical in distribution (enforced by KS tests in this package).
func FairRun(k int, ctrl protocol.Controller, src *rng.Rand, maxSlots uint64) (uint64, error) {
	if maxSlots == 0 {
		maxSlots = DefaultMaxSlots
	}
	if sc, ok := ctrl.(protocol.SkipController); ok {
		slots, err := kernel.FairRun(k, sc, src, maxSlots)
		if err != nil && errors.Is(err, kernel.ErrSlotLimit) {
			err = fmt.Errorf("%w (%v)", ErrSlotLimit, err)
		}
		return slots, err
	}
	return FairRunSlot(k, ctrl, src, maxSlots)
}

// FairRunSlot is the per-slot reference implementation of FairRun: O(1)
// work per slot. It remains exported as the distributional reference the
// event-skip path is validated against, and as the driver for controllers
// without skip-safe phases. maxSlots of 0 means DefaultMaxSlots.
func FairRunSlot(k int, ctrl protocol.Controller, src *rng.Rand, maxSlots uint64) (uint64, error) {
	if k < 0 {
		return 0, fmt.Errorf("engine: negative k %d", k)
	}
	if maxSlots == 0 {
		maxSlots = DefaultMaxSlots
	}
	m := k
	if m == 0 {
		return 0, nil
	}
	for slot := uint64(1); slot <= maxSlots; slot++ {
		p := ctrl.Prob(slot)
		success := src.Bernoulli(kernel.SuccessProb(m, p))
		if success {
			m--
		}
		ctrl.Observe(slot, success)
		if m == 0 {
			return slot, nil
		}
	}
	return 0, fmt.Errorf("%w (limit %d, remaining %d of %d)", ErrSlotLimit, maxSlots, m, k)
}

// WindowResult reports one window of a windowed execution, for tracing
// and tests.
type WindowResult struct {
	Window    int // window length in slots
	Active    int // stations active at the window start
	Delivered int // singleton slots in this window
	LastSlot  int // 1-based slot index within the window of the last delivery, 0 if none
}

// WindowRunner simulates windowed protocols. The zero value is ready to
// use; reusing a runner across executions amortizes its scratch buffers
// (which reach O(max window) size).
//
// Window sampling is delegated to kernel.Window, which picks per window
// among an O(m) ball-by-ball sampler, an O(w) binomial-chain sampler, and
// an O(1) direct draw of the singleton count for saturated windows — all
// exact in distribution (see internal/kernel).
type WindowRunner struct {
	occ   kernel.Window
	trace func(WindowResult)
}

// SetTrace installs a per-window callback (nil disables tracing).
func (r *WindowRunner) SetTrace(fn func(WindowResult)) { r.trace = fn }

// Run simulates static k-selection under the windowed protocol sched and
// returns the number of slots until the k-th delivery. maxSlots of 0
// means DefaultMaxSlots.
func (r *WindowRunner) Run(k int, sched protocol.Schedule, src *rng.Rand, maxSlots uint64) (uint64, error) {
	if k < 0 {
		return 0, fmt.Errorf("engine: negative k %d", k)
	}
	if maxSlots == 0 {
		maxSlots = DefaultMaxSlots
	}
	m := k
	if m == 0 {
		return 0, nil
	}
	base := uint64(0) // slots consumed by completed windows
	for {
		w := sched.NextWindow()
		if w < 1 {
			return 0, fmt.Errorf("engine: schedule %T returned window %d < 1", sched, w)
		}
		if base+uint64(w) > maxSlots {
			return 0, fmt.Errorf("%w (limit %d, remaining %d of %d)", ErrSlotLimit, maxSlots, m, k)
		}
		delivered, last := r.occ.Step(m, w, src)
		m -= delivered
		if r.trace != nil {
			r.trace(WindowResult{Window: w, Active: m + delivered, Delivered: delivered, LastSlot: last})
		}
		if m == 0 {
			return base + uint64(last), nil
		}
		base += uint64(w)
	}
}

// ExactFairRun runs the fair protocol via the per-node simulator in
// internal/sim, with one private controller per station built by
// newCtrl. It exists for cross-validation and small-scale studies.
func ExactFairRun(k int, newCtrl func() protocol.Controller, src *rng.Rand, maxSlots uint64) (uint64, error) {
	stations := make([]protocol.Station, k)
	for i := range stations {
		stations[i] = protocol.NewFairStation(newCtrl())
	}
	return exactRun(stations, src, maxSlots)
}

// ExactWindowRun runs the windowed protocol via the per-node simulator in
// internal/sim, with one private schedule per station built by newSched.
func ExactWindowRun(k int, newSched func() protocol.Schedule, src *rng.Rand, maxSlots uint64) (uint64, error) {
	stations := make([]protocol.Station, k)
	for i := range stations {
		stations[i] = protocol.NewWindowStation(newSched())
	}
	return exactRun(stations, src, maxSlots)
}
