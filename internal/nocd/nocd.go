// Package nocd implements contention-resolution protocols from the
// no-collision-detection literature that the paper's related work
// cites — channels on which a station learns only of successes (its
// own delivery acknowledgement, or an overheard reception): silence
// and collision are indistinguishable, and no ternary feedback exists.
//
// Three protocol families are modeled, each named for the paper whose
// core mechanism it implements (in the spirit of internal/cd's
// "Willard-style" leader election — faithful to the published
// mechanism, not a line-by-line transcription):
//
//   - Cascade (Bender–Kuszmaul 2020, "Contention Resolution Without
//     Collision Detection"): a fair oblivious probability cascade.
//     Time is split into epochs; epoch e sweeps transmission
//     probabilities β⁰ > β⁻¹ > … > β^-(e-1), dwelling ~βⁱ slots at
//     probability β⁻ⁱ, then restarts one level deeper. Every epoch
//     revisits the high-probability levels, so late arrivals and
//     stragglers are never starved — the restart structure that makes
//     cascades robust without any channel feedback at all.
//
//   - RepetitionLadder (Chen–Jiang–Zheng 2021, tight trade-off):
//     a windowed back-off ladder with a repetition knob θ. Phase i
//     repeats windows of 2ⁱ slots ⌈iᶿ⌉ times before doubling. θ tunes
//     the paper's tight trade-off between completion time and
//     per-station channel accesses: higher θ spends more (redundant)
//     attempts per window size, buying reliability under disruption
//     for a log-power factor of time.
//
//   - RobustLadder (Jiang–Zheng 2021, robust/optimal): a fair
//     adaptive protocol whose only clock is success. It transmits
//     with probability 2^-L; a success steps the level down (the
//     channel got lighter), and a patience of ⌈c·2^L⌉ consecutive
//     quiet slots steps it up — on a channel without collision
//     detection, a quiet stretch is the only evidence of being at the
//     wrong level, and backing off is the jamming-safe response.
//
// All three run on the per-slot ground-truth simulator (internal/sim)
// via the standard protocol adapters, and all three declare event-skip
// contracts: Cascade and RobustLadder implement
// protocol.SkipController (their probabilities are piecewise constant
// between state changes), and RepetitionLadder is a windowed schedule
// that dynamic.WindowEngine drives event by event. KS tests in
// this package hold the fast paths to the per-slot reference
// distributions.
package nocd

import (
	"fmt"
	"math"

	"repro/internal/protocol"
)

// Parameter defaults and bounds.
const (
	// DefaultCascadeBase is the cascade's probability/dwell base β.
	DefaultCascadeBase = 2.0
	// CascadeBaseMax bounds β; beyond it levels are too coarse to ever
	// match a density.
	CascadeBaseMax = 16.0

	// DefaultLadderTheta is the repetition ladder's trade-off exponent.
	DefaultLadderTheta = 1.0
	// LadderThetaMax bounds θ; beyond it repetition dominates runtime.
	LadderThetaMax = 4.0

	// DefaultRobustPatience is the robust ladder's patience multiplier c.
	DefaultRobustPatience = 4.0
	// RobustPatienceMax bounds c.
	RobustPatienceMax = 64.0

	// maxLevel caps ladder/cascade levels so 2^L arithmetic stays in
	// uint64 range; no feasible simulation climbs this far.
	maxLevel = 62
)

// Cascade is the Bender–Kuszmaul-style fair oblivious probability
// cascade. It implements protocol.Controller and
// protocol.SkipController. The zero value is not usable; create
// instances with NewCascade. A Cascade is stateful (it tracks its
// position in the slot→level map) and single-use.
type Cascade struct {
	base float64

	epoch    int     // current epoch e ≥ 1; epoch e sweeps levels 0..e-1
	level    int     // current level i within the epoch
	levelEnd uint64  // last slot of the current level
	prob     float64 // β^-level, the level's transmission probability
	cursor   uint64  // next unobserved slot (event-skip contract)
}

// NewCascade returns a cascade with base β = base. It returns an error
// unless 1 < β ≤ CascadeBaseMax.
func NewCascade(base float64) (*Cascade, error) {
	if !(base > 1 && base <= CascadeBaseMax) {
		return nil, fmt.Errorf("nocd: cascade requires 1 < β ≤ %v, got %v", CascadeBaseMax, base)
	}
	return &Cascade{base: base, epoch: 1, level: 0, levelEnd: 1, prob: 1, cursor: 1}, nil
}

// Base returns the protocol parameter β.
func (c *Cascade) Base() float64 { return c.base }

// dwell returns the slot count of level i: ⌈βⁱ⌉.
func (c *Cascade) dwell(i int) uint64 {
	return uint64(math.Ceil(math.Pow(c.base, float64(i))))
}

// advanceTo moves the level position forward until it covers slot. The
// slot→level map is deterministic and oblivious to channel feedback,
// so advancing is pure bookkeeping.
func (c *Cascade) advanceTo(slot uint64) {
	for slot > c.levelEnd {
		c.level++
		if c.level >= c.epoch {
			c.epoch++
			c.level = 0
		}
		c.levelEnd += c.dwell(c.level)
		c.prob = math.Pow(c.base, -float64(c.level))
	}
}

// Prob implements protocol.Controller.
func (c *Cascade) Prob(slot uint64) float64 {
	c.advanceTo(slot)
	return c.prob
}

// Observe implements protocol.Controller. The cascade is oblivious:
// feedback never changes its schedule, only the cursor advances.
func (c *Cascade) Observe(slot uint64, success bool) {
	c.advanceTo(slot)
	c.cursor = slot + 1
}

// SkipPhase implements protocol.SkipController: the phase is the
// remainder of the current level, over which the probability is one
// constant.
func (c *Cascade) SkipPhase(slot uint64) protocol.SkipPhase {
	c.advanceTo(slot)
	return protocol.SkipPhase{
		End:       c.levelEnd,
		RegularLo: c.prob,
		RegularHi: c.prob,
	}
}

// ProbQuiet implements protocol.SkipController. Within a phase the
// probability is the level constant.
func (c *Cascade) ProbQuiet(s uint64) float64 { return c.prob }

// SkipTo implements protocol.SkipController: quiet slots carry no
// state beyond the position, so skipping is pure bookkeeping.
func (c *Cascade) SkipTo(s uint64) {
	if s > c.cursor {
		c.advanceTo(s)
		c.cursor = s
	}
}

// RepetitionLadder is the Chen–Jiang–Zheng-style windowed schedule:
// phase i emits ⌈iᶿ⌉ windows of 2ⁱ slots. It implements
// protocol.Schedule; stations adapted via protocol.NewWindowStation
// are channel-oblivious (ack-only), so the windowed event engine
// (dynamic.WindowEngine) skips their silent slots. Create instances
// with NewRepetitionLadder.
type RepetitionLadder struct {
	theta float64
	phase int // current phase i; window size 2^i
	reps  int // windows remaining in the current phase
}

// NewRepetitionLadder returns a ladder with trade-off exponent
// θ = theta. It returns an error unless 0 ≤ θ ≤ LadderThetaMax.
func NewRepetitionLadder(theta float64) (*RepetitionLadder, error) {
	if !(theta >= 0 && theta <= LadderThetaMax) {
		return nil, fmt.Errorf("nocd: repetition ladder requires 0 ≤ θ ≤ %v, got %v", LadderThetaMax, theta)
	}
	return &RepetitionLadder{theta: theta}, nil
}

// Theta returns the protocol parameter θ.
func (l *RepetitionLadder) Theta() float64 { return l.theta }

// Phase returns the current phase index i (0 before the first window).
func (l *RepetitionLadder) Phase() int { return l.phase }

// NextWindow implements protocol.Schedule.
func (l *RepetitionLadder) NextWindow() int {
	if l.reps == 0 {
		l.phase++
		l.reps = int(math.Ceil(math.Pow(float64(l.phase), l.theta)))
		if l.reps < 1 {
			l.reps = 1
		}
	}
	l.reps--
	i := l.phase
	if i > 30 {
		i = 30 // cap the window so int arithmetic cannot overflow
	}
	return 1 << i
}

// RobustLadder is the Jiang–Zheng-style fair success-clocked ladder.
// It implements protocol.Controller and protocol.SkipController.
// Create instances with NewRobustLadder; a ladder is stateful and
// single-use.
type RobustLadder struct {
	patience float64

	level  int    // L: transmission probability 2^-L
	quiet  uint64 // consecutive quiet slots since the last state change
	cursor uint64 // next unobserved slot (event-skip contract)
}

// NewRobustLadder returns a ladder with patience multiplier
// c = patience. It returns an error unless 1 ≤ c ≤ RobustPatienceMax.
func NewRobustLadder(patience float64) (*RobustLadder, error) {
	if !(patience >= 1 && patience <= RobustPatienceMax) {
		return nil, fmt.Errorf("nocd: robust ladder requires 1 ≤ c ≤ %v, got %v", RobustPatienceMax, patience)
	}
	return &RobustLadder{patience: patience, cursor: 1}, nil
}

// Patience returns the protocol parameter c.
func (l *RobustLadder) Patience() float64 { return l.patience }

// Level returns the current probability level L.
func (l *RobustLadder) Level() int { return l.level }

// threshold returns the quiet-slot patience at the current level,
// ⌈c·2^L⌉.
func (l *RobustLadder) threshold() uint64 {
	return uint64(math.Ceil(l.patience * math.Exp2(float64(l.level))))
}

// prob returns the current transmission probability 2^-L.
func (l *RobustLadder) prob() float64 { return math.Exp2(-float64(l.level)) }

// stepUp raises the level after patience runs out.
func (l *RobustLadder) stepUp() {
	if l.level < maxLevel {
		l.level++
	}
	l.quiet = 0
}

// Prob implements protocol.Controller.
func (l *RobustLadder) Prob(slot uint64) float64 { return l.prob() }

// Observe implements protocol.Controller: a success steps the level
// down and resets the quiet clock; a quiet slot advances the clock and
// steps the level up when patience ⌈c·2^L⌉ runs out.
func (l *RobustLadder) Observe(slot uint64, success bool) {
	l.cursor = slot + 1
	if success {
		if l.level > 0 {
			l.level--
		}
		l.quiet = 0
		return
	}
	l.quiet++
	if l.quiet >= l.threshold() {
		l.stepUp()
	}
}

// SkipPhase implements protocol.SkipController: the phase runs until
// the quiet clock would hit the patience threshold (the slot whose
// quiet observation steps the level up), over one constant
// probability.
func (l *RobustLadder) SkipPhase(slot uint64) protocol.SkipPhase {
	p := l.prob()
	return protocol.SkipPhase{
		End:       slot + (l.threshold() - l.quiet) - 1,
		RegularLo: p,
		RegularHi: p,
	}
}

// ProbQuiet implements protocol.SkipController. Within a phase the
// probability is constant.
func (l *RobustLadder) ProbQuiet(s uint64) float64 { return l.prob() }

// SkipTo implements protocol.SkipController: quiet slots only advance
// the clock, and the phase bound guarantees at most one threshold
// crossing, exactly at the phase boundary.
func (l *RobustLadder) SkipTo(s uint64) {
	if s <= l.cursor {
		return
	}
	l.quiet += s - l.cursor
	l.cursor = s
	if l.quiet >= l.threshold() {
		l.stepUp()
	}
}

// Compile-time interface conformance checks.
var (
	_ protocol.SkipController = (*Cascade)(nil)
	_ protocol.Schedule       = (*RepetitionLadder)(nil)
	_ protocol.SkipController = (*RobustLadder)(nil)
)
