package protocol

// This file defines the event-skip contract for fair protocols: the
// declarations that let a protocol promise "my transmission probability
// is constant (or boundedly varying) until my state changes", so that the
// kernel in internal/kernel can jump straight to the next interesting
// slot with one geometric draw instead of flipping a Bernoulli coin per
// slot.
//
// SkipController extends Controller. The controller describes the
// channel's immediate future as a SkipPhase — a stretch of slots over
// which, as long as no success occurs, the probability sequence is
// periodic with one constant "special" class and one boundedly-varying
// "regular" class. The kernel samples the next success directly: exactly
// for the constant class, by thinning (rejection against a dominating
// constant) for the varying class.
//
// Windowed protocols need no such declaration: their stations are
// channel-oblivious, so dynamic.WindowEngine draws each station's next
// attempt straight from its Schedule via DrawWindow and jumps from
// occupied slot to occupied slot.
//
// Not every protocol can skip. The tree-splitting protocols in
// internal/cd contend in every slot and mutate their group stack on every
// ternary outcome, so they have no quiet stretches to skip and
// intentionally implement no skip contract; the per-slot simulator
// remains their only driver (see internal/cd's package comment).

// SkipPhase describes a fair controller's transmission probabilities over
// the slots [start, End] under the assumption that none of those slots
// carries a success, where start is the slot passed to SkipPhase. Slots
// fall into two classes by residue mod Period:
//
//   - special: slot % Period == SpecialResidue (only when Period ≥ 2).
//     The probability on every special slot of the phase is exactly
//     SpecialProb, a constant.
//   - regular: every other slot. The probability on a regular slot s is
//     ProbQuiet(s) ∈ [RegularLo, RegularHi]. RegularLo == RegularHi
//     promises the regular class is constant too.
//
// When Period ≤ 1 there is no special class: every slot is regular.
//
// The phase ends at End (inclusive) because observing slot End without a
// success changes controller state in a way the bounds no longer cover
// (e.g. Log-Fails Adaptive's patience flush); a success anywhere in the
// phase ends it early. Either way the kernel re-requests a fresh phase.
//
// dynamic.RunFair reads a phase with a constant regular class in place
// of Prob: SpecialProb and RegularLo must then equal what Prob returns
// on those slots bit for bit, or its draws drift from the per-slot
// simulator's.
type SkipPhase struct {
	End            uint64
	Period         uint64
	SpecialResidue uint64
	SpecialProb    float64
	RegularLo      float64
	RegularHi      float64
}

// SkipController is a Controller that declares skip-safe phases, enabling
// the event-skip fair kernel (internal/kernel). Implementations maintain a
// cursor over slots: the cursor starts at slot 1 and advances past a slot
// when the slot is observed — explicitly via Observe, or in bulk via
// SkipTo. SkipPhase and ProbQuiet are always asked about slots at or ahead
// of the cursor.
//
// The contract ties the three methods to Prob/Observe semantics: for any
// slot sequence, driving the controller with Prob+Observe slot by slot and
// driving it with SkipPhase/ProbQuiet/SkipTo must yield identical states
// whenever the intervening slots carry no success.
type SkipController interface {
	Controller

	// SkipPhase returns a phase description starting at the cursor
	// (slot == cursor). The returned End must be ≥ slot.
	SkipPhase(slot uint64) SkipPhase

	// ProbQuiet returns the probability the controller would use in slot
	// s — equal to what Prob(s) would return after observing failures for
	// every slot in [cursor, s). It must not mutate state and is only
	// called for s within the current phase.
	ProbQuiet(s uint64) float64

	// SkipTo advances the cursor to slot s, updating state exactly as
	// Observe(x, false) for every x in [cursor, s) would. s is at most
	// End+1 of the current phase.
	SkipTo(s uint64)
}
