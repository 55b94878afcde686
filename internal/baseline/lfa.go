// Package baseline implements the two protocols the paper compares
// against (§5): Log-Fails Adaptive from Fernández Anta & Mosteiro (DMAA
// 2010, reference [7]) and Loglog-Iterated Back-off from Bender et al.
// (SPAA 2005, reference [2]), together with the wider monotone back-off
// family of [2] used by the examples and ablation benches.
//
// Both baselines are reconstructions: the reproduced paper describes their
// structure but not every constant of the original papers. The
// reconstruction decisions and their calibration are documented in
// DESIGN.md ("Substitutions and reconstructions") and assessed against the
// paper's Table 1 by the "Log-Fails Adaptive (2)" and "(10)" series of
// cmd/macsim's TestRunJSONGoldens, which pin that table byte for byte
// (docs/paper-map.md, "§5 Evaluation").
package baseline

import (
	"fmt"
	"math"

	"repro/internal/protocol"
)

// Log-Fails Adaptive defaults; the evaluation in §5 of the paper uses
// ξδ = ξβ = 0.1, ε ≈ 1/(k+1), and ξt ∈ {1/2, 1/10}.
const (
	DefaultLFAXiDelta = 0.1
	DefaultLFAXiBeta  = 0.1

	// lfaDelta is the δ constant of the AT algorithm of [7]; the protocol's
	// linear term is (e+1+ξ)k, so the estimator constant is e.
	lfaDelta = math.E

	// lfaPatienceFactor calibrates the estimator's lazy-update period
	// F = ⌈(factor/ξβ)·ln(1/ε)⌉ — the number of slots without communication
	// after which the pending estimator growth is applied. The constant is
	// of the same magnitude as the paper's own analysis threshold
	// τ = 300·δ·ln(1+k) (Lemma 5), and was calibrated so the simulated
	// Table 1 row reproduces the published shape (see DESIGN.md).
	lfaPatienceFactor = 300.0
)

// LogFailsAdaptive is a reconstruction of the protocol of [7] as described
// in §3 of the reproduced paper. Like One-Fail Adaptive it interleaves an
// AT algorithm (transmission probability 1/κ̃) with a BT algorithm, but:
//
//   - the BT transmission probability is fixed, derived from the error
//     parameter ε (OFA's adapts to the number of delivered messages);
//   - a fraction ξt of slots is allotted to BT (OFA fixes ξt = 1/2);
//   - the density estimator κ̃ is not updated continuously: its growth
//     accrues in a pending counter and is applied only when communication
//     is observed or after F = Θ(log(1/ε)) consecutive silent slots — the
//     "log fails" that name the protocol.
//
// The protocol requires ε ≤ 1/(n+1), i.e. knowledge of (a bound on) the
// network size — exactly the requirement the reproduced paper removes.
//
// It implements protocol.Controller.
type LogFailsAdaptive struct {
	epsilon float64
	xiDelta float64
	xiBeta  float64
	xiT     float64

	btEvery  uint64  // a BT-step every btEvery-th slot (= round(1/ξt))
	btProb   float64 // fixed BT transmission probability
	patience uint64  // F: silent slots before pending growth is applied
	kappa    float64 // κ̃, the density estimator
	pending  float64 // accrued, not-yet-applied estimator growth
	fails    uint64  // consecutive slots without a reception
	sigma    uint64  // messages received (exposed for observability)
	cursor   uint64  // next unobserved slot (event-skip contract; see skip.go)
}

// LFAOption configures NewLogFailsAdaptive.
type LFAOption func(*LogFailsAdaptive)

// WithLFAXiDelta sets ξδ, the estimator growth slack (default 0.1).
func WithLFAXiDelta(v float64) LFAOption {
	return func(l *LogFailsAdaptive) { l.xiDelta = v }
}

// WithLFAXiBeta sets ξβ, the error-exponent slack that scales the lazy
// update period (default 0.1).
func WithLFAXiBeta(v float64) LFAOption {
	return func(l *LogFailsAdaptive) { l.xiBeta = v }
}

// WithLFAPatience overrides the derived lazy-update period F.
func WithLFAPatience(f uint64) LFAOption {
	return func(l *LogFailsAdaptive) { l.patience = f }
}

// NewLogFailsAdaptive returns a controller for Log-Fails Adaptive with
// error parameter epsilon (the paper's evaluation uses ε ≈ 1/(k+1)) and
// BT-step fraction xiT (the paper evaluates ξt = 1/2 and ξt = 1/10).
func NewLogFailsAdaptive(epsilon, xiT float64, opts ...LFAOption) (*LogFailsAdaptive, error) {
	if !(epsilon > 0 && epsilon < 1) {
		return nil, fmt.Errorf("baseline: Log-Fails Adaptive requires 0 < ε < 1, got %v", epsilon)
	}
	if !(xiT > 0 && xiT < 1) {
		return nil, fmt.Errorf("baseline: Log-Fails Adaptive requires 0 < ξt < 1, got %v", xiT)
	}
	l := &LogFailsAdaptive{
		epsilon: epsilon,
		xiDelta: DefaultLFAXiDelta,
		xiBeta:  DefaultLFAXiBeta,
		xiT:     xiT,
		btEvery: uint64(math.Round(1 / xiT)),
		kappa:   lfaDelta + 1,
		cursor:  1,
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.xiDelta <= 0 || l.xiBeta <= 0 {
		return nil, fmt.Errorf("baseline: Log-Fails Adaptive requires ξδ, ξβ > 0, got %v, %v", l.xiDelta, l.xiBeta)
	}
	l.btProb = 1 / (1 + math.Log2(1/epsilon)/2)
	if l.patience == 0 {
		l.patience = uint64(math.Ceil(lfaPatienceFactor / l.xiBeta * math.Log(1/epsilon)))
		if l.patience == 0 {
			l.patience = 1
		}
	}
	return l, nil
}

// Epsilon returns the error parameter ε.
func (l *LogFailsAdaptive) Epsilon() float64 { return l.epsilon }

// XiT returns the BT-step fraction ξt.
func (l *LogFailsAdaptive) XiT() float64 { return l.xiT }

// Patience returns F, the lazy-update period in slots.
func (l *LogFailsAdaptive) Patience() uint64 { return l.patience }

// DensityEstimate returns the current value of the density estimator κ̃
// (excluding pending growth).
func (l *LogFailsAdaptive) DensityEstimate() float64 { return l.kappa }

// Received returns the number of messages received so far.
func (l *LogFailsAdaptive) Received() uint64 { return l.sigma }

// isBTStep reports whether the given slot is allotted to the BT algorithm.
// A fraction ξt of slots are BT-steps: slot ≡ 0 (mod round(1/ξt)).
func (l *LogFailsAdaptive) isBTStep(slot uint64) bool {
	return slot%l.btEvery == 0
}

// Prob implements protocol.Controller.
func (l *LogFailsAdaptive) Prob(slot uint64) float64 {
	if l.isBTStep(slot) {
		return l.btProb
	}
	return 1 / l.kappa
}

// flush applies the pending estimator growth. Growth per flush is capped
// at a doubling of κ̃, so that after long silence the estimator climbs
// geometrically instead of jumping arbitrarily far past the density.
func (l *LogFailsAdaptive) flush() {
	l.kappa += math.Min(l.pending, l.kappa)
	l.pending = 0
	l.fails = 0
}

// Observe implements protocol.Controller. Estimator growth of 1 per
// AT-step accrues lazily in pending; it is applied when a message is
// received or after F consecutive silent slots. A reception additionally
// shrinks the estimator by (1+ξδ)(δ+1) — One-Fail Adaptive's AT decrement
// with the ξδ slack, which keeps the shrink rate strictly above the
// growth rate during a healthy drain so that κ̃ tracks the density
// downward; the patience flush is the matching upward correction.
func (l *LogFailsAdaptive) Observe(slot uint64, success bool) {
	l.cursor = slot + 1
	if !l.isBTStep(slot) {
		l.pending++
	}
	if success {
		l.sigma++
		l.flush()
		l.kappa = math.Max(l.kappa-(1+l.xiDelta)*(lfaDelta+1), lfaDelta+1)
		return
	}
	l.fails++
	if l.fails >= l.patience {
		l.flush()
	}
}

var _ protocol.Controller = (*LogFailsAdaptive)(nil)
