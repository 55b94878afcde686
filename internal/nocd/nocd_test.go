package nocd_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/nocd"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
)

func mustCascade(t testing.TB) *nocd.Cascade {
	t.Helper()
	c, err := nocd.NewCascade(nocd.DefaultCascadeBase)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustRobust(t testing.TB) *nocd.RobustLadder {
	t.Helper()
	l, err := nocd.NewRobustLadder(nocd.DefaultRobustPatience)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustLadder(t testing.TB) *nocd.RepetitionLadder {
	t.Helper()
	l, err := nocd.NewRepetitionLadder(nocd.DefaultLadderTheta)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newLadderSched() (protocol.Schedule, error) {
	return nocd.NewRepetitionLadder(nocd.DefaultLadderTheta)
}

func TestParameterValidation(t *testing.T) {
	t.Parallel()
	if _, err := nocd.NewCascade(1); err == nil {
		t.Error("NewCascade(1) accepted, want error")
	}
	if _, err := nocd.NewCascade(nocd.CascadeBaseMax + 1); err == nil {
		t.Error("NewCascade(beyond max) accepted, want error")
	}
	if _, err := nocd.NewRepetitionLadder(-0.5); err == nil {
		t.Error("NewRepetitionLadder(-0.5) accepted, want error")
	}
	if _, err := nocd.NewRepetitionLadder(nocd.LadderThetaMax + 1); err == nil {
		t.Error("NewRepetitionLadder(beyond max) accepted, want error")
	}
	if _, err := nocd.NewRobustLadder(0.5); err == nil {
		t.Error("NewRobustLadder(0.5) accepted, want error")
	}
	if _, err := nocd.NewRobustLadder(nocd.RobustPatienceMax + 1); err == nil {
		t.Error("NewRobustLadder(beyond max) accepted, want error")
	}
}

// TestCascadeSchedule pins the β=2 slot→probability map: epoch e sweeps
// levels 0..e-1 with dwell 2ⁱ, so the level boundaries fall at
// 1 | 2, 3-4 | 5, 6-7, 8-11 | 12, 13-14, 15-18, 19-26 | …
func TestCascadeSchedule(t *testing.T) {
	t.Parallel()
	want := map[uint64]float64{
		1: 1, 2: 1, 3: 0.5, 4: 0.5,
		5: 1, 6: 0.5, 7: 0.5, 8: 0.25, 11: 0.25,
		12: 1, 14: 0.5, 18: 0.25, 19: 0.125, 26: 0.125, 27: 1,
	}
	c := mustCascade(t)
	// Prob advances a monotone position, so query in slot order.
	for slot := uint64(1); slot <= 27; slot++ {
		p := c.Prob(slot)
		if w, ok := want[slot]; ok && p != w {
			t.Errorf("Prob(%d) = %v, want %v", slot, p, w)
		}
		c.Observe(slot, false)
	}
}

// TestRepetitionLadderWindows pins the window sequence for three θ
// settings: phase i emits ⌈iᶿ⌉ windows of 2ⁱ slots.
func TestRepetitionLadderWindows(t *testing.T) {
	t.Parallel()
	cases := []struct {
		theta float64
		want  []int
	}{
		{0, []int{2, 4, 8, 16, 32}},
		{1, []int{2, 4, 4, 8, 8, 8, 16, 16, 16, 16}},
		{2, []int{2, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8}},
	}
	for _, tc := range cases {
		l, err := nocd.NewRepetitionLadder(tc.theta)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range tc.want {
			if got := l.NextWindow(); got != w {
				t.Fatalf("θ=%v: window %d = %d, want %d", tc.theta, i, got, w)
			}
		}
	}
}

// TestRobustLadderStateMachine drives the success-clocked ladder through
// its transitions: quiet stretches of ⌈c·2^L⌉ step the level up, a
// success steps it down and resets the clock.
func TestRobustLadderStateMachine(t *testing.T) {
	t.Parallel()
	l, err := nocd.NewRobustLadder(4)
	if err != nil {
		t.Fatal(err)
	}
	slot := uint64(1)
	quiet := func(n int) {
		for i := 0; i < n; i++ {
			l.Observe(slot, false)
			slot++
		}
	}
	quiet(3)
	if l.Level() != 0 {
		t.Fatalf("after 3 quiet slots Level = %d, want 0 (patience 4)", l.Level())
	}
	quiet(1)
	if l.Level() != 1 {
		t.Fatalf("after 4 quiet slots Level = %d, want 1", l.Level())
	}
	quiet(8) // patience at L=1 is ⌈4·2⌉ = 8
	if l.Level() != 2 {
		t.Fatalf("after the L=1 patience Level = %d, want 2", l.Level())
	}
	l.Observe(slot, true)
	slot++
	if l.Level() != 1 {
		t.Fatalf("after success Level = %d, want 1", l.Level())
	}
	if p := l.Prob(slot); p != 0.5 {
		t.Fatalf("Prob at L=1 = %v, want 0.5", p)
	}
}

// TestRobustLadderSkipMatchesObserve checks the SkipController contract
// deterministically: driving a ladder through the kernel's
// SkipPhase/SkipTo/Observe protocol with a fixed success pattern must
// reproduce the state of a ladder fed the same pattern slot by slot.
func TestRobustLadderSkipMatchesObserve(t *testing.T) {
	t.Parallel()
	successes := map[uint64]bool{5: true, 6: true, 40: true, 41: true, 42: true, 150: true}
	const last = uint64(200)

	slotwise, err := nocd.NewRobustLadder(4)
	if err != nil {
		t.Fatal(err)
	}
	skipped, err := nocd.NewRobustLadder(4)
	if err != nil {
		t.Fatal(err)
	}

	// checkpoints[c] records slotwise state right after Observe(c, true).
	type state struct{ level int }
	checkpoints := map[uint64]state{}
	for slot := uint64(1); slot <= last; slot++ {
		slotwise.Prob(slot)
		slotwise.Observe(slot, successes[slot])
		if successes[slot] {
			checkpoints[slot] = state{slotwise.Level()}
		}
	}

	// Drive skipped the way kernel.FairRun does: fetch a phase, jump to
	// the first success inside it or to the slot past its end.
	slot := uint64(1)
	for slot <= last {
		ph := skipped.SkipPhase(slot)
		var hit uint64
		for c := slot; c <= ph.End && c <= last; c++ {
			if successes[c] {
				hit = c
				break
			}
		}
		if hit == 0 {
			end := ph.End
			if end > last {
				end = last
			}
			skipped.SkipTo(end + 1)
			slot = end + 1
			continue
		}
		skipped.SkipTo(hit)
		skipped.Observe(hit, true)
		if cp := checkpoints[hit]; skipped.Level() != cp.level {
			t.Fatalf("after success at slot %d: skip path Level = %d, slotwise Level = %d",
				hit, skipped.Level(), cp.level)
		}
		slot = hit + 1
	}
	if skipped.Level() != slotwise.Level() {
		t.Fatalf("final Level: skip path %d, slotwise %d", skipped.Level(), slotwise.Level())
	}
}

// TestFairKernelMatchesSlotReference is the KS validation for the two
// fair no-CD protocols: engine.FairRun dispatches SkipControllers to the
// event-skip kernel, and its completion-time distribution must match the
// untouched per-slot reference loop (two-sample KS at ~99.9%).
func TestFairKernelMatchesSlotReference(t *testing.T) {
	t.Parallel()
	protocols := []struct {
		name string
		new  func(testing.TB) protocol.Controller
	}{
		{"cascade", func(t testing.TB) protocol.Controller { return mustCascade(t) }},
		{"robust", func(t testing.TB) protocol.Controller { return mustRobust(t) }},
	}
	for _, pr := range protocols {
		pr := pr
		for _, k := range []int{2, 3, 8, 32} {
			k := k
			t.Run(fmt.Sprintf("%s/k=%d", pr.name, k), func(t *testing.T) {
				t.Parallel()
				const draws = 3000
				event := make([]float64, draws)
				exact := make([]float64, draws)
				for i := 0; i < draws; i++ {
					sE, err := engine.FairRun(k, pr.new(t),
						rng.NewStream(99, "ev", pr.name, fmt.Sprint(k), fmt.Sprint(i)), 0)
					if err != nil {
						t.Fatal(err)
					}
					sX, err := engine.FairRunSlot(k, pr.new(t),
						rng.NewStream(99, "ex", pr.name, fmt.Sprint(k), fmt.Sprint(i)), 0)
					if err != nil {
						t.Fatal(err)
					}
					event[i] = float64(sE)
					exact[i] = float64(sX)
				}
				crit := 1.95 * math.Sqrt(2.0/draws)
				if d := stats.KSDistance(event, exact); d > crit {
					t.Errorf("KS distance %.4f > %.4f between kernel and per-slot reference", d, crit)
				}
			})
		}
	}
}

// TestFairAggregateMatchesPerNode cross-checks the aggregate fair loop
// against the per-node ground-truth simulator (one private controller per
// station; their states stay synchronized because transitions depend only
// on globally observable successes).
func TestFairAggregateMatchesPerNode(t *testing.T) {
	t.Parallel()
	protocols := []struct {
		name string
		new  func() protocol.Controller
	}{
		{"cascade", func() protocol.Controller { c, _ := nocd.NewCascade(nocd.DefaultCascadeBase); return c }},
		{"robust", func() protocol.Controller { l, _ := nocd.NewRobustLadder(nocd.DefaultRobustPatience); return l }},
	}
	for _, pr := range protocols {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			t.Parallel()
			const k, draws = 8, 1500
			agg := make([]float64, draws)
			node := make([]float64, draws)
			for i := 0; i < draws; i++ {
				sA, err := engine.FairRun(k, pr.new(),
					rng.NewStream(7, "agg", pr.name, fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				sN, err := engine.ExactFairRun(k, pr.new,
					rng.NewStream(7, "node", pr.name, fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				agg[i] = float64(sA)
				node[i] = float64(sN)
			}
			crit := 1.95 * math.Sqrt(2.0/draws)
			if d := stats.KSDistance(agg, node); d > crit {
				t.Errorf("KS distance %.4f > %.4f between aggregate and per-node", d, crit)
			}
		})
	}
}

// TestWindowEventMatchesPerSlot is the KS validation for the repetition
// ladder on the windowed event engine: dynamic.RunWindowEvent against
// the per-slot simulator behind dynamic.RunWindow, on a batch of k.
func TestWindowEventMatchesPerSlot(t *testing.T) {
	t.Parallel()
	for _, k := range []int{2, 8, 32} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			const draws = 3000
			event := make([]float64, draws)
			exact := make([]float64, draws)
			for i := 0; i < draws; i++ {
				resE, err := dynamic.RunWindowEvent(dynamic.Batch(k), newLadderSched,
					rng.NewStream(99, "lev", fmt.Sprint(k), fmt.Sprint(i)))
				if err != nil {
					t.Fatal(err)
				}
				resX, err := dynamic.RunWindow(dynamic.Batch(k), newLadderSched,
					rng.NewStream(99, "lex", fmt.Sprint(k), fmt.Sprint(i)))
				if err != nil {
					t.Fatal(err)
				}
				if !resE.Completed || !resX.Completed {
					t.Fatalf("draw %d: incomplete run (event %v, per-slot %v)", i, resE.Completed, resX.Completed)
				}
				event[i] = float64(resE.Completion)
				exact[i] = float64(resX.Completion)
			}
			crit := 1.95 * math.Sqrt(2.0/draws)
			if d := stats.KSDistance(event, exact); d > crit {
				t.Errorf("KS distance %.4f > %.4f between event-driven and slot-by-slot", d, crit)
			}
		})
	}
}

// TestWindowRunnerMatchesExact cross-checks the aggregate balls-in-bins
// window runner against the per-node simulator for the repetition ladder.
func TestWindowRunnerMatchesExact(t *testing.T) {
	t.Parallel()
	for _, k := range []int{3, 16} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			const draws = 2000
			agg := make([]float64, draws)
			node := make([]float64, draws)
			var r engine.WindowRunner
			for i := 0; i < draws; i++ {
				sA, err := r.Run(k, mustLadder(t),
					rng.NewStream(13, "wagg", fmt.Sprint(k), fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				sN, err := engine.ExactWindowRun(k,
					func() protocol.Schedule { l, _ := nocd.NewRepetitionLadder(nocd.DefaultLadderTheta); return l },
					rng.NewStream(13, "wnode", fmt.Sprint(k), fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				agg[i] = float64(sA)
				node[i] = float64(sN)
			}
			crit := 1.95 * math.Sqrt(2.0/draws)
			if d := stats.KSDistance(agg, node); d > crit {
				t.Errorf("KS distance %.4f > %.4f between window runner and per-node", d, crit)
			}
		})
	}
}

// TestSeedDeterminism: the same stream must reproduce the same completion
// time for each protocol, and all three must drain k = 100 messages.
func TestSeedDeterminism(t *testing.T) {
	t.Parallel()
	const k = 100
	runs := map[string]func() (uint64, error){
		"cascade": func() (uint64, error) {
			return engine.FairRun(k, mustCascade(t), rng.NewStream(42, "det", "cascade"), 0)
		},
		"robust": func() (uint64, error) {
			return engine.FairRun(k, mustRobust(t), rng.NewStream(42, "det", "robust"), 0)
		},
		"ladder": func() (uint64, error) {
			var r engine.WindowRunner
			return r.Run(k, mustLadder(t), rng.NewStream(42, "det", "ladder"), 0)
		},
	}
	for name, run := range runs {
		a, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b || a == 0 {
			t.Errorf("%s: runs gave %d and %d slots, want equal and positive", name, a, b)
		}
	}
}
