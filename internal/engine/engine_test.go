package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
)

func newOFA(t testing.TB) protocol.Controller {
	t.Helper()
	ctrl, err := core.NewOneFailAdaptive(core.DefaultOFADelta)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func newEBB(t testing.TB) protocol.Schedule {
	t.Helper()
	sched, err := core.NewExpBackonBackoff(core.DefaultEBBDelta)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestFairRunTrivial(t *testing.T) {
	t.Parallel()
	steps, err := FairRun(0, newOFA(t), rng.New(1), 0)
	if err != nil || steps != 0 {
		t.Fatalf("k=0: (%d, %v), want (0, nil)", steps, err)
	}
	if _, err := FairRun(-1, newOFA(t), rng.New(1), 0); err == nil {
		t.Fatal("k=-1 accepted, want error")
	}
	// k=1 OFA delivers by slot 2 (BT prob 1 at σ=0).
	for seed := uint64(0); seed < 100; seed++ {
		steps, err := FairRun(1, newOFA(t), rng.New(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		if steps > 2 {
			t.Fatalf("k=1 completed at %d, want ≤ 2", steps)
		}
	}
}

func TestFairRunSlotLimit(t *testing.T) {
	t.Parallel()
	// A controller that never lets anyone transmit can never finish.
	_, err := FairRun(2, silentController{}, rng.New(1), 1000)
	if !errors.Is(err, ErrSlotLimit) {
		t.Fatalf("error = %v, want ErrSlotLimit", err)
	}
}

type silentController struct{}

func (silentController) Prob(uint64) float64  { return 0 }
func (silentController) Observe(uint64, bool) {}

func TestWindowRunTrivial(t *testing.T) {
	t.Parallel()
	var r WindowRunner
	steps, err := r.Run(0, newEBB(t), rng.New(1), 0)
	if err != nil || steps != 0 {
		t.Fatalf("k=0: (%d, %v), want (0, nil)", steps, err)
	}
	if _, err := r.Run(-2, newEBB(t), rng.New(1), 0); err == nil {
		t.Fatal("k=-2 accepted, want error")
	}
	for seed := uint64(0); seed < 100; seed++ {
		steps, err := r.Run(1, newEBB(t), rng.New(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		if steps > 2 {
			t.Fatalf("k=1 completed at %d, want ≤ 2 (first window)", steps)
		}
	}
}

func TestWindowRunSlotLimit(t *testing.T) {
	t.Parallel()
	// Window size 1 with 2 stations: both transmit every slot, never succeed.
	fixed, err := baseline.NewFixedWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	var r WindowRunner
	_, err = r.Run(2, fixed, rng.New(1), 10_000)
	if !errors.Is(err, ErrSlotLimit) {
		t.Fatalf("error = %v, want ErrSlotLimit", err)
	}
}

func TestWindowRunRejectsBadSchedule(t *testing.T) {
	t.Parallel()
	var r WindowRunner
	_, err := r.Run(2, badSchedule{}, rng.New(1), 0)
	if err == nil {
		t.Fatal("schedule returning 0 accepted, want error")
	}
}

type badSchedule struct{}

func (badSchedule) NextWindow() int { return 0 }

// TestBallsInBinsBranchesAgree verifies the two balls-in-bins samplers
// (per-ball and per-bin) agree in distribution on delivered counts, via a
// chi-square-style comparison of empirical PMFs.
// TestFairEngineMatchesExact is the central validity check for the O(1)/slot
// engine: the completion-time distribution of the aggregate simulation
// must match the per-node simulation (two-sample KS test at ~99.9%).
func TestFairEngineMatchesExact(t *testing.T) {
	t.Parallel()
	for _, k := range []int{2, 3, 8, 32} {
		k := k
		t.Run(fmt.Sprintf("OFA_k=%d", k), func(t *testing.T) {
			t.Parallel()
			const draws = 4000
			agg := make([]float64, draws)
			exact := make([]float64, draws)
			for i := 0; i < draws; i++ {
				s1, err := FairRun(k, newOFA(t), rng.NewStream(5, "agg", fmt.Sprint(k), fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				agg[i] = float64(s1)
				s2, err := ExactFairRun(k, func() protocol.Controller { return newOFA(t) },
					rng.NewStream(5, "exact", fmt.Sprint(k), fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				exact[i] = float64(s2)
			}
			crit := 1.95 * math.Sqrt(2.0/draws)
			if d := stats.KSDistance(agg, exact); d > crit {
				t.Fatalf("aggregate vs exact completion time: KS distance %v > %v", d, crit)
			}
		})
	}
}

// TestWindowEngineMatchesExact: same validity check for the windowed
// engine against per-node window stations.
func TestWindowEngineMatchesExact(t *testing.T) {
	t.Parallel()
	for _, k := range []int{2, 3, 8, 32} {
		k := k
		t.Run(fmt.Sprintf("EBB_k=%d", k), func(t *testing.T) {
			t.Parallel()
			const draws = 4000
			agg := make([]float64, draws)
			exact := make([]float64, draws)
			var runner WindowRunner
			for i := 0; i < draws; i++ {
				s1, err := runner.Run(k, newEBB(t), rng.NewStream(6, "agg", fmt.Sprint(k), fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				agg[i] = float64(s1)
				s2, err := ExactWindowRun(k, func() protocol.Schedule { return newEBB(t) },
					rng.NewStream(6, "exact", fmt.Sprint(k), fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				exact[i] = float64(s2)
			}
			crit := 1.95 * math.Sqrt(2.0/draws)
			if d := stats.KSDistance(agg, exact); d > crit {
				t.Fatalf("aggregate vs exact completion time: KS distance %v > %v", d, crit)
			}
		})
	}
}

// TestLFAEngineMatchesExact cross-validates the Log-Fails Adaptive
// controller between engines as well (it exercises the non-alternating
// BT allotment path).
func TestLFAEngineMatchesExact(t *testing.T) {
	t.Parallel()
	const k, draws = 8, 3000
	newLFA := func() protocol.Controller {
		ctrl, err := baseline.NewLogFailsAdaptive(1.0/(float64(k)+1), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	agg := make([]float64, draws)
	exact := make([]float64, draws)
	for i := 0; i < draws; i++ {
		s1, err := FairRun(k, newLFA(), rng.NewStream(7, "agg", fmt.Sprint(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		agg[i] = float64(s1)
		s2, err := ExactFairRun(k, newLFA, rng.NewStream(7, "exact", fmt.Sprint(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		exact[i] = float64(s2)
	}
	crit := 1.95 * math.Sqrt(2.0/draws)
	if d := stats.KSDistance(agg, exact); d > crit {
		t.Fatalf("aggregate vs exact completion time: KS distance %v > %v", d, crit)
	}
}

// TestTheorem1Bound: One-Fail Adaptive must complete within
// 2(δ+1)k + O(log²k) slots with probability ≥ 1 − 2/(1+k). We run many
// executions and require the empirical violation rate of the bound (with
// a calibrated constant on the additive term) to stay below 2/(1+k) plus
// sampling slack.
func TestTheorem1Bound(t *testing.T) {
	t.Parallel()
	for _, k := range []int{64, 256, 1024} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			const runs = 300
			logK := math.Log2(float64(k))
			bound := 2*(core.DefaultOFADelta+1)*float64(k) + 40*logK*logK
			violations := 0
			for i := 0; i < runs; i++ {
				steps, err := FairRun(k, newOFA(t), rng.NewStream(8, fmt.Sprint(k), fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				if float64(steps) > bound {
					violations++
				}
			}
			allowed := 2.0/float64(1+k)*runs + 6*math.Sqrt(2.0/float64(1+k)*runs) + 3
			if float64(violations) > allowed {
				t.Fatalf("bound %0.f violated %d/%d times, allowed ~%.1f", bound, violations, runs, allowed)
			}
		})
	}
}

// TestTheorem2Bound: Exp Back-on/Back-off must complete within 4(1+1/δ)k
// slots w.h.p. for big enough k.
func TestTheorem2Bound(t *testing.T) {
	t.Parallel()
	for _, k := range []int{64, 256, 1024} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			const runs = 300
			bound := 4 * (1 + 1/core.DefaultEBBDelta) * float64(k)
			var runner WindowRunner
			violations := 0
			for i := 0; i < runs; i++ {
				steps, err := runner.Run(k, newEBB(t), rng.NewStream(9, fmt.Sprint(k), fmt.Sprint(i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				if float64(steps) > bound {
					violations++
				}
			}
			if violations > 0 {
				t.Fatalf("4(1+1/δ)k = %.0f violated %d/%d times", bound, violations, runs)
			}
		})
	}
}

// TestWindowTrace checks the per-window trace callback invariants.
func TestWindowTrace(t *testing.T) {
	t.Parallel()
	var runner WindowRunner
	total := 0
	runner.SetTrace(func(w WindowResult) {
		if w.Window < 1 {
			t.Fatalf("traced window %d < 1", w.Window)
		}
		if w.Delivered < 0 || w.Delivered > w.Active {
			t.Fatalf("delivered %d of %d active", w.Delivered, w.Active)
		}
		if w.Delivered > 0 && (w.LastSlot < 1 || w.LastSlot > w.Window) {
			t.Fatalf("last slot %d outside window %d", w.LastSlot, w.Window)
		}
		total += w.Delivered
	})
	const k = 100
	if _, err := runner.Run(k, newEBB(t), rng.New(3), 0); err != nil {
		t.Fatal(err)
	}
	if total != k {
		t.Fatalf("trace saw %d deliveries, want %d", total, k)
	}
}

// TestRunnerScratchReuse: a single WindowRunner used across runs must not
// leak state between executions (the counts buffer is epoch-free and must
// be fully cleared).
func TestRunnerScratchReuse(t *testing.T) {
	t.Parallel()
	var runner WindowRunner
	a := make([]uint64, 0, 20)
	for i := 0; i < 20; i++ {
		s, err := runner.Run(50, newEBB(t), rng.NewStream(10, fmt.Sprint(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		a = append(a, s)
	}
	// Fresh runners with the same seeds must reproduce identical results.
	for i := 0; i < 20; i++ {
		var fresh WindowRunner
		s, err := fresh.Run(50, newEBB(t), rng.NewStream(10, fmt.Sprint(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if s != a[i] {
			t.Fatalf("run %d: reused runner %d vs fresh runner %d", i, a[i], s)
		}
	}
}

func BenchmarkFairRunOFA(b *testing.B) {
	for _, k := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctrl, _ := core.NewOneFailAdaptive(core.DefaultOFADelta)
				if _, err := FairRun(k, ctrl, rng.NewStream(1, fmt.Sprint(i)), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWindowRunEBB(b *testing.B) {
	for _, k := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var runner WindowRunner
			for i := 0; i < b.N; i++ {
				sched, _ := core.NewExpBackonBackoff(core.DefaultEBBDelta)
				if _, err := runner.Run(k, sched, rng.NewStream(1, fmt.Sprint(i)), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExactRunOFA(b *testing.B) {
	const k = 1000
	for i := 0; i < b.N; i++ {
		_, err := ExactFairRun(k, func() protocol.Controller {
			ctrl, _ := core.NewOneFailAdaptive(core.DefaultOFADelta)
			return ctrl
		}, rng.NewStream(1, fmt.Sprint(i)), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}
