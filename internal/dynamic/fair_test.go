package dynamic_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/nocd"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// TestRunFairMatchesPerSlot holds RunFair to the per-node simulator
// field for field: RunMixed over protocol.NewFairStation drives every
// controller through Prob and Observe on every slot of sim.Run, and
// RunFair must reproduce its draws exactly — same deliveries, latencies,
// backlog peak and collision count — on both clocks, clean and jammed
// channels, unsorted arrivals, and runs that drain as well as runs that
// exhaust their budget.
//
// The LFA with patience 64 flushes within a few dozen quiet slots, so a
// station whose first slot were not observed per slot, or a phase end
// whose quiet slots were not replayed, would change its estimator; at
// registry patience (thousands of slots) either slip can go unnoticed.
func TestRunFairMatchesPerSlot(t *testing.T) {
	t.Parallel()
	const n = 40
	ctrls := []struct {
		name string
		new  func() (protocol.Controller, error)
	}{
		{"one-fail", func() (protocol.Controller, error) { return core.NewOneFailAdaptive(core.DefaultOFADelta) }},
		{"log-fails-2", func() (protocol.Controller, error) { return baseline.NewLogFailsAdaptive(1.0/(n+1), 0.5) }},
		{"log-fails-10", func() (protocol.Controller, error) { return baseline.NewLogFailsAdaptive(1.0/(n+1), 0.1) }},
		{"log-fails-patience-64", func() (protocol.Controller, error) {
			return baseline.NewLogFailsAdaptive(1.0/(n+1), 0.1, baseline.WithLFAPatience(64))
		}},
		{"bk-cascade", func() (protocol.Controller, error) { return nocd.NewCascade(nocd.DefaultCascadeBase) }},
		{"jz-robust", func() (protocol.Controller, error) { return nocd.NewRobustLadder(nocd.DefaultRobustPatience) }},
	}
	type instance struct {
		name string
		inst scenario.Instance
	}
	var insts []instance
	for _, name := range []string{"herd", "rho", "jammed", "poisson"} {
		w, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			inst, err := w.Instantiate(n, 0.15, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, instance{fmt.Sprintf("%s/%d", name, seed), inst})
		}
	}
	// Unsorted arrivals with ties and a slot-0 arrival exercise the
	// activation order: by max(arrival, 1), ties by message index.
	poisson := insts[len(insts)-1].inst.Arrivals.Arrivals
	unsorted := make([]uint64, n)
	for i := range unsorted {
		unsorted[i] = poisson[(i*7)%n] / 2
	}
	insts = append(insts, instance{"unsorted", scenario.Instance{Arrivals: dynamic.Workload{Arrivals: unsorted}}})

	var drained, saturated int
	for _, c := range ctrls {
		for _, clock := range []dynamic.Clock{dynamic.ClockLocal, dynamic.ClockGlobal} {
			for _, in := range insts {
				opts := []dynamic.Option{dynamic.WithClock(clock), dynamic.WithMaxSlots(in.inst.Arrivals.DrainBudget())}
				if in.inst.Jammed != nil {
					opts = append(opts, dynamic.WithJammer(in.inst.Jammed))
				}
				src := func() *rng.Rand { return rng.NewStream(11, c.name, in.name, fmt.Sprint(clock)) }
				want, err := dynamic.RunMixed(in.inst.Arrivals, func(int) (protocol.Station, error) {
					ctrl, err := c.new()
					if err != nil {
						return nil, err
					}
					return protocol.NewFairStation(ctrl), nil
				}, src(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dynamic.RunFair(in.inst.Arrivals, c.new, src(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, clock %d, %s: RunFair = %+v, per-slot %+v", c.name, clock, in.name, got, want)
				}
				if want.Completed {
					drained++
				} else {
					saturated++
				}
			}
		}
	}
	if drained == 0 || saturated == 0 {
		t.Fatalf("%d drained and %d saturated runs: the cases must cover both", drained, saturated)
	}
}
