package sim_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newEBBSched() (protocol.Schedule, error) {
	return core.NewExpBackonBackoff(core.DefaultEBBDelta)
}

// TestEventDrivenMatchesSlotBySlot checks the windowed event engine against
// this package's slot-by-slot ground truth on the paper's static batch of k
// messages: the completion-time distributions of dynamic.RunWindowEvent
// and sim.Run must match (two-sample KS test at ~99.9%).
func TestEventDrivenMatchesSlotBySlot(t *testing.T) {
	t.Parallel()
	for _, k := range []int{2, 3, 8, 32} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			const draws = 1500
			event := make([]float64, draws)
			exact := make([]float64, draws)
			for i := 0; i < draws; i++ {
				re, err := dynamic.RunWindowEvent(dynamic.Batch(k), newEBBSched,
					rng.NewStream(61, "event", fmt.Sprint(k), fmt.Sprint(i)), dynamic.WithClock(dynamic.ClockGlobal))
				if err != nil {
					t.Fatal(err)
				}
				if !re.Completed {
					t.Fatalf("draw %d: event engine incomplete (%d/%d)", i, re.Delivered, k)
				}
				event[i] = float64(re.Completion)

				stations := make([]protocol.Station, k)
				for j := range stations {
					sched, err := newEBBSched()
					if err != nil {
						t.Fatal(err)
					}
					stations[j] = protocol.NewWindowStation(sched)
				}
				rx, err := sim.Run(stations, rng.NewStream(61, "slot", fmt.Sprint(k), fmt.Sprint(i)))
				if err != nil {
					t.Fatal(err)
				}
				exact[i] = float64(rx.Slots)
			}
			crit := 1.95 * math.Sqrt(2.0/draws)
			if d := stats.KSDistance(event, exact); d > crit {
				t.Fatalf("event vs slot-by-slot completion time: KS distance %v > %v", d, crit)
			}
		})
	}
}

// TestEventDrivenSlotLimit: two stations on a fixed window of 1 collide
// forever. Under the same slot budget the event engine and sim.Run must
// both stop at the budget with nothing delivered and one collision per
// budgeted slot.
func TestEventDrivenSlotLimit(t *testing.T) {
	t.Parallel()
	const budget = 5000
	newFixed := func() (protocol.Schedule, error) { return baseline.NewFixedWindow(1) }

	re, err := dynamic.RunWindowEvent(dynamic.Batch(2), newFixed, rng.New(1), dynamic.WithMaxSlots(budget))
	if err != nil {
		t.Fatal(err)
	}
	if re.Completed || re.Delivered != 0 || re.Collisions != budget {
		t.Fatalf("event engine on a livelocked batch reported %+v, want incomplete with %d collisions", re, budget)
	}

	stations := make([]protocol.Station, 2)
	for i := range stations {
		sched, err := newFixed()
		if err != nil {
			t.Fatal(err)
		}
		stations[i] = protocol.NewWindowStation(sched)
	}
	rx, err := sim.Run(stations, rng.New(1), sim.WithMaxSlots(budget))
	if !errors.Is(err, sim.ErrSlotLimit) {
		t.Fatalf("sim.Run on a livelocked batch: err = %v, want ErrSlotLimit", err)
	}
	if rx.Delivered != 0 || rx.Collisions != budget {
		t.Fatalf("sim.Run on a livelocked batch reported %+v, want %d collisions", rx, budget)
	}
}
