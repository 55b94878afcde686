package dynamic

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
)

// TestEventEngineMatchesExact is the central validity check for the
// event-driven engine: on a shared dynamic workload, its completion-time
// distribution must match the per-node simulator's (two-sample KS test at
// ~99.9%), for both clock modes and for Poisson and bursty arrivals, and
// on the paper's static batch of k messages.
func TestEventEngineMatchesExact(t *testing.T) {
	t.Parallel()
	poisson, err := PoissonArrivals(32, 0.2, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	bursts, err := BurstArrivals(3, 12, 80)
	if err != nil {
		t.Fatal(err)
	}
	type ksCase struct {
		name  string
		w     Workload
		clock Clock
	}
	cases := []ksCase{
		{name: "poisson-local", w: poisson, clock: ClockLocal},
		{name: "poisson-global", w: poisson, clock: ClockGlobal},
		{name: "bursts-local", w: bursts, clock: ClockLocal},
		{name: "bursts-global", w: bursts, clock: ClockGlobal},
	}
	for _, k := range []int{2, 3, 8, 32} {
		cases = append(cases, ksCase{name: fmt.Sprintf("batch-%d", k), w: Batch(k), clock: ClockGlobal})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const draws = 1500
			event := make([]float64, draws)
			exact := make([]float64, draws)
			for i := 0; i < draws; i++ {
				re, err := RunWindowEvent(tc.w, newEBBSched,
					rng.NewStream(42, "event", tc.name, fmt.Sprint(i)), WithClock(tc.clock))
				if err != nil {
					t.Fatal(err)
				}
				if !re.Completed {
					t.Fatalf("draw %d: event engine incomplete (%d/%d)", i, re.Delivered, tc.w.N())
				}
				event[i] = float64(re.Completion)
				rx, err := RunWindow(tc.w, newEBBSched,
					rng.NewStream(42, "exact", tc.name, fmt.Sprint(i)), WithClock(tc.clock))
				if err != nil {
					t.Fatal(err)
				}
				if !rx.Completed {
					t.Fatalf("draw %d: per-node simulator incomplete (%d/%d)", i, rx.Delivered, tc.w.N())
				}
				exact[i] = float64(rx.Completion)
			}
			crit := 1.95 * math.Sqrt(2.0/draws)
			if d := stats.KSDistance(event, exact); d > crit {
				t.Fatalf("event vs exact completion time: KS distance %v > %v", d, crit)
			}
		})
	}
}

// TestEventEngineLatencyMatchesExact extends the agreement check to the
// per-message latency distribution, pooled across executions.
func TestEventEngineLatencyMatchesExact(t *testing.T) {
	t.Parallel()
	w, err := PoissonArrivals(24, 0.15, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	const draws = 600
	var event, exact []float64
	for i := 0; i < draws; i++ {
		re, err := RunWindowEvent(w, newEBBSched, rng.NewStream(44, "event", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		rx, err := RunWindow(w, newEBBSched, rng.NewStream(44, "exact", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		for q := 0.0; q <= 1.0; q += 0.25 {
			event = append(event, re.Latency.Quantile(q))
			exact = append(exact, rx.Latency.Quantile(q))
		}
	}
	crit := 1.95 * math.Sqrt(2.0/float64(len(event))) * 2 // quantiles are correlated; loosen
	if d := stats.KSDistance(event, exact); d > crit {
		t.Fatalf("event vs exact latency quantiles: KS distance %v > %v", d, crit)
	}
}

// TestEventEngineBatchInvariants: on the paper's static batch the event
// engine must reproduce the defining invariants of a complete execution.
func TestEventEngineBatchInvariants(t *testing.T) {
	t.Parallel()
	const k = 200
	res, err := RunWindowEvent(Batch(k), newEBBSched, rng.New(45))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Delivered != k {
		t.Fatalf("batch incomplete: %+v", res)
	}
	if res.MaxBacklog != k {
		t.Fatalf("max backlog = %d, want %d", res.MaxBacklog, k)
	}
	if res.Latency.N() != k {
		t.Fatalf("latencies recorded = %d, want %d", res.Latency.N(), k)
	}
	if uint64(res.Latency.Max()) != res.Completion {
		t.Fatalf("completion %d inconsistent with max latency %v", res.Completion, res.Latency.Max())
	}
}

// TestEventEngineDeterministic: identical (workload, seed) must reproduce
// the identical result.
func TestEventEngineDeterministic(t *testing.T) {
	t.Parallel()
	w, err := PoissonArrivals(500, 0.3, rng.New(46))
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunWindowEvent(w, newEBBSched, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWindowEvent(w, newEBBSched, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds gave different results:\n%+v\n%+v", a, b)
	}
}

// TestEventEngineEmptyAndErrors covers the degenerate paths: empty
// workloads, schedule constructor failures, and schedules that return
// windows < 1.
func TestEventEngineEmptyAndErrors(t *testing.T) {
	t.Parallel()
	res, err := RunWindowEvent(Workload{}, newEBBSched, rng.New(1))
	if err != nil || !res.Completed {
		t.Fatalf("empty workload: %+v, %v", res, err)
	}
	boom := fmt.Errorf("boom")
	if _, err := RunWindowEvent(Batch(2), func() (protocol.Schedule, error) { return nil, boom }, rng.New(1)); err != boom {
		t.Fatalf("constructor error not propagated: %v", err)
	}
	if _, err := RunWindowEvent(Batch(2), func() (protocol.Schedule, error) { return badSchedule{}, nil }, rng.New(1)); err == nil {
		t.Fatal("schedule returning window 0 accepted, want error")
	}
}

type badSchedule struct{}

func (badSchedule) NextWindow() int { return 0 }

// TestEventEngineSlotBudget: two stations on a fixed window of 1 collide
// forever; the engine must stop at the budget and report the partial
// result exactly as RunWindow does.
func TestEventEngineSlotBudget(t *testing.T) {
	t.Parallel()
	newFixed := func() (protocol.Schedule, error) { return baseline.NewFixedWindow(1) }
	res, err := RunWindowEvent(Batch(2), newFixed, rng.New(1), WithMaxSlots(5000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Delivered != 0 || res.Completion != 0 {
		t.Fatalf("livelocked run reported %+v", res)
	}
	if res.Collisions != 5000 {
		t.Fatalf("collisions = %d, want 5000 (one per budgeted slot)", res.Collisions)
	}
	if res.MaxBacklog != 2 {
		t.Fatalf("max backlog = %d, want 2", res.MaxBacklog)
	}
}

// TestEventEngineLateGlobalArrival mirrors TestGlobalClockWindowFastForward
// on the event engine: a station arriving long after slot 1 on the global
// clock must fast-forward its schedule and still deliver at or after its
// arrival.
func TestEventEngineLateGlobalArrival(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 50; seed++ {
		res, err := RunWindowEvent(Workload{Arrivals: []uint64{1000}}, newEBBSched,
			rng.New(seed), WithClock(ClockGlobal), WithMaxSlots(100000))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("late global arrival never delivered")
		}
		if res.Completion < 1000 {
			t.Fatalf("completion %d before arrival slot 1000", res.Completion)
		}
	}
}

// TestEventEngineMillionMessages is the scale gate of this subsystem: a
// Poisson workload of 10⁶ messages must complete on the event engine. The
// per-node simulator would need ~10⁶ station updates per slot over
// millions of slots; the event engine visits only occupied slots.
func TestEventEngineMillionMessages(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("million-message workload skipped in -short mode")
	}
	// λ = 0.1 is inside Exp Back-on/Back-off's stable region (its dynamic
	// saturation point is between 0.1 and 0.2; see internal/throughput),
	// so the run must sustain the offered load end to end.
	const n, lambda = 1_000_000, 0.1
	w, err := PoissonArrivals(n, lambda, rng.New(48))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWindowEvent(w, newEBBSched, rng.New(49))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Delivered != n {
		t.Fatalf("incomplete: %d/%d delivered", res.Delivered, n)
	}
	throughput := float64(n) / float64(res.Completion)
	if throughput < 0.95*lambda {
		t.Fatalf("sustained throughput %.3f msgs/slot at offered load %v", throughput, lambda)
	}
}
