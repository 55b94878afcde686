package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

// noisyTask returns a deterministic pseudo-random task: replication r
// always yields the same value regardless of scheduling.
func noisyTask(seed uint64, mean, spread float64) func(rep int) (float64, error) {
	return func(rep int) (float64, error) {
		src := rng.NewStream(seed, "mc-test", fmt.Sprint(rep))
		return mean + spread*(src.Float64()-0.5), nil
	}
}

// one runs task as the single point of a grid.
func one(ctx context.Context, p Precision, runs, par int, task func(rep int) (float64, error)) (Result, error) {
	res, err := Grid(ctx, p, runs, par, 1, func(_, rep int) (float64, func(bool), error) {
		v, err := task(rep)
		return v, nil, err
	})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Precision
		ok   bool
	}{
		{"zero value (disabled)", Precision{}, true},
		{"defaults", Precision{Epsilon: 0.01}.WithDefaults(), true},
		{"epsilon 1", Precision{Epsilon: 1}.WithDefaults(), false},
		{"epsilon negative", Precision{Epsilon: -0.1}.WithDefaults(), false},
		{"epsilon NaN", Precision{Epsilon: math.NaN()}.WithDefaults(), false},
		{"confidence 1", Precision{Epsilon: 0.1, Confidence: 1, MinReps: 2, MaxReps: 4}, false},
		{"minReps 1", Precision{Epsilon: 0.1, Confidence: 0.95, MinReps: 1, MaxReps: 4}, false},
		{"max < min", Precision{Epsilon: 0.1, Confidence: 0.95, MinReps: 8, MaxReps: 4}, false},
		{"min == max", Precision{Epsilon: 0.1, Confidence: 0.95, MinReps: 4, MaxReps: 4}, true},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCheckpointsScheduleIsMachineIndependent(t *testing.T) {
	p := Precision{Epsilon: 0.01, Confidence: 0.95, MinReps: 3, MaxReps: 20}
	got := p.checkpoints()
	want := []int{3, 4, 6, 9, 13, 19, 20}
	if len(got) != len(want) {
		t.Fatalf("checkpoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoints = %v, want %v", got, want)
		}
	}
	// MinReps == MaxReps: a single checkpoint — fixed-rep mode.
	one := Precision{Epsilon: 0.01, Confidence: 0.95, MinReps: 5, MaxReps: 5}
	if pts := one.checkpoints(); len(pts) != 1 || pts[0] != 5 {
		t.Fatalf("checkpoints(min==max) = %v, want [5]", pts)
	}
}

func TestZeroVarianceStopsAtMinReps(t *testing.T) {
	p := Precision{Epsilon: 0.01, MinReps: 2, MaxReps: 100, Confidence: 0.99}
	var calls atomic.Int64
	res, err := one(context.Background(), p, 0, 4, func(rep int) (float64, error) {
		calls.Add(1)
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 2 {
		t.Fatalf("Reps=%d, want 2", res.Reps)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("task called %d times, want 2", got)
	}
	if res.Stats.Mean() != 42 || res.Stats.Variance() != 0 {
		t.Fatalf("mean=%v var=%v, want 42/0", res.Stats.Mean(), res.Stats.Variance())
	}
}

func TestParallelismDoesNotChangeResult(t *testing.T) {
	p := Precision{Epsilon: 0.02, Confidence: 0.95, MinReps: 3, MaxReps: 200}
	task := noisyTask(7, 10, 3)
	base, err := one(context.Background(), p, 0, 1, task)
	if err != nil {
		t.Fatal(err)
	}
	if base.Reps <= p.MinReps {
		t.Fatalf("want a multi-batch run for this test, got %d reps", base.Reps)
	}
	for _, par := range []int{2, 5, 16} {
		got, err := one(context.Background(), p, 0, par, task)
		if err != nil {
			t.Fatal(err)
		}
		if got.Reps != base.Reps || got.Stats.Mean() != base.Stats.Mean() ||
			got.Stats.Variance() != base.Stats.Variance() {
			t.Fatalf("parallelism %d: (reps=%d mean=%v var=%v) != serial (reps=%d mean=%v var=%v)",
				par, got.Reps, got.Stats.Mean(), got.Stats.Variance(),
				base.Reps, base.Stats.Mean(), base.Stats.Variance())
		}
	}
}

func TestMinEqualsMaxMatchesFixedFold(t *testing.T) {
	const reps = 12
	task := noisyTask(11, 5, 2)
	res, err := one(context.Background(),
		Precision{Epsilon: 1e-9, Confidence: 0.95, MinReps: reps, MaxReps: reps}, 0, 4, task)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != reps {
		t.Fatalf("Reps = %d, want %d", res.Reps, reps)
	}
	// The fold must be byte-identical to a sequential fixed-rep fold, and
	// to the engine's own fixed-rep plan (a disabled Precision).
	var fixed stats.Summary
	for r := 0; r < reps; r++ {
		v, _ := task(r)
		fixed.Add(v)
	}
	plan, err := one(context.Background(), Precision{}, reps, 4, task)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []Result{res, plan} {
		if !reflect.DeepEqual(got.Stats, fixed) {
			t.Fatalf("fold (%v, %v) != sequential fold (%v, %v)",
				got.Stats.Mean(), got.Stats.Variance(), fixed.Mean(), fixed.Variance())
		}
	}
}

func TestStopsAtMaxRepsWithoutConvergence(t *testing.T) {
	// Alternating ±100 never reaches ±0.01% relative precision.
	p := Precision{Epsilon: 1e-4, Confidence: 0.95, MinReps: 2, MaxReps: 17}
	res, err := one(context.Background(), p, 0, 3, func(rep int) (float64, error) {
		if rep%2 == 0 {
			return 100, nil
		}
		return 300, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 17 {
		t.Fatalf("Reps=%d, want 17", res.Reps)
	}
}

func TestFirstErrorByIndexWins(t *testing.T) {
	errBoom := errors.New("boom")
	p := Precision{Epsilon: 0.01, Confidence: 0.95, MinReps: 8, MaxReps: 8}
	_, err := one(context.Background(), p, 0, 8, func(rep int) (float64, error) {
		if rep >= 3 {
			return 0, fmt.Errorf("rep %d: %w", rep, errBoom)
		}
		return 1, nil
	})
	if err == nil || err.Error() != "rep 3: boom" {
		t.Fatalf("err = %v, want the lowest failing index (rep 3)", err)
	}
}

// TestGridLowestFailureWins: the reported failure is the lowest
// replication that failed, not the first failure to arrive.
func TestGridLowestFailureWins(t *testing.T) {
	later := make(chan struct{})
	_, err := Grid(context.Background(), Precision{}, 2, 2, 1, func(_, rep int) (float64, func(bool), error) {
		if rep == 1 {
			defer close(later)
			return 0, nil, errors.New("rep 1")
		}
		<-later
		return 0, nil, errors.New("rep 0")
	})
	if err == nil || err.Error() != "rep 0" {
		t.Fatalf("err = %v, want rep 0, the lower of two failures", err)
	}
}

// TestGridFirstErrorByPoint: across points, the lowest failing point
// wins even when a later point fails at a lower replication, and no
// replication starts after the failure.
func TestGridFirstErrorByPoint(t *testing.T) {
	var started atomic.Int64
	_, err := Grid(context.Background(), Precision{}, 6, 1, 3, func(pt, rep int) (float64, func(bool), error) {
		started.Add(1)
		if pt == 1 && rep == 4 {
			return 0, nil, fmt.Errorf("point %d rep %d", pt, rep)
		}
		return 1, nil, nil
	})
	if err == nil || err.Error() != "point 1 rep 4" {
		t.Fatalf("err = %v, want point 1 rep 4", err)
	}
	if n := started.Load(); n != 6+5 {
		t.Fatalf("%d replications started, want 11 (serial, stopping at the failure)", n)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	p := Precision{Epsilon: 1e-9, Confidence: 0.95, MinReps: 2, MaxReps: 1000}
	_, err := one(ctx, p, 0, 2, func(rep int) (float64, error) {
		once.Do(cancel) // cancel mid-run; later batches must not start
		return float64(rep), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGridFixedPlan: a disabled Precision runs exactly runs replications
// per point, Runs = 1 included, and rejects a count below 1.
func TestGridFixedPlan(t *testing.T) {
	for _, runs := range []int{1, 5} {
		var calls atomic.Int64
		res, err := Grid(context.Background(), Precision{}, runs, 3, 4, func(pt, rep int) (float64, func(bool), error) {
			calls.Add(1)
			return float64(pt*10 + rep), nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != int64(4*runs) {
			t.Fatalf("runs=%d: %d replications, want %d", runs, calls.Load(), 4*runs)
		}
		for pt, r := range res {
			if r.Reps != runs || r.Stats.N() != runs || r.Stats.Min() != float64(pt*10) {
				t.Fatalf("runs=%d point %d: %+v", runs, pt, r)
			}
		}
	}
	if _, err := Grid(context.Background(), Precision{}, 0, 1, 1, nil); err == nil {
		t.Fatal("runs = 0 accepted in fixed-rep mode")
	}
	if _, err := Grid(context.Background(), Precision{Epsilon: 0.1, MinReps: 1}, 3, 1, 1, nil); err == nil {
		t.Fatal("invalid precision accepted")
	}
}

// TestGridPointsMatchAlone: points of different variance share one pool
// with no barrier between them, yet each point's Result at any
// parallelism equals the Result it gets when it runs alone.
func TestGridPointsMatchAlone(t *testing.T) {
	p := Precision{Epsilon: 0.01, Confidence: 0.95, MinReps: 3, MaxReps: 120}
	tasks := []func(int) (float64, error){
		noisyTask(1, 10, 0.1), // converges at MinReps
		noisyTask(2, 10, 1.5), // converges after a few checkpoints
		noisyTask(3, 10, 9),   // exhausts MaxReps
		noisyTask(4, 10, 4),
	}
	alone := make([]Result, len(tasks))
	for i, task := range tasks {
		var err error
		if alone[i], err = one(context.Background(), p, 0, 1, task); err != nil {
			t.Fatal(err)
		}
	}
	if alone[0].Reps != p.MinReps || alone[2].Reps != p.MaxReps || alone[1].Reps == alone[3].Reps {
		t.Fatalf("points do not span the stopping range: reps %d, %d, %d, %d",
			alone[0].Reps, alone[1].Reps, alone[2].Reps, alone[3].Reps)
	}
	for _, par := range []int{1, 2, 5} {
		got, err := Grid(context.Background(), p, 0, par, len(tasks), func(pt, rep int) (float64, func(bool), error) {
			v, err := tasks[pt](rep)
			return v, nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tasks {
			if !reflect.DeepEqual(got[i], alone[i]) {
				t.Fatalf("parallelism %d point %d: reps=%d mean=%v var=%v, alone reps=%d mean=%v var=%v",
					par, i, got[i].Reps, got[i].Stats.Mean(), got[i].Stats.Variance(),
					alone[i].Reps, alone[i].Stats.Mean(), alone[i].Stats.Variance())
			}
		}
	}
}

// TestGridFoldOrder: each point's folds run one at a time, in
// replication order, and only the point's final replication is last.
func TestGridFoldOrder(t *testing.T) {
	p := Precision{Epsilon: 0.01, Confidence: 0.95, MinReps: 3, MaxReps: 40}
	tasks := []func(int) (float64, error){noisyTask(5, 10, 0.1), noisyTask(6, 10, 8), noisyTask(7, 10, 2)}
	folded := make([][]int, len(tasks)) // written only by folds: -race checks the lock
	lasts := make([]int, len(tasks))
	res, err := Grid(context.Background(), p, 0, 4, len(tasks), func(pt, rep int) (float64, func(bool), error) {
		v, err := tasks[pt](rep)
		return v, func(last bool) {
			folded[pt] = append(folded[pt], rep)
			if last {
				lasts[pt]++
			}
		}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for pt := range tasks {
		if len(folded[pt]) != res[pt].Reps || lasts[pt] != 1 {
			t.Fatalf("point %d: %d folds and %d last, want %d and 1", pt, len(folded[pt]), lasts[pt], res[pt].Reps)
		}
		for i, rep := range folded[pt] {
			if rep != i {
				t.Fatalf("point %d folded out of order: %v", pt, folded[pt])
			}
		}
	}
}

// TestGridSerialOrder: with parallelism 1 replications run one after
// another in point order.
func TestGridSerialOrder(t *testing.T) {
	p := Precision{Epsilon: 0.01, Confidence: 0.95, MinReps: 3, MaxReps: 20}
	tasks := []func(int) (float64, error){noisyTask(8, 10, 6), noisyTask(9, 10, 0.1)}
	var order [][2]int
	res, err := Grid(context.Background(), p, 0, 1, len(tasks), func(pt, rep int) (float64, func(bool), error) {
		order = append(order, [2]int{pt, rep})
		v, err := tasks[pt](rep)
		return v, nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for pt := range tasks {
		for rep := 0; rep < res[pt].Reps; rep++ {
			if order[i] != [2]int{pt, rep} {
				t.Fatalf("execution %d was %v, want point %d rep %d (order %v)", i, order[i], pt, rep, order)
			}
			i++
		}
	}
}

// TestGridBoundsWorkers: no more than parallelism replications ever run
// at once, however many points are ready.
func TestGridBoundsWorkers(t *testing.T) {
	const par = 3
	var running, peak atomic.Int64
	_, err := Grid(context.Background(), Precision{}, 4, par, 8, func(pt, rep int) (float64, func(bool), error) {
		n := running.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return 1, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > par || got < 2 {
		t.Fatalf("peak concurrency %d, want in [2, %d]", got, par)
	}
}

// TestGridRecoversPanic: a panicking replication fails the grid with an
// error that names the panic and carries the stack; the process lives.
func TestGridRecoversPanic(t *testing.T) {
	_, err := Grid(context.Background(), Precision{}, 3, 2, 2, func(pt, rep int) (float64, func(bool), error) {
		if pt == 1 && rep == 2 {
			panic("kaboom")
		}
		return 1, nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked: kaboom") ||
		!strings.Contains(err.Error(), "montecarlo_test.go") {
		t.Fatalf("err = %v, want the panic with its stack", err)
	}
}
