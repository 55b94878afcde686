package main

import (
	"slices"
	"sync"
	"time"

	"repro/bench/stats"
)

// The host this benchmark runs on is shared: its speed drifts with the
// load of its neighbours, by ±20% between runs minutes apart and by as
// much within one run. The benchmark therefore times a fixed reference
// computation of its own between the samples of every run, and reports
// each time scaled to the reference's nominal speed:
//
//	reported = measured × refNominalMs / (reference time next to the sample)
//
// The reference is benchmark code that no change under test touches,
// so the scaling cancels the host's drift and leaves the program's own
// speed. Raw times are kept in the run file and printed beside the
// scaled ones.

// refNominalMs is the reference's wall time on an unloaded two-vCPU
// Intel Xeon host: the speed reported times are scaled to.
const refNominalMs = 12.0

// refBufs are the reference's two work arrays, allocated and touched
// once so that no timing pays for page faults or garbage collection.
var (
	refBufs [2][]uint64
	refOnce sync.Once
)

// reference times one run of the reference computation — generating
// and sorting 2¹⁷ values on each of two goroutines, as the simulators
// keep both processors busy — and returns its wall time in
// milliseconds.
func reference() float64 {
	refOnce.Do(func() {
		for g := range refBufs {
			refBufs[g] = make([]uint64, 1<<17)
		}
		referenceWork()
	})
	t0 := time.Now()
	referenceWork()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func referenceWork() {
	var wg sync.WaitGroup
	for g := range refBufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs := refBufs[g]
			r := newInputRand(uint64(g), "reference")
			for i := range xs {
				xs[i] = r.next()
			}
			slices.Sort(xs)
		}()
	}
	wg.Wait()
	sinkU += refBufs[0][1<<16] + refBufs[1][1<<16]
}

// timings is one run's durations, in seconds.
type timings struct {
	setups  []float64 // per set-up repetition
	lat     []float64 // per completed operation
	elapsed float64   // the timed phase
}

// clock records durations both as measured and scaled to reference
// speed, each between the two reference timings that bracket it.
type clock struct {
	raw, scaled timings
	refs        []float64 // every reference timing, ms
}

// ref times the reference three times and returns the median, in ms.
func (c *clock) ref() float64 {
	r := stats.Median([]float64{reference(), reference(), reference()})
	c.refs = append(c.refs, r)
	return r
}

// speedFactor converts a time measured between two reference timings
// to reference speed.
func speedFactor(before, after float64) float64 { return refNominalMs / ((before + after) / 2) }

// setup records one set-up repetition.
func (c *clock) setup(sec, before, after float64) {
	c.raw.setups = append(c.raw.setups, sec)
	c.scaled.setups = append(c.scaled.setups, sec*speedFactor(before, after))
}

// ops records completed operations and the phase time they took.
func (c *clock) ops(lat []float64, elapsed, before, after float64) {
	f := speedFactor(before, after)
	c.raw.lat = append(c.raw.lat, lat...)
	for _, l := range lat {
		c.scaled.lat = append(c.scaled.lat, l*f)
	}
	c.raw.elapsed += elapsed
	c.scaled.elapsed += elapsed * f
}
