package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/spec"
)

// inputRand generates the benchmark's inputs: splitmix64 keyed by the
// seed and a stream name. The inputs therefore depend only on the seed
// and this file — never on the random-number code the benchmark
// measures, which a change under test may alter.
type inputRand struct{ s uint64 }

func newInputRand(seed uint64, stream string) *inputRand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &inputRand{s: seed ^ h.Sum64()}
}

func (r *inputRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *inputRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *inputRand) intn(n int) int { return int(r.next() % uint64(n)) }

// seed returns a simulation seed: positive and exact in JSON.
func (r *inputRand) seed() uint64 { return 1 + r.next()>>12 }

// zipf draws indices 0..n-1 with P(i) ∝ (i+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *inputRand) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// request is one submit: the /v1/{kind} endpoint and its JSON body.
type request struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// protocols is the protocol registry as the inputs name it. It is
// spelled out here, not read from the code under test, so the inputs
// stay fixed when the registry changes.
var protocols = []string{"one-fail", "exp-bb", "log-fails-2", "log-fails-10", "loglog-iterated",
	"exp-backoff", "bk-cascade", "cjz-ladder", "jz-robust"}

// hitBodies returns the serve-hits working set: n small specs across
// the five submit kinds, every one cheap enough to warm in well under a
// second.
func hitBodies(seed uint64, n int) []request {
	r := newInputRand(seed, "serve-hits")
	out := make([]request, n)
	for i := range out {
		var kind, body string
		switch i % 8 {
		case 0, 1, 2:
			kind = "solve"
			body = fmt.Sprintf(`{"protocol":%q,"k":%d,"seed":%d}`,
				protocols[r.intn(len(protocols))], 500+r.intn(4500), r.seed())
		case 3, 4:
			kind = "evaluate"
			body = fmt.Sprintf(`{"ks":[10,100,1000],"runs":%d,"seed":%d}`, 1+r.intn(2), r.seed())
		case 5:
			kind = "throughput"
			shapes := []string{"poisson", "bursty", "onoff"}
			body = fmt.Sprintf(`{"shape":%q,"lambdas":[%g],"messages":%d,"runs":1,"seed":%d}`,
				shapes[r.intn(len(shapes))], []float64{0.05, 0.1}[r.intn(2)], 100+r.intn(100), r.seed())
		case 6:
			kind = "scenario"
			scenarios := []string{"poisson", "onoff", "rho", "herd", "jammed", "mixed"}
			body = fmt.Sprintf(`{"scenario":%q,"lambdas":[0.1],"messages":100,"runs":1,"seed":%d}`,
				scenarios[r.intn(len(scenarios))], r.seed())
		default:
			kind = "arena"
			a := r.intn(len(protocols))
			b := (a + 1 + r.intn(len(protocols)-1)) % len(protocols)
			body = fmt.Sprintf(`{"protocols":[%q,%q],"scenarios":[%q],"messages":60,"runs":1,"seed":%d}`,
				protocols[a], protocols[b], []string{"herd", "rho", "jammed"}[r.intn(3)], r.seed())
		}
		out[i] = request{Kind: kind, Body: json.RawMessage(body)}
	}
	return out
}

// freshJob is one scheduled serve-fresh submission.
type freshJob struct {
	Due time.Duration `json:"due"`
	request
}

// freshSchedule returns the serve-fresh open-loop schedule: exactly
// rate × span jobs, due at uniformly random times over the span (which
// is how a Poisson process with that many arrivals places them), each
// body carrying a seed no other body has, so every submit misses the
// cache. The mix is exactly 60% one-fail solves at k=20000, 20%
// two-point throughput sweeps, 12% two-size evaluate sweeps and 8%
// small arenas, in shuffled order. Fixing the count and the mix leaves
// the seed only the order and the timing to decide; with solves in the
// majority, the median job lies inside the solves' latencies rather
// than on the gap between them and the heavier kinds. The sweeps stay
// below every protocol's saturation point (λ ≤ 0.1): a saturated point
// burns its whole slot budget, which would make a job's cost depend on
// the seed far more than on the code.
func freshSchedule(seed uint64, span time.Duration, rate float64) []freshJob {
	r := newInputRand(seed, "serve-fresh")
	n := int(math.Round(rate * span.Seconds()))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = r.float() * span.Seconds()
	}
	sort.Float64s(dues)
	kinds := make([]int, n)
	for i := range kinds {
		switch f := float64(i) / float64(n); {
		case f < 0.6:
			kinds[i] = 0
		case f < 0.8:
			kinds[i] = 1
		case f < 0.92:
			kinds[i] = 2
		default:
			kinds[i] = 3
		}
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	base := r.next() >> 24 // leaves room for one distinct seed per job
	out := make([]freshJob, n)
	for i := range out {
		s := base + uint64(i) + 1
		var kind, body string
		switch kinds[i] {
		case 0:
			kind, body = "solve", fmt.Sprintf(`{"protocol":"one-fail","k":20000,"seed":%d}`, s)
		case 1:
			kind, body = "throughput", fmt.Sprintf(`{"lambdas":[0.05,0.1],"messages":500,"seed":%d}`, s)
		case 2:
			kind, body = "evaluate", fmt.Sprintf(`{"ks":[1000,10000],"runs":2,"seed":%d}`, s)
		default:
			kind, body = "arena", fmt.Sprintf(`{"protocols":["one-fail","exp-bb","jz-robust"],"scenarios":["herd"],"messages":100,"runs":1,"seed":%d}`, s)
		}
		out[i] = freshJob{Due: time.Duration(dues[i] * float64(time.Second)), request: request{Kind: kind, Body: json.RawMessage(body)}}
	}
	return out
}

// sessionCheckpoint returns the session-steer replay document: an
// exp-bb session with 64-slot windows and a 4096-event buffer, run for
// the given number of windows, with a scripted control log. The load
// rises to just under exp-bb's capacity, a duty-cycle jammer switches
// on, the backlog is handed to loglog-iterated (whose capacity is about
// twice exp-bb's), the jammer switches off and the load drops, so the
// run ends with a drained backlog.
func sessionCheckpoint(seed uint64, windows int) spec.SessionCheckpoint {
	r := newInputRand(seed, "session-steer")
	const window = 64
	at := func(frac float64) uint64 { return 1 + window*uint64(frac*float64(windows)) }
	return spec.SessionCheckpoint{
		Event:  "checkpoint",
		Slot:   1 + window*uint64(windows),
		Window: windows,
		Session: spec.SessionSpec{
			Protocol:   spec.ProtocolSpec{Name: "exp-bb"},
			Lambda:     0.08,
			Seed:       r.seed(),
			Window:     window,
			MaxWindows: windows,
			Buffer:     4096,
		},
		Log: []spec.ControlMessage{
			{Type: spec.ControlSetLambda, Lambda: 0.12, Slot: at(0.2)},
			{Type: spec.ControlJam, Jam: &spec.JamSpec{Mode: spec.JamPattern, Period: 32, Burst: 1}, Slot: at(0.4)},
			{Type: spec.ControlSwapProtocol, Protocol: &spec.ProtocolSpec{Name: "loglog-iterated"}, Slot: at(0.55)},
			{Type: spec.ControlJam, Jam: &spec.JamSpec{Mode: spec.JamOff}, Slot: at(0.7)},
			{Type: spec.ControlSetLambda, Lambda: 0.05, Slot: at(0.85)},
		},
	}
}
