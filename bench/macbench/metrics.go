package main

// metricDef is one reported metric: its name, its unit and the
// direction in which it improves. BENCHMARK.json lists the same names
// and units; a test holds the two in step.
type metricDef struct {
	name, unit   string
	higherBetter bool
}

// endToEnd are the metrics an untraced run reports for every workload.
// An operation is one macsim process (static-paper, arena-gauntlet,
// session-steer), one HTTP request (serve-hits) or one job from its due
// time to its result (serve-fresh).
var endToEnd = []metricDef{
	{"setup_s", "s", false},       // median of the run's set-up repetitions
	{"p50_ms", "ms", false},       // median operation latency
	{"tail_ms", "ms", false},      // deepest percentile with ten samples beyond it
	{"ops_per_s", "1/s", true},    // operations completed per second of the timed phase
	{"peak_rss_mb", "MiB", false}, // peak resident memory of the program under test
}

// perLayer are the metrics a traced run reports. Every traced run
// measures all of them, whatever its workload (see traceSuite).
var perLayer = []metricDef{
	{"rng.uint64_ns", "ns", false},
	{"rng.bernoulli_ns", "ns", false},
	{"rng.geometric_ns", "ns", false},
	{"rng.binomial_ns", "ns", false},
	{"rng.poisson_ns", "ns", false},
	{"protocol.step_ns.one-fail", "ns", false},
	{"protocol.step_ns.log-fails-2", "ns", false},
	{"protocol.step_ns.log-fails-10", "ns", false},
	{"protocol.step_ns.bk-cascade", "ns", false},
	{"protocol.step_ns.jz-robust", "ns", false},
	{"kernel.fair_ns_per_delivery", "ns", false},
	{"kernel.window_ns_per_delivery", "ns", false},
	{"kernel.window_step_ns", "ns", false},
	{"kernel.calendar_op_ns", "ns", false},
	{"kernel.windows", "count", false},
	{"harness.busy_frac", "ratio", true},
	{"harness.runs", "count", false},
	{"dynamic.fair_share", "ratio", false},
	{"dynamic.fair_ns_per_slot", "ns", false},
	{"dynamic.window_ns_per_delivery", "ns", false},
	{"dynamic.slots", "count", false},
	{"dynamic.saturated_runs", "count", false},
	{"arena.other_ms", "ms", false},
	{"session.ns_per_window", "ns", false},
	{"session.windows", "count", false},
	{"session.dropped_frac", "ratio", false},
	{"spec.decode_us", "us", false},
	{"spec.validate_us", "us", false},
	{"spec.key_us", "us", false},
	{"spec.run_ms", "ms", false},
	{"spec.encode_ms", "ms", false},
	{"server.handler_hit_us", "us", false},
	{"server.transport_us", "us", false},
	{"server.queue_wait_ms.p50", "ms", false},
	{"server.queue_wait_ms.p95", "ms", false},
	{"server.job_run_ms.p50", "ms", false},
	{"server.hit_ratio", "ratio", true},
	{"server.rejected", "count", false},
	{"store.put_job_us", "us", false},
	{"store.put_result_us", "us", false},
	{"store.get_result_us", "us", false},
	{"store.writes_per_job", "count", false},
	{"loadgen.late_p99_ms", "ms", false},
}

// metricSet renders measured values as the run record's metric map,
// in the units defs declares. Every name in defs must be present in
// values; a missing one is a bug in macbench.
func metricSet(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}
