package main

// The benchmark's metrics. BENCHMARK.json lists the same names, units
// and directions (TestMetricTablesMatchBenchmarkJSON); the tables here
// also say, for each per-layer metric, which end-to-end metric it
// should move and on which workload, which BENCHMARK.json has no field
// for.

type metricDef struct {
	name, unit, better string
	// bound: end-to-end only, the share of the parent's median by which
	// the metric may worsen before a change counts as a regression.
	bound float64
	// moves and on: per-layer only, the end-to-end metric the layer
	// metric should move, and the workload it shows on.
	moves, on string
}

var endToEnd = []metricDef{
	// setup_s is the median of setupRepeats set-ups in one run.
	// The timing bounds are wide because a shared host moves whole
	// runs: cold-mix's throughput and p50 spread by up to a fifth over
	// ten seeds (README.md).
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	// On hot-hit and cold-mix each one-second window holds over a
	// thousand ops, so more than ten beyond its p99. paper-repro
	// completes a few dozen reproductions a run, so there p99_ms is
	// close to the slowest one.
	{name: "p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "success_rate", unit: "ratio", better: "higher", bound: 0.01},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	// A garbage-collected peak: paper-repro's moves by a tenth between
	// runs with the collector's timing.
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "client.call_us", unit: "us", better: "lower", moves: "p50_ms", on: "hot-hit"},
	{name: "client.self_us", unit: "us", better: "lower", moves: "p50_ms, allocs_per_op", on: "hot-hit"},
	{name: "client.retries_per_op", unit: "count", better: "lower", moves: "p50_ms", on: "hot-hit"},
	{name: "net.loopback_us", unit: "us", better: "lower", moves: "p50_ms", on: "hot-hit"},
	{name: "server.handler_us", unit: "us", better: "lower", moves: "throughput_rps, p50_ms", on: "hot-hit"},
	{name: "server.self_us", unit: "us", better: "lower", moves: "throughput_rps, p50_ms", on: "hot-hit"},
	{name: "server.decode_us", unit: "us", better: "lower", moves: "throughput_rps, p50_ms", on: "hot-hit"},
	{name: "server.encode_us", unit: "us", better: "lower", moves: "throughput_rps, p50_ms", on: "hot-hit"},
	{name: "server.gate_us", unit: "us", better: "lower", moves: "throughput_rps (should stay near 0)", on: "cold-mix"},
	{name: "servecache.lookup_us", unit: "us", better: "lower", moves: "throughput_rps", on: "hot-hit"},
	{name: "servecache.hit_ratio", unit: "ratio", better: "higher", moves: "throughput_rps", on: "hot-hit"},
	{name: "servecache.evictions_per_op", unit: "count", better: "lower", moves: "peak_rss_mb", on: "cold-mix"},
	{name: "servecache.coalesced_per_op", unit: "count", better: "higher", moves: "throughput_rps", on: "cold-mix"},
	{name: "servecache.entries", unit: "count", better: "lower", moves: "peak_rss_mb", on: "cold-mix"},
	{name: "servecache.entries_setup", unit: "count", better: "lower", moves: "peak_rss_mb, setup_s", on: "cold-mix"},
	{name: "engine.evaluate_us", unit: "us", better: "lower", moves: "throughput_rps, p99_ms", on: "cold-mix"},
	{name: "sweep.grid_us", unit: "us", better: "lower", moves: "throughput_rps, p99_ms", on: "cold-mix"},
	{name: "model.optimize_us", unit: "us", better: "lower", moves: "throughput_rps, p99_ms", on: "cold-mix"},
	{name: "project.project_us", unit: "us", better: "lower", moves: "throughput_rps, p99_ms", on: "cold-mix"},
	{name: "sensitivity.montecarlo_us", unit: "us", better: "lower", moves: "throughput_rps, p99_ms", on: "cold-mix"},
	{name: "scenario.compare_us", unit: "us", better: "lower", moves: "throughput_rps, p99_ms", on: "cold-mix"},
	{name: stepFigure2, unit: "ms", better: "lower", moves: "throughput_rps, p50_ms", on: "paper-repro"},
	{name: stepTable4, unit: "ms", better: "lower", moves: "throughput_rps, p50_ms", on: "paper-repro"},
	{name: stepTable5, unit: "ms", better: "lower", moves: "throughput_rps, p50_ms", on: "paper-repro"},
	{name: stepFigure34, unit: "ms", better: "lower", moves: "throughput_rps, p50_ms", on: "paper-repro"},
	{name: stepFigures, unit: "ms", better: "lower", moves: "throughput_rps, p50_ms", on: "paper-repro"},
	{name: stepScenarios, unit: "ms", better: "lower", moves: "throughput_rps, p50_ms", on: "paper-repro"},
	{name: stepConclusions, unit: "ms", better: "lower", moves: "throughput_rps, p50_ms", on: "paper-repro"},
	{name: stepSensitivity, unit: "ms", better: "lower", moves: "throughput_rps, p50_ms", on: "paper-repro"},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower", moves: "allocs_per_op, throughput_rps", on: "all"},
	{name: "runtime.gc_per_kop", unit: "count", better: "lower", moves: "throughput_rps", on: "all"},
	{name: "runtime.gc_pause_us_per_op", unit: "us", better: "lower", moves: "throughput_rps", on: "all"},
	{name: "runtime.heap_inuse_mb", unit: "MB", better: "lower", moves: "peak_rss_mb", on: "all"},
	{name: "trace.overhead", unit: "ratio", better: "higher", moves: "none; reported only", on: "all"},
}
