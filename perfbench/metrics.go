package main

import "libra/internal/experiments"

// metricDef is one reported metric. layer marks a per-layer metric
// (printed by --trace 1); the rest are end-to-end (--trace 0).
type metricDef struct {
	name, unit string
	layer      bool
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each one's meaning per
// workload.
var endToEnd = []metricDef{
	{name: "throughput_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_tail_ms", unit: "ms"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the traced run's metrics, by module. A workload that does
// not reach a layer reports its metrics as 0.
var perLayer = append([]metricDef{
	// sim: the timing wrapper around the clock handed to core.RunOn.
	{"sim.events_fired", "count", true},
	{"sim.queue_peak", "count", true},
	{"sim.schedule_s", "s", true},
	{"sim.dispatch_self_s", "s", true},
	// platform: callbacks classed by the first obs event they emit.
	{"platform.arrival_s", "s", true},
	{"platform.complete_s", "s", true},
	{"platform.tick_s", "s", true},
	{"platform.other_s", "s", true},
	{"platform.drain_dispatches", "count", true},
	{"platform.peak_pending", "count", true},
	// profiler: isolated Predict/Observe replay of the workload's arrivals.
	{"profiler.trainings", "count", true},
	{"profiler.train_s", "s", true},
	{"profiler.predict_calls", "count", true},
	{"profiler.predict_us_mean", "us", true},
	// Exact counts folded from the traced run's obs events.
	{"scheduler.decisions", "count", true},
	{"scheduler.decision_s", "s", true},
	{"harvest.harvests", "count", true},
	{"harvest.loan_grants", "count", true},
	{"harvest.loan_revokes", "count", true},
	{"harvest.reharvests", "count", true},
	{"harvest.expires", "count", true},
	{"harvest.revoke_ratio", "ratio", true},
	{"cluster.cold_start_ratio", "ratio", true},
	{"cluster.exec_start_s", "s", true},
	{"faults.crash_aborts", "count", true},
	{"faults.retries", "count", true},
	{"obs.events", "count", true},
	{"obs.overhead_pct", "%", true},
	// serve and clock on the live path, from the benchmark's own spans.
	{"serve.accept_ms_p50", "ms", true},
	{"serve.accept_ms_p99", "ms", true},
	{"serve.ingress_ms_p50", "ms", true},
	{"serve.ingress_ms_p99", "ms", true},
	{"serve.complete_ms_p99", "ms", true},
	{"platform.live_sched_ms_p99", "ms", true},
	{"cluster.live_exec_ms_p50", "ms", true},
	{"clock.events_per_req", "count", true},
	{"serve.cpu_us_per_req", "us", true},
	{"loadgen.late_ms_p99", "ms", true},
	{"loadgen.accept_ms_p99", "ms", true},
	// experiments: host seconds per registered experiment in quick mode.
	{"experiments.units", "count", true},
}, experimentMetrics()...)

func experimentMetrics() []metricDef {
	var out []metricDef
	for _, e := range experiments.All() {
		out = append(out, metricDef{experimentMetric(e.ID), "s", true})
	}
	return out
}

func experimentMetric(id string) string { return "experiments." + id + "_s" }
