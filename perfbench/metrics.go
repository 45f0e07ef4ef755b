package main

import (
	"fmt"
	"math"
)

// spec names one metric and its unit, as BENCHMARK.json declares it.
type spec struct{ name, unit string }

// endToEnd is the catalogue of end-to-end metrics, in print order. An
// untraced run of every workload prints all of them; wall_s is the time of
// the workload's operation: a whole sweep, one multicore run, or one served
// job at the reference rate.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is the catalogue of per-layer metrics a traced run prints for
// every workload; a layer that does no work on a workload reads 0.
var perLayer = []spec{
	{name: "cpu.self_pct", unit: "%"},
	{name: "cache.self_pct", unit: "%"},
	{name: "ctrl.self_pct", unit: "%"},
	{name: "dram.self_pct", unit: "%"},
	{name: "core.self_pct", unit: "%"},
	{name: "sim.self_pct", unit: "%"},
	{name: "trace.self_pct", unit: "%"},
	{name: "hammer.self_pct", unit: "%"},
	{name: "oracle.self_pct", unit: "%"},
	{name: "engine.self_pct", unit: "%"},
	{name: "store.self_pct", unit: "%"},
	{name: "service.self_pct", unit: "%"},
	{name: "nethttp.self_pct", unit: "%"},
	{name: "json.self_pct", unit: "%"},
	{name: "runtime.gc_pct", unit: "%"},
	{name: "other.self_pct", unit: "%"},
	{name: "ctrl.refresh_pct", unit: "%"},
	{name: "ctrl.schedule_pct", unit: "%"},
	{name: "dram.open_scan_pct", unit: "%"},
	{name: "sim.setup_pct", unit: "%"},
	{name: "engine.exec_p50_ms", unit: "ms"},
	{name: "engine.exec_p95_ms", unit: "ms"},
	{name: "engine.wait_p50_ms", unit: "ms"},
	{name: "engine.executions", unit: "count"},
	{name: "engine.hit_ratio", unit: "ratio"},
	{name: "engine.tail_idle_pct", unit: "%"},
	{name: "engine.longest_run_s", unit: "s"},
	{name: "exp.reduce_ms", unit: "ms"},
	{name: "store.read_p50_ms", unit: "ms"},
	{name: "store.write_p50_ms", unit: "ms"},
	{name: "store.write_p99_ms", unit: "ms"},
	{name: "store.hit_ratio", unit: "ratio"},
	{name: "service.queue_wait_p50_ms", unit: "ms"},
	{name: "service.queue_wait_p99_ms", unit: "ms"},
	{name: "service.run_p50_ms", unit: "ms"},
	{name: "service.rejected", unit: "count"},
	{name: "job_p99_ms", unit: "ms"},
	{name: "warm_p50_ms", unit: "ms"},
	{name: "store_p50_ms", unit: "ms"},
	{name: "cold_p50_ms", unit: "ms"},
	{name: "max_rate_jobs_per_s", unit: "jobs/s"},
	{name: "saturated_jobs_per_s", unit: "jobs/s"},
	{name: "http.submit_p50_ms", unit: "ms"},
	{name: "http.submit_p99_ms", unit: "ms"},
	{name: "http.poll_p50_ms", unit: "ms"},
	{name: "http.polls_per_job", unit: "polls/job"},
	{name: "loadgen.late_p99_ms", unit: "ms"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "cpu.ipc_mean", unit: "inst/cycle"},
	{name: "cache.mpki_mean", unit: "miss/kinst"},
	{name: "ctrl.row_hit_rate", unit: "ratio"},
	{name: "ctrl.read_p99_ns", unit: "ns"},
	{name: "dram.acts", unit: "count"},
	{name: "dram.refs", unit: "count"},
	{name: "core.crow_hit_rate", unit: "ratio"},
	{name: "energy.total_nj", unit: "nJ"},
	{name: "sim.host_ns_per_cmd", unit: "ns"},
}

// expected returns the catalogue a run prints.
func expected(traced bool) []spec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// conform orders r's metrics by the catalogue and checks their units. A
// per-layer metric the workload did not measure reads 0 (its layer did no
// work); a missing end-to-end metric is a bug in the workload.
func (r *result) conform(workload string, traced bool) error {
	got := map[string]metric{}
	for _, m := range r.metrics {
		got[m.name] = m
	}
	var out []metric
	for _, s := range expected(traced) {
		m, ok := got[s.name]
		switch {
		case !ok && traced:
			m = metric{name: s.name, unit: s.unit}
		case !ok:
			return fmt.Errorf("%s: end-to-end metric %s not measured", workload, s.name)
		case m.unit != s.unit:
			return fmt.Errorf("%s: metric %s has unit %q, want %q", workload, s.name, m.unit, s.unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			return fmt.Errorf("%s: metric %s is %v", workload, s.name, m.value)
		}
		out = append(out, m)
	}
	r.metrics = out
	return nil
}
