package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; TestBenchmarkJSONMatchesProgram keeps the two
// in step.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"sim_mcycles_per_s", "Mcycle/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_gb", "GB"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// layerMetrics are reported by every traced run; a layer a workload does
// not reach reads 0.
var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"workload.build_s", "s"},
		{"workload.builds", "count"},
		{"logging.generate_s", "s"},
		{"logging.uops", "count"},
		{"logging.alloc_mb", "MB"},
		{"core.newsystem_s", "s"},
		{"core.newsystem_alloc_mb", "MB"},
		{"core.systems", "count"},
		{"core.run_s", "s"},
		{"core.sim_cycles", "count"},
		{"core.ns_per_sim_cycle", "ns"},
		{"cpu.retired_uops", "count"},
		{"cpu.frontend_stall_cycles", "count"},
		{"cpu.llt_misses", "count"},
		{"cache.load_misses", "count"},
		{"nvm.writes_data", "count"},
		{"nvm.writes_log", "count"},
		{"nvm.writes_truncate", "count"},
		{"engine.jobs", "count"},
		{"engine.job_p50_ms", "ms"},
		{"engine.job_max_ms", "ms"},
		{"engine.busy_frac", "ratio"},
		{"crashcampaign.tuple_p50_s", "s"},
		{"crashcampaign.tuple_max_s", "s"},
		{"crashcampaign.tuple_over_ref", "ratio"},
		{"crashcampaign.injections", "count"},
		{"crashcampaign.verified", "count"},
		{"crashcampaign.detected", "count"},
		{"crashcampaign.vulnerable", "count"},
		{"crashcampaign.failed", "count"},
		{"litmus.cases", "count"},
		{"litmus.persist_states", "count"},
		{"litmus.injections", "count"},
		{"serve.requests", "count"},
		{"serve.fresh", "count"},
		{"serve.exec_p50_ms", "ms"},
		{"serve.overhead_p50_ms", "ms"},
		{"resultstore.load_p50_ms", "ms"},
		{"resultstore.store_p50_ms", "ms"},
		{"resultstore.hits", "count"},
		{"resultstore.bytes_written", "bytes"},
		{"ledger.batches", "count"},
		{"ledger.bytes_written", "bytes"},
		{"ledger.bytes_per_leaf", "bytes"},
		{"ledger.fs_s", "s"},
		{"trace.overhead_frac", "ratio"},
		{"trace.uncovered_share", "ratio"},
	}
	for _, mod := range shareModules {
		m = append(m, metricDef{mod + ".cpu_share", "ratio"}, metricDef{mod + ".alloc_share", "ratio"})
	}
	return append(m, metricDef{"go.gc_cpu_share", "ratio"}, metricDef{"go.other_cpu_share", "ratio"})
}()

func unitOf(defs []metricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.name == name {
			return d.unit, true
		}
	}
	return "", false
}
