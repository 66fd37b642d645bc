package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units; a test keeps them equal.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported for every workload; a
// layer a workload does not exercise, or whose public results do not expose
// a count, reads 0. Counts marked sim_ are simulated quantities, exact and
// identical on every run of a commit; everything else is host time.
var perLayer = []metricDef{
	// Host time from spans around public calls.
	{"program.walk_ns_per_instr", "ns"},
	{"cpu.self_ns_per_instr", "ns"},
	{"serverless.flush_us", "us"},
	{"runner.cell_ms_p50", "ms"},
	{"runner.cell_ms_p90", "ms"},
	{"runner.cell_samples", "count"},
	{"trace.overhead_frac", "ratio"},
	// Host time from the CPU profile: each layer's self share, runtime
	// frames charged to the innermost repository caller.
	{"program.cpu_share", "%"},
	{"cpu.cpu_share", "%"},
	{"mem.cpu_share", "%"},
	{"vm.cpu_share", "%"},
	{"core.cpu_share", "%"},
	{"reap.cpu_share", "%"},
	{"predict.cpu_share", "%"},
	{"sched.cpu_share", "%"},
	{"serverless.cpu_share", "%"},
	{"cluster.cpu_share", "%"},
	{"runner.cpu_share", "%"},
	{"experiments.cpu_share", "%"},
	{"pif.cpu_share", "%"},
	{"faults.cpu_share", "%"},
	{"other.cpu_share", "%"},
	{"go.cpu_share", "%"},
	// Go runtime, over the untraced reference round.
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"runner.worker_util", "ratio"},
	// Exact simulated counts.
	{"cpu.instrs", "count"},
	{"cpu.cycles", "sim_cycles"},
	{"cpu.fetch_latency_frac", "ratio"},
	{"mem.l1i_misses", "count"},
	{"mem.l2_misses", "count"},
	{"mem.llc_misses", "count"},
	{"mem.dram_bytes", "B"},
	{"vm.itlb_misses", "count"},
	{"vm.page_walks", "count"},
	{"core.replay_prefetches", "count"},
	{"core.prefetch_used_frac", "ratio"},
	{"predict.prewarm_used_frac", "ratio"},
	{"serverless.cold_starts", "count"},
	{"serverless.migrations", "count"},
	{"serverless.sync_replay_ms", "sim_ms"},
	{"cluster.attempts", "count"},
	{"cluster.availability", "ratio"},
	{"cluster.wasted_hedge_frac", "ratio"},
	{"cluster.p99_latency_ms", "sim_ms"},
	{"runner.cells", "count"},
	{"runner.cache_hit_frac", "ratio"},
}
