package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names; TestMetricNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run reports: what a user of the simulator,
// the crawl pipeline or the plan catalog waits for and pays.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"work_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run reports. A metric a workload does not
// exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"setup.topology_s", "s"},
		{"setup.population_s", "s"},
		{"setup.tracegen_s", "s"},
		{"setup.plan_load_s", "s"},
		{"cdn.run_s", "s"},
		{"analysis.dataset_s", "s"},
	}
	for _, f := range traceFigs {
		defs = append(defs, metricDef{"analysis." + f.id + "_s", "s"})
	}
	for _, f := range sweepFigs {
		defs = append(defs, metricDef{"figures." + f.id + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"plan.cell_p50_ms", "ms"},
		metricDef{"plan.cell_p80_ms", "ms"},
	)
	for _, f := range planFeatures {
		defs = append(defs, metricDef{"plan." + f.name + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"sim.events", "count"},
		metricDef{"netmodel.msgs", "count"},
		metricDef{"cdn.user_observations", "count"},
		metricDef{"analysis.records", "count"},
		metricDef{"analysis.unstable_outputs", "count"},
		metricDef{"plan.cells", "count"},
		metricDef{"plan.checks", "count"},
		metricDef{"audit.checks", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"runner.busy_frac", "ratio"},
		metricDef{"runner.speedup", "ratio"},
		metricDef{"audit.overhead_frac", "ratio"},
		metricDef{"barrier.speedup_2v1", "ratio"},
	)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b + "_s", "s"})
	}
	return append(defs,
		metricDef{"cpu.total_s", "s"},
		metricDef{"cpu.coverage_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"fail_frac", "ratio"},
	)
}()
