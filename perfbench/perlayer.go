package main

// stepKinds are the nn.OpKind names whose Run.Step cost is reported.
var stepKinds = []string{"conv", "pool", "gpool", "fc", "add", "concat", "shuffle"}

// perLayerUnits lists every per-layer metric and its unit. A --trace 1
// run reports all of them on every workload; a figure whose layer the
// workload does not exercise reads 0 (for example dse.sweep_ms outside
// sweep-dse, or core.step_us.* on serve-hot, where core never runs).
func perLayerUnits() [][2]string {
	m := [][2]string{
		{"nn.build_ms", "ms"},
		{"core.newrun_us", "us"},
		{"core.final_step_us", "us"},
	}
	for _, k := range stepKinds {
		m = append(m, [2]string{"core.step_us." + k, "us"}, [2]string{"core.step_allocs." + k, "count"})
	}
	return append(m, [][2]string{
		{"sram.banks_recycled_per_op", "count"},
		{"sram.role_switches_per_op", "count"},
		{"sram.peak_used_banks", "count"},
		{"dse.sweep_ms", "ms"},
		{"dse.fit_ratio", "ratio"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.cache_evictions_per_kop", "count"},
		{"serve.resp_kb", "KiB"},
		{"serve.rejected_ratio", "ratio"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"sched.job_ms_p50", "ms"},
		{"journal.appends_per_job", "count"},
		{"journal.bytes_per_job", "B"},
		{"journal.checkpoints_per_job", "count"},
		{"journal.compactions", "count"},
		{"runtime.gc_per_kop", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"latency_p99_ms", "ms"},
		{"host.probe_mops", "Mops/s"},
		{"trace.overhead_pct", "%"},
	}...)
}

// perLayer derives the per-layer metrics of a --trace 1 run. Span
// figures come from the tracer (the traced half, plus the reference
// computations setup and verification traced); the model counts from
// the traced half; the runtime counters from the untraced half, which
// the tracer's own allocations do not disturb. latency_p99_ms is the
// untraced half's tail latency: its run-to-run spread on a shared
// host is too wide to bound it as an end-to-end metric.
func perLayer(tr *tracer, plain, traced *phase) *result {
	pa, pf, pfail, _ := plain.totals()
	ta, tf, tfail, model := traced.totals()
	r := newResult(pa+ta, pf+tf, append(pfail, tfail...))
	units := map[string]string{}
	for _, u := range perLayerUnits() {
		units[u[0]] = u[1]
		r.set(u[0], traced.extra[u[0]], u[1])
	}
	set := func(name string, v float64) { r.set(name, v, units[name]) }

	set("nn.build_ms", tr.sumUS("nn.Build")/1000)
	set("core.newrun_us", tr.medianUS("core.NewRun"))
	set("core.final_step_us", tr.medianUS("core.Step.final"))
	for _, k := range stepKinds {
		set("core.step_us."+k, tr.medianUS("core.Step."+k))
		set("core.step_allocs."+k, tr.meanAllocs("core.Step."+k))
	}
	set("sram.banks_recycled_per_op", model.perOp(model.recycled))
	set("sram.role_switches_per_op", model.perOp(model.roleSwitches))
	set("sram.peak_used_banks", model.perOp(model.peakBanks))
	set("dse.sweep_ms", tr.medianUS("dse.ExploreContext")/1000)

	var rejected int64
	for _, l := range traced.lanes {
		rejected += l.rejected
	}
	if ta > 0 {
		set("serve.rejected_ratio", float64(rejected)/float64(ta))
	}
	set("latency_p99_ms", median(plain.blockQuantiles(0.99)))
	if ops := plain.completed(); ops > 0 {
		set("runtime.gc_per_kop", float64(plain.rt1.gcCycles-plain.rt0.gcCycles)*1000/float64(ops))
	}
	if cpu := plain.rt1.totalCPU - plain.rt0.totalCPU; cpu > 0 {
		set("runtime.gc_cpu_share", (plain.rt1.gcCPU-plain.rt0.gcCPU)/cpu)
	}
	if base := plain.throughput(); base > 0 {
		set("trace.overhead_pct", (base-traced.throughput())/base*100)
	}
	return r
}
