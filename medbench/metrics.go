package main

// endToEnd lists the metrics of an untraced run, with their units.
// BENCHMARK.json at the repository root lists the same names.
var endToEnd = []metricDef{
	{"rows_per_s", "rows/s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"peak_heap_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run, with their units. A
// workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{"relation.ingest_s", "s"},
	{"relation.ingest_alloc_mib", "MiB"},
	{"relation.segments", "count"},
	{"relation.egress_s", "s"},
	{"binning.sketch_add_s", "s"},
	{"binning.search_s", "s"},
	{"binning.search_calls", "count"},
	{"binning.greedy_merges", "count"},
	{"binning.transform_s", "s"},
	{"binning.transform_allocs", "count"},
	{"crypt.encrypt_calls", "count"},
	{"crypt.encrypt_s", "s"},
	{"crypt.encrypt_allocs", "count"},
	{"watermark.embed_s", "s"},
	{"watermark.tuples_selected", "count"},
	{"watermark.bits_embedded", "count"},
	{"watermark.detect_s", "s"},
	{"watermark.votes_cast", "count"},
	{"watermark.candidates", "count"},
	{"core.self_s", "s"},
	{"pool.parallel_speedup", "ratio"},
	{"server.protect_job_ms", "ms"},
	{"server.detect_ms", "ms"},
	{"server.fingerprint_ms", "ms"},
	{"server.poll_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.retries", "count"},
	{"jobs.store_put_ms", "ms"},
	{"jobs.store_puts", "count"},
	{"jobs.store_mib", "MiB"},
	{"registry.file_mib", "MiB"},
	{"registry.records", "count"},
	{"audit.write_s", "s"},
	{"audit.records", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead", "ratio"},
}

type metricDef struct{ name, unit string }

// setPerLayerDefaults reports every per-layer metric as 0, for the
// workload to overwrite those of the layers it exercises.
func setPerLayerDefaults(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit)
	}
}

// setIngest reports the CSV ingest spans of a traced call.
func setIngest(rep *report, tr *tracer, segments int) {
	bytes, _ := tr.allocated("relation.ingest")
	rep.set("relation.ingest_s", tr.total("relation.ingest"), "s")
	rep.set("relation.ingest_alloc_mib", float64(bytes)/mib, "MiB")
	rep.set("relation.segments", float64(segments), "count")
}

// setSearch reports a replayed PlanStream search.
func setSearch(rep *report, tr *tracer, st searchStats) {
	rep.set("binning.sketch_add_s", tr.total("binning.sketch_add"), "s")
	rep.set("binning.search_s", tr.total("binning.search"), "s")
	rep.set("binning.search_calls", float64(st.calls), "count")
	rep.set("binning.greedy_merges", float64(st.merges), "count")
}

// setApplyReplay reports a replayed ApplyStream.
func setApplyReplay(rep *report, tr *tracer, st applyStats) {
	_, transformAllocs := tr.allocated("binning.transform")
	_, encryptAllocs := tr.allocated("crypt.encrypt")
	rep.set("relation.egress_s", tr.total("relation.egress"), "s")
	rep.set("binning.transform_s", tr.total("binning.transform"), "s")
	rep.set("binning.transform_allocs", float64(transformAllocs), "count")
	rep.set("crypt.encrypt_calls", float64(st.encryptCalls), "count")
	rep.set("crypt.encrypt_s", tr.total("crypt.encrypt"), "s")
	rep.set("crypt.encrypt_allocs", float64(encryptAllocs), "count")
	rep.set("watermark.embed_s", tr.total("watermark.embed"), "s")
	rep.set("watermark.tuples_selected", float64(st.embed.TuplesSelected), "count")
	rep.set("watermark.bits_embedded", float64(st.embed.BitsEmbedded), "count")
}

// setRuntime reports the collector's work between two snapshots.
func setRuntime(rep *report, before, after gcState) {
	rep.set("runtime.gc_cycles", float64(after.cycles-before.cycles), "count")
	rep.set("runtime.gc_pause_s", (after.pause - before.pause).Seconds(), "s")
}
