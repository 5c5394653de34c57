package main

// metricDef names one reported metric and its unit, as BENCHMARK.json
// lists it.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run (--trace 0) reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pipeline_ms_p50", "ms"},
	{"pipeline_ms_p90", "ms"},
	{"rows_per_s", "rows/s"},
	{"cpu_ms_per_pipeline", "ms"},
	{"alloc_mb_per_pipeline", "MB"},
	{"allocs_per_pipeline", "count"},
	{"peak_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer is what a traced run (--trace 1) reports.
var perLayer = []metricDef{
	{"dfs.read_ms", "ms"},
	{"row.text_decode_ms", "ms"},
	{"row.text_decode_alloc_mb", "MB"},
	{"sqlengine.prep_ms", "ms"},
	{"sqlengine.prep_alloc_mb", "MB"},
	{"sqlengine.rows_out", "count"},
	{"sqlengine.export_ms", "ms"},
	{"transform.apply_ms", "ms"},
	{"transform.apply_alloc_mb", "MB"},
	{"transform.recode_levels", "count"},
	{"row.wire_encode_ms", "ms"},
	{"row.wire_decode_ms", "ms"},
	{"row.wire_bytes", "bytes"},
	{"row.raw_bytes", "bytes"},
	{"stream.send_ms", "ms"},
	{"stream.frames", "count"},
	{"stream.wire_bytes", "bytes"},
	{"stream.spilled_bytes", "bytes"},
	{"stream.reconnects", "count"},
	{"stream.restarts", "count"},
	{"hadoopfmt.reader_wait_ms", "ms"},
	{"hadoopfmt.reader_calls", "count"},
	{"hadoopfmt.colbatch_calls", "count"},
	{"ml.ingest_ms", "ms"},
	{"ml.convert_ms", "ms"},
	{"ml.ingest_alloc_mb", "MB"},
	{"jaql.transform_ms", "ms"},
	{"mapred.tasks", "count"},
	{"mapred.shuffle_bytes", "bytes"},
	{"mapred.task_retries", "count"},
	{"dfs.write_bytes", "bytes"},
	{"dfs.staging_bytes", "bytes"},
	{"rewriter.analyze_ms", "ms"},
	{"cache.lookup_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups", "count"},
	{"cluster.sim_ms", "sim-ms"},
	{"cluster.disk_read_bytes", "bytes"},
	{"cluster.net_bytes", "bytes"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_pipeline", "count"},
	{"trace.pipeline_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.span_cost_us", "us"},
	{"trace.pipelines", "count"},
}

// withUnits attaches units to the listed metrics' values. Only listed
// metrics are reported, and every one must have a value.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("pipebench: no value for metric " + d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}
