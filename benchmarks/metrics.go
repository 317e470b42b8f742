package main

// metricDef declares one reported metric. The lists below are the
// single source of the benchmark's metric set: the driver emits exactly
// these, and BENCHMARK.json is generated from them (-print-manifest).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only, never 0 there
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the 13 metrics a user of the system sees; every workload
// reports all of them with tracing off. Bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression. A bound holds for all four workloads, so the
// noisiest one sets it: each is at least three times the widest
// quartile spread seen over ten seeds on the 2-core reference box
// (README, "Repeatability"), capped at the harness's 0.25.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ingest_rows_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "commit_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "freshness_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "get_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "range_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "agg_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "scan_rows_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "stream_rows_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "read_ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "write_amp", Unit: "ratio", Better: lower, Bound: 0.05},
	{Name: "store_bytes_per_user_byte", Unit: "ratio", Better: lower, Bound: 0.02},
	{Name: "heap_mb", Unit: "MB", Better: lower, Bound: 0.05},
}

// perLayer are the traced run's metrics; names start with the module
// they price.
var perLayer = []metricDef{
	// storage: the ObjectStore decorator handed to OpenDB, plus SSDCache.Stats.
	{Name: "storage.put_ops", Unit: "count", Better: lower},
	{Name: "storage.put_bytes", Unit: "B", Better: lower},
	{Name: "storage.get_ops", Unit: "count", Better: lower},
	{Name: "storage.get_bytes", Unit: "B", Better: lower},
	{Name: "storage.range_get_ops", Unit: "count", Better: lower},
	{Name: "storage.list_ops", Unit: "count", Better: lower},
	{Name: "storage.delete_ops", Unit: "count", Better: lower},
	{Name: "storage.busy_ms", Unit: "ms", Better: lower},
	{Name: "storage.put_bytes_wal", Unit: "B", Better: lower},
	{Name: "storage.put_bytes_block", Unit: "B", Better: lower},
	{Name: "storage.put_bytes_run", Unit: "B", Better: lower},
	{Name: "storage.put_bytes_meta", Unit: "B", Better: lower},
	{Name: "storage.gets_per_get", Unit: "count", Better: lower},
	{Name: "storage.gets_per_agg", Unit: "count", Better: lower},
	{Name: "storage.ssd_hits", Unit: "count", Better: higher},
	{Name: "storage.ssd_misses", Unit: "count", Better: lower},
	{Name: "storage.ssd_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "storage.ssd_used_bytes", Unit: "B", Better: lower},
	// wal: a replayed log over this run's rows, plus the engine's own WAL metrics.
	{Name: "wal.commit_us", Unit: "us", Better: lower},
	{Name: "wal.bytes_per_row", Unit: "B", Better: lower},
	{Name: "wal.replay_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "wal.appends", Unit: "count", Better: lower},
	{Name: "wal.batch_records_p50", Unit: "count", Better: higher},
	{Name: "keyenc.encode_ns_per_key", Unit: "ns", Better: lower},
	// columnar: replayed over the table's own stored data blocks.
	{Name: "columnar.build_ns_per_row", Unit: "ns", Better: lower},
	{Name: "columnar.marshal_ns_per_row", Unit: "ns", Better: lower},
	{Name: "columnar.unmarshal_ns_per_row", Unit: "ns", Better: lower},
	{Name: "columnar.bytes_per_row", Unit: "B", Better: lower},
	{Name: "columnar.plain_bytes_per_row", Unit: "B", Better: lower},
	{Name: "columnar.cmpselect_ns_per_row", Unit: "ns", Better: lower},
	// run: replayed over the table's own stored index runs.
	{Name: "run.build_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "run.seek_us", Unit: "us", Better: lower},
	{Name: "run.bytes_per_entry", Unit: "B", Better: lower},
	// core: a private index over this run's rows.
	{Name: "core.build_run_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "core.point_lookup_us", Unit: "us", Better: lower},
	{Name: "core.lookup_batch_ns_per_key", Unit: "ns", Better: lower},
	{Name: "core.range_scan_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "core.evolve_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "core.maintain_ms", Unit: "ms", Better: lower},
	{Name: "core.runs_groomed", Unit: "count", Better: lower},
	{Name: "core.runs_post", Unit: "count", Better: lower},
	{Name: "exec.bind_us", Unit: "us", Better: lower},
	{Name: "exec.partial_add_ns_per_row", Unit: "ns", Better: lower},
	{Name: "exec.can_match_block_ns", Unit: "ns", Better: lower},
	{Name: "exec.finalize_us", Unit: "us", Better: lower},
	// wildfire: timed pipeline calls, block-cache stats, Query.Explain, DB.Metrics.
	{Name: "wildfire.commit_share", Unit: "ratio", Better: lower},
	{Name: "wildfire.groom_share", Unit: "ratio", Better: lower},
	{Name: "wildfire.postgroom_share", Unit: "ratio", Better: lower},
	{Name: "wildfire.syncindex_share", Unit: "ratio", Better: lower},
	{Name: "wildfire.groom_ms_p50", Unit: "ms", Better: lower},
	{Name: "wildfire.groom_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "wildfire.postgroom_ms_p50", Unit: "ms", Better: lower},
	{Name: "wildfire.syncindex_ms_p50", Unit: "ms", Better: lower},
	{Name: "wildfire.blockcache_hits", Unit: "count", Better: higher},
	{Name: "wildfire.blockcache_misses", Unit: "count", Better: lower},
	{Name: "wildfire.blockcache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "wildfire.blockcache_evictions", Unit: "count", Better: lower},
	{Name: "wildfire.blockcache_dedup", Unit: "count", Better: higher},
	{Name: "wildfire.blockcache_bytes", Unit: "B", Better: lower},
	{Name: "wildfire.blocks_read_per_agg", Unit: "count", Better: lower},
	{Name: "wildfire.blocks_synopsis_skipped_per_agg", Unit: "count", Better: higher},
	{Name: "wildfire.blocks_bloom_skipped_per_get", Unit: "count", Better: higher},
	{Name: "wildfire.skip_ratio", Unit: "ratio", Better: higher},
	{Name: "wildfire.back_checks_per_query", Unit: "count", Better: lower},
	{Name: "wildfire.live_union_rows", Unit: "count", Better: lower},
	{Name: "wildfire.spec_marshal_ns", Unit: "ns", Better: lower},
	{Name: "wildfire.spec_unmarshal_ns", Unit: "ns", Better: lower},
	{Name: "wildfire.reopen_ms", Unit: "ms", Better: lower},
	{Name: "wildfire.wal_replay_rows", Unit: "count", Better: lower},
	// umzi / client: the two query surfaces, timed call by call.
	{Name: "umzi.query_open_us", Unit: "us", Better: lower},
	{Name: "umzi.first_row_us", Unit: "us", Better: lower},
	{Name: "umzi.drain_ns_per_row", Unit: "ns", Better: lower},
	{Name: "umzi.rows_close_us", Unit: "us", Better: lower},
	{Name: "wire.append_row_ns", Unit: "ns", Better: lower},
	{Name: "wire.decode_row_ns", Unit: "ns", Better: lower},
	{Name: "wire.frame_write_read_us", Unit: "us", Better: lower},
	{Name: "wire.bytes_per_row", Unit: "B", Better: lower},
	{Name: "server.ping_rtt_us", Unit: "us", Better: lower},
	{Name: "server.stmt_cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "server.admission_rejected", Unit: "count", Better: lower},
	{Name: "client.query_open_us", Unit: "us", Better: lower},
	{Name: "client.first_row_us", Unit: "us", Better: lower},
	{Name: "client.drain_ns_per_row", Unit: "ns", Better: lower},
	{Name: "client.commit_rtt_us", Unit: "us", Better: lower},
	// driver: the harness's own accounting.
	{Name: "driver.commit_p99_us", Unit: "us", Better: lower},
	{Name: "driver.get_p99_us", Unit: "us", Better: lower},
	{Name: "driver.range_p99_us", Unit: "us", Better: lower},
	{Name: "driver.freshness_p99_ms", Unit: "ms", Better: lower},
	{Name: "driver.generator_late_p50_us", Unit: "us", Better: lower},
	{Name: "driver.attempted_ops", Unit: "count", Better: higher},
	{Name: "driver.failed_ops", Unit: "count", Better: lower},
	{Name: "driver.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "driver.attribution_coverage_agg", Unit: "ratio", Better: higher},
	{Name: "driver.attribution_coverage_stream", Unit: "ratio", Better: higher},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 20

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadWhy{w.Name, w.Why})
	}
	return m
}
