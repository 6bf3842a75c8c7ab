package main

// metricDef names one reported metric and its unit. The two lists are
// the benchmark's whole output: BENCHMARK.json at the repository root
// repeats them (bench_test.go holds the two equal). For every workload
// the untraced run's result line carries endToEnd and the traced run's
// perLayer; either run also prints whatever else of the two lists it
// measured.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	// What riders and operators wait for, measured by the live phases of
	// every run. None holds the 10 % bound on the reference host (spreads
	// in README.md), so none is an end-to-end metric of BENCHMARK.json;
	// the traced run reports them here.
	{"call_p50_ms", "ms"}, {"submit_p50_ms", "ms"}, {"submit_p99_ms", "ms"},
	{"cycle_p50_ms", "ms"}, {"throughput_rps", "req/s"},
	// The same for operations only some workloads' traffic contains; on
	// the others the value is the ladder's /v1 rung of the same call.
	{"batch_p50_ms", "ms"}, {"batch_p90_ms", "ms"},
	{"choose_p50_ms", "ms"}, {"choose_p99_ms", "ms"},
	{"relay_p50_ms", "ms"}, {"relay_p95_ms", "ms"},
	{"advance_p50_ms", "ms"}, {"advance_p95_ms", "ms"},

	{"roadnet.dist_us", "us"}, {"roadnet.fill_us", "us"},
	{"gridindex.lb_ns", "ns"}, {"gridindex.list_update_ns", "ns"},
	{"core.memo.dist_calls_per_req", "count"}, {"core.memo.warm_vs_cold_ratio", "ratio"},
	{"kinetic.quote_r1_us", "us"}, {"kinetic.quote_r2_us", "us"}, {"kinetic.quote_r3_us", "us"},
	{"kinetic.commit_us", "us"},
	{"core.match_naive_us", "us"}, {"core.match_single_us", "us"}, {"core.match_dual_us", "us"},
	{"core.match.verified_per_req", "count"}, {"core.match.pruned_per_req", "count"},
	{"core.match.cells_per_req", "count"}, {"core.match.options_per_req", "count"},
	{"core.match.width", "count"},
	{"core.submit_us", "us"}, {"core.decline_us", "us"}, {"core.choose_us", "us"},
	{"core.submit_allocs_per_op", "count"}, {"core.submit_bytes_per_op", "B"},
	{"core.stage.quote_us", "us"}, {"core.stage.register_us", "us"},
	{"core.stage.wal_wait_us", "us"}, {"core.stage.probe_commit_us", "us"},
	{"core.batch_us_per_req", "us"}, {"core.batch.dist_calls_per_req", "count"},
	{"core.single.dist_calls_per_req", "count"}, {"core.batch.coalesce_ratio", "ratio"},
	{"core.choose_stale_ratio", "ratio"}, {"core.reprobes", "count"},
	{"core.assigned_ratio", "ratio"}, {"core.sharing_rate", "ratio"},
	{"core.detour_factor", "ratio"}, {"core.ledger_records", "count"},
	{"fleet.tick_ms", "ms"}, {"fleet.tick_shard_ms", "ms"},
	{"fleet.step_us_per_vehicle", "us"}, {"fleet.events_per_tick", "count"},
	{"pricing.resolve_ns", "ns"}, {"pricing.surged_quote_ratio", "ratio"},
	{"pricing.active_cells", "count"},
	{"wal.append_us", "us"}, {"wal.fsync_ms", "ms"}, {"wal.records_per_fsync", "count"},
	{"wal.bytes_per_req", "B"}, {"wal.recover_ms", "ms"},
	{"core.service_submit_us", "us"}, {"multicity.submit_us", "us"}, {"multicity.advance_us", "us"},
	{"cluster.rpc_submit_us", "us"}, {"cluster.gateway_submit_us", "us"},
	{"cluster.rpc_seconds_p50", "s"}, {"cluster.rpc_retries", "count"},
	{"cluster.rpc_errors", "count"}, {"cluster.shard_rss_mb", "MB"},
	{"relay.quote_ms", "ms"}, {"relay.choose_ms", "ms"}, {"relay.legs_quoted_per_trip", "count"},
	{"relay.compensations", "count"}, {"relay.leg_quote_ms", "ms"},
	{"server.submit_us", "us"}, {"server.gateway_submit_us", "us"},
	{"server.resp_bytes_per_req", "B"}, {"server.list_ms", "ms"}, {"server.http_hist_p50_ms", "ms"},
	{"load.gen_lag_p99_ms", "ms"}, {"load.max_backlog", "count"}, {"load.slo_rate_rps", "req/s"},
	{"load.rate_450.submit_p99_ms", "ms"}, {"load.rate_600.submit_p99_ms", "ms"},
	{"load.rate_750.submit_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}
