package main

// The metric catalogue. BENCHMARK.json repeats it for the driver;
// TestCatalogueMatchesBenchmarkJSON keeps the two identical.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user or operator of the cache sees. Every workload
// reports every one of them, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"kops", "kops/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"miss_ratio", "ratio", "lower", 0.05},
	{"get_p50_us", "us", "lower", 0.25},
	{"set_p50_us", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
}

// perLayer is what the traced run reports, layer by layer. No bounds: they
// explain a movement in an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	{"proto.encode_req_ns", "ns", "lower", 0},
	{"proto.parse_req_ns", "ns", "lower", 0},
	{"proto.encode_resp_ns", "ns", "lower", 0},
	{"proto.parse_resp_ns", "ns", "lower", 0},
	{"proto.allocs_per_op", "count", "lower", 0},
	{"proto.wire_bytes_per_op", "B", "lower", 0},

	{"engine.get_hit_ns", "ns", "lower", 0},
	{"engine.get_miss_ns", "ns", "lower", 0},
	{"engine.set_insert_ns", "ns", "lower", 0},
	{"engine.set_overwrite_ns", "ns", "lower", 0},
	{"engine.delete_ns", "ns", "lower", 0},
	{"engine.allocs_per_set", "count", "lower", 0},
	{"engine.small_evict_per_kop", "count", "lower", 0},
	{"engine.main_evict_per_kop", "count", "lower", 0},
	{"engine.ghost_reinsert_per_kop", "count", "higher", 0},
	{"engine.miss_ratio", "ratio", "lower", 0},
	{"engine.heap_bytes_per_entry", "B", "lower", 0},
	{"engine.mt_scaling", "ratio", "higher", 0},

	{"cache.get_hit_ns", "ns", "lower", 0},
	{"cache.get_miss_ns", "ns", "lower", 0},
	{"cache.set_ns", "ns", "lower", 0},
	{"cache.set_ttl_ns", "ns", "lower", 0},
	{"cache.delete_ns", "ns", "lower", 0},
	{"cache.facade_self_ns", "ns", "lower", 0},
	{"cache.allocs_per_get", "count", "lower", 0},
	{"cache.heap_bytes_per_entry", "B", "lower", 0},
	{"cache.metrics_overhead_pct", "%", "lower", 0},
	{"cache.policy_s3fifo_get_hit_ns", "ns", "lower", 0},
	{"cache.policy_lru_get_hit_ns", "ns", "lower", 0},
	{"cache.concurrent_get_hit_ns", "ns", "lower", 0},

	{"tier-flash.put_ns", "ns", "lower", 0},
	{"tier-flash.get_ns", "ns", "lower", 0},
	{"tier-flash.delete_ns", "ns", "lower", 0},
	{"tier-flash.bytes_written_per_user_byte", "ratio", "lower", 0},
	{"tier-flash.gc_bytes_per_user_byte", "ratio", "lower", 0},
	{"tier-flash.disk_bytes_per_live_byte", "ratio", "lower", 0},
	{"tier-file.put_ns", "ns", "lower", 0},
	{"tier-file.get_ns", "ns", "lower", 0},
	{"tier-file.delete_ns", "ns", "lower", 0},
	{"tier-file.bytes_written_per_user_byte", "ratio", "lower", 0},
	{"tier-file.gc_bytes_per_user_byte", "ratio", "lower", 0},
	{"tier-file.disk_bytes_per_live_byte", "ratio", "lower", 0},
	{"tier.write_amp", "ratio", "lower", 0},
	{"tier.hit_share", "ratio", "higher", 0},
	{"tier.demotions_per_kop", "count", "lower", 0},
	{"tier.promotions_per_kop", "count", "lower", 0},
	{"tier.errors", "count", "lower", 0},

	{"server.dispatch_get_ns", "ns", "lower", 0},
	{"server.dispatch_set_ns", "ns", "lower", 0},
	{"server.self_ns", "ns", "lower", 0},
	{"server.text_get_ns", "ns", "lower", 0},
	{"server.allocs_per_get", "count", "lower", 0},
	{"server.conn_reads_per_kop", "count", "lower", 0},
	{"server.conn_writes_per_kop", "count", "lower", 0},

	{"client.sync_rtt_us", "us", "lower", 0},
	{"client.text_rtt_us", "us", "lower", 0},
	{"client.pipelined_ns_per_op", "ns", "lower", 0},
	{"client.self_ns", "ns", "lower", 0},
	{"client.allocs_per_get", "count", "lower", 0},
	{"client.cpu_us_per_op", "us", "lower", 0},

	{"cluster.ring_lookup_ns", "ns", "lower", 0},
	{"cluster.route_self_ns", "ns", "lower", 0},
	{"cluster.kops_1node", "kops/s", "higher", 0},
	{"cluster.kops_3node", "kops/s", "higher", 0},
	{"cluster.kops_3node_r2", "kops/s", "higher", 0},
	{"cluster.r2_stale_per_kop", "count", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_pct", "%", "lower", 0},
	{"runtime.gc_pause_max_us", "us", "lower", 0},
	{"runtime.get_p999_us", "us", "lower", 0},
	{"runtime.ctx_switches_per_kop", "count", "lower", 0},

	{"loadgen.max_lag_us", "us", "lower", 0},
	{"loadgen.achieved_over_offered", "ratio", "higher", 0},
	{"loadgen.get_p90_us", "us", "lower", 0},
	{"loadgen.get_p99_us", "us", "lower", 0},
	{"loadgen.set_p99_us", "us", "lower", 0},
	{"loadgen.get_p99_high_us", "us", "lower", 0},
	{"loadgen.fail_ratio", "ratio", "lower", 0},

	{"ladder.sum_cpu_us_per_op", "us", "lower", 0},
	{"ladder.timed_cpu_us_per_op", "us", "lower", 0},
	{"ladder.residual_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
