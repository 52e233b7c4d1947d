package main

// metricDef names one reported metric. BENCHMARK.json at the repo root
// lists the same names, units and bounds; the smoke test checks they agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the engine sees. Every workload reports every
// one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"serial_events_per_s", "events/s", "higher", 0.25},
	{"alert_latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is measured from outside each layer in the traced pass. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"parser.compile_us_per_query", "us", "lower", 0},
	{"parser.queries", "count", "lower", 0},

	{"codec.decode_ns_per_line", "ns", "lower", 0},
	{"codec.allocs_per_line", "count", "lower", 0},
	{"codec.bytes_per_line", "B", "lower", 0},
	{"codec.lines", "count", "higher", 0},
	{"codec.events_out", "count", "higher", 0},
	{"codec.decode_errors", "count", "lower", 0},
	{"codec.symbol_hit_ratio", "ratio", "higher", 0},
	{"codec.useful_event_ratio", "ratio", "higher", 0},

	{"source.busy_ns_per_line", "ns", "lower", 0},
	{"source.submit_blocked_share", "ratio", "lower", 0},
	{"source.batches", "count", "lower", 0},
	{"source.reordered", "count", "lower", 0},
	{"source.late", "count", "lower", 0},
	{"source.dropped", "count", "lower", 0},

	{"scheduler.evaluate_ns_per_event", "ns", "lower", 0},
	{"scheduler.pattern_evals_per_event", "count", "lower", 0},
	{"scheduler.sharing_ratio", "ratio", "higher", 0},
	{"scheduler.hit_ratio", "ratio", "lower", 0},
	{"scheduler.query_groups", "count", "lower", 0},
	{"pcode.symbol_fallbacks", "count", "lower", 0},

	{"engine.fold_ns_per_event", "ns", "lower", 0},
	{"engine.flush_ms", "ms", "lower", 0},
	{"engine.alerts", "count", "higher", 0},
	{"engine.state_bytes", "B", "lower", 0},
	{"engine.query_errors", "count", "lower", 0},

	{"runtime.submit_ns_per_event", "ns", "lower", 0},
	{"runtime.submit_blocked_share", "ratio", "lower", 0},
	{"runtime.drain_ms", "ms", "lower", 0},
	{"runtime.shards", "count", "higher", 0},
	{"runtime.speedup_vs_serial", "ratio", "higher", 0},
	{"runtime.dropped", "count", "lower", 0},
	{"runtime.detect_lag_p50_us", "us", "lower", 0},
	{"runtime.detect_lag_p99_us", "us", "lower", 0},
	{"runtime.allocs_per_event", "count", "lower", 0},
	{"runtime.alloc_bytes_per_event", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.sustainable_rate_eps", "events/s", "higher", 0},
	{"runtime.rung_p99_ms.80k", "ms", "lower", 0},
	{"runtime.rung_p99_ms.120k", "ms", "lower", 0},
	{"runtime.rung_p99_ms.160k", "ms", "lower", 0},
	{"runtime.rung_p99_ms.200k", "ms", "lower", 0},
	{"runtime.rung_p99_ms.240k", "ms", "lower", 0},
	{"runtime.rung_drain_ms.80k", "ms", "lower", 0},
	{"runtime.rung_drain_ms.120k", "ms", "lower", 0},
	{"runtime.rung_drain_ms.160k", "ms", "lower", 0},
	{"runtime.rung_drain_ms.200k", "ms", "lower", 0},
	{"runtime.rung_drain_ms.240k", "ms", "lower", 0},
	{"runtime.backlog_max_events.80k", "events", "lower", 0},
	{"runtime.backlog_max_events.120k", "events", "lower", 0},
	{"runtime.backlog_max_events.160k", "events", "lower", 0},
	{"runtime.backlog_max_events.200k", "events", "lower", 0},
	{"runtime.backlog_max_events.240k", "events", "lower", 0},
	{"runtime.backlog_slope_eps.80k", "events/s", "lower", 0},
	{"runtime.backlog_slope_eps.120k", "events/s", "lower", 0},
	{"runtime.backlog_slope_eps.160k", "events/s", "lower", 0},
	{"runtime.backlog_slope_eps.200k", "events/s", "lower", 0},
	{"runtime.backlog_slope_eps.240k", "events/s", "lower", 0},

	{"latency.p50_ms", "ms", "lower", 0},
	{"latency.p90_ms", "ms", "lower", 0},
	{"latency.p99_ms", "ms", "lower", 0},
	{"latency.mean_ms", "ms", "lower", 0},
	{"latency.max_ms", "ms", "lower", 0},
	{"latency.samples", "count", "higher", 0},

	{"fanout.deliver_lag_p50_us", "us", "lower", 0},
	{"fanout.deliver_lag_p99_us", "us", "lower", 0},
	{"fanout.delivered", "count", "higher", 0},
	{"fanout.sub_dropped", "count", "lower", 0},

	{"storage.append_ns_per_event", "ns", "lower", 0},
	{"storage.scan_ns_per_event", "ns", "lower", 0},
	{"storage.sync_ms", "ms", "lower", 0},
	{"storage.bytes_per_event", "B", "lower", 0},
	{"storage.segments", "count", "lower", 0},

	{"wire.encode_ns_per_event", "ns", "lower", 0},
	{"wire.decode_ns_per_event", "ns", "lower", 0},

	{"snapshot.bytes", "B", "lower", 0},
	{"snapshot.encode_ms", "ms", "lower", 0},
	{"snapshot.decode_ms", "ms", "lower", 0},
	{"snapshot.write_ms", "ms", "lower", 0},
	{"checkpoint.p50_ms", "ms", "lower", 0},
	{"checkpoint.count", "count", "higher", 0},
	{"checkpoint.ingest_stall_ms", "ms", "lower", 0},
	{"restore.restore_s", "s", "lower", 0},
	{"restore.snapshot_load_ms", "ms", "lower", 0},
	{"restore.replay_events", "count", "lower", 0},
	{"restore.replay_events_per_s", "events/s", "higher", 0},

	{"staged.codec_source_share", "ratio", "lower", 0},
	{"staged.eval_fold_share", "ratio", "lower", 0},
	{"staged.durability_share", "ratio", "lower", 0},

	{"bench.corpus_gen_s", "s", "lower", 0},
	{"bench.generator_late_p99_ms", "ms", "lower", 0},
	{"bench.generator_late_max_ms", "ms", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
}
