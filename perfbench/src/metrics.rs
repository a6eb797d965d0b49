//! The metric catalog: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same end-to-end and per-layer names; the smoke
//! test holds the two in step.

/// End-to-end metrics in every untraced run's result (`--trace 0`): the
/// ones every workload measures and that hold still from run to run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("search_p50_us", "us"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics written to the run record only: the tail and the
/// upload figures swing by half between fast and slow spells of a shared
/// host, wider than any bound a result metric may carry, and uploads exist
/// on `ingest_mixed` alone (`null` elsewhere).
pub const END_TO_END_RECORD_ONLY: &[(&str, &str)] = &[
    ("search_p99_us", "us"),
    ("upload_p50_us", "us"),
    ("docs_per_s", "1/s"),
];

/// Per-layer metrics reported by every traced run (`--trace 1`): the ones
/// every workload's path has and measures as a non-zero value.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scanplane.us_per_query", "us"),
    ("scanplane.comparisons_per_query", "count"),
    ("scanplane.matches_per_query", "count"),
    ("engine.us_per_query", "us"),
    ("engine.lane_speedup", "ratio"),
    ("server.search_call_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_query", "bytes"),
    ("hub.overhead_us", "us"),
    ("client.wait_us_per_request", "us"),
    ("resilient.attempts_per_request", "ratio"),
    ("trace.overhead_us", "us"),
];

/// Per-layer metrics only some workloads have (uploads, fleet, cache,
/// batcher) or that a clean run pins to zero: written to the run record, with `null`
/// where the layer is not on the workload's path.
pub const RECORD_ONLY: &[(&str, &str)] = &[
    ("indexer.us_per_doc", "us"),
    ("storage.us_per_doc", "us"),
    ("server.upload_call_us", "us"),
    ("engine.dup_share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations_per_upload", "count"),
    ("cache.saved_share", "ratio"),
    ("hub.queries_per_flush", "count"),
    ("hub.window_flush_share", "ratio"),
    ("hub.solo_share", "ratio"),
    ("resilient.backoff_ms", "ms"),
    ("coordinator.call_us", "us"),
    ("coordinator.node_rtt_us", "us"),
    ("coordinator.fanout", "count"),
    ("coordinator.self_us", "us"),
    ("coordinator.failovers", "count"),
    ("node.call_us", "us"),
    ("node.hub_overhead_us", "us"),
];

/// The unit of a catalogued per-layer metric.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(RECORD_ONLY)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("uncatalogued per-layer metric {name}"))
}
