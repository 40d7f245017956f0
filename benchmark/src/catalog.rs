//! The normative names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root carries the same lists with the
//! regression bounds; a test keeps the two in step. Units and names live
//! here because every run prints them.

/// The workloads, in the order `BENCHMARK.json` lists them (with why each
/// exists) and `run` executes them.
pub const WORKLOADS: [&str; 4] = ["aknn-scale", "aknn-heavy", "rknn-range", "serve-mixed"];

/// `(name, unit)` of the metrics a user of the system would see, in the
/// order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ok_share", "ratio"),
    ("object_accesses_per_query", "count"),
    ("disk_bytes_per_object", "B"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics that repeat exactly for one seed: counts made by the
/// program and file sizes. `noise` and `compare` allow them no difference
/// at all when both sides ran the same seed.
pub const EXACT_END_TO_END: [&str; 3] =
    ["ok_share", "object_accesses_per_query", "disk_bytes_per_object"];

/// Open-loop ladder rates, requests per second.
pub const LADDER_RATES: [u32; 5] = [2000, 4000, 6000, 8000, 10000];

/// `(name, unit)` of the single-layer metrics; the prefix is the crate.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 42] = [
        ("store.probe_calls_per_query", "count"),
        ("store.probe_us_per_call", "us"),
        ("store.probe_share", "ratio"),
        ("store.probe_bytes_per_query", "B"),
        ("store.open_s", "s"),
        ("index.node_reads_per_query", "count"),
        ("index.node_read_us_per_call", "us"),
        ("index.node_read_share", "ratio"),
        ("index.cache_hit_ratio", "ratio"),
        ("index.cache_evictions_per_query", "count"),
        ("index.build_s", "s"),
        ("index.open_s", "s"),
        ("index.bytes_per_object", "B"),
        ("index.overlay.write_batch_ms_p50", "ms"),
        ("index.overlay.save_delta_ms_p50", "ms"),
        ("index.overlay.pending_at_end", "count"),
        ("core.kernel_calls_per_query", "count"),
        ("core.kernel_us_per_call", "us"),
        ("core.kernel_share", "ratio"),
        ("core.kernel_pruned_ratio", "ratio"),
        ("core.profile_calls_per_query", "count"),
        ("core.profile_us_per_call", "us"),
        ("core.profile_share", "ratio"),
        ("core.bound_calls_per_query", "count"),
        ("query.self_us_per_query", "us"),
        ("query.self_share", "ratio"),
        ("query.useful_probe_ratio", "ratio"),
        ("query.bound_evals_per_query", "count"),
        ("query.candidates_per_query", "count"),
        ("query.aknn_calls_per_query", "count"),
        ("server.encode_us_per_req", "us"),
        ("server.decode_us_per_resp", "us"),
        ("server.request_bytes", "B"),
        ("server.response_bytes", "B"),
        ("server.overhead_us_p50", "us"),
        ("server.write_cycle_ms_p50", "ms"),
        ("server.swap_ms_p50", "ms"),
        ("server.busy_share", "ratio"),
        ("server.deadline_share", "ratio"),
        ("server.served", "count"),
        ("server.busy", "count"),
        ("server.swaps", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for rate in LADDER_RATES {
        for stat in ["p50_ms", "p99_ms", "late_ms_p99"] {
            out.push((format!("server.open_r{rate}.{stat}"), "ms"));
        }
    }
    out.push(("server.rate_at_slo_qps".to_string(), "1/s"));
    out.push(("datagen.generate_s".to_string(), "s"));
    out.push(("trace.overhead_share".to_string(), "ratio"));
    out.push(("trace.unattributed_share".to_string(), "ratio"));
    out
}

/// Per-layer counts that repeat exactly for one seed: every one is made
/// over a fixed list of queries by deterministic code.
pub fn is_exact_per_layer(name: &str) -> bool {
    name.ends_with("_calls_per_query")
        || matches!(
            name,
            "index.node_reads_per_query"
                | "store.probe_bytes_per_query"
                | "core.kernel_pruned_ratio"
                | "query.useful_probe_ratio"
                | "query.bound_evals_per_query"
                | "query.candidates_per_query"
                | "index.bytes_per_object"
                | "server.request_bytes"
        )
}
