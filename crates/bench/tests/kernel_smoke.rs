//! CI smoke for the distance-kernel microbench (`bench-kernel` job): runs
//! the sweep on a tiny workload, checks the algorithms agree (the sweep
//! panics internally on checksum divergence), and proves the v3 report
//! JSON containing the `kernel` section parses and validates.

use fuzzy_bench::json::Json;
use fuzzy_bench::kernel::{self, KernelOptions, KERNEL_FIELDS};

#[test]
fn kernel_sweep_rows_are_complete_and_reparsable() {
    let rows = kernel::run(&KernelOptions::smoke());
    assert!(!rows.is_empty());
    // Wrap like the report does, round-trip through the serializer, and
    // check every row's fields survive with the right types.
    let doc = Json::obj(vec![("kernel", Json::Arr(rows))]);
    let reparsed = Json::parse(&doc.to_pretty()).expect("kernel section must parse");
    let rows = reparsed.get("kernel").and_then(Json::as_arr).expect("kernel array");
    for row in rows {
        for &(field, is_num) in KERNEL_FIELDS {
            let v = row.get(field).unwrap_or_else(|| panic!("missing {field}"));
            match (is_num, v) {
                (true, Json::Num(n)) => assert!(n.is_finite() && *n >= 0.0, "bad {field}: {n}"),
                (false, Json::Str(s)) => assert!(!s.is_empty()),
                other => panic!("field {field} wrong type: {other:?}"),
            }
        }
    }
    // Every algorithm appears once per (ppo, α) cell.
    let algos: Vec<&str> =
        rows.iter().filter_map(|r| r.get("algorithm").and_then(Json::as_str)).collect();
    for want in ["brute", "auto", "seeded"] {
        assert!(algos.contains(&want), "missing algorithm {want}");
    }
}

/// The full (non-smoke) sweep, including the 480-points-per-object cells
/// whose brute pass is quadratic — too slow for debug `cargo test`, so it
/// is ignored by default and run by the `kernel-regress` CI job with
/// `--release -- --ignored`. `kernel::run` panics if any optimized
/// algorithm's checksum diverges from the brute oracle.
#[test]
#[ignore = "release-only full sweep; run by the kernel-regress CI job"]
fn full_sweep_checksums_match_the_brute_oracle() {
    let rows = kernel::run(&KernelOptions::full());
    let opts = KernelOptions::full();
    // One row per (algorithm, ppo, α) cell, 3 algorithms.
    assert_eq!(rows.len(), opts.points_per_object.len() * opts.alphas.len() * 3);
}

#[test]
fn kernel_sweep_is_deterministic_in_checksums() {
    let a = kernel::run(&KernelOptions::smoke());
    let b = kernel::run(&KernelOptions::smoke());
    let sums = |rows: &[Json]| -> Vec<f64> {
        rows.iter().filter_map(|r| r.get("checksum").and_then(Json::as_num)).collect()
    };
    assert_eq!(sums(&a), sums(&b), "checksums must be reproducible");
}
