//! Distance-kernel microbench: the `kernel` section of the `fkq bench`
//! report (schema v3).
//!
//! The paper's cost model makes the α-distance kernel the hot path ("the
//! evaluation of α-distance is quadratic with the number of points"), so
//! the bench report carries a dedicated sweep of the kernel itself:
//! **points-per-object × α × algorithm**, measured over deterministic
//! synthetic object pairs. Algorithms:
//!
//! * `brute` — the naive per-pair reference ([`alpha_distance_brute`]);
//! * `auto` — the adaptive production kernel (dense prefix scan or
//!   single-tree, squared distances end to end);
//! * `seeded` — the adaptive kernel seeded with an upper bound 5% above
//!   the true distance, the shape of the AKNN engine's bound-seeded
//!   probes.
//!
//! Every cell cross-checks its distance sum against the brute reference,
//! so the sweep doubles as an end-to-end equivalence test in CI.

use crate::json::Json;
use fuzzy_core::distance::{alpha_distance, alpha_distance_bounded, alpha_distance_brute};
use fuzzy_core::{FuzzyObject, Threshold};
use fuzzy_datagen::SyntheticConfig;
use std::time::Instant;

/// Axes of the kernel sweep.
#[derive(Clone, Debug)]
pub struct KernelOptions {
    /// Points-per-object axis.
    pub points_per_object: Vec<usize>,
    /// α axis.
    pub alphas: Vec<f64>,
    /// Number of object pairs evaluated per cell.
    pub pairs: usize,
    /// Generator seed.
    pub seed: u64,
}

impl KernelOptions {
    /// The default full sweep (sub-second).
    pub fn full() -> Self {
        Self {
            points_per_object: vec![30, 120, 480],
            alphas: vec![0.2, 0.5, 0.8],
            pairs: 48,
            seed: 7,
        }
    }

    /// Tiny CI smoke configuration.
    pub fn smoke() -> Self {
        Self { points_per_object: vec![10, 40], alphas: vec![0.5], pairs: 4, seed: 7 }
    }
}

/// Deterministic object pairs from the same generator the query-level
/// sweeps use (`fuzzy_datagen::SyntheticConfig`), confined to a small
/// space so the pairs span near and far geometry. Rebuilt per algorithm
/// pass so each pass measures its own lazy-structure cost.
fn object_pairs(opts: &KernelOptions, ppo: usize) -> Vec<(FuzzyObject<2>, FuzzyObject<2>)> {
    let cfg = SyntheticConfig {
        num_objects: opts.pairs * 2,
        points_per_object: ppo,
        seed: opts.seed,
        space: 4.0,
        ..SyntheticConfig::default()
    };
    let mut objects = cfg.generate();
    (0..opts.pairs).filter_map(|_| objects.next().zip(objects.next())).collect()
}

/// Algorithm axis of the sweep.
const ALGORITHMS: &[&str] = &["brute", "auto", "seeded"];

/// One pass of one algorithm over every pair; returns (total distance,
/// evaluations). Each algorithm runs on freshly built objects, so the
/// measured cost includes its lazily built support structure (the sorted
/// prefix layout, or the second object's kd-tree) — the same shape as a store probe on the query hot path. `seeds`, when
/// present, carries one precomputed upper bound per pair (timed work then
/// excludes the reference evaluation that produced it).
fn run_algorithm(
    name: &str,
    pairs: &[(FuzzyObject<2>, FuzzyObject<2>)],
    t: Threshold,
    seeds: Option<&[f64]>,
) -> (f64, u64) {
    let mut sum = 0.0;
    let mut evals = 0u64;
    for (i, (a, b)) in pairs.iter().enumerate() {
        let d = match name {
            "brute" => alpha_distance_brute(a, b, t),
            "auto" => alpha_distance(a, b, t),
            "seeded" => {
                let seed = seeds.expect("seeded pass gets precomputed bounds")[i];
                alpha_distance_bounded(a, b, t, seed)
            }
            other => unreachable!("unknown kernel algorithm {other}"),
        };
        sum += d.expect("cuts are non-empty at α ≤ 1 with kernel points");
        evals += 1;
    }
    (sum, evals)
}

/// Run the kernel sweep; returns the `kernel` array of the report.
///
/// # Panics
/// When an optimized algorithm disagrees with the brute reference beyond
/// floating-point noise — the sweep is also a correctness gate.
pub fn run(opts: &KernelOptions) -> Vec<Json> {
    let mut rows = Vec::new();
    for &ppo in &opts.points_per_object {
        for &alpha in &opts.alphas {
            let t = Threshold::at(alpha);
            let mut reference: Option<f64> = None;
            for &name in ALGORITHMS {
                // Fresh objects per algorithm so each measures its own
                // lazy-structure cost, not a predecessor's cache.
                let fresh = object_pairs(opts, ppo);
                // Seeds for the `seeded` pass: a sound upper bound 5%
                // above the true distance, computed outside the timer.
                let seeds: Option<Vec<f64>> = (name == "seeded").then(|| {
                    fresh
                        .iter()
                        .map(|(a, b)| {
                            alpha_distance_brute(a, b, t).expect("non-empty cut") * 1.05
                                + f64::MIN_POSITIVE
                        })
                        .collect()
                });
                let start = Instant::now();
                let (sum, evals) = run_algorithm(name, &fresh, t, seeds.as_deref());
                let wall = start.elapsed().as_secs_f64();
                match reference {
                    None => reference = Some(sum),
                    Some(want) => assert!(
                        (sum - want).abs() <= 1e-9 * (1.0 + want.abs()),
                        "kernel {name} disagrees with brute at ppo={ppo} α={alpha}: {sum} vs {want}"
                    ),
                }
                rows.push(Json::obj(vec![
                    ("algorithm", Json::str(name)),
                    ("points_per_object", Json::num(ppo as f64)),
                    ("alpha", Json::num(alpha)),
                    ("evals", Json::num(evals as f64)),
                    ("wall_ms_total", Json::num(wall * 1e3)),
                    ("ns_per_eval", Json::num(wall * 1e9 / evals.max(1) as f64)),
                    ("checksum", Json::num(sum)),
                ]))
            }
        }
    }
    rows
}

/// Fields every `kernel` row must carry (name, is_number).
pub const KERNEL_FIELDS: &[(&str, bool)] = &[
    ("algorithm", false),
    ("points_per_object", true),
    ("alpha", true),
    ("evals", true),
    ("wall_ms_total", true),
    ("ns_per_eval", true),
    ("checksum", true),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_consistent_rows() {
        let rows = run(&KernelOptions::smoke());
        // ppo × α × algorithm cells.
        let opts = KernelOptions::smoke();
        assert_eq!(rows.len(), opts.points_per_object.len() * opts.alphas.len() * ALGORITHMS.len());
        for row in &rows {
            for &(field, is_num) in KERNEL_FIELDS {
                let v = row.get(field).unwrap_or_else(|| panic!("missing {field}"));
                match (is_num, v) {
                    (true, Json::Num(n)) => assert!(n.is_finite() && *n >= 0.0),
                    (false, Json::Str(_)) => {}
                    other => panic!("bad field {field}: {other:?}"),
                }
            }
        }
    }
}
