//! Regenerate every table and figure of the paper's evaluation (Section 6).
//!
//! ```sh
//! cargo run -p fuzzy-bench --release --bin repro -- all
//! cargo run -p fuzzy-bench --release --bin repro -- fig11b --ppo 100 --queries 5
//! ```
//!
//! Each experiment prints an aligned table and writes
//! `experiments/<id>.csv`. Running-time figures (12, 14, 15b) come from
//! the same runs as their object-access twins (11, 13, 15a): both metrics
//! are columns of the same CSV.
//!
//! Scaling: the paper uses N up to 50 000 objects of 1 000 points on 2010
//! hardware; `--scale` multiplies every N in a sweep and `--ppo` sets
//! points per object, so the full-size reproduction is
//! `--scale 1 --ppo 1000`. Recorded defaults fit a small CI box (see
//! EXPERIMENTS.md).

use fuzzy_analysis::{box_counting_dimension, correlation_dimension, CostModelParams};
use fuzzy_bench::{ms, DatasetSpec, Env, Table};
use fuzzy_core::ObjectSummary;
use fuzzy_datagen::DatasetKind;
use fuzzy_geom::{fit_conservative_line, fit_conservative_line_exact, Point};
use fuzzy_index::NodeAccess;
use fuzzy_query::{AknnConfig, QueryStats, RknnAlgorithm};
use fuzzy_store::ObjectStore;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
struct Opts {
    /// Multiplier on every N in a sweep (AKNN experiments).
    scale: f64,
    /// Multiplier on every N in RKNN sweeps (Basic RKNN is very costly).
    rknn_scale: f64,
    /// Points per object (paper: 1000).
    ppo: usize,
    /// Queries per configuration, averaged.
    queries: usize,
    /// Queries per RKNN configuration.
    rknn_queries: usize,
    /// Dataset seed.
    seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Self { scale: 1.0, rknn_scale: 0.2, ppo: 100, queries: 5, rknn_queries: 3, seed: 2010 }
    }
}

impl Opts {
    fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(50)
    }

    fn rknn_scaled(&self, n: usize) -> usize {
        ((n as f64 * self.rknn_scale).round() as usize).max(50)
    }

    fn spec(&self, kind: DatasetKind, n: usize) -> DatasetSpec {
        DatasetSpec { kind, n, points_per_object: self.ppo, seed: self.seed }
    }
}

// Table 2 defaults.
const DEFAULT_N: usize = 50_000;
const DEFAULT_K: usize = 20;
const DEFAULT_ALPHA: f64 = 0.5;
const DEFAULT_L: f64 = 0.2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = String::from("all");
    let mut opts = Opts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                opts.scale = args[i + 1].parse().expect("--scale takes a float");
                i += 2;
            }
            "--rknn-scale" => {
                opts.rknn_scale = args[i + 1].parse().expect("--rknn-scale takes a float");
                i += 2;
            }
            "--ppo" => {
                opts.ppo = args[i + 1].parse().expect("--ppo takes an integer");
                i += 2;
            }
            "--queries" => {
                opts.queries = args[i + 1].parse().expect("--queries takes an integer");
                opts.rknn_queries = opts.queries.min(opts.rknn_queries);
                i += 2;
            }
            "--rknn-queries" => {
                opts.rknn_queries = args[i + 1].parse().expect("--rknn-queries takes an integer");
                i += 2;
            }
            "--seed" => {
                opts.seed = args[i + 1].parse().expect("--seed takes an integer");
                i += 2;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
            name => {
                cmd = name.to_string();
                i += 1;
            }
        }
    }

    let started = Instant::now();
    match cmd.as_str() {
        "table2" => table2(&opts),
        "fig15" => fig15(&opts),
        "fig11a" | "fig12a" => fig11a(&opts),
        "fig11b" | "fig12b" => fig11b(&opts),
        "fig11c" | "fig12c" => fig11c(&opts),
        "fig13a" | "fig14a" => fig13a(&opts),
        "fig13b" | "fig14b" => fig13b(&opts),
        "fig13c" | "fig14c" => fig13c(&opts),
        "sec5" => sec5(&opts),
        "abl-line" => abl_line(&opts),
        "abl-samples" => abl_samples(&opts),
        "all" => {
            table2(&opts);
            fig15(&opts);
            fig11a(&opts);
            fig11b(&opts);
            fig11c(&opts);
            fig13a(&opts);
            fig13b(&opts);
            fig13c(&opts);
            sec5(&opts);
            abl_line(&opts);
            abl_samples(&opts);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; known: table2 fig15 fig11a..c fig13a..c \
                 sec5 abl-line abl-samples all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("\ntotal: {:?}", started.elapsed());
}

/// Table 2: parameter settings of this run.
fn table2(opts: &Opts) {
    let mut t = Table::new(&["parameter", "paper default", "this run"]);
    t.row(vec!["N (objects)".into(), DEFAULT_N.to_string(), opts.scaled(DEFAULT_N).to_string()]);
    t.row(vec!["k (results)".into(), DEFAULT_K.to_string(), DEFAULT_K.to_string()]);
    t.row(vec!["alpha".into(), DEFAULT_ALPHA.to_string(), DEFAULT_ALPHA.to_string()]);
    t.row(vec!["L (range length)".into(), DEFAULT_L.to_string(), DEFAULT_L.to_string()]);
    t.row(vec!["points/object".into(), "1000".into(), opts.ppo.to_string()]);
    t.row(vec!["queries averaged".into(), "-".into(), opts.queries.to_string()]);
    t.row(vec![
        "N for RKNN sweeps".into(),
        DEFAULT_N.to_string(),
        opts.rknn_scaled(DEFAULT_N).to_string(),
    ]);
    t.emit("table2");
}

fn aknn_row(
    env: &Env,
    queries: &[fuzzy_core::FuzzyObject<2>],
    k: usize,
    alpha: f64,
) -> Vec<QueryStats> {
    AknnConfig::paper_variants().iter().map(|cfg| env.run_aknn(queries, k, alpha, cfg)).collect()
}

const AKNN_HEADER: [&str; 9] = [
    "x",
    "Basic:acc",
    "LB:acc",
    "LB-LP:acc",
    "LB-LP-UB:acc",
    "Basic:ms",
    "LB:ms",
    "LB-LP:ms",
    "LB-LP-UB:ms",
];

fn push_aknn_row(t: &mut Table, x: String, stats: &[QueryStats]) {
    let mut row = vec![x];
    row.extend(stats.iter().map(|s| s.object_accesses.to_string()));
    row.extend(stats.iter().map(ms));
    t.row(row);
}

/// Figure 15: synthetic vs real(cell-like) dataset at the defaults.
fn fig15(opts: &Opts) {
    let mut t = Table::new(&AKNN_HEADER);
    for kind in [DatasetKind::Synthetic, DatasetKind::Cell] {
        let spec = opts.spec(kind, opts.scaled(DEFAULT_N));
        let env = Env::prepare(&spec);
        let queries = spec.queries(opts.queries);
        let stats = aknn_row(&env, &queries, DEFAULT_K, DEFAULT_ALPHA);
        push_aknn_row(&mut t, kind.name().into(), &stats);
    }
    t.emit("fig15");
}

/// Figures 11a/12a: AKNN vs dataset size N.
fn fig11a(opts: &Opts) {
    let mut t = Table::new(&AKNN_HEADER);
    for n in [1_000usize, 5_000, 10_000, 50_000] {
        let spec = opts.spec(DatasetKind::Cell, opts.scaled(n));
        let env = Env::prepare(&spec);
        let queries = spec.queries(opts.queries);
        let stats = aknn_row(&env, &queries, DEFAULT_K, DEFAULT_ALPHA);
        push_aknn_row(&mut t, spec.n.to_string(), &stats);
    }
    t.emit("fig11a");
}

/// Figures 11b/12b: AKNN vs k.
fn fig11b(opts: &Opts) {
    let spec = opts.spec(DatasetKind::Cell, opts.scaled(DEFAULT_N));
    let env = Env::prepare(&spec);
    let queries = spec.queries(opts.queries);
    let mut t = Table::new(&AKNN_HEADER);
    for k in [5usize, 10, 20, 50] {
        let stats = aknn_row(&env, &queries, k, DEFAULT_ALPHA);
        push_aknn_row(&mut t, k.to_string(), &stats);
    }
    t.emit("fig11b");
}

/// Figures 11c/12c: AKNN vs α.
fn fig11c(opts: &Opts) {
    let spec = opts.spec(DatasetKind::Cell, opts.scaled(DEFAULT_N));
    let env = Env::prepare(&spec);
    let queries = spec.queries(opts.queries);
    let mut t = Table::new(&AKNN_HEADER);
    for alpha in [0.3, 0.5, 0.7, 0.9] {
        let stats = aknn_row(&env, &queries, DEFAULT_K, alpha);
        push_aknn_row(&mut t, alpha.to_string(), &stats);
    }
    t.emit("fig11c");
}

const RKNN_HEADER: [&str; 7] =
    ["x", "Basic:acc", "RSS:acc", "RSS-ICR:acc", "Basic:ms", "RSS:ms", "RSS-ICR:ms"];

fn rknn_rows(
    env: &Env,
    queries: &[fuzzy_core::FuzzyObject<2>],
    k: usize,
    range: (f64, f64),
) -> Vec<QueryStats> {
    RknnAlgorithm::paper_variants()
        .iter()
        .map(|algo| env.run_rknn(queries, k, range, *algo, &AknnConfig::lb_lp_ub()))
        .collect()
}

fn push_rknn_row(t: &mut Table, x: String, stats: &[QueryStats]) {
    let mut row = vec![x];
    row.extend(stats.iter().map(|s| s.object_accesses.to_string()));
    row.extend(stats.iter().map(ms));
    t.row(row);
}

fn default_range() -> (f64, f64) {
    (DEFAULT_ALPHA - DEFAULT_L / 2.0, DEFAULT_ALPHA + DEFAULT_L / 2.0)
}

/// Figures 13a/14a: RKNN vs N.
fn fig13a(opts: &Opts) {
    let mut t = Table::new(&RKNN_HEADER);
    for n in [1_000usize, 5_000, 10_000, 50_000] {
        let spec = opts.spec(DatasetKind::Cell, opts.rknn_scaled(n));
        let env = Env::prepare(&spec);
        let queries = spec.queries(opts.rknn_queries);
        let stats = rknn_rows(&env, &queries, DEFAULT_K, default_range());
        push_rknn_row(&mut t, spec.n.to_string(), &stats);
    }
    t.emit("fig13a");
}

/// Figures 13b/14b: RKNN vs k.
fn fig13b(opts: &Opts) {
    let spec = opts.spec(DatasetKind::Cell, opts.rknn_scaled(DEFAULT_N));
    let env = Env::prepare(&spec);
    let queries = spec.queries(opts.rknn_queries);
    let mut t = Table::new(&RKNN_HEADER);
    for k in [5usize, 10, 20, 50] {
        let stats = rknn_rows(&env, &queries, k, default_range());
        push_rknn_row(&mut t, k.to_string(), &stats);
    }
    t.emit("fig13b");
}

/// Figures 13c/14c: RKNN vs range length L.
fn fig13c(opts: &Opts) {
    let spec = opts.spec(DatasetKind::Cell, opts.rknn_scaled(DEFAULT_N));
    let env = Env::prepare(&spec);
    let queries = spec.queries(opts.rknn_queries);
    let mut t = Table::new(&RKNN_HEADER);
    for l in [0.05, 0.1, 0.2, 0.5] {
        let range = (DEFAULT_ALPHA - l / 2.0, DEFAULT_ALPHA + l / 2.0);
        let stats = rknn_rows(&env, &queries, DEFAULT_K, range);
        push_rknn_row(&mut t, l.to_string(), &stats);
    }
    t.emit("fig13c");
}

/// Section 5: analytic object-access estimate (Eq. 8) vs measured Basic
/// AKNN accesses, sweeping α and k on the synthetic dataset.
fn sec5(opts: &Opts) {
    let spec = opts.spec(DatasetKind::Synthetic, opts.scaled(10_000));
    let env = Env::prepare(&spec);
    let queries = spec.queries(opts.queries);

    // Model inputs measured from the data.
    let centers: Vec<Point<2>> =
        env.store.summaries().iter().map(|s: &ObjectSummary<2>| s.support_mbr.center()).collect();
    let d0 = box_counting_dimension(&centers, 8).unwrap_or(2.0);
    let d2 = correlation_dimension(&centers, 8).unwrap_or(2.0);
    let c_avg = env.tree.len() as f64 / env.tree.leaf_count().expect("leaf pages") as f64;
    println!("\nmodel inputs: D0 = {d0:.3}, D2 = {d2:.3}, C_avg = {c_avg:.1}");

    let space = 100.0;
    let mut t = Table::new(&["alpha", "k", "Eq8 estimate", "measured Basic"]);
    for alpha in [0.3, 0.5, 0.7, 0.9] {
        let p = CostModelParams { num_objects: spec.n, k: DEFAULT_K, c_avg, d2, d0 };
        let r = fuzzy_analysis::gaussian_disk_radius(alpha, 0.5 / space, 0.5 / space);
        let est = fuzzy_analysis::eq8_object_accesses(&p, r);
        let measured = env.run_aknn(&queries, DEFAULT_K, alpha, &AknnConfig::basic());
        t.row(vec![
            alpha.to_string(),
            DEFAULT_K.to_string(),
            format!("{est:.1}"),
            measured.object_accesses.to_string(),
        ]);
    }
    for k in [5usize, 20, 50] {
        let p = CostModelParams { num_objects: spec.n, k, c_avg, d2, d0 };
        let r = fuzzy_analysis::gaussian_disk_radius(DEFAULT_ALPHA, 0.5 / space, 0.5 / space);
        let est = fuzzy_analysis::eq8_object_accesses(&p, r);
        let measured = env.run_aknn(&queries, k, DEFAULT_ALPHA, &AknnConfig::basic());
        t.row(vec![
            DEFAULT_ALPHA.to_string(),
            k.to_string(),
            format!("{est:.1}"),
            measured.object_accesses.to_string(),
        ]);
    }
    t.emit("sec5");
}

/// Ablation: conservative line fitting — bisection vs exact hull scan, and
/// tightness vs the trivial constant bound.
fn abl_line(opts: &Opts) {
    let spec = opts.spec(DatasetKind::Cell, opts.scaled(1_000).min(2_000));
    let store = spec.open();
    let mut t = Table::new(&["fit", "mean SSE", "max violation", "fit time (µs/object)"]);

    // Gather boundary samples from real objects.
    let mut sample_sets: Vec<Vec<(f64, f64)>> = Vec::new();
    for s in store.summaries().iter().take(300) {
        let obj = store.probe(s.id).expect("probe");
        let bf = fuzzy_core::boundary::BoundaryFunctions::compute(&obj);
        for dim in 0..2 {
            sample_sets.push(bf.upper_samples(dim));
            sample_sets.push(bf.lower_samples(dim));
        }
    }

    type FitFn<'f> = dyn Fn(&[(f64, f64)]) -> fuzzy_geom::ConservativeLine + 'f;
    let mut eval = |name: &str, fit: &FitFn<'_>| {
        let started = Instant::now();
        let mut sse = 0.0;
        let mut violation: f64 = 0.0;
        for s in &sample_sets {
            let line = fit(s);
            sse += line.sse(s);
            for &(x, y) in s {
                violation = violation.max(y - line.eval(x));
            }
        }
        let dt = started.elapsed().as_secs_f64() * 1e6 / sample_sets.len() as f64;
        t.row(vec![
            name.into(),
            format!("{:.4}", sse / sample_sets.len() as f64),
            format!("{violation:.2e}"),
            format!("{dt:.1}"),
        ]);
    };
    eval("UCH bisection", &|s| fit_conservative_line(s));
    eval("exact hull scan", &|s| fit_conservative_line_exact(s));
    eval("constant max-gap", &|s| {
        let max = s.iter().map(|&(_, y)| y).fold(0.0, f64::max);
        fuzzy_geom::ConservativeLine { m: 0.0, t: max }
    });
    t.emit("abl-line");
}

/// Ablation: UB sample size n (the paper requires n ≪ |Q_α| but does not
/// study the knob).
fn abl_samples(opts: &Opts) {
    let spec = opts.spec(DatasetKind::Cell, opts.scaled(10_000));
    let env = Env::prepare(&spec);
    let queries = spec.queries(opts.queries);
    let mut t = Table::new(&["n samples", "object accesses", "ms"]);
    for n in [1usize, 4, 16, 64] {
        let cfg = AknnConfig { query_samples: n, ..AknnConfig::lb_lp_ub() };
        let stats = env.run_aknn(&queries, DEFAULT_K, DEFAULT_ALPHA, &cfg);
        t.row(vec![n.to_string(), stats.object_accesses.to_string(), ms(&stats)]);
    }
    t.emit("abl-samples");
}
