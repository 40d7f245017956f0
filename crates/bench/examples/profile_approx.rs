//! Scratch profiler for tuning the approximate sweep's operating
//! point: engine baseline vs the VP-tree path across recall dials, on an
//! in-memory synthetic workload. Usage:
//! `cargo run --release --example profile_approx -- <n> <ppo> <radius>`.
use fuzzy_core::metric::L2;
use fuzzy_core::Threshold;
use fuzzy_datagen::SyntheticConfig;
use fuzzy_index::{RTree, RTreeConfig, RecallDial, VpTree, VpTreeConfig};
use fuzzy_query::{
    approx_aknn_with_scratch, recall_at_k, AknnResult, ApproxConfig, QueryEngine, QueryScratch,
};
use fuzzy_store::ObjectStore;
use std::time::Instant;

fn arg(i: usize, default: f64) -> f64 {
    std::env::args().nth(i).and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let n = arg(1, 20_000.0) as usize;
    let ppo = arg(2, 24.0) as usize;
    let radius = arg(3, 0.5);
    let cfg = SyntheticConfig {
        num_objects: n,
        points_per_object: ppo,
        radius,
        seed: 42,
        ..SyntheticConfig::default()
    };
    let store = fuzzy_store::MemStore::from_objects(cfg.generate()).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let queries: Vec<_> = (0..32u64).map(|i| cfg.query_object(i + 1)).collect();
    let k = 10;
    let alpha = 0.5;
    let t = Threshold::at(alpha);
    let mut scratch = QueryScratch::new();

    let engine = QueryEngine::new(&tree, &store);
    let best = fuzzy_query::AknnConfig::lb_lp_ub();
    // warm
    for q in &queries {
        engine.aknn_exact_with_scratch_in(&L2, q, k, alpha, &best, &mut scratch).unwrap();
    }
    let started = Instant::now();
    let mut eprobes = 0u64;
    let exacts: Vec<AknnResult> = queries
        .iter()
        .map(|q| {
            let r =
                engine.aknn_exact_with_scratch_in(&L2, q, k, alpha, &best, &mut scratch).unwrap();
            eprobes += r.stats.object_accesses;
            r
        })
        .collect();
    let exact_us = started.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;
    println!(
        "engine exact: {exact_us:.1} us/q ({:.1} probes/q)",
        eprobes as f64 / queries.len() as f64
    );

    let vp = VpTree::build(&L2, store.summaries(), VpTreeConfig::default());
    for eps in [0.5, 1.0, 1.5, 2.0, 3.0] {
        let cfgq = ApproxConfig { dial: RecallDial::Budget(eps), fof_rounds: 1 };
        let run = |scratch: &mut QueryScratch<2>| -> (f64, f64, f64) {
            let started = Instant::now();
            let mut probes = 0u64;
            let mut recall = 0.0;
            for (q, e) in queries.iter().zip(&exacts) {
                let r =
                    approx_aknn_with_scratch(&L2, &vp, &store, q, k, t, &cfgq, scratch).unwrap();
                probes += r.stats.object_accesses;
                recall += recall_at_k(&r, e);
            }
            let us = started.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;
            (us, probes as f64 / queries.len() as f64, recall / queries.len() as f64)
        };
        run(&mut scratch); // warm
        let (us, probes, recall) = run(&mut scratch);
        println!(
            "vptree eps={eps}: {us:.1} us/q ({probes:.1} probes/q) recall={recall:.4} speedup={:.2}x",
            exact_us / us
        );
    }
}
