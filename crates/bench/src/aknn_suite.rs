//! The `fkq bench` harness: §6-style AKNN throughput sweeps with a
//! machine-readable JSON report.
//!
//! The paper's experiments measure per-query cost (object/node accesses,
//! runtime) as one axis varies — k (Fig. 11/12), α (Fig. 13/14), the
//! pruning variant (§6.2). This harness reruns those sweeps as *batched*
//! workloads through [`fuzzy_query::BatchExecutor`], adding the thread
//! count and the **index backend** as axes, and emits a `BENCH_aknn.json`
//! whose schema is stable across PRs so successive runs are diffable (and
//! CI can smoke-parse it).
//!
//! With the default `paged` backend the index is a real on-disk
//! [`PagedRTree`] read through its buffer pool, so `node_disk_reads_*`
//! reports *measured* I/O: the buffer pool is cleared before every
//! measured batch (every run is cold), and a dedicated `cold_warm` sweep
//! runs the default workload twice — cold, then again against the warm
//! pool — to expose the cache's effect directly.

use crate::json::Json;
use crate::kernel::{self, KernelOptions};
use crate::{DatasetSpec, Env};
use fuzzy_datagen::DatasetKind;
use fuzzy_index::{NodeAccess, OverlayRTree, PagedRTree};
use fuzzy_query::{AknnConfig, BatchExecutor, BatchOutcome, BatchRequest};
use fuzzy_store::{FileStore, ObjectStore};
use std::path::Path;

/// Schema identifier embedded in every report. v3 added per-query latency
/// percentiles (`wall_ms_p50/p95/p99`) to every run and the top-level
/// `kernel` microbench section. v5 adds a `metric` field to every run
/// naming the distance metric the batch ran under (`l2` for all of the
/// rectangle engine's sweeps). v6 adds the `approx` sweep — the
/// recall-vs-QPS axis: one exact-baseline row (`approx_backend: "exact"`)
/// plus one VP-tree row per recall dial, every row tagged with its
/// measured `recall_at_k` against the exact engine. The dial moves recall
/// only; reported distances stay exact on every row. v7 drops the `shards`
/// field and sweep (v4) and the `lsh` rows with the two layouts they
/// measured.
pub const SCHEMA: &str = "fuzzy-knn/bench-aknn/v7";

/// Which index backend a bench run queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexBackend {
    /// The in-memory `RTree`: an index image, whose node reads never
    /// touch disk.
    Mem,
    /// The disk-resident `PagedRTree` behind an LRU buffer pool.
    Paged,
}

/// Sweep axes of one bench invocation.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Dataset to generate/open.
    pub dataset: DatasetSpec,
    /// Number of queries per measurement batch.
    pub queries: usize,
    /// k used by the variant/α/thread sweeps.
    pub default_k: usize,
    /// α used by the variant/k/thread sweeps.
    pub default_alpha: f64,
    /// k values of the k sweep.
    pub ks: Vec<usize>,
    /// α values of the α sweep.
    pub alphas: Vec<f64>,
    /// Worker counts of the thread sweep.
    pub thread_counts: Vec<usize>,
    /// Index backend the sweeps query.
    pub backend: IndexBackend,
    /// Page size of the paged index file (ignored for `Mem`).
    pub page_size: u32,
    /// Buffer-pool capacity in pages (ignored for `Mem`).
    pub cache_pages: usize,
    /// Axes of the distance-kernel microbench (`kernel` report section).
    pub kernel: KernelOptions,
    /// Fraction of the dataset cycled through the paged overlay (delete +
    /// reinsert) before an extra `mutation` sweep measures the default
    /// workload against the mutated index. `0.0` skips the sweep; the
    /// in-memory backend has no mutation path and refuses anything else.
    /// The live set is unchanged, so the numbers are directly comparable
    /// to the pristine-index runs — the delta is the cost of querying
    /// through the overlay.
    pub mutation_rate: f64,
    /// Workload of the `approx` sweep. Approximate candidate generation
    /// pays off where bound-based pruning struggles — many objects, heavy
    /// support overlap — so the sweep measures its own denser dataset
    /// (larger `n`, radius above the paper's 0.5) instead of the sparse
    /// default workload, where the exact engine is already probe-optimal
    /// and no candidate scheme could beat it. The exact baseline row runs
    /// on this same workload, so every speedup in the sweep is
    /// apples-to-apples.
    pub approx_dataset: DatasetSpec,
    /// Pruning-slack ladder (ε) of the `approx` sweep's VP-tree rows;
    /// empty skips the sweep.
    pub vptree_slacks: Vec<f64>,
    /// True for the CI smoke configuration (recorded in the report).
    pub smoke: bool,
}

impl BenchOptions {
    /// The default full configuration (a few seconds of wall clock).
    pub fn full() -> Self {
        Self {
            dataset: DatasetSpec {
                kind: DatasetKind::Synthetic,
                n: 2_000,
                points_per_object: 120,
                seed: 42,
                radius: None,
            },
            queries: 48,
            default_k: 10,
            default_alpha: 0.5,
            ks: vec![1, 5, 10, 20, 50],
            alphas: vec![0.2, 0.5, 0.8],
            thread_counts: vec![1, 2, 4, 8],
            backend: IndexBackend::Paged,
            page_size: fuzzy_index::DEFAULT_PAGE_SIZE,
            cache_pages: fuzzy_index::DEFAULT_CACHE_PAGES,
            kernel: KernelOptions::full(),
            mutation_rate: 0.0,
            approx_dataset: DatasetSpec {
                kind: DatasetKind::Synthetic,
                n: 20_000,
                points_per_object: 24,
                seed: 42,
                radius: Some(6.0),
            },
            vptree_slacks: vec![0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
            smoke: false,
        }
    }

    /// A sub-second configuration for CI: tiny dataset, every sweep still
    /// exercised so the schema cannot rot unnoticed.
    pub fn smoke() -> Self {
        Self {
            dataset: DatasetSpec {
                kind: DatasetKind::Synthetic,
                n: 80,
                points_per_object: 30,
                seed: 42,
                radius: None,
            },
            queries: 4,
            default_k: 3,
            default_alpha: 0.5,
            ks: vec![1, 3],
            alphas: vec![0.5],
            thread_counts: vec![1, 2],
            backend: IndexBackend::Paged,
            page_size: fuzzy_index::DEFAULT_PAGE_SIZE,
            cache_pages: 64,
            kernel: KernelOptions::smoke(),
            mutation_rate: 0.25,
            approx_dataset: DatasetSpec {
                kind: DatasetKind::Synthetic,
                n: 80,
                points_per_object: 30,
                seed: 42,
                radius: Some(6.0),
            },
            vptree_slacks: vec![0.0, 1.0],
            smoke: true,
        }
    }
}

/// One measured cell of a sweep, flattened into the report's `runs` array.
/// `cache` records the buffer-pool state the batch started from: `cold`
/// (cleared), `warm` (left over from a previous batch) or `none` (the
/// in-memory backend has no pool).
fn record(
    sweep: &str,
    cfg: &AknnConfig,
    k: usize,
    alpha: f64,
    threads: usize,
    cache: &str,
    outcome: &BatchOutcome,
) -> Json {
    let total = outcome.total_stats();
    let ok = outcome.ok_count().max(1) as f64;
    let batch_secs = outcome.wall.as_secs_f64();
    // Per-query latency distribution (successful queries only). The
    // nearest-rank percentile matches the usual SLO convention: p99 of 48
    // samples is the 48th-ranked latency.
    let mut walls: Vec<f64> = outcome
        .responses
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.stats().wall.as_secs_f64() * 1e3)
        .collect();
    walls.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if walls.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * walls.len() as f64).ceil() as usize;
        walls[rank.clamp(1, walls.len()) - 1]
    };
    Json::obj(vec![
        ("sweep", Json::str(sweep)),
        ("variant", Json::str(cfg.variant_name())),
        // The distance metric the batch ran under: always `l2`, the one
        // metric the engine serves. Kept so existing reports still
        // validate against the schema.
        ("metric", Json::str("l2")),
        ("k", Json::num(k as f64)),
        ("alpha", Json::num(alpha)),
        ("threads", Json::num(threads as f64)),
        ("cache", Json::str(cache)),
        ("queries", Json::num(outcome.responses.len() as f64)),
        ("errors", Json::num(outcome.error_count() as f64)),
        ("wall_ms_batch", Json::num(batch_secs * 1e3)),
        ("wall_ms_mean_query", Json::num(total.wall.as_secs_f64() * 1e3 / ok)),
        ("wall_ms_p50", Json::num(pct(50.0))),
        ("wall_ms_p95", Json::num(pct(95.0))),
        ("wall_ms_p99", Json::num(pct(99.0))),
        ("qps", Json::num(if batch_secs > 0.0 { ok / batch_secs } else { 0.0 })),
        ("object_accesses_total", Json::num(total.object_accesses as f64)),
        ("object_accesses_mean", Json::num(total.object_accesses as f64 / ok)),
        ("node_accesses_total", Json::num(total.node_accesses as f64)),
        ("node_accesses_mean", Json::num(total.node_accesses as f64 / ok)),
        ("node_disk_reads_total", Json::num(total.node_disk_reads as f64)),
        ("node_disk_reads_mean", Json::num(total.node_disk_reads as f64 / ok)),
        ("distance_evals_total", Json::num(total.distance_evals as f64)),
        ("bound_evals_total", Json::num(total.bound_evals as f64)),
    ])
}

/// Fields every entry of `runs` must carry, with their JSON types.
const RUN_FIELDS: &[(&str, bool)] = &[
    // (name, is_number) — false means string.
    ("sweep", false),
    ("variant", false),
    ("metric", false),
    ("k", true),
    ("alpha", true),
    ("threads", true),
    ("cache", false),
    ("queries", true),
    ("errors", true),
    ("wall_ms_batch", true),
    ("wall_ms_mean_query", true),
    ("wall_ms_p50", true),
    ("wall_ms_p95", true),
    ("wall_ms_p99", true),
    ("qps", true),
    ("object_accesses_total", true),
    ("object_accesses_mean", true),
    ("node_accesses_total", true),
    ("node_accesses_mean", true),
    ("node_disk_reads_total", true),
    ("node_disk_reads_mean", true),
    ("distance_evals_total", true),
    ("bound_evals_total", true),
];

/// Run every sweep over one index backend. `clear_cache` resets the
/// backend's buffer pool (no-op for the in-memory tree); `cache_label` is
/// what a post-clear batch should record (`cold` for paged, `none` for
/// mem).
fn sweeps<A: NodeAccess<2> + Sync>(
    tree: &A,
    store: &FileStore<2>,
    queries: &[fuzzy_core::FuzzyObject<2>],
    opts: &BenchOptions,
    clear_cache: &dyn Fn(),
    cache_label: &str,
) -> Vec<Json> {
    let mut runs: Vec<Json> = Vec::new();

    // Returns the outcome together with the *resolved* worker count, so a
    // `--threads 0` (one per CPU) request is recorded as the count that
    // actually ran, not as 0. Every measured batch starts from a cleared
    // buffer pool so `node_disk_reads` is reproducible.
    let batch = |cfg: &AknnConfig, k: usize, alpha: f64, threads: usize| -> (BatchOutcome, usize) {
        clear_cache();
        let requests: Vec<BatchRequest<2>> =
            queries.iter().map(|q| BatchRequest::aknn(q.clone(), k, alpha, *cfg)).collect();
        let executor = BatchExecutor::new(threads);
        (executor.run(tree, store, &requests), executor.threads())
    };

    // Sweep 1 — variant × thread count at the default (k, α): the paper's
    // §6.2 ablation, extended with the concurrency axis.
    for &threads in &opts.thread_counts {
        for cfg in AknnConfig::paper_variants() {
            let (outcome, resolved) = batch(&cfg, opts.default_k, opts.default_alpha, threads);
            runs.push(record(
                "variant_threads",
                &cfg,
                opts.default_k,
                opts.default_alpha,
                resolved,
                cache_label,
                &outcome,
            ));
        }
    }

    // Sweep 2 — k (Fig. 11/12) with the best variant at the largest
    // configured thread count.
    let best = AknnConfig::lb_lp_ub();
    let max_threads = opts.thread_counts.iter().copied().max().unwrap_or(1);
    for &k in &opts.ks {
        let (outcome, resolved) = batch(&best, k, opts.default_alpha, max_threads);
        runs.push(record("k", &best, k, opts.default_alpha, resolved, cache_label, &outcome));
    }

    // Sweep 3 — α (Fig. 13/14) with the best variant.
    for &alpha in &opts.alphas {
        let (outcome, resolved) = batch(&best, opts.default_k, alpha, max_threads);
        runs.push(record("alpha", &best, opts.default_k, alpha, resolved, cache_label, &outcome));
    }

    // Sweep 4 — cold vs warm buffer pool on the default workload (§6 cost
    // accounting made literal: the first run pays the disk, the second is
    // served by the pool). On the in-memory backend both legs report zero
    // disk reads, which is exactly the point of the comparison.
    let (cold, resolved) = batch(&best, opts.default_k, opts.default_alpha, max_threads);
    runs.push(record(
        "cold_warm",
        &best,
        opts.default_k,
        opts.default_alpha,
        resolved,
        cache_label,
        &cold,
    ));
    let requests: Vec<BatchRequest<2>> = queries
        .iter()
        .map(|q| BatchRequest::aknn(q.clone(), opts.default_k, opts.default_alpha, best))
        .collect();
    let executor = BatchExecutor::new(max_threads);
    let warm = executor.run(tree, store, &requests); // pool left warm by `cold`
    runs.push(record(
        "cold_warm",
        &best,
        opts.default_k,
        opts.default_alpha,
        executor.threads(),
        "warm",
        &warm,
    ));

    runs
}

/// The extra `mutation` sweep: cycle `rate · n` objects through the paged
/// overlay (delete, then reinsert — the live set is unchanged), then
/// measure the default workload, cold, against the mutated overlay.
fn mutation_sweep(
    overlay: &OverlayRTree<2>,
    store: &FileStore<2>,
    queries: &[fuzzy_core::FuzzyObject<2>],
    opts: &BenchOptions,
) -> Json {
    let best = AknnConfig::lb_lp_ub();
    let threads = opts.thread_counts.iter().copied().max().unwrap_or(1);
    overlay.base().clear_cache();
    let requests: Vec<BatchRequest<2>> = queries
        .iter()
        .map(|q| BatchRequest::aknn(q.clone(), opts.default_k, opts.default_alpha, best))
        .collect();
    let executor = BatchExecutor::new(threads);
    let outcome = executor.run(overlay, store, &requests);
    let mut run = record(
        "mutation",
        &best,
        opts.default_k,
        opts.default_alpha,
        executor.threads(),
        "cold",
        &outcome,
    );
    if let Json::Obj(fields) = &mut run {
        fields.push(("mutation_rate".to_string(), Json::num(opts.mutation_rate)));
    }
    run
}

/// Number of objects the `mutation` sweep cycles.
fn mutation_count(opts: &BenchOptions, available: usize) -> usize {
    ((available as f64 * opts.mutation_rate).ceil() as usize).min(available)
}

/// One row of the `approx` sweep from a pile of per-query results: the
/// full field set, plus the sweep's own axes (`approx_backend`,
/// `recall_dial`, `recall_at_k`). Every query runs single-threaded on
/// the in-memory candidate structures, so the mean-query wall clock is
/// directly comparable across rows — that comparison *is* the sweep.
fn record_approx(
    backend: &str,
    dial: &str,
    k: usize,
    alpha: f64,
    results: &[fuzzy_query::AknnResult],
    batch: std::time::Duration,
    recall: f64,
) -> Json {
    let mut total = fuzzy_query::QueryStats::default();
    let mut walls: Vec<f64> = Vec::with_capacity(results.len());
    for r in results {
        total += r.stats;
        walls.push(r.stats.wall.as_secs_f64() * 1e3);
    }
    walls.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if walls.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * walls.len() as f64).ceil() as usize;
        walls[rank.clamp(1, walls.len()) - 1]
    };
    let ok = results.len().max(1) as f64;
    let batch_secs = batch.as_secs_f64();
    Json::obj(vec![
        ("sweep", Json::str("approx")),
        ("variant", Json::str("LB-LP-UB")),
        ("metric", Json::str("l2")),
        ("approx_backend", Json::str(backend)),
        ("recall_dial", Json::str(dial)),
        ("recall_at_k", Json::num(recall)),
        ("k", Json::num(k as f64)),
        ("alpha", Json::num(alpha)),
        ("threads", Json::num(1.0)),
        ("cache", Json::str("none")),
        ("queries", Json::num(results.len() as f64)),
        ("errors", Json::num(0.0)),
        ("wall_ms_batch", Json::num(batch_secs * 1e3)),
        ("wall_ms_mean_query", Json::num(total.wall.as_secs_f64() * 1e3 / ok)),
        ("wall_ms_p50", Json::num(pct(50.0))),
        ("wall_ms_p95", Json::num(pct(95.0))),
        ("wall_ms_p99", Json::num(pct(99.0))),
        ("qps", Json::num(if batch_secs > 0.0 { ok / batch_secs } else { 0.0 })),
        ("object_accesses_total", Json::num(total.object_accesses as f64)),
        ("object_accesses_mean", Json::num(total.object_accesses as f64 / ok)),
        ("node_accesses_total", Json::num(total.node_accesses as f64)),
        ("node_accesses_mean", Json::num(total.node_accesses as f64 / ok)),
        ("node_disk_reads_total", Json::num(total.node_disk_reads as f64)),
        ("node_disk_reads_mean", Json::num(total.node_disk_reads as f64 / ok)),
        ("distance_evals_total", Json::num(total.distance_evals as f64)),
        ("bound_evals_total", Json::num(total.bound_evals as f64)),
    ])
}

/// The `approx` sweep — the recall-vs-QPS axis. One single-threaded
/// exact-baseline row through `aknn_exact` (the speedup denominator),
/// then one VP-tree row per recall dial, each resolving a candidate pool
/// through the exact probe loop and tagged with its measured recall@k
/// against the baseline answers. The dial ladder is `opts.vptree_slacks`,
/// closed with the `exact` endpoint (recall 1.0 by construction, asserted
/// here).
fn approx_sweep(
    env: &Env,
    queries: &[fuzzy_core::FuzzyObject<2>],
    opts: &BenchOptions,
) -> Vec<Json> {
    use fuzzy_core::metric::L2;
    use fuzzy_core::Threshold;
    use fuzzy_index::{RecallDial, VpTree, VpTreeConfig};
    use fuzzy_query::{
        approx_aknn_with_scratch, recall_at_k, AknnResult, ApproxConfig, QueryEngine, QueryScratch,
    };
    use std::time::Instant;

    let k = opts.default_k;
    let alpha = opts.default_alpha;
    let t = Threshold::at(alpha);
    let mut runs = Vec::new();
    let mut scratch = QueryScratch::new();

    // Exact baseline: the engine's own exact search over the in-memory
    // tree, single-threaded — the denominator of every speedup claim. One
    // untimed pass first: the store was opened a moment ago, and a first
    // pass that pays for faulting its file in is not what the approx rows
    // after it are compared to.
    let engine = QueryEngine::new(&env.tree, &env.store);
    let best = AknnConfig::lb_lp_ub();
    let mut exact_pass = || -> Vec<AknnResult> {
        queries
            .iter()
            .map(|q| {
                engine
                    .aknn_exact_with_scratch_in(&L2, q, k, alpha, &best, &mut scratch)
                    .expect("exact baseline query")
            })
            .collect()
    };
    exact_pass();
    let started = Instant::now();
    let exacts = exact_pass();
    runs.push(record_approx("exact", "exact", k, alpha, &exacts, started.elapsed(), 1.0));

    let vp = VpTree::build(&L2, env.store.summaries(), VpTreeConfig::default());
    let dials = opts.vptree_slacks.iter().map(|&e| RecallDial::Budget(e));
    for dial in dials.chain([RecallDial::Exact]) {
        let cfg = ApproxConfig::at(dial);
        let started = Instant::now();
        let results: Vec<AknnResult> = queries
            .iter()
            .map(|q| {
                approx_aknn_with_scratch(&L2, &vp, &env.store, q, k, t, &cfg, &mut scratch)
                    .expect("vptree approx query")
            })
            .collect();
        let batch = started.elapsed();
        let recall = results.iter().zip(&exacts).map(|(a, e)| recall_at_k(a, e)).sum::<f64>()
            / results.len().max(1) as f64;
        if matches!(dial, RecallDial::Exact) {
            assert_eq!(recall, 1.0, "the exact dial must have recall 1.0");
        }
        runs.push(record_approx("vptree", &dial.label(), k, alpha, &results, batch, recall));
    }
    runs
}

/// Run every sweep and assemble the report.
pub fn run(opts: &BenchOptions) -> Json {
    let env = Env::prepare(&opts.dataset);
    let queries = opts.dataset.queries(opts.queries);

    let (mut runs, index_meta) = match opts.backend {
        IndexBackend::Mem => {
            assert!(
                opts.mutation_rate <= 0.0,
                "the in-memory tree is never edited: the mutation sweep needs the paged backend"
            );
            let runs = sweeps(&env.tree, &env.store, &queries, opts, &|| {}, "none");
            let meta = Json::obj(vec![
                ("backend", Json::str("mem")),
                ("nodes", Json::num(env.tree.page_count() as f64)),
                ("height", Json::num(env.tree.height() as f64)),
            ]);
            (runs, meta)
        }
        IndexBackend::Paged => {
            let index_path = opts.dataset.index_path();
            let entries = env.store.summaries().to_vec();
            drop(
                PagedRTree::bulk_write(entries, env.tree.config(), &index_path, opts.page_size)
                    .expect("write index file"),
            );
            let paged: PagedRTree<2> =
                PagedRTree::open_with_cache(&index_path, opts.cache_pages).expect("open index");
            let mut runs =
                sweeps(&paged, &env.store, &queries, opts, &|| paged.clear_cache(), "cold");
            if opts.mutation_rate > 0.0 {
                let m = mutation_count(opts, env.store.len());
                let base = std::sync::Arc::new(
                    PagedRTree::open_with_cache(&index_path, opts.cache_pages)
                        .expect("reopen index"),
                );
                let mut overlay = OverlayRTree::new(base).expect("wrap index in overlay");
                let victims = env.store.summaries()[..m].to_vec();
                for s in victims {
                    assert!(overlay.delete(s.id), "benchmark dataset ids are indexed");
                    assert!(overlay.insert(s), "reinsert after delete cannot collide");
                }
                runs.push(mutation_sweep(&overlay, &env.store, &queries, opts));
            }
            let meta = Json::obj(vec![
                ("backend", Json::str("paged")),
                ("page_size", Json::num(paged.page_size() as f64)),
                ("pages", Json::num(paged.page_count() as f64)),
                ("height", Json::num(NodeAccess::height(&paged) as f64)),
                ("cache_pages", Json::num(opts.cache_pages as f64)),
            ]);
            (runs, meta)
        }
    };

    if !opts.vptree_slacks.is_empty() {
        let approx_env = Env::prepare(&opts.approx_dataset);
        let approx_queries = opts.approx_dataset.queries(opts.queries);
        runs.extend(approx_sweep(&approx_env, &approx_queries, opts));
    }

    let kernel_rows = kernel::run(&opts.kernel);

    let threads_available =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("smoke", Json::Bool(opts.smoke)),
        // Thread-sweep context: speedups cap at this machine's parallelism
        // (a 1-CPU CI runner legitimately shows a flat thread axis).
        ("machine", Json::obj(vec![("threads_available", Json::num(threads_available as f64))])),
        ("index", index_meta),
        (
            "dataset",
            Json::obj(vec![
                (
                    "kind",
                    Json::str(match opts.dataset.kind {
                        DatasetKind::Synthetic => "synthetic",
                        DatasetKind::Cell => "cell",
                    }),
                ),
                ("n", Json::num(opts.dataset.n as f64)),
                ("points_per_object", Json::num(opts.dataset.points_per_object as f64)),
                ("seed", Json::num(opts.dataset.seed as f64)),
            ]),
        ),
        (
            "workload",
            Json::obj(vec![
                ("queries", Json::num(opts.queries as f64)),
                ("default_k", Json::num(opts.default_k as f64)),
                ("default_alpha", Json::num(opts.default_alpha)),
                ("mutation_rate", Json::num(opts.mutation_rate)),
                ("ks", Json::Arr(opts.ks.iter().map(|&k| Json::num(k as f64)).collect())),
                ("alphas", Json::Arr(opts.alphas.iter().map(|&a| Json::num(a)).collect())),
                (
                    "thread_counts",
                    Json::Arr(opts.thread_counts.iter().map(|&t| Json::num(t as f64)).collect()),
                ),
                (
                    "vptree_slacks",
                    Json::Arr(opts.vptree_slacks.iter().map(|&e| Json::num(e)).collect()),
                ),
                (
                    "approx_dataset",
                    Json::obj(vec![
                        (
                            "kind",
                            Json::str(match opts.approx_dataset.kind {
                                DatasetKind::Synthetic => "synthetic",
                                DatasetKind::Cell => "cell",
                            }),
                        ),
                        ("n", Json::num(opts.approx_dataset.n as f64)),
                        (
                            "points_per_object",
                            Json::num(opts.approx_dataset.points_per_object as f64),
                        ),
                        ("seed", Json::num(opts.approx_dataset.seed as f64)),
                        ("radius", opts.approx_dataset.radius.map(Json::num).unwrap_or(Json::Null)),
                    ]),
                ),
            ]),
        ),
        ("runs", Json::Arr(runs)),
        ("kernel", Json::Arr(kernel_rows)),
    ])
}

/// Structural schema check used by the CI smoke job (and re-run on every
/// report `fkq bench` writes). Returns a description of the first
/// violation.
pub fn validate_report(report: &Json) -> Result<(), String> {
    if report.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema field missing or not {SCHEMA:?}"));
    }
    for key in ["dataset", "workload", "machine", "index"] {
        match report.get(key) {
            Some(Json::Obj(_)) => {}
            _ => return Err(format!("{key} must be an object")),
        }
    }
    let runs = report
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "runs must be an array".to_string())?;
    if runs.is_empty() {
        return Err("runs must not be empty".to_string());
    }
    for (i, run) in runs.iter().enumerate() {
        for &(field, is_number) in RUN_FIELDS {
            let value = run.get(field).ok_or_else(|| format!("runs[{i}] missing {field:?}"))?;
            match (is_number, value) {
                (true, Json::Num(n)) if n.is_finite() && *n >= 0.0 => {}
                (false, Json::Str(_)) => {}
                _ => return Err(format!("runs[{i}].{field} has the wrong type: {value:?}")),
            }
        }
        if run.get("errors").and_then(Json::as_num) != Some(0.0) {
            return Err(format!("runs[{i}] recorded query errors"));
        }
        // Every `approx`-sweep row carries the recall axis: what produced
        // the answer (`exact` or `vptree`), which dial setting, and the
        // measured recall@k in [0, 1] against the exact engine.
        if run.get("sweep").and_then(Json::as_str) == Some("approx") {
            match run.get("recall_at_k") {
                Some(Json::Num(r)) if (0.0..=1.0).contains(r) => {}
                other => {
                    return Err(format!("runs[{i}].recall_at_k must be in [0, 1], got {other:?}"))
                }
            }
            for field in ["approx_backend", "recall_dial"] {
                match run.get(field) {
                    Some(Json::Str(_)) => {}
                    _ => return Err(format!("runs[{i}].{field} must be a string")),
                }
            }
        }
    }
    let kernel_rows = report
        .get("kernel")
        .and_then(Json::as_arr)
        .ok_or_else(|| "kernel must be an array".to_string())?;
    if kernel_rows.is_empty() {
        return Err("kernel must not be empty".to_string());
    }
    for (i, row) in kernel_rows.iter().enumerate() {
        for &(field, is_number) in kernel::KERNEL_FIELDS {
            let value = row.get(field).ok_or_else(|| format!("kernel[{i}] missing {field:?}"))?;
            match (is_number, value) {
                (true, Json::Num(n)) if n.is_finite() && *n >= 0.0 => {}
                (false, Json::Str(_)) => {}
                _ => return Err(format!("kernel[{i}].{field} has the wrong type: {value:?}")),
            }
        }
    }
    Ok(())
}

/// Serialize, validate and write a report; returns the rendered text.
pub fn write_report(path: &Path, report: &Json) -> std::io::Result<String> {
    validate_report(report).map_err(std::io::Error::other)?;
    let text = report.to_pretty();
    std::fs::write(path, &text)?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_produces_a_valid_report() {
        let _env = crate::dataset_dir_test_lock();
        std::env::set_var("FUZZY_DATASET_DIR", std::env::temp_dir().join("fzkn-bench-suite-test"));
        let report = run(&BenchOptions::smoke());
        validate_report(&report).expect("smoke report must satisfy the schema");
        // The report survives a serialize → parse round trip.
        let reparsed = Json::parse(&report.to_pretty()).unwrap();
        validate_report(&reparsed).unwrap();
        // All six sweeps are present (smoke sets a nonzero mutation
        // rate precisely so the dynamic-update path cannot rot unnoticed).
        let runs = reparsed.get("runs").unwrap().as_arr().unwrap();
        for sweep in ["variant_threads", "k", "alpha", "cold_warm", "mutation", "approx"] {
            assert!(
                runs.iter().any(|r| r.get("sweep").and_then(Json::as_str) == Some(sweep)),
                "missing sweep {sweep}"
            );
        }
        // The approx sweep carries the recall axis: an exact baseline row
        // at recall 1.0 plus the VP-tree's dial ladder, closed with an
        // exact-dial endpoint that must also hit recall 1.0.
        let approx_rows: Vec<_> = runs
            .iter()
            .filter(|r| r.get("sweep").and_then(Json::as_str) == Some("approx"))
            .collect();
        for backend in ["exact", "vptree"] {
            assert!(
                approx_rows
                    .iter()
                    .any(|r| r.get("approx_backend").and_then(Json::as_str) == Some(backend)),
                "missing approx backend {backend}"
            );
        }
        for row in &approx_rows {
            if row.get("recall_dial").and_then(Json::as_str) == Some("exact") {
                assert_eq!(
                    row.get("recall_at_k").and_then(Json::as_num),
                    Some(1.0),
                    "exact dial rows must measure recall 1.0"
                );
            }
        }
        // Every paper variant appears in the variant sweep.
        for variant in ["Basic", "LB", "LB-LP", "LB-LP-UB"] {
            assert!(runs.iter().any(|r| r.get("variant").and_then(Json::as_str) == Some(variant)));
        }
        // The default backend is paged, so I/O is real: cold runs read
        // pages from disk, the warm leg of the cold_warm sweep does not.
        assert_eq!(
            reparsed.get("index").unwrap().get("backend").and_then(Json::as_str),
            Some("paged")
        );
        let leg = |cache: &str| -> f64 {
            runs.iter()
                .find(|r| {
                    r.get("sweep").and_then(Json::as_str) == Some("cold_warm")
                        && r.get("cache").and_then(Json::as_str) == Some(cache)
                })
                .expect("cold_warm leg present")
                .get("node_disk_reads_total")
                .and_then(Json::as_num)
                .unwrap()
        };
        assert!(leg("cold") > 0.0, "cold runs must hit the disk");
        assert_eq!(leg("warm"), 0.0, "warm pool must serve every node");
    }

    #[test]
    fn validate_rejects_broken_reports() {
        assert!(validate_report(&Json::Null).is_err());
        assert!(validate_report(&Json::obj(vec![("schema", Json::str("wrong"))])).is_err());
        let no_runs = Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("dataset", Json::Obj(vec![])),
            ("workload", Json::Obj(vec![])),
            ("runs", Json::Arr(vec![])),
        ]);
        assert!(validate_report(&no_runs).is_err());
    }
}
