//! The three in-process workloads: one thread, closed loop, the engine's
//! public query calls over a paged index and a file store.

use crate::clock::process_cpu_s;
use crate::oracle;
use crate::stats::{self, Repeated};
use crate::sut::{self, Json, PagedEngine, QueryKind, RawQuery, Store};
use crate::workloads::{
    self, ensure_dataset, file_len, layer_report, oracle_sample, peak_rss_mib, plain_pass,
    put_timing, Counted, Ctx, DatasetInfo, Outcome, Spec, Tally, MIN_PASSES, RKNN_CHECK_ALPHAS,
    SETUP_REPS,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The open store and engine, plus what opening them cost.
struct Live {
    store: Store,
    engine: PagedEngine,
    warm_up: Counted,
    /// CPU seconds of the whole set-up (see `clock.rs` for why not wall).
    setup_cpu_s: f64,
    setup_wall_s: f64,
    store_open_s: f64,
    index_build_s: f64,
    index_open_s: f64,
}

/// Everything a user pays before the first timed query: open the store,
/// bulk-load and write the index, open it, and run the warm-up pass.
fn set_up(
    spec: &Spec,
    data: &DatasetInfo,
    index_path: &Path,
    queries: &[RawQuery],
    tally: &mut Tally,
) -> Result<Live, String> {
    let _ = std::fs::remove_file(index_path);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let store = Store::open(&data.path)?;
    let t1 = Instant::now();
    sut::build_index(&store, store.len(), index_path)?;
    let t2 = Instant::now();
    let mut engine = PagedEngine::open(index_path, spec.pool_pages)?;
    let t3 = Instant::now();
    let (warm_up, _) = plain_pass(&mut engine, &store, spec.kind, &queries[..spec.warm_up], tally);
    Ok(Live {
        store,
        engine,
        warm_up,
        setup_cpu_s: process_cpu_s() - cpu0,
        setup_wall_s: t0.elapsed().as_secs_f64(),
        store_open_s: (t1 - t0).as_secs_f64(),
        index_build_s: (t2 - t1).as_secs_f64(),
        index_open_s: (t3 - t2).as_secs_f64(),
    })
}

/// What the timed passes measured.
struct Timed {
    /// Thread-CPU latency of every execution, by query.
    cpu: Repeated,
    /// Wall latency of every execution, by query.
    wall: Repeated,
    /// Digest and counters of one pass; every pass must give the same.
    pass: Counted,
    passes: usize,
}

/// Replay the whole query list, pass after pass, until `seconds` are up
/// (and at least [`MIN_PASSES`] times).
fn timed_passes(
    live: &mut Live,
    kind: QueryKind,
    queries: &[RawQuery],
    seconds: f64,
    tally: &mut Tally,
) -> Timed {
    let mut timed = Timed {
        cpu: Repeated::new(queries.len()),
        wall: Repeated::new(queries.len()),
        pass: Counted::default(),
        passes: 0,
    };
    let start = Instant::now();
    while timed.passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (counted, latencies) = plain_pass(&mut live.engine, &live.store, kind, queries, tally);
        if timed.passes > 0 && !counted.agrees_with(&timed.pass) {
            tally.problem(|| format!("pass {} answered differently from the first", timed.passes));
        }
        timed.pass = counted;
        timed.passes += 1;
        for (i, (wall, cpu)) in latencies.into_iter().enumerate() {
            timed.wall.by_query[i].push(wall);
            timed.cpu.by_query[i].push(cpu);
        }
    }
    timed
}

/// Check sampled queries against the brute-force reference.
fn verify(live: &mut Live, kind: QueryKind, queries: &[RawQuery], tally: &mut Tally) -> f64 {
    let t0 = Instant::now();
    let boxes = live.store.support_boxes();
    for raw in oracle_sample(queries) {
        let checked = live.engine.run(&live.store, kind, &raw.build()).and_then(|answer| {
            let scan = oracle::Scan::new(&live.store, &boxes, raw);
            match kind {
                QueryKind::Aknn { k, alpha } => {
                    oracle::check_aknn(&answer, &scan.knn(k, alpha, |_| true)?)
                }
                QueryKind::Rknn { k, .. } => RKNN_CHECK_ALPHAS.iter().try_for_each(|&alpha| {
                    oracle::check_rknn_at(&answer, alpha, &scan.knn(k, alpha, |_| true)?)
                }),
            }
        });
        match checked {
            Ok(()) => tally.pass(),
            Err(e) => tally.fail(|| format!("query {}: {e}", raw.id)),
        }
    }
    t0.elapsed().as_secs_f64()
}

fn index_path(spec: &Spec) -> PathBuf {
    PathBuf::from(format!("{}.fzpt", spec.name))
}

fn shape_info(live: &Live, data: &DatasetInfo, spec: &Spec) -> Vec<(&'static str, Json)> {
    let shape = live.engine.shape();
    vec![
        ("dataset_bytes", Json::num(data.bytes as f64)),
        ("dataset_objects", Json::num(data.spec.objects as f64)),
        ("points_per_object", Json::num(data.spec.points as f64)),
        ("index_pages", Json::num(shape.pages as f64)),
        ("index_height", Json::num(shape.height as f64)),
        ("index_page_bytes", Json::num(shape.page_size as f64)),
        ("pool_pages", Json::num(spec.pool_pages as f64)),
        ("distinct_queries", Json::num(spec.queries as f64)),
        ("warm_up_queries", Json::num(spec.warm_up as f64)),
    ]
}

/// The end-to-end run: tracing absent.
pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let data = ensure_dataset(spec.dataset, ctx)?;
    let queries = workloads::queries(&data, ctx.seed, spec.queries);
    let index_path = index_path(spec);
    let mut out = Outcome::default();

    // Set up several times; the last one is the one that gets measured.
    let mut live = set_up(spec, &data, &index_path, &queries, &mut out.tally)?;
    let mut setups = vec![live.setup_cpu_s];
    let mut setup_walls = vec![live.setup_wall_s];
    for _ in 1..SETUP_REPS {
        let first = live.warm_up;
        drop(live);
        live = set_up(spec, &data, &index_path, &queries, &mut out.tally)?;
        setups.push(live.setup_cpu_s);
        setup_walls.push(live.setup_wall_s);
        if !live.warm_up.agrees_with(&first) {
            out.tally.problem(|| "the warm-up pass answered differently on a second set-up".into());
        }
    }

    let timed = timed_passes(&mut live, spec.kind, &queries, ctx.seconds, &mut out.tally);
    let verify_s = verify(&mut live, spec.kind, &queries, &mut out.tally);

    // One thread, closed loop, no think time: throughput is the inverse of
    // the mean latency.
    put_timing(&mut out, &timed.cpu, 1e3 / timed.cpu.latency().mean_ms, &setups);
    out.metrics
        .insert("object_accesses_per_query".into(), timed.pass.per_query(|c| c.object_accesses));
    let disk = data.bytes + file_len(&index_path);
    out.metrics.insert("disk_bytes_per_object".into(), disk as f64 / data.spec.objects as f64);
    out.metrics.insert("peak_rss_mb".into(), peak_rss_mib());
    out.digest = timed.pass.digest.hex();

    let wall = timed.wall.latency();
    let sum = |r: &Repeated| r.by_query.iter().flatten().sum::<f64>();
    out.info = shape_info(&live, &data, spec);
    out.info.extend([
        ("timed_passes", Json::num(timed.passes as f64)),
        ("timed_samples", Json::num(timed.cpu.samples() as f64)),
        ("queries_beyond_p99", Json::num((spec.queries / 100) as f64)),
        // Wall-clock view of the same executions, and how much of their wall
        // time the thread was not running: stolen by the host, or blocked.
        ("wall_p50_ms", Json::num(wall.p50_ms)),
        ("wall_p99_ms", Json::num(wall.p99_ms)),
        ("off_cpu_share", Json::num(1.0 - sum(&timed.cpu) / sum(&timed.wall))),
        ("setup_wall_s", Json::num(stats::median(&setup_walls))),
        ("verify_s", Json::num(verify_s)),
        ("datagen_generate_s", Json::num(data.generate_s)),
    ]);
    Ok(out)
}

/// The traced run: per-layer metrics from spans recorded around the calls
/// into each layer, over the first `spec.traced` queries.
pub fn run_traced(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let data = ensure_dataset(spec.dataset, ctx)?;
    let queries = workloads::queries(&data, ctx.seed, spec.queries);
    let index_path = index_path(spec);
    let mut out = Outcome::default();
    let mut live = set_up(spec, &data, &index_path, &queries, &mut out.tally)?;

    let jsonl = ctx.out_dir.join(format!("trace-{}.jsonl", spec.name));
    let report = layer_report(
        &mut live.engine,
        &live.store,
        spec.kind,
        &queries[..spec.traced],
        &jsonl,
        &mut out.tally,
    )?;
    // The digest of every run is over the whole list, traced or not.
    let (whole, _) = plain_pass(&mut live.engine, &live.store, spec.kind, &queries, &mut out.tally);

    out.metrics = report.metrics;
    let mut put = |name: &str, v: f64| {
        out.metrics.insert(name.to_string(), v);
    };
    put("store.open_s", live.store_open_s);
    put("index.build_s", live.index_build_s);
    put("index.open_s", live.index_open_s);
    put("index.bytes_per_object", file_len(&index_path) as f64 / data.spec.objects as f64);
    put("datagen.generate_s", data.generate_s);
    out.digest = whole.digest.hex();
    out.info = shape_info(&live, &data, spec);
    out.info.push(("traced_queries", Json::num(spec.traced as f64)));
    Ok(out)
}
