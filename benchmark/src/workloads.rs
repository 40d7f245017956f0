//! What the four workloads are, and the pieces they share: the dataset
//! cache, the failure tally, the pass over a query list and the layer report.

use crate::clock::Tick;
use crate::stats::{self, Fnv, Repeated};
use crate::sut::{
    Answer, Counters, DatasetSpec, InProc, Json, Object, Pooled, QueryKind, RawQuery, Store,
};
use crate::trace::{self, Layer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const K: usize = 10;
const AKNN: QueryKind = QueryKind::Aknn { k: K, alpha: 0.5 };
const RKNN: QueryKind = QueryKind::Rknn { k: K, start: 0.3, end: 0.7 };
/// Thresholds at which an RKNN answer is checked against brute force.
pub const RKNN_CHECK_ALPHAS: [f64; 3] = [0.3, 0.5, 0.7];
/// Queries per workload checked against brute force.
const ORACLE_SAMPLES: usize = 16;
/// Fewest timed passes over the query list, however long they take: a
/// query's latency is the median of its samples.
pub const MIN_PASSES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Objects inserted and deleted by one write batch.
pub const WRITE_BATCH: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Many small objects: the index outgrows the program's buffer pool.
    Scale,
    /// The paper's Table-2 object shape: 1 000 points, radius 0.5.
    Paper,
}

impl Dataset {
    pub fn file(self) -> &'static str {
        match self {
            Dataset::Scale => "scale.fzkn",
            Dataset::Paper => "paper.fzkn",
        }
    }

    pub fn spec(self, smoke: bool) -> DatasetSpec {
        match (self, smoke) {
            (Dataset::Scale, false) => DatasetSpec { objects: 200_000, points: 32, radius: 0.1 },
            (Dataset::Scale, true) => DatasetSpec { objects: 2_000, points: 32, radius: 0.1 },
            (Dataset::Paper, false) => DatasetSpec { objects: 20_000, points: 1_000, radius: 0.5 },
            (Dataset::Paper, true) => DatasetSpec { objects: 2_000, points: 1_000, radius: 0.5 },
        }
    }
}

/// One workload's fixed parameters. Counts are query counts.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub kind: QueryKind,
    /// Buffer-pool capacity of the index, in pages.
    pub pool_pages: usize,
    /// Distinct query objects; the timed passes replay the list in order,
    /// again and again, so every query is measured several times. Sized so
    /// that a pass takes about a second on the reference box.
    pub queries: usize,
    /// Length of the warm-up pass that ends set-up (a prefix of the list).
    pub warm_up: usize,
    /// Length of the traced pass (a prefix of the list).
    pub traced: usize,
}

pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let (dataset, kind, pool_pages, sizes) = match name {
        "aknn-scale" => (Dataset::Scale, AKNN, 128, (12_000, 3_000, 2_000)),
        "aknn-heavy" => (Dataset::Paper, AKNN, 1024, (1_000, 500, 500)),
        "rknn-range" => (Dataset::Paper, RKNN, 1024, (200, 40, 50)),
        "serve-mixed" => (Dataset::Scale, AKNN, 128, (5_000, 500, 2_000)),
        _ => return None,
    };
    let shrink = if smoke { 10 } else { 1 };
    let (queries, warm_up, traced) = (sizes.0 / shrink, sizes.1 / shrink, sizes.2 / shrink);
    let name = crate::catalog::WORKLOADS.into_iter().find(|n| *n == name)?;
    Some(Spec { name, dataset, kind, pool_pages, queries, warm_up, traced })
}

/// Per-invocation settings. The process's working directory is the data
/// directory, so every path below is a short relative one (a unix socket
/// path has little room).
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
    /// Per timing metric, how far apart the two halves of the samples put
    /// it, as a share of their mean.
    pub spreads: BTreeMap<String, f64>,
    /// Provenance and sample counts that go out beside the metrics.
    pub info: Vec<(&'static str, Json)>,
    pub digest: String,
}

/// Attempts, failures and the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.problem(why);
    }

    /// A failed check that is not a query of its own.
    pub fn problem(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(8);
    }

    /// Count one answer: it must have the shape its query asked for.
    pub fn answer(&mut self, kind: QueryKind, answer: &Result<Answer, String>) {
        match answer {
            Ok(a) if plausible(kind, a) => self.pass(),
            Ok(a) => self.fail(|| format!("answer of {} rows to {kind:?}", a.rows.len())),
            Err(e) => self.fail(|| e.clone()),
        }
    }
}

fn plausible(kind: QueryKind, answer: &Answer) -> bool {
    match kind {
        QueryKind::Aknn { k, .. } => answer.rows.len() == k,
        QueryKind::Rknn { k, .. } => answer.rows.len() >= k,
    }
}

// ---------------------------------------------------------------------
// Dataset cache.

#[derive(Clone, Debug)]
pub struct DatasetInfo {
    pub path: PathBuf,
    pub spec: DatasetSpec,
    pub generate_s: f64,
    pub bytes: u64,
}

fn key_path(dataset: Dataset) -> PathBuf {
    PathBuf::from(format!("{}.key", dataset.file()))
}

fn key_line(spec: &DatasetSpec, seed: u64) -> String {
    format!("{spec:?} seed={seed}")
}

/// Generate `dataset` for `seed` into the working directory and record
/// what was generated and how long it took. Run in a process of its own,
/// so the workload's peak memory is the workload's.
pub fn generate(dataset: Dataset, seed: u64, smoke: bool) -> Result<(), String> {
    let spec = dataset.spec(smoke);
    let tmp = PathBuf::from(format!("{}.tmp", dataset.file()));
    let _ = std::fs::remove_file(key_path(dataset));
    let t0 = Instant::now();
    spec.generate(seed, &tmp)?;
    let secs = t0.elapsed().as_secs_f64();
    std::fs::rename(&tmp, dataset.file()).map_err(|e| e.to_string())?;
    std::fs::write(key_path(dataset), format!("{}\n{secs}\n", key_line(&spec, seed)))
        .map_err(|e| e.to_string())
}

/// The dataset file for this run, generated by a child process unless the
/// one on disk is already the one for this seed and size.
pub fn ensure_dataset(dataset: Dataset, ctx: &Ctx) -> Result<DatasetInfo, String> {
    let spec = dataset.spec(ctx.smoke);
    // Seconds the dataset on disk took to generate, if it is this run's.
    let read_key = || -> Option<f64> {
        let text = std::fs::read_to_string(key_path(dataset)).ok()?;
        let (key, secs) = text.trim_end().split_once('\n')?;
        let usable = key == key_line(&spec, ctx.seed) && Path::new(dataset.file()).exists();
        usable.then(|| secs.parse().ok())?
    };
    let generate_s = match read_key() {
        Some(secs) => secs,
        None => {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut cmd = std::process::Command::new(exe);
            cmd.args(["datagen", "--dataset", dataset.file(), "--seed", &ctx.seed.to_string()]);
            if ctx.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("datagen for {} ended with {status}", dataset.file()));
            }
            read_key().ok_or("datagen left no usable dataset")?
        }
    };
    let bytes = read_through(Path::new(dataset.file())).map_err(|e| e.to_string())?;
    Ok(DatasetInfo { path: PathBuf::from(dataset.file()), spec, generate_s, bytes })
}

/// Read a file once, start to end, and return its length. A dataset
/// reused from an earlier run may have been dropped from the operating
/// system's page cache since (this sandbox pages out file pages idle for a
/// minute); one generated a moment ago is still in it. Reading it through
/// makes both start the same way: object reads are served from memory.
fn read_through(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut chunk = vec![0u8; 1 << 20];
    let mut total = 0u64;
    loop {
        match std::io::Read::read(&mut file, &mut chunk)? {
            0 => return Ok(total),
            n => total += n as u64,
        }
    }
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

pub fn queries(info: &DatasetInfo, seed: u64, n: usize) -> Vec<RawQuery> {
    (0..n as u64).map(|i| info.spec.query(seed, i)).collect()
}

// ---------------------------------------------------------------------
// Passes over the in-process engine.

/// Digest and counter sums of a fixed list of queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counted {
    pub digest: Fnv,
    pub counters: Counters,
    pub queries: u64,
}

impl Counted {
    pub fn add(&mut self, answer: &Answer) {
        answer.digest_into(&mut self.digest);
        self.counters.add(&answer.counters);
        self.queries += 1;
    }

    /// Same answers and same logical work? Buffer-pool misses are left
    /// out: they depend on what the pool held when the pass began.
    pub fn agrees_with(&self, other: &Counted) -> bool {
        let logical = |c: &Counters| Counters { node_disk_reads: 0, ..*c };
        self.digest == other.digest
            && self.queries == other.queries
            && logical(&self.counters) == logical(&other.counters)
    }

    pub fn per_query(&self, pick: impl Fn(&Counters) -> u64) -> f64 {
        pick(&self.counters) as f64 / self.queries.max(1) as f64
    }
}

/// Run `queries` once, in order; returns each call's `(wall, cpu)`
/// milliseconds. A fresh query object is built for every call: building
/// it is the client's work and stays outside the timed region, but the
/// state the engine caches inside it must not carry over between calls.
pub fn plain_pass<A: Pooled>(
    engine: &mut InProc<A>,
    store: &Store,
    kind: QueryKind,
    queries: &[RawQuery],
    tally: &mut Tally,
) -> (Counted, Vec<(f64, f64)>) {
    let mut counted = Counted::default();
    let mut latencies = Vec::with_capacity(queries.len());
    for raw in queries {
        let q: Object = raw.build();
        let tick = Tick::now();
        let answer = engine.run(store, kind, &q);
        latencies.push(tick.elapsed_ms());
        tally.answer(kind, &answer);
        if let Ok(a) = &answer {
            counted.add(a);
        }
    }
    (counted, latencies)
}

/// The per-layer numbers of one engine over one query list, and what the
/// tracing cost.
pub struct LayerReport {
    pub metrics: BTreeMap<String, f64>,
    /// Untraced per-query wall latency of the same queries (the smaller of
    /// the rounds), milliseconds.
    pub untraced_wall_ms: Vec<f64>,
}

/// Three rounds of an untraced pass then a traced pass over `queries`. Each
/// query keeps the round in which it ran fastest: the others caught a
/// stall. The traced executions kept give every in-process layer metric;
/// the untraced ones are the base of `trace.overhead_share`.
pub fn layer_report<A: Pooled>(
    engine: &mut InProc<A>,
    store: &Store,
    kind: QueryKind,
    queries: &[RawQuery],
    jsonl: &Path,
    tally: &mut Tally,
) -> Result<LayerReport, String> {
    const ROUNDS: usize = 3;
    let n = queries.len();
    let mut untraced_cpu_ms = vec![f64::INFINITY; n];
    let mut untraced_wall_ms = vec![f64::INFINITY; n];
    // Per query: (cpu ms, execution id) of its fastest traced round.
    let mut best_traced = vec![(f64::INFINITY, 0u32); n];
    let mut plain = Counted::default();
    let mut traced = Counted::default();
    let mut traced_wall_ns = 0u64;
    let mut evictions = 0u64;
    trace::start(n * ROUNDS * 32);
    for round in 0..ROUNDS {
        let (counted, ms) = plain_pass(engine, store, kind, queries, tally);
        plain = counted;
        for (i, (wall, cpu)) in ms.into_iter().enumerate() {
            untraced_cpu_ms[i] = untraced_cpu_ms[i].min(cpu);
            untraced_wall_ms[i] = untraced_wall_ms[i].min(wall);
        }

        let evicted_before = engine.pool_evictions();
        let wall = Instant::now();
        traced = Counted::default();
        for (i, raw) in queries.iter().enumerate() {
            let execution = (round * n + i) as u32;
            trace::set_query(execution);
            let q = raw.build();
            let tick = Tick::now();
            let answer = trace::span(Layer::Query, || engine.run_traced(store, kind, &q));
            let (_, cpu) = tick.elapsed_ms();
            if cpu < best_traced[i].0 {
                best_traced[i] = (cpu, execution);
            }
            tally.answer(kind, &answer);
            if let Ok(a) = &answer {
                traced.add(a);
            }
        }
        traced_wall_ns += wall.elapsed().as_nanos() as u64;
        evictions += engine.pool_evictions() - evicted_before;
    }
    let recorded = trace::finish();
    if traced.digest != plain.digest {
        tally.problem(|| "answers through the timed wrappers differ from the plain ones".into());
    }
    // The first round is the file: "the first 2 000 queries".
    trace::write_jsonl(jsonl, &recorded.spans, n as u32).map_err(|e| e.to_string())?;

    let kept = trace::retain_trees(&recorded.spans, |root| {
        best_traced[root.query_id as usize % n].1 == root.query_id
    });
    let totals = trace::totals(&kept);
    let (query, probe, node, kernel, profile) = (
        totals.of(Layer::Query),
        totals.of(Layer::Probe),
        totals.of(Layer::NodeRead),
        totals.of(Layer::Kernel),
        totals.of(Layer::Profile),
    );
    let nq = n as f64;
    let executions = (n * ROUNDS) as f64;
    let wall = query.total_ns.max(1) as f64;
    let per_call_us = |t: trace::LayerTotals| {
        if t.calls == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.calls as f64 / 1e3
        }
    };
    let k = match kind {
        QueryKind::Aknn { k, .. } | QueryKind::Rknn { k, .. } => k as f64,
    };
    let all_roots: u64 =
        recorded.spans.iter().filter(|s| s.parent.is_none()).map(trace::Span::duration_ns).sum();
    let untraced_sum: f64 = untraced_cpu_ms.iter().sum();
    let traced_sum: f64 = best_traced.iter().map(|(cpu, _)| cpu).sum();

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("store.probe_calls_per_query", probe.calls as f64 / nq);
    put("store.probe_us_per_call", per_call_us(probe));
    put("store.probe_share", probe.self_ns as f64 / wall);
    put("store.probe_bytes_per_query", recorded.counts.probe_bytes as f64 / executions);
    put("index.node_reads_per_query", node.calls as f64 / nq);
    put("index.node_read_us_per_call", per_call_us(node));
    put("index.node_read_share", node.self_ns as f64 / wall);
    let all_reads = recorded.spans.iter().filter(|s| s.layer == Layer::NodeRead).count();
    put(
        "index.cache_hit_ratio",
        1.0 - recorded.counts.node_misses as f64 / all_reads.max(1) as f64,
    );
    put("index.cache_evictions_per_query", evictions as f64 / executions);
    put("core.kernel_calls_per_query", kernel.calls as f64 / nq);
    put("core.kernel_us_per_call", per_call_us(kernel));
    put("core.kernel_share", kernel.self_ns as f64 / wall);
    let all_kernels = recorded.spans.iter().filter(|s| s.layer == Layer::Kernel).count();
    put(
        "core.kernel_pruned_ratio",
        recorded.counts.kernel_pruned as f64 / all_kernels.max(1) as f64,
    );
    put("core.profile_calls_per_query", profile.calls as f64 / nq);
    put("core.profile_us_per_call", per_call_us(profile));
    put("core.profile_share", profile.self_ns as f64 / wall);
    put("core.bound_calls_per_query", recorded.counts.bound_calls as f64 / executions);
    put("query.self_us_per_query", query.self_ns as f64 / nq / 1e3);
    put("query.self_share", query.self_ns as f64 / wall);
    let probes = traced.per_query(|c| c.object_accesses);
    put("query.useful_probe_ratio", k / probes.max(f64::MIN_POSITIVE));
    put("query.bound_evals_per_query", traced.per_query(|c| c.bound_evals));
    put("query.candidates_per_query", traced.per_query(|c| c.candidates));
    put("query.aknn_calls_per_query", traced.per_query(|c| c.aknn_calls));
    put("trace.overhead_share", (traced_sum - untraced_sum) / untraced_sum.max(f64::MIN_POSITIVE));
    put("trace.unattributed_share", 1.0 - all_roots as f64 / traced_wall_ns.max(1) as f64);
    Ok(LayerReport { metrics: m, untraced_wall_ms })
}

/// The queries checked against brute force: evenly spaced over the list.
pub fn oracle_sample(queries: &[RawQuery]) -> impl Iterator<Item = &RawQuery> {
    queries.iter().step_by((queries.len() / ORACLE_SAMPLES).max(1)).take(ORACLE_SAMPLES)
}

/// Enter the four timing metrics: latency summaries over the queries'
/// medians with the split-half gap as their spread, and the median set-up.
pub fn put_timing(out: &mut Outcome, samples: &Repeated, qps: f64, setups: &[f64]) {
    let all = samples.latency();
    let (a, b) = samples.halves();
    let (a, b) = (a.latency(), b.latency());
    for (name, value, spread) in [
        ("qps", qps, stats::gap(a.mean_ms, b.mean_ms)),
        ("p50_ms", all.p50_ms, stats::gap(a.p50_ms, b.p50_ms)),
        ("p99_ms", all.p99_ms, stats::gap(a.p99_ms, b.p99_ms)),
        ("setup_s", stats::median(setups), stats::spread(setups)),
    ] {
        out.metrics.insert(name.into(), value);
        out.spreads.insert(name.into(), spread);
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::sut::{self, OverlayEngine, PagedEngine, Writer};

    /// A directory of this test's own, inside the benchmark's `data/`.
    fn unique_dir(test: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = crate::report::home()
            .join("data")
            .join(format!("test-{test}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_world(dir: &Path) -> (DatasetSpec, Store, PathBuf, Vec<RawQuery>) {
        let spec = DatasetSpec { objects: 400, points: 24, radius: 1.5 };
        let data = dir.join("tiny.fzkn");
        spec.generate(3, &data).unwrap();
        let store = Store::open(&data).unwrap();
        let index = dir.join("tiny.fzpt");
        sut::build_index(&store, store.len(), &index).unwrap();
        let queries = (0..12).map(|i| spec.query(3, i)).collect();
        (spec, store, index, queries)
    }

    #[test]
    fn timed_wrappers_change_no_answer_and_account_for_the_whole_call() {
        let dir = unique_dir("wrappers");
        let (_, store, index, queries) = small_world(&dir);
        let mut engine = PagedEngine::open(&index, 4).unwrap();
        for kind in [AKNN, RKNN] {
            let mut tally = Tally::default();
            let jsonl = dir.join("trace.jsonl");
            let report =
                layer_report(&mut engine, &store, kind, &queries, &jsonl, &mut tally).unwrap();
            assert_eq!(tally.failed, 0, "{:?}", tally.problems);
            let m = &report.metrics;
            // Calls into the store are the paper's object accesses, and the
            // layers' self times add up to the traced wall time.
            assert!(m["store.probe_calls_per_query"] > 0.0);
            let shares = ["store.probe_share", "index.node_read_share", "core.kernel_share"];
            let sum: f64 = shares.iter().map(|k| m[*k]).sum::<f64>()
                + m["core.profile_share"]
                + m["query.self_share"];
            assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
            assert_eq!(m["core.profile_calls_per_query"] > 0.0, kind == RKNN);
            assert!(m["index.cache_hit_ratio"] < 1.0, "a 4-page pool cannot hold the index");
            let lines = std::fs::read_to_string(&jsonl).unwrap();
            assert!(lines.lines().all(|l| sut::Json::parse(l).is_ok()));
            assert!(lines.lines().next().unwrap().contains("\"parent\":null"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn answers_agree_with_brute_force_before_and_after_writes() {
        let dir = unique_dir("oracle");
        let (_, store, index, queries) = small_world(&dir);
        let boxes = store.support_boxes();
        let mut engine = PagedEngine::open(&index, 8).unwrap();
        for raw in &queries {
            let scan = oracle::Scan::new(&store, &boxes, raw);
            let answer = engine.run(&store, AKNN, &raw.build()).unwrap();
            oracle::check_aknn(&answer, &scan.knn(K, 0.5, |_| true).unwrap()).unwrap();
            let ranged = engine.run(&store, RKNN, &raw.build()).unwrap();
            for alpha in RKNN_CHECK_ALPHAS {
                let reference = scan.knn(K, alpha, |_| true).unwrap();
                oracle::check_rknn_at(&ranged, alpha, &reference).unwrap();
            }
            // A wrong reference is told apart.
            let mut wrong = scan.knn(K, 0.5, |_| true).unwrap();
            wrong[0].1 = u64::MAX;
            assert!(oracle::check_aknn(&answer, &wrong).is_err());
        }
        drop(engine);

        // Delete the nearest object of the first query through an overlay
        // of the writer's own; a reader opening the index afterwards must
        // answer as brute force over the remaining objects does.
        let scan = oracle::Scan::new(&store, &boxes, &queries[0]);
        let victim = scan.knn(1, 0.5, |_| true).unwrap()[0].1;
        let mut writer = Writer::open(&index, 8).unwrap();
        assert!(writer.apply(&store, &[], &[victim]));
        writer.save().unwrap();
        assert_eq!(writer.pending(), 1);
        assert!(sut::delta_path(&index).exists());
        let mut reader = OverlayEngine::open(&index, 8).unwrap();
        let answer = reader.run(&store, AKNN, &queries[0].build()).unwrap();
        assert!(answer.rows.iter().all(|r| r.id() != victim));
        oracle::check_aknn(&answer, &scan.knn(K, 0.5, |id| id != victim).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_workload_has_a_spec_at_both_sizes() {
        for name in crate::catalog::WORKLOADS {
            for smoke in [false, true] {
                let s = spec(name, smoke).unwrap();
                assert_eq!(s.name, name);
                assert!(s.warm_up <= s.queries && s.traced <= s.queries && s.traced > 0);
            }
        }
        assert!(spec("aknn-small", false).is_none());
    }
}
