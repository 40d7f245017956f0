//! `serve-mixed`: a one-worker server on a unix socket, two closed-loop
//! client threads, and a writer that inserts, deletes, saves the delta and
//! publishes it with SWAP every 500 ms.

use crate::catalog::LADDER_RATES;
use crate::clock::process_cpu_s;
use crate::oracle;
use crate::stats::{self, Repeated};
use crate::sut::{
    self, Conn, Json, OverlayEngine, QueryKind, RawQuery, Reply, Server, ServerCounters, Store,
    TracedConn, WireRequest, Writer,
};
use crate::trace::{self, Layer};
use crate::workloads::{
    self, ensure_dataset, file_len, layer_report, oracle_sample, peak_rss_mib, put_timing, Counted,
    Ctx, DatasetInfo, Outcome, Spec, Tally, K, SETUP_REPS, WRITE_BATCH,
};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

const WRITE_PERIOD: Duration = Duration::from_millis(500);
/// Quiescent-phase responses compared bitwise with the in-process engine.
const BITWISE_SAMPLES: usize = 200;
/// Latency limit a ladder rate must meet at its 99th percentile, ms.
const SLO_P99_MS: f64 = 2.0;
/// A rate whose last tenth of requests went out later than this on average
/// is falling behind its schedule, ms.
const BACKLOG_LATE_MS: f64 = 1.0;

/// Of every 20 objects the index is built over 19; the rest are held out
/// for the writer to insert.
const INDEXED_OF_20: usize = 19;

const SOCKET: &str = "serve.sock";
const INDEX: &str = "serve-mixed.fzpt";

fn alpha(kind: QueryKind) -> f64 {
    match kind {
        QueryKind::Aknn { alpha, .. } => alpha,
        QueryKind::Rknn { .. } => unreachable!("serve-mixed issues AKNN requests"),
    }
}

// ---------------------------------------------------------------------
// Which objects each write cycle inserts and deletes.

/// The writer's bookkeeping: the index holds ids `0..base`, ids
/// `base..total` are held out. Cycle `c` inserts the next [`WRITE_BATCH`]
/// held-out ids and deletes as many indexed ones, walking a seeded
/// permutation of `0..base`, so no id is inserted or deleted twice and the
/// live count never changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WritePlan {
    base: u64,
    total: u64,
    /// Multiplier coprime to `base`: `i ↦ (i·step + offset) mod base` is a
    /// permutation of `0..base`.
    step: u64,
    offset: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl WritePlan {
    pub fn new(base: u64, total: u64, seed: u64) -> Self {
        assert!(0 < base && base <= total);
        let mut step = 2_654_435_761 % base;
        while gcd(step, base) != 1 {
            step += 1;
        }
        Self { base, total, step, offset: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % base }
    }

    /// Cycles the held-out set (and the indexed set) can feed.
    pub fn cycles(&self) -> usize {
        ((self.total - self.base).min(self.base) / WRITE_BATCH as u64) as usize
    }

    /// `(inserts, deletes)` of cycle `c`, or `None` once the plan ran out.
    pub fn cycle(&self, c: usize) -> Option<(Vec<u64>, Vec<u64>)> {
        if c >= self.cycles() {
            return None;
        }
        let first = (c * WRITE_BATCH) as u64;
        let slots = first..first + WRITE_BATCH as u64;
        let inserts = slots.clone().map(|i| self.base + i).collect();
        let deletes = slots
            .map(|i| {
                ((i as u128 * self.step as u128 + self.offset as u128) % self.base as u128) as u64
            })
            .collect();
        Some((inserts, deletes))
    }

    /// Is `id` in the live set after the first `cycles` cycles?
    pub fn is_live_after(&self, cycles: usize, id: u64) -> bool {
        let done = (cycles * WRITE_BATCH) as u64;
        if id >= self.base {
            return id - self.base < done;
        }
        // Invert the permutation: which slot deletes `id`?
        (0..done).all(|i| {
            ((i as u128 * self.step as u128 + self.offset as u128) % self.base as u128) as u64 != id
        })
    }
}

// ---------------------------------------------------------------------
// Set-up.

struct Served {
    server: Server,
    /// Digest and counters of the warm-up pass.
    warm_up: Counted,
    /// CPU seconds of the whole process (see `clock.rs` for why not wall).
    setup_cpu_s: f64,
    setup_wall_s: f64,
    index_build_s: f64,
    start_s: f64,
}

fn requests(queries: &[RawQuery], kind: QueryKind) -> Vec<WireRequest> {
    queries.iter().map(|q| q.wire_aknn(K, alpha(kind))).collect()
}

/// Build the index over the first `base` objects, start the server (which
/// opens the store and the index), connect, and run the warm-up pass over
/// one connection while nothing writes.
fn set_up(
    spec: &Spec,
    data: &DatasetInfo,
    store: &Store,
    base: usize,
    queries: &[RawQuery],
    tally: &mut Tally,
) -> Result<Served, String> {
    let index = Path::new(INDEX);
    let _ = std::fs::remove_file(index);
    let _ = std::fs::remove_file(sut::delta_path(index));
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    sut::build_index(store, base, index)?;
    let t1 = Instant::now();
    let server = Server::start(&data.path, index, Path::new(SOCKET), spec.pool_pages)?;
    let mut conn = Conn::connect(Path::new(SOCKET))?;
    let t2 = Instant::now();
    let (warm_up, _) = quiescent_pass(&mut conn, &queries[..spec.warm_up], spec.kind, tally);
    Ok(Served {
        server,
        warm_up,
        setup_cpu_s: process_cpu_s() - cpu0,
        setup_wall_s: t0.elapsed().as_secs_f64(),
        index_build_s: (t1 - t0).as_secs_f64(),
        start_s: (t2 - t1).as_secs_f64(),
    })
}

/// One pass over `queries` on one connection while nothing writes: the
/// digest and counters, and the first answers for the bitwise comparison.
fn quiescent_pass(
    conn: &mut Conn,
    queries: &[RawQuery],
    kind: QueryKind,
    tally: &mut Tally,
) -> (Counted, Vec<sut::Answer>) {
    let mut counted = Counted::default();
    let mut first_answers = Vec::new();
    for raw in queries {
        match conn.query(&raw.wire_aknn(K, alpha(kind))) {
            Reply::Answer(a) if a.rows.len() == K => {
                tally.pass();
                counted.add(&a);
                if first_answers.len() < BITWISE_SAMPLES {
                    first_answers.push(a);
                }
            }
            other => tally.fail(|| format!("quiescent request {}: {other:?}", raw.id)),
        }
    }
    (counted, first_answers)
}

/// The served answers of the quiescent phase must equal, bit for bit and
/// logical counter for logical counter, what the in-process engine gives
/// over the same index file. Buffer-pool misses are the one counter that
/// depends on who read the pool before.
fn compare_bitwise(
    engine: &mut OverlayEngine,
    store: &Store,
    spec: &Spec,
    queries: &[RawQuery],
    served: &[sut::Answer],
    tally: &mut Tally,
) {
    for (raw, theirs) in queries.iter().zip(served) {
        match engine.run(store, spec.kind, &raw.build()) {
            Ok(mut ours) => {
                ours.counters.node_disk_reads = theirs.counters.node_disk_reads;
                if ours == *theirs {
                    tally.pass();
                } else {
                    tally.fail(|| {
                        format!("query {}: served answer differs from in-process", raw.id)
                    });
                }
            }
            Err(e) => tally.fail(|| e),
        }
    }
}

// ---------------------------------------------------------------------
// The mixed phase.

#[derive(Clone, Copy, Debug, Default)]
struct Cycle {
    apply_ms: f64,
    save_ms: f64,
    swap_ms: f64,
}

impl Cycle {
    fn total_ms(&self) -> f64 {
        self.apply_ms + self.save_ms + self.swap_ms
    }
}

/// What the readers need to know about acknowledged deletes.
struct Published {
    /// Cycle number (from 1) whose SWAP acknowledged each id's delete; 0
    /// while the id is live.
    deleted_in: Vec<AtomicU32>,
    /// Highest cycle whose SWAP was acknowledged.
    acked: AtomicU32,
}

struct ClientLog {
    /// Wall latency of every answered request, by query, ms.
    samples: Repeated,
    /// Share of the phase this client had a request outstanding.
    outstanding: f64,
    busy: u64,
    deadline: u64,
    cycles: Vec<Cycle>,
    pending: usize,
    tally: Tally,
}

struct WriterState<'a> {
    writer: Writer,
    plan: WritePlan,
    store: &'a Store,
}

/// One closed-loop client. With a `WriterState` it also runs a write
/// cycle whenever one is due.
fn client(
    queries: &[RawQuery],
    first: usize,
    kind: QueryKind,
    start: Instant,
    length: Duration,
    published: &Published,
    mut writing: Option<WriterState<'_>>,
) -> Result<ClientLog, String> {
    let mut conn = Conn::connect(Path::new(SOCKET))?;
    let mut log = ClientLog {
        samples: Repeated::new(queries.len()),
        outstanding: 0.0,
        busy: 0,
        deadline: 0,
        cycles: Vec::new(),
        pending: 0,
        tally: Tally::default(),
    };
    let mut in_requests_ms = 0.0;
    let mut next_write = start + WRITE_PERIOD;
    let mut i = first;
    loop {
        let now = Instant::now();
        if now >= start + length {
            break;
        }
        if let Some(w) = writing.as_mut().filter(|_| now >= next_write) {
            next_write += WRITE_PERIOD;
            let number = log.cycles.len();
            let Some((inserts, deletes)) = w.plan.cycle(number) else { continue };
            let t0 = Instant::now();
            let applied = w.writer.apply(w.store, &inserts, &deletes);
            let t1 = Instant::now();
            w.writer.save()?;
            let t2 = Instant::now();
            let (epoch, objects) = conn.swap(Path::new(INDEX))?;
            let t3 = Instant::now();
            for id in &deletes {
                published.deleted_in[*id as usize].store(number as u32 + 1, Ordering::Relaxed);
            }
            published.acked.store(number as u32 + 1, Ordering::Release);
            if !applied || epoch != number as u64 + 1 || objects != w.plan.base {
                log.tally.problem(|| {
                    format!(
                        "write cycle {number}: applied {applied}, epoch {epoch}, {objects} objects"
                    )
                });
            }
            log.cycles.push(Cycle {
                apply_ms: (t1 - t0).as_secs_f64() * 1e3,
                save_ms: (t2 - t1).as_secs_f64() * 1e3,
                swap_ms: (t3 - t2).as_secs_f64() * 1e3,
            });
            continue;
        }
        let slot = i % queries.len();
        let raw = &queries[slot];
        i += 2;
        let request = raw.wire_aknn(K, alpha(kind));
        let acked = published.acked.load(Ordering::Acquire);
        let t0 = Instant::now();
        let reply = conn.query(&request);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        in_requests_ms += ms;
        match reply {
            Reply::Answer(a) => {
                let stale = a.rows.iter().find(|r| {
                    let cycle = published.deleted_in[r.id() as usize].load(Ordering::Relaxed);
                    cycle != 0 && cycle <= acked
                });
                if a.rows.len() != K {
                    log.tally.fail(|| format!("request {}: {} rows", raw.id, a.rows.len()));
                } else if let Some(row) = stale {
                    let id = row.id();
                    log.tally.fail(|| {
                        format!(
                            "request {}: object {id} answered after its delete was acknowledged",
                            raw.id
                        )
                    });
                } else {
                    log.tally.pass();
                    log.samples.by_query[slot].push(ms);
                }
            }
            Reply::Busy => {
                log.busy += 1;
                log.tally.fail(|| "BUSY".into());
            }
            Reply::Deadline => {
                log.deadline += 1;
                log.tally.fail(|| "deadline exceeded".into());
            }
            Reply::Error(e) => log.tally.fail(|| e),
        }
    }
    log.pending = writing.map_or(0, |w| w.writer.pending());
    log.outstanding = in_requests_ms / (start.elapsed().as_secs_f64() * 1e3);
    Ok(log)
}

struct Mixed {
    /// Wall latencies by query, both clients (they take alternate queries).
    samples: Repeated,
    /// Closed-loop throughput: per client, the share of time it had a
    /// request outstanding over the mean latency of its queries, summed.
    qps: f64,
    cycles: Vec<Cycle>,
    pending: usize,
    busy: u64,
    deadline: u64,
    attempted: u64,
    counters: ServerCounters,
}

/// Two clients for `length`, one of them also writing; then the server's
/// final state is checked against the writer's bookkeeping.
fn mixed_phase(
    spec: &Spec,
    store: &Store,
    queries: &[RawQuery],
    plan: WritePlan,
    length: Duration,
    tally: &mut Tally,
) -> Result<Mixed, String> {
    let mut control = Conn::connect(Path::new(SOCKET))?;
    let before = control.counters()?;
    let published = Published {
        deleted_in: (0..store.len()).map(|_| AtomicU32::new(0)).collect(),
        acked: AtomicU32::new(0),
    };
    let writer = Writer::open(Path::new(INDEX), spec.pool_pages)?;
    let start = Instant::now();
    let (reader, writing) = std::thread::scope(|scope| {
        let published = &published;
        let a = scope.spawn(move || client(queries, 0, spec.kind, start, length, published, None));
        let state = WriterState { writer, plan, store };
        let b = scope
            .spawn(move || client(queries, 1, spec.kind, start, length, published, Some(state)));
        (a.join().expect("reader client panicked"), b.join().expect("writer client panicked"))
    });
    let (reader, writing) = (reader?, writing?);

    let cycles = writing.cycles.len();
    let (objects, epoch) = control.info()?;
    if objects != plan.base || epoch != cycles as u64 {
        tally.problem(|| {
            format!(
                "after {cycles} write cycles the server reports {objects} objects at epoch {epoch}"
            )
        });
    }
    let after = control.counters()?;
    let counters = ServerCounters {
        served: after.served - before.served,
        busy: after.busy - before.busy,
        deadline_exceeded: after.deadline_exceeded - before.deadline_exceeded,
        errors: after.errors - before.errors,
        swaps: after.swaps - before.swaps,
    };

    let mut samples = Repeated::new(queries.len());
    let mut qps = 0.0;
    for log in [&reader, &writing] {
        qps += log.outstanding * 1e3 / log.samples.latency().mean_ms;
        for (all, own) in samples.by_query.iter_mut().zip(&log.samples.by_query) {
            all.extend(own);
        }
    }
    let mixed = Mixed {
        samples,
        qps,
        cycles: writing.cycles.clone(),
        pending: writing.pending,
        busy: reader.busy + writing.busy,
        deadline: reader.deadline + writing.deadline,
        attempted: reader.tally.attempted + writing.tally.attempted,
        counters,
    };
    tally.merge(reader.tally);
    tally.merge(writing.tally);
    Ok(mixed)
}

/// After the writes: sampled queries through the server against brute
/// force over the live set the writer's bookkeeping implies.
fn verify_live_set(
    store: &Store,
    spec: &Spec,
    queries: &[RawQuery],
    plan: &WritePlan,
    cycles: usize,
    tally: &mut Tally,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut conn = Conn::connect(Path::new(SOCKET))?;
    let boxes = store.support_boxes();
    for raw in oracle_sample(queries) {
        let checked = match conn.query(&raw.wire_aknn(K, alpha(spec.kind))) {
            Reply::Answer(answer) => oracle::Scan::new(store, &boxes, raw)
                .knn(K, alpha(spec.kind), |id| plan.is_live_after(cycles, id))
                .and_then(|reference| oracle::check_aknn(&answer, &reference)),
            other => Err(format!("{other:?}")),
        };
        match checked {
            Ok(()) => tally.pass(),
            Err(e) => tally.fail(|| format!("query {} after the writes: {e}", raw.id)),
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn info(data: &DatasetInfo, spec: &Spec, base: usize) -> Vec<(&'static str, Json)> {
    vec![
        ("dataset_bytes", Json::num(data.bytes as f64)),
        ("dataset_objects", Json::num(data.spec.objects as f64)),
        ("indexed_objects", Json::num(base as f64)),
        ("pool_pages", Json::num(spec.pool_pages as f64)),
        ("server_workers", Json::num(1)),
        ("client_threads", Json::num(2)),
        ("write_period_ms", Json::num(WRITE_PERIOD.as_millis() as f64)),
        ("distinct_queries", Json::num(spec.queries as f64)),
    ]
}

/// The end-to-end run.
pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let data = ensure_dataset(spec.dataset, ctx)?;
    let queries = workloads::queries(&data, ctx.seed, spec.queries);
    let store = Store::open(&data.path)?;
    let base = store.len() / 20 * INDEXED_OF_20;
    let plan = WritePlan::new(base as u64, store.len() as u64, ctx.seed);
    let mut out = Outcome::default();

    let mut served = set_up(spec, &data, &store, base, &queries, &mut out.tally)?;
    let mut setups = vec![served.setup_cpu_s];
    let mut setup_walls = vec![served.setup_wall_s];
    for _ in 1..SETUP_REPS {
        let first = served.warm_up;
        served.server.stop();
        served = set_up(spec, &data, &store, base, &queries, &mut out.tally)?;
        setups.push(served.setup_cpu_s);
        setup_walls.push(served.setup_wall_s);
        if !served.warm_up.agrees_with(&first) {
            out.tally.problem(|| "the warm-up pass answered differently on a second set-up".into());
        }
    }
    let mut engine = OverlayEngine::open(Path::new(INDEX), spec.pool_pages)?;
    let mut conn = Conn::connect(Path::new(SOCKET))?;
    let (quiescent, first_answers) = quiescent_pass(&mut conn, &queries, spec.kind, &mut out.tally);
    drop(conn);
    compare_bitwise(&mut engine, &store, spec, &queries, &first_answers, &mut out.tally);
    drop(engine);

    let length = Duration::from_secs_f64(ctx.seconds);
    let mixed = mixed_phase(spec, &store, &queries, plan, length, &mut out.tally)?;
    let verify_s =
        verify_live_set(&store, spec, &queries, &plan, mixed.cycles.len(), &mut out.tally)?;
    served.server.stop();

    put_timing(&mut out, &mixed.samples, mixed.qps, &setups);
    out.metrics
        .insert("object_accesses_per_query".into(), quiescent.per_query(|c| c.object_accesses));
    let index = Path::new(INDEX);
    let disk = data.bytes + file_len(index) + file_len(&sut::delta_path(index));
    out.metrics.insert("disk_bytes_per_object".into(), disk as f64 / data.spec.objects as f64);
    out.metrics.insert("peak_rss_mb".into(), peak_rss_mib());
    out.digest = quiescent.digest.hex();
    out.info = info(&data, spec, base);
    out.info.extend([
        ("timed_samples", Json::num(mixed.samples.samples() as f64)),
        ("fewest_repeats_of_a_query", Json::num(mixed.samples.min_repeats() as f64)),
        ("queries_beyond_p99", Json::num((spec.queries / 100) as f64)),
        ("setup_wall_s", Json::num(stats::median(&setup_walls))),
        ("write_cycles", Json::num(mixed.cycles.len() as f64)),
        ("pending_at_end", Json::num(mixed.pending as f64)),
        ("verify_s", Json::num(verify_s)),
        ("datagen_generate_s", Json::num(data.generate_s)),
    ]);
    Ok(out)
}

// ---------------------------------------------------------------------
// Open loop.

/// What one open-loop client saw.
#[derive(Debug, Default)]
pub struct OpenLoopLog {
    /// Completion time minus the *intended* send time of each answered
    /// request, ms: a stall is charged to every request it delayed.
    pub latencies_ms: Vec<f64>,
    /// Actual minus intended send time of every request, ms.
    pub late_ms: Vec<f64>,
    pub refused: u64,
}

/// Send requests `first, first + stride, …` below `total` on the schedule
/// `start + i / rate`, never earlier, however late the previous answer
/// came; `call(i)` performs request `i` and says whether it was answered.
pub fn open_loop(
    start: Instant,
    rate: f64,
    total: usize,
    first: usize,
    stride: usize,
    mut call: impl FnMut(usize) -> bool,
) -> OpenLoopLog {
    let mut log = OpenLoopLog::default();
    for i in (first..total).step_by(stride) {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let answered = call(i);
        let done = Instant::now();
        log.late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        if answered {
            log.latencies_ms.push((done - due).as_secs_f64() * 1e3);
        } else {
            log.refused += 1;
        }
    }
    log
}

struct Rung {
    p50_ms: f64,
    p99_ms: f64,
    late_ms_p99: f64,
    sustainable: bool,
    refused: u64,
    sent: u64,
}

/// One fixed rate for `length`, the schedule split over two connections.
fn ladder_rung(requests: &[WireRequest], rate: u32, length: Duration) -> Result<Rung, String> {
    let total = (rate as f64 * length.as_secs_f64()) as usize;
    let mut conns = [Conn::connect(Path::new(SOCKET))?, Conn::connect(Path::new(SOCKET))?];
    let start = Instant::now() + Duration::from_millis(5);
    let logs: Vec<OpenLoopLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                scope.spawn(move || {
                    open_loop(start, rate as f64, total, t, 2, |i| {
                        matches!(conn.query(&requests[i % requests.len()]), Reply::Answer(a) if a.rows.len() == K)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ladder client panicked")).collect()
    });
    // Lateness in schedule order: the clients took alternate requests.
    let mut late: Vec<f64> = Vec::with_capacity(total);
    for i in 0..total {
        late.push(logs[i % 2].late_ms[i / 2]);
    }
    let tail = &late[total - (total / 10).max(1)..];
    let backlog = tail.iter().sum::<f64>() / tail.len() as f64;
    let latencies =
        stats::sorted(logs.iter().flat_map(|l| l.latencies_ms.iter().copied()).collect());
    let refused: u64 = logs.iter().map(|l| l.refused).sum();
    let p99_ms = stats::percentile(&latencies, 99.0);
    Ok(Rung {
        p50_ms: stats::percentile(&latencies, 50.0),
        p99_ms,
        late_ms_p99: stats::percentile(&stats::sorted(late), 99.0),
        sustainable: refused == 0 && p99_ms <= SLO_P99_MS && backlog <= BACKLOG_LATE_MS,
        refused,
        sent: total as u64,
    })
}

// ---------------------------------------------------------------------
// The traced run.

/// Per-layer metrics: the engine's layers from an in-process traced pass
/// over the server's own index file, the wire's from a traced connection,
/// the write path's from a short mixed phase, then the open-loop ladder.
pub fn run_traced(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let data = ensure_dataset(spec.dataset, ctx)?;
    let queries = workloads::queries(&data, ctx.seed, spec.queries);
    let t0 = Instant::now();
    let store = Store::open(&data.path)?;
    let store_open_s = t0.elapsed().as_secs_f64();
    let base = store.len() / 20 * INDEXED_OF_20;
    let plan = WritePlan::new(base as u64, store.len() as u64, ctx.seed);
    let mut out = Outcome::default();
    let served = set_up(spec, &data, &store, base, &queries, &mut out.tally)?;
    let mut conn = Conn::connect(Path::new(SOCKET))?;
    let (quiescent, _) = quiescent_pass(&mut conn, &queries, spec.kind, &mut out.tally);
    drop(conn);
    let traced = &queries[..spec.traced];

    // The engine's layers, in process, over the same index file and pool size.
    let t0 = Instant::now();
    let mut engine = OverlayEngine::open(Path::new(INDEX), spec.pool_pages)?;
    let index_open_s = t0.elapsed().as_secs_f64();
    let jsonl = ctx.out_dir.join(format!("trace-{}.jsonl", spec.name));
    let report = layer_report(&mut engine, &store, spec.kind, traced, &jsonl, &mut out.tally)?;
    drop(engine);

    // The same queries over one connection: first through the repository's
    // client for the served median, then step by step for the codec spans.
    let requests = requests(traced, spec.kind);
    let mut conn = Conn::connect(Path::new(SOCKET))?;
    let mut served_ms = Vec::with_capacity(requests.len());
    for request in &requests {
        let t0 = Instant::now();
        let reply = conn.query(request);
        served_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match reply {
            Reply::Answer(_) => out.tally.pass(),
            other => out.tally.fail(|| format!("{other:?}")),
        }
    }
    drop(conn);
    let mut wire = TracedConn::connect(Path::new(SOCKET))?;
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    trace::start(requests.len() * 4);
    for (i, request) in requests.iter().enumerate() {
        trace::set_query(i as u32);
        let (reply, bytes) = wire.query(request);
        request_bytes += bytes.request;
        response_bytes += bytes.response;
        match reply {
            Reply::Answer(_) => out.tally.pass(),
            other => out.tally.fail(|| format!("{other:?}")),
        }
    }
    let wire_trace = trace::finish();
    drop(wire);
    let wire_jsonl = ctx.out_dir.join(format!("trace-{}-wire.jsonl", spec.name));
    trace::write_jsonl(&wire_jsonl, &wire_trace.spans, 2_000).map_err(|e| e.to_string())?;
    let totals = trace::totals(&wire_trace.spans);
    let per_call_us = |layer| {
        let t = totals.of(layer);
        t.total_ns as f64 / t.calls.max(1) as f64 / 1e3
    };

    // Writes beside reads for half the time, the ladder for the other half.
    let half = Duration::from_secs_f64(ctx.seconds / 2.0);
    let mixed = mixed_phase(spec, &store, &queries, plan, half, &mut out.tally)?;
    let rung_length = half / LADDER_RATES.len() as u32;
    let mut rungs = Vec::new();
    for rate in LADDER_RATES {
        rungs.push(ladder_rung(&requests, rate, rung_length)?);
    }
    served.server.stop();

    out.metrics = report.metrics;
    let mut put = |name: &str, v: f64| {
        out.metrics.insert(name.to_string(), v);
    };
    put("store.open_s", store_open_s);
    put("index.build_s", served.index_build_s);
    put("index.open_s", index_open_s);
    put("index.bytes_per_object", file_len(Path::new(INDEX)) as f64 / base as f64);
    let median_of =
        |f: &dyn Fn(&Cycle) -> f64| stats::median(&mixed.cycles.iter().map(f).collect::<Vec<_>>());
    put("index.overlay.write_batch_ms_p50", median_of(&|c| c.apply_ms));
    put("index.overlay.save_delta_ms_p50", median_of(&|c| c.save_ms));
    put("index.overlay.pending_at_end", mixed.pending as f64);
    put("server.encode_us_per_req", per_call_us(Layer::Encode));
    put("server.decode_us_per_resp", per_call_us(Layer::Decode));
    put("server.request_bytes", request_bytes as f64 / requests.len() as f64);
    put("server.response_bytes", response_bytes as f64 / requests.len() as f64);
    put(
        "server.overhead_us_p50",
        (stats::median(&served_ms) - stats::median(&report.untraced_wall_ms)) * 1e3,
    );
    put("server.write_cycle_ms_p50", median_of(&Cycle::total_ms));
    put("server.swap_ms_p50", median_of(&|c| c.swap_ms));
    let ladder_sent: u64 = rungs.iter().map(|r| r.sent).sum();
    let ladder_refused: u64 = rungs.iter().map(|r| r.refused).sum();
    let offered = (mixed.attempted + ladder_sent).max(1) as f64;
    put("server.busy_share", (mixed.busy + ladder_refused) as f64 / offered);
    put("server.deadline_share", mixed.deadline as f64 / offered);
    put("server.served", mixed.counters.served as f64);
    put("server.busy", mixed.counters.busy as f64);
    put("server.swaps", mixed.counters.swaps as f64);
    let mut at_slo = 0.0;
    let mut all_lower_hold = true;
    for (rate, rung) in LADDER_RATES.iter().zip(&rungs) {
        put(&format!("server.open_r{rate}.p50_ms"), rung.p50_ms);
        put(&format!("server.open_r{rate}.p99_ms"), rung.p99_ms);
        put(&format!("server.open_r{rate}.late_ms_p99"), rung.late_ms_p99);
        all_lower_hold &= rung.sustainable;
        if all_lower_hold {
            at_slo = *rate as f64;
        }
    }
    put("server.rate_at_slo_qps", at_slo);
    put("datagen.generate_s", data.generate_s);

    out.digest = quiescent.digest.hex();
    out.info = info(&data, spec, base);
    out.info.extend([
        ("traced_queries", Json::num(spec.traced as f64)),
        ("served_p50_us_one_connection", Json::num(stats::median(&served_ms) * 1e3)),
        ("in_process_p50_us", Json::num(stats::median(&report.untraced_wall_ms) * 1e3)),
        ("server_start_s", Json::num(served.start_s)),
        ("write_cycles", Json::num(mixed.cycles.len() as f64)),
        ("ladder_rung_seconds", Json::num(rung_length.as_secs_f64())),
        ("slo_p99_ms", Json::num(SLO_P99_MS)),
    ]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn write_plan_never_repeats_an_id_and_keeps_the_live_count() {
        let plan = WritePlan::new(1_900, 2_000, 7);
        assert_eq!(plan.cycles(), 3); // 100 held-out ids feed 3 batches of 32
        let (mut inserted, mut deleted) = (HashSet::new(), HashSet::new());
        for c in 0..plan.cycles() {
            let (ins, del) = plan.cycle(c).unwrap();
            assert_eq!((ins.len(), del.len()), (WRITE_BATCH, WRITE_BATCH));
            for id in ins {
                assert!((1_900..2_000).contains(&id), "insert {id} is not held out");
                assert!(inserted.insert(id), "id {id} inserted twice");
            }
            for id in del {
                assert!(id < 1_900, "delete {id} was never indexed");
                assert!(deleted.insert(id), "id {id} deleted twice");
            }
            // The bookkeeping the final check relies on agrees with the sets.
            let live = (0..2_000).filter(|&id| plan.is_live_after(c + 1, id)).count();
            assert_eq!(live, 1_900);
            assert!(inserted.iter().all(|&id| plan.is_live_after(c + 1, id)));
            assert!(deleted.iter().all(|&id| !plan.is_live_after(c + 1, id)));
        }
        assert_eq!(plan.cycle(plan.cycles()), None);
        // Before any cycle exactly the indexed ids are live.
        assert!(plan.is_live_after(0, 0) && !plan.is_live_after(0, 1_900));
    }

    #[test]
    fn write_plan_deletes_depend_on_the_seed() {
        let a = WritePlan::new(190_000, 200_000, 7).cycle(0).unwrap();
        let b = WritePlan::new(190_000, 200_000, 8).cycle(0).unwrap();
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn open_loop_times_from_the_intended_send_time() {
        // 100 requests/s: one every 10 ms. The first call stalls 60 ms, the
        // rest answer at once — yet requests 1 to 5 were due during the
        // stall and must be charged the wait.
        let start = Instant::now();
        let log = open_loop(start, 100.0, 8, 0, 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            i != 7
        });
        assert_eq!(log.late_ms.len(), 8);
        assert_eq!((log.latencies_ms.len(), log.refused), (7, 1));
        assert!(log.latencies_ms[0] >= 60.0);
        // Request 1 was due at 10 ms and could not go out before 60 ms.
        assert!(log.late_ms[1] >= 45.0, "late {:?}", log.late_ms);
        assert!(log.latencies_ms[1] >= 45.0, "latencies {:?}", log.latencies_ms);
        // Lateness shrinks by a period per request as the backlog drains.
        assert!(log.late_ms[3] < log.late_ms[1]);
        // The schedule is never run ahead of: request 7 is due at 70 ms.
        assert!(start.elapsed() >= Duration::from_millis(70));
    }

    #[test]
    fn open_loop_splits_a_schedule_by_stride() {
        let mut seen = Vec::new();
        open_loop(Instant::now(), 1e6, 7, 1, 2, |i| {
            seen.push(i);
            true
        });
        assert_eq!(seen, vec![1, 3, 5]);
    }
}
