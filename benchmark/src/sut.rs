//! The adapter: every call the benchmark makes into the repository's
//! crates is in this file, and nothing outside it names a repository type.
//!
//! When an engine entry point is renamed or a constructor changes shape,
//! the companion benchmark change is an edit here. The rest of the
//! benchmark sees plain data ([`RawQuery`], [`Answer`], [`Counters`]) and
//! the handles below.
//!
//! The three `Timed*` wrappers are the outside-in tracing: they sit on the
//! public seams the engine is already generic over (`ObjectStore`,
//! `NodeAccess`, `Metric`) and record a span around the real call. No file
//! of the program changes for it.

use crate::trace::{self, Layer};
use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, ObjectSummary, Threshold};
use fuzzy_datagen::{write_dataset, SyntheticConfig};
use fuzzy_geom::{Mbr, Point};
use fuzzy_index::{
    delta_path_for, NodeAccess, NodeId, NodeRead, OverlayRTree, PagedRTree, RTreeConfig,
};
use fuzzy_query::{
    AknnConfig, AknnResult, QueryEngine, QueryScratch, QueryStats, RknnAlgorithm, RknnResult,
};
use fuzzy_server::protocol::read_frame;
use fuzzy_server::{
    serve, Client, ErrorCode, ListenAddr, QuerySource, Request, Response, ServeIndex, ServeOptions,
    ServerHandle, WireStats, WireVariant,
};
use fuzzy_store::{FileStore, IoStatsSnapshot, ObjectStore, StoreError, TracedProbe};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;

pub use fuzzy_bench::json::Json;

/// The benchmark works in the wire protocol's two dimensions throughout.
const D: usize = 2;
/// Index page size of every workload (the repository's default).
const PAGE_SIZE: u32 = 16 * 1024;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------
// Datasets and query objects.

/// Shape of a synthetic dataset (space 100, σ 0.5, as in the paper's §6.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    pub objects: usize,
    pub points: usize,
    pub radius: f64,
}

impl DatasetSpec {
    fn config(&self, seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            num_objects: self.objects,
            points_per_object: self.points,
            radius: self.radius,
            sigma: 0.5,
            space: 100.0,
            quantize_levels: None,
            seed,
        }
    }

    /// Stream the dataset for `seed` into a `.fzkn` file.
    pub fn generate(&self, seed: u64, path: &Path) -> Result<(), String> {
        write_dataset::<_, D>(path, self.config(seed).generate()).map(drop).map_err(err)
    }

    /// The `i`-th query object for `seed`, as raw rows: an object of the
    /// dataset's shape at a random location, not part of the dataset.
    pub fn query(&self, seed: u64, i: u64) -> RawQuery {
        let obj = self.config(seed).query_object(i);
        RawQuery { id: obj.id().0, rows: obj.iter().map(|(p, mu)| (*p.coords(), mu)).collect() }
    }
}

/// A query object before it becomes an engine object: what a client holds.
#[derive(Clone, Debug, PartialEq)]
pub struct RawQuery {
    pub id: u64,
    pub rows: Vec<([f64; D], f64)>,
}

/// An engine query object. Its lazily built kd-tree and membership prefix
/// live inside it, so a fresh one is built for every timed call.
pub struct Object(FuzzyObject<D>);

impl RawQuery {
    pub fn build(&self) -> Object {
        let points = self.rows.iter().map(|(c, _)| Point::new(*c)).collect();
        let mus = self.rows.iter().map(|(_, mu)| *mu).collect();
        Object(FuzzyObject::new(ObjectId(self.id), points, mus).expect("generated query is valid"))
    }
}

// ---------------------------------------------------------------------
// Answers as plain data.

/// The logical per-query counters (`QueryStats` / `WireStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub object_accesses: u64,
    pub node_accesses: u64,
    pub node_disk_reads: u64,
    pub distance_evals: u64,
    pub profile_computations: u64,
    pub bound_evals: u64,
    pub aknn_calls: u64,
    pub candidates: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.object_accesses += o.object_accesses;
        self.node_accesses += o.node_accesses;
        self.node_disk_reads += o.node_disk_reads;
        self.distance_evals += o.distance_evals;
        self.profile_computations += o.profile_computations;
        self.bound_evals += o.bound_evals;
        self.aknn_calls += o.aknn_calls;
        self.candidates += o.candidates;
    }
}

impl From<&QueryStats> for Counters {
    fn from(s: &QueryStats) -> Self {
        Self {
            object_accesses: s.object_accesses,
            node_accesses: s.node_accesses,
            node_disk_reads: s.node_disk_reads,
            distance_evals: s.distance_evals,
            profile_computations: s.profile_computations,
            bound_evals: s.bound_evals,
            aknn_calls: s.aknn_calls,
            candidates: s.candidates,
        }
    }
}

impl From<&WireStats> for Counters {
    fn from(s: &WireStats) -> Self {
        (&s.to_query_stats()).into()
    }
}

/// One answer row: an AKNN neighbour with what is known of its distance
/// (`lo == hi` when it was probed), or an RKNN object with the α-ranges on
/// which it is a k-nearest neighbour, as `(lo, lo_closed, hi, hi_closed)`.
#[derive(Clone, Debug, PartialEq)]
pub enum Row {
    Neighbor { id: u64, lo: f64, hi: f64 },
    Ranged { id: u64, intervals: Vec<(f64, bool, f64, bool)> },
}

impl Row {
    pub fn id(&self) -> u64 {
        match self {
            Row::Neighbor { id, .. } | Row::Ranged { id, .. } => *id,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub rows: Vec<Row>,
    pub counters: Counters,
}

impl Answer {
    /// Feed ids and every distance / interval bit into a digest.
    pub fn digest_into(&self, f: &mut crate::stats::Fnv) {
        f.write(self.rows.len() as u64);
        for row in &self.rows {
            match row {
                Row::Neighbor { id, lo, hi } => {
                    f.write(*id);
                    f.write(lo.to_bits());
                    f.write(hi.to_bits());
                }
                Row::Ranged { id, intervals } => {
                    f.write(*id);
                    f.write(intervals.len() as u64);
                    for (lo, lo_closed, hi, hi_closed) in intervals {
                        f.write(lo.to_bits());
                        f.write(hi.to_bits());
                        f.write(*lo_closed as u64 | (*hi_closed as u64) << 1);
                    }
                }
            }
        }
    }
}

fn neighbor_rows(neighbors: &[fuzzy_query::Neighbor]) -> Vec<Row> {
    neighbors
        .iter()
        .map(|n| Row::Neighbor { id: n.id.0, lo: n.dist.lo(), hi: n.dist.hi() })
        .collect()
}

fn ranged_rows(items: &[fuzzy_query::RknnItem]) -> Vec<Row> {
    items
        .iter()
        .map(|i| Row::Ranged {
            id: i.id.0,
            intervals: i
                .range
                .intervals()
                .iter()
                .map(|iv| (iv.lo, iv.lo_closed, iv.hi, iv.hi_closed))
                .collect(),
        })
        .collect()
}

impl From<AknnResult> for Answer {
    fn from(r: AknnResult) -> Self {
        Self { rows: neighbor_rows(&r.neighbors), counters: (&r.stats).into() }
    }
}

impl From<RknnResult> for Answer {
    fn from(r: RknnResult) -> Self {
        Self { rows: ranged_rows(&r.items), counters: (&r.stats).into() }
    }
}

// ---------------------------------------------------------------------
// The object store.

pub struct Store(FileStore<D>);

impl Store {
    pub fn open(path: &Path) -> Result<Self, String> {
        FileStore::open(path).map(Self).map_err(err)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `(id, lo, hi)` of every object's support rectangle, for the oracle.
    pub fn support_boxes(&self) -> Vec<(u64, [f64; D], [f64; D])> {
        self.0
            .summaries()
            .iter()
            .map(|s| (s.id.0, *s.support_mbr.lo_coords(), *s.support_mbr.hi_coords()))
            .collect()
    }

    /// The stored rows of one object, for the oracle.
    pub fn rows(&self, id: u64) -> Result<Vec<([f64; D], f64)>, String> {
        let obj = self.0.probe(ObjectId(id)).map_err(err)?;
        Ok(obj.iter().map(|(p, mu)| (*p.coords(), mu)).collect())
    }

    /// Summary of object `id`; generated datasets store ids `0..n` in order.
    fn summary(&self, id: u64) -> ObjectSummary<D> {
        let s = self.0.summaries()[id as usize];
        assert_eq!(s.id.0, id, "dataset ids are not dense");
        s
    }
}

// ---------------------------------------------------------------------
// The paged index and the in-process engine over it.

/// Bulk-load an index over the first `first_n` objects of `store` and
/// write it to `path`.
pub fn build_index(store: &Store, first_n: usize, path: &Path) -> Result<(), String> {
    let entries = store.0.summaries()[..first_n].to_vec();
    PagedRTree::bulk_write(entries, RTreeConfig::default(), path, PAGE_SIZE).map(drop).map_err(err)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexShape {
    pub pages: usize,
    pub height: usize,
    pub page_size: u32,
}

/// An index the engine can run over, with a view of its buffer pool.
pub trait Pooled: NodeAccess<D> + Sized {
    fn open(path: &Path, pool_pages: usize) -> Result<Self, StoreError>;
    fn paged(&self) -> &PagedRTree<D>;
}

impl Pooled for PagedRTree<D> {
    fn open(path: &Path, pool_pages: usize) -> Result<Self, StoreError> {
        PagedRTree::open_with_cache(path, pool_pages)
    }
    fn paged(&self) -> &PagedRTree<D> {
        self
    }
}

/// The index type a server holds for a `.fzpt` file: the paged tree under
/// its write overlay, with any sidecar delta replayed.
impl Pooled for OverlayRTree<D> {
    fn open(path: &Path, pool_pages: usize) -> Result<Self, StoreError> {
        OverlayRTree::open_with_cache(path, pool_pages)
    }
    fn paged(&self) -> &PagedRTree<D> {
        self.base()
    }
}

/// What one query call asks for. All workloads use the full LB-LP-UB
/// stack; RKNN runs RSS-ICR.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryKind {
    Aknn { k: usize, alpha: f64 },
    Rknn { k: usize, start: f64, end: f64 },
}

/// One index, one scratch: the in-process engine of one thread.
pub struct InProc<A: Pooled> {
    index: A,
    scratch: QueryScratch<D>,
    cfg: AknnConfig,
}

pub type PagedEngine = InProc<PagedRTree<D>>;
pub type OverlayEngine = InProc<OverlayRTree<D>>;

impl<A: Pooled> InProc<A> {
    pub fn open(index_path: &Path, pool_pages: usize) -> Result<Self, String> {
        let index = A::open(index_path, pool_pages).map_err(err)?;
        Ok(Self { index, scratch: QueryScratch::new(), cfg: AknnConfig::lb_lp_ub() })
    }

    pub fn shape(&self) -> IndexShape {
        let p = self.index.paged();
        IndexShape {
            pages: p.page_count(),
            height: NodeAccess::height(p),
            page_size: p.page_size(),
        }
    }

    /// Pages the buffer pool has evicted since the index was opened.
    pub fn pool_evictions(&self) -> u64 {
        self.index.paged().cache_stats().evictions
    }

    /// One query through the engine's public entry points, exactly as a
    /// library user (and the server's worker) calls them.
    pub fn run(&mut self, store: &Store, kind: QueryKind, q: &Object) -> Result<Answer, String> {
        let engine = QueryEngine::new(&self.index, &store.0);
        match kind {
            QueryKind::Aknn { k, alpha } => engine
                .aknn_with_scratch(&q.0, k, alpha, &self.cfg, &mut self.scratch)
                .map(Answer::from),
            QueryKind::Rknn { k, start, end } => engine
                .rknn_with_scratch(
                    &q.0,
                    k,
                    start,
                    end,
                    RknnAlgorithm::RssIcr,
                    &self.cfg,
                    &mut self.scratch,
                )
                .map(Answer::from),
        }
        .map_err(err)
    }

    /// The same query with the three timed wrappers in place. The plain
    /// entry points fix the metric to `L2`, so this goes through the
    /// `_in` variants they forward to.
    pub fn run_traced(
        &mut self,
        store: &Store,
        kind: QueryKind,
        q: &Object,
    ) -> Result<Answer, String> {
        let (index, store) = (TimedIndex(&self.index), TimedStore(&store.0));
        let engine = QueryEngine::new(&index, &store);
        match kind {
            QueryKind::Aknn { k, alpha } => engine
                .aknn_at_with_scratch_in(
                    &TimedMetric,
                    &q.0,
                    k,
                    Threshold::at(alpha),
                    &self.cfg,
                    &mut self.scratch,
                )
                .map(Answer::from),
            QueryKind::Rknn { k, start, end } => engine
                .rknn_with_scratch_in(
                    &TimedMetric,
                    &q.0,
                    k,
                    start,
                    end,
                    RknnAlgorithm::RssIcr,
                    &self.cfg,
                    &mut self.scratch,
                )
                .map(Answer::from),
        }
        .map_err(err)
    }
}

// ---------------------------------------------------------------------
// The three timed wrappers.

struct TimedStore<'a>(&'a FileStore<D>);

impl ObjectStore<D> for TimedStore<'_> {
    fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<D>>, StoreError> {
        let obj = trace::span(Layer::Probe, || self.0.probe(id))?;
        let bytes = fuzzy_store::format::record_len(D, obj.len()) as u64;
        trace::add(|c| &c.probe_bytes, bytes);
        Ok(obj)
    }

    fn probe_traced(&self, id: ObjectId) -> Result<TracedProbe<D>, StoreError> {
        Ok(TracedProbe { object: self.probe(id)?, disk_read: true })
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn summaries(&self) -> &[ObjectSummary<D>] {
        self.0.summaries()
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.0.stats()
    }

    fn reset_stats(&self) {
        self.0.reset_stats()
    }
}

struct TimedIndex<'a, A>(&'a A);

impl<A: NodeAccess<D>> NodeAccess<D> for TimedIndex<'_, A> {
    fn root_id(&self) -> NodeId {
        self.0.root_id()
    }

    fn root_mbr(&self) -> Mbr<D> {
        self.0.root_mbr()
    }

    fn read_node(&self, id: NodeId) -> Result<NodeRead<'_, D>, StoreError> {
        let read = trace::span(Layer::NodeRead, || self.0.read_node(id))?;
        if read.disk_read {
            trace::add(|c| &c.node_misses, 1);
        }
        Ok(read)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn height(&self) -> usize {
        self.0.height()
    }
}

/// `L2` with a span around the two expensive hooks and a counter on the
/// cheap ones (a bound evaluation costs less than reading the clock).
struct TimedMetric;

impl Metric<D> for TimedMetric {
    fn name(&self) -> &'static str {
        <L2 as Metric<D>>::name(&L2)
    }

    #[inline]
    fn dist(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        trace::add(|c| &c.bound_calls, 1);
        L2.dist(a, b)
    }

    #[inline]
    fn dist_sq(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        trace::add(|c| &c.bound_calls, 1);
        L2.dist_sq(a, b)
    }

    #[inline]
    fn min_box_dist_sq(&self, a: &Mbr<D>, b: &Mbr<D>) -> f64 {
        trace::add(|c| &c.bound_calls, 1);
        L2.min_box_dist_sq(a, b)
    }

    #[inline]
    fn max_box_dist_sq(&self, a: &Mbr<D>, b: &Mbr<D>) -> f64 {
        trace::add(|c| &c.bound_calls, 1);
        L2.max_box_dist_sq(a, b)
    }

    fn alpha_distance_sq_bounded(
        &self,
        a: &FuzzyObject<D>,
        b: &FuzzyObject<D>,
        t: Threshold,
        upper_bound_sq: f64,
    ) -> Option<f64> {
        let d =
            trace::span(Layer::Kernel, || L2.alpha_distance_sq_bounded(a, b, t, upper_bound_sq));
        if d.is_none() {
            trace::add(|c| &c.kernel_pruned, 1);
        }
        d
    }

    fn distance_profile(&self, a: &FuzzyObject<D>, q: &FuzzyObject<D>) -> DistanceProfile {
        trace::span(Layer::Profile, || L2.distance_profile(a, q))
    }
}

// ---------------------------------------------------------------------
// The write side: an overlay handle of the writer's own.

pub struct Writer(OverlayRTree<D>);

impl Writer {
    pub fn open(index_path: &Path, pool_pages: usize) -> Result<Self, String> {
        OverlayRTree::open_with_cache(index_path, pool_pages).map(Self).map_err(err)
    }

    /// Insert the summaries of `inserts` and tombstone `deletes`; true when
    /// every one of them took effect.
    pub fn apply(&mut self, store: &Store, inserts: &[u64], deletes: &[u64]) -> bool {
        let mut all = true;
        for &id in inserts {
            all &= self.0.insert(store.summary(id));
        }
        for &id in deletes {
            all &= self.0.delete(ObjectId(id));
        }
        all
    }

    /// Persist the pending delta to the index's `.fzdl` sidecar.
    pub fn save(&self) -> Result<(), String> {
        self.0.save_delta().map_err(err)
    }

    pub fn pending(&self) -> usize {
        self.0.pending_inserts() + self.0.pending_tombstones()
    }
}

/// Path of an index file's delta sidecar.
pub fn delta_path(index_path: &Path) -> std::path::PathBuf {
    delta_path_for(index_path)
}

// ---------------------------------------------------------------------
// The server and its clients.

pub struct Server(ServerHandle);

impl Server {
    /// Start a one-worker server on a unix socket, in this process.
    pub fn start(
        store_path: &Path,
        index_path: &Path,
        socket: &Path,
        pool_pages: usize,
    ) -> Result<Self, String> {
        let store = FileStore::open(store_path).map_err(err)?;
        let index =
            ServeIndex::open_paged(&index_path.to_string_lossy(), pool_pages).map_err(err)?;
        let opts = ServeOptions { workers: 1, queue_depth: 64, cache_pages: pool_pages };
        serve(store, index, &ListenAddr::Unix(socket.to_path_buf()), &opts).map(Self).map_err(err)
    }

    /// Stop and join the listener and the worker. Connections must be
    /// dropped first: their reader threads end when the peer hangs up.
    pub fn stop(self) {
        self.0.stop();
    }
}

/// Server counters read over the wire (STATS).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    pub served: u64,
    pub busy: u64,
    pub deadline_exceeded: u64,
    pub errors: u64,
    pub swaps: u64,
}

/// What came back for one query request.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Answer(Answer),
    Busy,
    Deadline,
    Error(String),
}

fn reply_of(response: Result<Response, fuzzy_server::WireError>) -> Reply {
    match response {
        Ok(Response::Aknn { neighbors, stats }) => {
            Reply::Answer(Answer { rows: neighbor_rows(&neighbors), counters: (&stats).into() })
        }
        Ok(Response::Busy) => Reply::Busy,
        Ok(Response::Error { code: ErrorCode::DeadlineExceeded, .. }) => Reply::Deadline,
        Ok(other) => Reply::Error(format!("{other:?}")),
        Err(e) => Reply::Error(e.to_string()),
    }
}

/// An AKNN request carrying its query object inline.
pub struct WireRequest(Request);

impl RawQuery {
    pub fn wire_aknn(&self, k: usize, alpha: f64) -> WireRequest {
        WireRequest(Request::Aknn {
            query: QuerySource::Inline { id: ObjectId(self.id), rows: self.rows.clone() },
            k: k as u32,
            alpha,
            variant: WireVariant::LbLpUb,
            deadline_ms: 0,
        })
    }
}

/// One connection through the repository's own blocking client.
pub struct Conn(Client);

impl Conn {
    pub fn connect(socket: &Path) -> Result<Self, String> {
        let mut client =
            Client::connect_to(&ListenAddr::Unix(socket.to_path_buf())).map_err(err)?;
        client.set_read_timeout(Some(std::time::Duration::from_secs(30))).map_err(err)?;
        Ok(Self(client))
    }

    pub fn query(&mut self, request: &WireRequest) -> Reply {
        reply_of(self.0.call(&request.0))
    }

    /// Publish the index at `index_path` (with its sidecar delta) and wait
    /// for the acknowledgement: `(epoch, live objects)`.
    pub fn swap(&mut self, index_path: &Path) -> Result<(u64, u64), String> {
        let request = Request::Swap { index_path: index_path.to_string_lossy().into_owned() };
        match self.0.call(&request).map_err(err)? {
            Response::Swapped { epoch, objects } => Ok((epoch, objects)),
            other => Err(format!("swap answered {other:?}")),
        }
    }

    /// `(live objects, epoch)` of the published snapshot.
    pub fn info(&mut self) -> Result<(u64, u64), String> {
        match self.0.call(&Request::Info).map_err(err)? {
            Response::Info { objects, epoch, .. } => Ok((objects, epoch)),
            other => Err(format!("info answered {other:?}")),
        }
    }

    pub fn counters(&mut self) -> Result<ServerCounters, String> {
        match self.0.call(&Request::Stats).map_err(err)? {
            Response::Stats { served, busy, deadline_exceeded, errors, swaps } => {
                Ok(ServerCounters { served, busy, deadline_exceeded, errors, swaps })
            }
            other => Err(format!("stats answered {other:?}")),
        }
    }
}

/// A connection driven through the public `protocol` functions one step
/// at a time, so encode, round trip and decode get a span each.
pub struct TracedConn {
    stream: UnixStream,
    next_id: u64,
}

/// Frame sizes of one traced exchange.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireBytes {
    pub request: usize,
    pub response: usize,
}

impl TracedConn {
    pub fn connect(socket: &Path) -> Result<Self, String> {
        let stream = UnixStream::connect(socket).map_err(err)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).map_err(err)?;
        Ok(Self { stream, next_id: 1 })
    }

    pub fn query(&mut self, request: &WireRequest) -> (Reply, WireBytes) {
        let id = self.next_id;
        self.next_id += 1;
        let mut bytes = WireBytes::default();
        let reply = trace::span(Layer::Request, || {
            let frame = trace::span(Layer::Encode, || request.0.encode(id));
            bytes.request = frame.len();
            let raw = trace::span(Layer::RoundTrip, || {
                self.stream.write_all(&frame)?;
                self.stream.flush()?;
                read_frame(&mut self.stream)?.ok_or(fuzzy_server::WireError::Truncated)
            });
            raw.and_then(|raw| {
                bytes.response = fuzzy_server::protocol::HEADER_LEN
                    + raw.payload.len()
                    + fuzzy_server::protocol::TRAILER_LEN;
                trace::span(Layer::Decode, || Response::decode(raw.frame_type, &raw.payload))
            })
        });
        (reply_of(reply), bytes)
    }
}
