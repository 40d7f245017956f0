//! The resident query daemon.
//!
//! Data flow (see ARCHITECTURE.md for the diagram):
//!
//! * A **listener thread** accepts TCP or unix-socket connections and
//!   spawns one **reader thread** per connection.
//! * Reader threads decode frames. Control-plane requests (INFO, STATS,
//!   SWAP, SHUTDOWN) are answered inline — they never queue behind
//!   queries. Query requests are resolved to a query object and pushed
//!   onto a **bounded job queue**; a full queue answers BUSY immediately
//!   (admission control: the pool never builds unbounded backlog, it
//!   sheds load at the door).
//! * A fixed pool of **worker threads** drains the queue. Each worker
//!   owns one [`QueryScratch`] reused across every query it answers
//!   (whatever index a SWAP installs), and
//!   pins the published index snapshot *per query*, so a SWAP between two
//!   requests is visible to the second while in-flight queries keep the
//!   tree they started on ([`Versioned`] epoch semantics).
//! * Each request carries a deadline. Workers check it before starting,
//!   and the engine checks it at traversal expansion points, so an
//!   overdue query aborts with DEADLINE_EXCEEDED within one expansion
//!   instead of burning its worker; the connection stays usable.
//!
//! Responses are written frame-at-a-time under a per-connection writer
//! lock, so concurrent workers never interleave bytes of two frames.

use crate::protocol::{
    inline_object, read_frame, ErrorCode, QuerySource, RawFrame, Request, Response, WireError,
    WIRE_DIMS,
};
use fuzzy_core::FuzzyObject;
use fuzzy_index::{NodeAccess, OverlayRTree, RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, QueryEngine, QueryError, QueryScratch, RknnAlgorithm, Versioned};
use fuzzy_store::{FileStore, ObjectStore, StoreError};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The index a server answers from: an overlay over an index file, with
/// any sidecar delta replayed, or over an in-memory image bulk-loaded from
/// the store's summaries (`:mem:`). It is never edited in place: a SWAP
/// publishes a whole new one as a [`Versioned`] epoch, and the publish
/// clone is cheap (a small delta plus `Arc` bumps on the base and its id
/// set).
#[derive(Clone, Debug)]
pub struct ServeIndex(OverlayRTree<WIRE_DIMS>);

impl ServeIndex {
    /// Bulk-load an in-memory tree over a store's summaries.
    pub fn mem_from_store(store: &FileStore<WIRE_DIMS>) -> Self {
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        // A store's ids are unique (its open checks them), so the image's
        // id column ascends strictly, as the overlay checks.
        Self(OverlayRTree::new(Arc::new(tree)).expect("a store's ids are unique"))
    }

    /// Open a persisted index (replaying its delta log if one exists).
    pub fn open_paged(path: &str, cache_pages: usize) -> Result<Self, StoreError> {
        Ok(Self(OverlayRTree::open_with_cache(path, cache_pages)?))
    }

    /// Live objects in the index.
    pub(crate) fn object_count(&self) -> u64 {
        NodeAccess::len(&self.0) as u64
    }
}

/// Where the server listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP socket address, e.g. `127.0.0.1:7878` (`:0` for ephemeral).
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parse an address string: `unix:<path>` selects a unix socket,
    /// anything else is a TCP `host:port`.
    pub fn parse(s: &str) -> Self {
        match s.strip_prefix("unix:") {
            Some(path) => Self::Unix(PathBuf::from(path)),
            None => Self::Tcp(s.to_string()),
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Tcp(a) => write!(f, "{a}"),
            Self::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads; 0 means one per available CPU.
    pub workers: usize,
    /// Admission-control bound: queries queued but not yet running.
    /// A full queue sheds new queries with BUSY.
    pub queue_depth: usize,
    /// Buffer-pool capacity for indexes opened by SWAP.
    pub cache_pages: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self { workers: 0, queue_depth: 64, cache_pages: fuzzy_index::DEFAULT_CACHE_PAGES }
    }
}

/// Monotonic counters, readable via STATS.
#[derive(Debug, Default)]
struct Counters {
    served: AtomicU64,
    busy: AtomicU64,
    deadline_exceeded: AtomicU64,
    errors: AtomicU64,
    swaps: AtomicU64,
}

/// State shared by the listener, readers and workers.
struct Shared {
    index: Versioned<ServeIndex>,
    store: Arc<FileStore<WIRE_DIMS>>,
    counters: Counters,
    shutdown: AtomicBool,
    workers: u16,
    cache_pages: usize,
    /// The bound address, so a SHUTDOWN frame can wake the blocked
    /// `accept` (see [`wake_listener`]).
    addr: ListenAddr,
}

/// One admitted query, en route to a worker: the query object, what to
/// run on it, and the engine configuration with the request's deadline.
struct Job {
    query: FuzzyObject<WIRE_DIMS>,
    k: usize,
    kind: Kind,
    cfg: AknnConfig,
    request_id: u64,
    writer: SharedWriter,
}

/// What a [`Job`] asks of the engine.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// AKNN at one probability threshold.
    Aknn { alpha: f64 },
    /// RKNN over `[start, end]`.
    Rknn { start: f64, end: f64, algo: RknnAlgorithm },
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// A running server. Dropping the handle does NOT stop the daemon; call
/// [`ServerHandle::stop`] (or send a SHUTDOWN frame) for orderly exit.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: ListenAddr,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved, for TCP).
    pub fn addr(&self) -> &ListenAddr {
        &self.addr
    }

    /// Current epoch of the published index snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.index.epoch()
    }

    /// True once SHUTDOWN was requested (frame or [`ServerHandle::stop`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Request shutdown and join the listener and worker threads.
    /// Connection reader threads exit when their peers disconnect.
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        wake_listener(&self.addr);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Block until the daemon exits (a SHUTDOWN frame arrived). Used by
    /// `fkq serve` to park the main thread.
    pub fn join(mut self) {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Connect once to the bound address so a blocking `accept` observes the
/// shutdown flag.
fn wake_listener(addr: &ListenAddr) {
    match addr {
        ListenAddr::Tcp(a) => drop(TcpStream::connect(a)),
        ListenAddr::Unix(p) => drop(UnixStream::connect(p)),
    }
}

/// Start a server over an already-open store and index.
///
/// Binds the listen address, spawns the worker pool and the listener
/// thread, and returns immediately with a [`ServerHandle`].
pub fn serve(
    store: FileStore<WIRE_DIMS>,
    index: ServeIndex,
    listen: &ListenAddr,
    opts: &ServeOptions,
) -> std::io::Result<ServerHandle> {
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    } else {
        opts.workers
    };

    // Bind before building `Shared`: the bound address (with any
    // ephemeral port resolved) must be visible to connection handlers so
    // a SHUTDOWN frame can wake the blocking `accept`.
    enum Bound {
        Tcp(TcpListener),
        Unix(UnixListener, PathBuf),
    }
    let (bound, listener) = match listen {
        ListenAddr::Tcp(a) => {
            let listener = TcpListener::bind(a)?;
            let bound = ListenAddr::Tcp(listener.local_addr()?.to_string());
            (bound, Bound::Tcp(listener))
        }
        ListenAddr::Unix(path) => {
            // A stale socket file from a dead server blocks rebinding.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            (ListenAddr::Unix(path.clone()), Bound::Unix(listener, path.clone()))
        }
    };

    let shared = Arc::new(Shared {
        index: Versioned::new(index),
        store: Arc::new(store),
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        workers: workers.min(u16::MAX as usize) as u16,
        cache_pages: opts.cache_pages,
        addr: bound.clone(),
    });

    let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(opts.queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || worker_loop(&shared, &rx))
        })
        .collect();

    let listener_handle = match listener {
        Bound::Tcp(listener) => {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    spawn_tcp_reader(&shared, &tx, stream);
                }
            })
        }
        Bound::Unix(listener, socket_path) => {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    spawn_unix_reader(&shared, &tx, stream);
                }
                let _ = std::fs::remove_file(&socket_path);
            })
        }
    };

    Ok(ServerHandle {
        shared,
        addr: bound,
        listener: Some(listener_handle),
        workers: worker_handles,
    })
}

fn spawn_tcp_reader(shared: &Arc<Shared>, tx: &SyncSender<Job>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let shared = Arc::clone(shared);
    let tx = tx.clone();
    std::thread::spawn(move || {
        connection_loop(&shared, &tx, stream, Box::new(write_half));
    });
}

fn spawn_unix_reader(shared: &Arc<Shared>, tx: &SyncSender<Job>, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let shared = Arc::clone(shared);
    let tx = tx.clone();
    std::thread::spawn(move || {
        connection_loop(&shared, &tx, stream, Box::new(write_half));
    });
}

/// Per-connection reader: decode frames, answer control requests inline,
/// enqueue queries. Exits on EOF, transport error, or server shutdown.
fn connection_loop<R: std::io::Read>(
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    mut reader: R,
    writer: Box<dyn Write + Send>,
) {
    let writer: SharedWriter = Arc::new(Mutex::new(writer));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean disconnect
            Err(WireError::Io(_)) | Err(WireError::Truncated) => return,
            Err(e) => {
                // Framing is unrecoverable after a malformed envelope —
                // report once and drop the connection.
                let resp = Response::Error { code: ErrorCode::Malformed, message: e.to_string() };
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                write_response(&writer, 0, &resp);
                return;
            }
        };
        if !handle_frame(shared, tx, &writer, frame) {
            return;
        }
    }
}

/// Dispatch one verified frame. Returns false when the connection (or the
/// whole server) should wind down.
fn handle_frame(
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    writer: &SharedWriter,
    frame: RawFrame,
) -> bool {
    let id = frame.request_id;
    let request = match Request::decode(frame.frame_type, &frame.payload) {
        Ok(r) => r,
        Err(WireError::UnknownType { found }) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let resp = Response::Error {
                code: ErrorCode::Unsupported,
                message: format!("frame type 0x{found:02x}"),
            };
            write_response(writer, id, &resp);
            return true;
        }
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let resp = Response::Error { code: ErrorCode::Malformed, message: e.to_string() };
            write_response(writer, id, &resp);
            return true;
        }
    };

    match request {
        Request::Info => {
            let snap = shared.index.snapshot();
            let resp = Response::Info {
                objects: snap.object_count(),
                epoch: shared.index.epoch(),
                workers: shared.workers,
            };
            write_response(writer, id, &resp);
            true
        }
        Request::Stats => {
            let c = &shared.counters;
            let resp = Response::Stats {
                served: c.served.load(Ordering::Relaxed),
                busy: c.busy.load(Ordering::Relaxed),
                deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
                errors: c.errors.load(Ordering::Relaxed),
                swaps: c.swaps.load(Ordering::Relaxed),
            };
            write_response(writer, id, &resp);
            true
        }
        Request::Swap { index_path } => {
            // Every failure, a file of a retired format included, is
            // SWAP_FAILED.
            let reopened =
                reopen(&shared.index.snapshot(), &index_path, &shared.store, shared.cache_pages);
            let resp = match reopened {
                Ok(new_index) => {
                    let objects = new_index.object_count();
                    shared.index.write(|ix| *ix = new_index);
                    shared.counters.swaps.fetch_add(1, Ordering::Relaxed);
                    Response::Swapped { epoch: shared.index.epoch(), objects }
                }
                Err(e) => {
                    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error { code: ErrorCode::SwapFailed, message: e.to_string() }
                }
            };
            write_response(writer, id, &resp);
            true
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            // The listener is parked in a blocking `accept`; poke it so
            // it observes the flag and `ServerHandle::join` returns.
            wake_listener(&shared.addr);
            write_response(writer, id, &Response::ShutdownAck);
            false
        }
        Request::Aknn { query, k, alpha, variant, deadline_ms } => {
            let cfg = variant.config().with_deadline(deadline_of(deadline_ms));
            if let Some(query) = resolve_query(shared, writer, id, &query) {
                let kind = Kind::Aknn { alpha };
                let writer = Arc::clone(writer);
                enqueue(
                    shared,
                    tx,
                    Job { query, k: k as usize, kind, cfg, request_id: id, writer },
                );
            }
            true
        }
        Request::Rknn { query, k, alpha_start, alpha_end, algo, variant, deadline_ms } => {
            let cfg = variant.config().with_deadline(deadline_of(deadline_ms));
            if let Some(query) = resolve_query(shared, writer, id, &query) {
                let kind = Kind::Rknn { start: alpha_start, end: alpha_end, algo };
                let writer = Arc::clone(writer);
                enqueue(
                    shared,
                    tx,
                    Job { query, k: k as usize, kind, cfg, request_id: id, writer },
                );
            }
            true
        }
    }
}

/// The deadline of a query admitted now, if it set one.
fn deadline_of(deadline_ms: u32) -> Option<Instant> {
    (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms as u64))
}

/// Materialize the request's query object: probe the store for stored-id
/// sources, validate inline ones. A source that names no usable object is
/// answered here, and yields `None`.
fn resolve_query(
    shared: &Shared,
    writer: &SharedWriter,
    request_id: u64,
    source: &QuerySource,
) -> Option<FuzzyObject<WIRE_DIMS>> {
    let refused = |code, message| {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        write_response(writer, request_id, &Response::Error { code, message });
        None
    };
    match source {
        QuerySource::Stored(id) => match shared.store.probe(*id) {
            Ok(obj) => Some(obj.as_ref().clone()),
            Err(e @ StoreError::UnknownObject(_)) => refused(ErrorCode::NotFound, e.to_string()),
            Err(e) => refused(ErrorCode::Store, e.to_string()),
        },
        QuerySource::Inline { id, rows } => match inline_object(*id, rows) {
            Ok(obj) => Some(obj),
            Err(message) => refused(ErrorCode::InvalidArgument, message),
        },
    }
}

/// Admission control: try to hand the job to the pool; a full queue means
/// an immediate BUSY, the request is never buffered.
fn enqueue(shared: &Shared, tx: &SyncSender<Job>, job: Job) {
    match tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(job)) => {
            shared.counters.busy.fetch_add(1, Ordering::Relaxed);
            write_response(&job.writer, job.request_id, &Response::Busy);
        }
        Err(TrySendError::Disconnected(job)) => {
            write_response(
                &job.writer,
                job.request_id,
                &Response::Error {
                    code: ErrorCode::Unsupported,
                    message: "server is shutting down".to_string(),
                },
            );
        }
    }
}

/// Worker: drain the queue with one long-lived scratch; poll the shutdown
/// flag between jobs.
fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>) {
    let mut scratch = QueryScratch::new();
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.recv_timeout(Duration::from_millis(50))
        };
        match job {
            Ok(job) => run_job(shared, &mut scratch, job),
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Execute one admitted query against the currently published snapshot
/// and write its response.
fn run_job(shared: &Arc<Shared>, scratch: &mut QueryScratch<WIRE_DIMS>, job: Job) {
    // Pin the snapshot per query: a SWAP published while this job queued
    // is picked up here; a SWAP landing mid-query is not (epoch
    // isolation).
    let snapshot = shared.index.snapshot();
    let engine = QueryEngine::new(&snapshot.0, shared.store.as_ref());
    let resp = dispatch(&engine, &job, scratch);
    let counter = match &resp {
        Response::Error { code: ErrorCode::DeadlineExceeded, .. } => {
            &shared.counters.deadline_exceeded
        }
        Response::Error { .. } => &shared.counters.errors,
        _ => &shared.counters.served,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    write_response(&job.writer, job.request_id, &resp);
}

/// Answer one job through the engine, on the worker's long-lived scratch.
///
/// A panic inside the query is caught at this per-query boundary and
/// answered PANICKED, with the payload's message when it was a string, so
/// one poisoned query cannot take its worker down. Reusing the scratch
/// afterwards is sound: every search resets it on entry, so a half-filled
/// heap or buffer from the unwound query cannot leak into the next one.
fn dispatch<I: NodeAccess<WIRE_DIMS>, S: ObjectStore<WIRE_DIMS>>(
    engine: &QueryEngine<'_, I, S, WIRE_DIMS>,
    job: &Job,
    scratch: &mut QueryScratch<WIRE_DIMS>,
) -> Response {
    let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job.kind {
        Kind::Aknn { alpha } => engine
            .aknn_with_scratch(&job.query, job.k, alpha, &job.cfg, scratch)
            .map(|r| Response::Aknn { stats: (&r.stats).into(), neighbors: r.neighbors }),
        Kind::Rknn { start, end, algo } => engine
            .rknn_with_scratch(&job.query, job.k, start, end, algo, &job.cfg, scratch)
            .map(|r| Response::Rknn { stats: (&r.stats).into(), items: r.items }),
    }))
    .unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(QueryError::Panicked { message })
    });
    answer.unwrap_or_else(|e| Response::Error { code: classify(&e), message: e.to_string() })
}

fn classify(e: &QueryError) -> ErrorCode {
    match e {
        QueryError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        QueryError::Panicked { .. } => ErrorCode::Panicked,
        QueryError::Store(StoreError::UnknownObject(_)) => ErrorCode::NotFound,
        QueryError::Store(_) => ErrorCode::Store,
        QueryError::EmptyQueryCut
        | QueryError::ZeroK
        | QueryError::InvalidProbability { .. }
        | QueryError::InvalidRange { .. } => ErrorCode::InvalidArgument,
    }
}

/// What a SWAP to `index_path` publishes while `served` is being served.
/// `:mem:` bulk-loads a fresh image from `store`. An index asked to swap
/// to its own base file, with that path still naming the file it opened,
/// unmodified since, replays only the sidecar over the open base (warm
/// pool, shared id column); a compacted index (a new inode), one rebuilt in
/// place, another file, or a base that is an image — no file, so never
/// "the served file" — pays the full open.
fn reopen(
    served: &ServeIndex,
    index_path: &str,
    store: &FileStore<WIRE_DIMS>,
    cache_pages: usize,
) -> Result<ServeIndex, StoreError> {
    let base = served.0.base();
    if index_path == ":mem:" {
        Ok(ServeIndex::mem_from_store(store))
    } else if base.path() == Path::new(index_path) && base.is_file_at(index_path) {
        served.0.reload_delta().map(ServeIndex)
    } else {
        ServeIndex::open_paged(index_path, cache_pages)
    }
}

/// Serialize and write one whole frame under the connection's writer
/// lock. Write errors are ignored: the reader side notices the dead
/// connection and winds it down.
fn write_response(writer: &SharedWriter, request_id: u64, resp: &Response) {
    let bytes = resp.encode(request_id);
    let mut guard = writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _ = guard.write_all(&bytes);
    let _ = guard.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
    use fuzzy_geom::Point;
    use fuzzy_index::{PagedRTree, DEFAULT_PAGE_SIZE};

    fn object(id: u64) -> FuzzyObject<WIRE_DIMS> {
        let (x, y) = ((id % 8) as f64 * 2.0, (id / 8) as f64 * 2.0);
        FuzzyObject::new(
            ObjectId(id),
            vec![Point::xy(x, y), Point::xy(x + 0.5, y + 0.5)],
            vec![1.0, 0.5],
        )
        .unwrap()
    }

    fn summary(id: u64) -> ObjectSummary<WIRE_DIMS> {
        ObjectSummary::from_object(&object(id))
    }

    fn overlay_of(index: &ServeIndex) -> &OverlayRTree<WIRE_DIMS> {
        &index.0
    }

    /// A store that panics when probing one designated id: a latent bug
    /// deep inside a single query's traversal.
    struct PanickyStore {
        inner: FileStore<WIRE_DIMS>,
        poison: ObjectId,
    }

    impl ObjectStore<WIRE_DIMS> for PanickyStore {
        fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<WIRE_DIMS>>, StoreError> {
            assert!(id != self.poison, "injected probe panic");
            self.inner.probe(id)
        }

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn summaries(&self) -> &[ObjectSummary<WIRE_DIMS>] {
            self.inner.summaries()
        }

        fn stats(&self) -> fuzzy_store::IoStatsSnapshot {
            self.inner.stats()
        }

        fn reset_stats(&self) {
            self.inner.reset_stats()
        }
    }

    /// A job whose response goes nowhere: [`dispatch`] returns it.
    fn job(query: &FuzzyObject<WIRE_DIMS>, k: usize, kind: Kind, cfg: AknnConfig) -> Job {
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::sink())));
        Job { query: query.clone(), k, kind, cfg, request_id: 0, writer }
    }

    /// Dispatch `bad` between two copies of a good AKNN for object 0 on one
    /// scratch: return `bad`'s response, after checking that both good ones
    /// answer with object 0 among the neighbours.
    fn between_good_queries(
        store: &PanickyStore,
        bad: &FuzzyObject<WIRE_DIMS>,
        bad_kind: Kind,
        bad_cfg: AknnConfig,
    ) -> Response {
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        let engine = QueryEngine::new(&tree, store);
        let q0 = store.inner.probe(ObjectId(0)).unwrap();
        let good = job(&q0, 2, Kind::Aknn { alpha: 0.5 }, AknnConfig::lb_lp_ub());
        let mut scratch = QueryScratch::new();
        let answers_itself =
            |scratch: &mut QueryScratch<WIRE_DIMS>| match dispatch(&engine, &good, scratch) {
                Response::Aknn { neighbors, .. } => {
                    assert!(neighbors.iter().any(|n| n.id == ObjectId(0)))
                }
                other => panic!("expected an AKNN answer, got {other:?}"),
            };
        answers_itself(&mut scratch);
        let resp = dispatch(&engine, &job(bad, 12, bad_kind, bad_cfg), &mut scratch);
        answers_itself(&mut scratch);
        resp
    }

    fn grid_store(poison: u64) -> PanickyStore {
        let inner = FileStore::from_objects((0..12).map(|i| {
            let (x, y) = ((i % 4) as f64, (i / 4) as f64);
            FuzzyObject::new(
                ObjectId(i),
                vec![Point::xy(x, y), Point::xy(x + 0.3, y + 0.3)],
                vec![1.0, 0.5],
            )
            .unwrap()
        }))
        .unwrap();
        PanickyStore { inner, poison: ObjectId(poison) }
    }

    /// A query that panics is answered PANICKED with the payload's message,
    /// and the next query on the same scratch still answers.
    #[test]
    fn a_panicking_query_answers_panicked_and_the_scratch_still_serves() {
        // Probing object 5 panics; `basic()` probes every popped entry,
        // so a wide AKNN from object 5 is bound to hit it.
        let store = grid_store(5);
        let q5 = store.inner.probe(ObjectId(5)).unwrap();
        let resp =
            between_good_queries(&store, &q5, Kind::Aknn { alpha: 0.5 }, AknnConfig::basic());
        match resp {
            Response::Error { code: ErrorCode::Panicked, message } => {
                assert!(message.contains("injected probe panic"), "payload kept: {message}")
            }
            other => panic!("expected PANICKED, got {other:?}"),
        }
    }

    /// An invalid query is answered INVALID_ARGUMENT, and the next query on
    /// the same scratch still answers.
    #[test]
    fn an_invalid_query_answers_invalid_argument_and_the_scratch_still_serves() {
        let store = grid_store(u64::MAX);
        let q0 = store.inner.probe(ObjectId(0)).unwrap();
        for kind in [
            Kind::Aknn { alpha: 1.5 },
            Kind::Rknn { start: 0.3, end: 1.5, algo: RknnAlgorithm::RssIcr },
        ] {
            let resp = between_good_queries(&store, &q0, kind, AknnConfig::lb_lp_ub());
            assert!(
                matches!(resp, Response::Error { code: ErrorCode::InvalidArgument, .. }),
                "{kind:?}: {resp:?}"
            );
        }
    }

    /// A query whose deadline has passed is answered DEADLINE_EXCEEDED,
    /// and the next query on the same scratch still answers.
    #[test]
    fn an_expired_deadline_answers_deadline_exceeded_and_the_scratch_still_serves() {
        let store = grid_store(u64::MAX);
        let q0 = store.inner.probe(ObjectId(0)).unwrap();
        let expired = AknnConfig::lb_lp_ub().with_deadline(Some(Instant::now()));
        for kind in [
            Kind::Aknn { alpha: 0.5 },
            Kind::Rknn { start: 0.3, end: 0.7, algo: RknnAlgorithm::RssIcr },
        ] {
            let resp = between_good_queries(&store, &q0, kind, expired);
            assert!(
                matches!(resp, Response::Error { code: ErrorCode::DeadlineExceeded, .. }),
                "{kind:?}: {resp:?}"
            );
        }
    }

    /// A dispatched query answers what the engine's own method answers:
    /// the same neighbours or items and the same logical counters (the
    /// wall time aside), for AKNN and for every RKNN algorithm.
    #[test]
    fn a_dispatched_query_answers_what_the_engine_answers() {
        let store = grid_store(u64::MAX);
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        let engine = QueryEngine::new(&tree, &store);
        let q5 = store.inner.probe(ObjectId(5)).unwrap();
        let cfg = AknnConfig::lb_lp_ub();
        let without_wall = |resp: Response| match resp {
            Response::Aknn { neighbors, mut stats } => {
                stats.wall_nanos = 0;
                Response::Aknn { neighbors, stats }
            }
            Response::Rknn { items, mut stats } => {
                stats.wall_nanos = 0;
                Response::Rknn { items, stats }
            }
            other => panic!("expected an answer, got {other:?}"),
        };
        let mut scratch = QueryScratch::new();
        let got = dispatch(&engine, &job(&q5, 3, Kind::Aknn { alpha: 0.5 }, cfg), &mut scratch);
        let r = engine.aknn(&q5, 3, 0.5, &cfg).unwrap();
        let want = Response::Aknn { stats: (&r.stats).into(), neighbors: r.neighbors };
        assert_eq!(without_wall(got), without_wall(want));
        for algo in
            [RknnAlgorithm::Naive, RknnAlgorithm::Basic, RknnAlgorithm::Rss, RknnAlgorithm::RssIcr]
        {
            let kind = Kind::Rknn { start: 0.2, end: 0.9, algo };
            let got = dispatch(&engine, &job(&q5, 3, kind, cfg), &mut scratch);
            let r = engine.rknn(&q5, 3, 0.2, 0.9, algo, &cfg).unwrap();
            let want = Response::Rknn { stats: (&r.stats).into(), items: r.items };
            assert_eq!(without_wall(got), without_wall(want), "{algo:?}");
        }
    }

    /// `:mem:` serves an image base, which is no file: a second SWAP to
    /// `:mem:` bulk-loads a fresh image instead of replaying a sidecar
    /// beside the empty path, and a SWAP to a file opens it in full.
    #[test]
    fn an_image_base_is_never_the_served_file() {
        let store = FileStore::from_objects((0..40).map(object)).unwrap();
        let served = ServeIndex::mem_from_store(&store);
        let base = overlay_of(&served).base();
        assert!(base.image().is_some() && !base.is_file_at(base.path()));
        let again = reopen(&served, ":mem:", &store, 8).unwrap();
        assert!(!std::ptr::eq(base, overlay_of(&again).base()), "rebuilt, not shared");
        assert_eq!(again.object_count(), 40);
        let err = reopen(&served, "", &store, 8).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
    }

    /// The SWAP fast path: the served file, unchanged, keeps its open base
    /// (and with it the warm pool) and replays only the sidecar; a copy
    /// under another path, a compacted file (a new inode under the same
    /// path) and a file rebuilt in place (the same inode, new bytes) are
    /// opened in full.
    #[test]
    fn a_swap_to_the_served_unchanged_file_shares_the_base_and_anything_else_reopens() {
        let path =
            std::env::temp_dir().join(format!("fuzzy-server-reopen-{}.fzpt", std::process::id()));
        let name = path.to_str().unwrap();
        let store = FileStore::from_objects((0..1).map(object)).unwrap();
        let entries: Vec<_> = (0..40).map(summary).collect();
        PagedRTree::bulk_write(entries, RTreeConfig::default(), &path, DEFAULT_PAGE_SIZE).unwrap();
        let served = ServeIndex::open_paged(name, 8).unwrap();

        // A writer with an overlay of its own leaves a sidecar behind.
        let mut writer: OverlayRTree<WIRE_DIMS> = OverlayRTree::open(&path).unwrap();
        assert!(writer.delete(ObjectId(3)) && writer.delete(ObjectId(4)));
        assert!(writer.insert(summary(900)));
        writer.save_delta().unwrap();

        let again = reopen(&served, name, &store, 8).unwrap();
        assert!(std::ptr::eq(overlay_of(&served).base(), overlay_of(&again).base()));
        assert_eq!(again.object_count(), 39);
        assert_eq!(served.object_count(), 40, "the served snapshot is untouched");

        let copy = path.with_extension("copy.fzpt");
        std::fs::copy(&path, &copy).unwrap();
        let other = reopen(&again, copy.to_str().unwrap(), &store, 8).unwrap();
        assert!(!std::ptr::eq(overlay_of(&again).base(), overlay_of(&other).base()));
        assert_eq!(other.object_count(), 40, "the copy has no sidecar");

        writer.compact(DEFAULT_PAGE_SIZE).unwrap();
        assert!(!overlay_of(&again).base().is_file_at(&path), "compaction renames a new file in");
        let compacted = reopen(&again, name, &store, 8).unwrap();
        assert!(!std::ptr::eq(overlay_of(&again).base(), overlay_of(&compacted).base()));
        assert!(overlay_of(&compacted).is_clean());
        assert_eq!(compacted.object_count(), 39);

        // `fkq build-index` rewrites in place: the same inode and, a page
        // being a page, the same length — only the times tell. (The pause
        // outlasts the tick of a file system with coarse timestamps.)
        let length = std::fs::metadata(&path).unwrap().len();
        std::thread::sleep(Duration::from_millis(50));
        let entries: Vec<_> = (100..139).map(summary).collect();
        PagedRTree::bulk_write(entries, RTreeConfig::default(), &path, DEFAULT_PAGE_SIZE).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), length);
        assert!(!overlay_of(&compacted).base().is_file_at(&path), "rewritten under the open fd");
        let rebuilt = reopen(&compacted, name, &store, 8).unwrap();
        assert!(!std::ptr::eq(overlay_of(&compacted).base(), overlay_of(&rebuilt).base()));
        let mut probe = overlay_of(&rebuilt).clone();
        assert!(probe.delete(ObjectId(138)), "the rebuilt file's ids are live");
        assert!(!probe.delete(ObjectId(5)), "the old file's ids are not carried over");

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&copy).unwrap();
    }
}
