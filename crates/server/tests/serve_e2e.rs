//! End-to-end tests of the resident server: answers over the socket must
//! be **byte-identical** to one-shot engine runs — at 1, 2 and 8
//! concurrent connections, across a live index SWAP mid-run — deadlines
//! must expire without wedging the connection, and a full admission queue
//! must shed load with BUSY rather than buffer unboundedly.

use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_geom::Point;
use fuzzy_query::{execute_one, BatchRequest, DistBound, QueryEngine, QueryScratch};
use fuzzy_server::protocol::read_frame;
use fuzzy_server::{
    serve, Client, ErrorCode, ListenAddr, QuerySource, Request, Response, ServeIndex, ServeOptions,
};
use fuzzy_store::{FileStore, FileStoreWriter, ObjectStore};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A deterministic pseudo-random fuzzy object (xorshift, no external RNG).
fn blob(id: u64, cx: f64, cy: f64) -> FuzzyObject<2> {
    let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..20 {
        let r = rnd();
        let th = rnd() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        mus.push((((1.0 - r) * 10.0).round() / 10.0).clamp(0.1, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

/// Write `n` objects into a fresh store file and open it.
fn store_file(tag: &str, n: u64) -> (PathBuf, FileStore<2>) {
    let path =
        std::env::temp_dir().join(format!("fuzzy-serve-e2e-{tag}-{}.fzkn", std::process::id()));
    let mut writer = FileStoreWriter::<2>::create(&path).unwrap();
    for i in 0..n {
        writer.append(&blob(i, (i % 12) as f64 * 3.0, (i / 12) as f64 * 3.0)).unwrap();
    }
    (path.clone(), writer.finish().unwrap())
}

/// Canonical byte-level rendering of an AKNN answer: ids plus the raw
/// IEEE-754 bits of every distance. Equal strings ⇔ byte-identical.
fn fingerprint(neighbors: &[fuzzy_query::Neighbor]) -> String {
    neighbors
        .iter()
        .map(|n| match n.dist {
            DistBound::Exact(d) => format!("{}={:016x};", n.id, d.to_bits()),
            DistBound::Bounded { lo, hi } => {
                format!("{}=[{:016x},{:016x}];", n.id, lo.to_bits(), hi.to_bits())
            }
        })
        .collect()
}

/// The mixed AKNN workload both sides answer: every object id, cycling
/// through k, α and variant.
fn workload(n: u64) -> Vec<(u64, u32, f64, fuzzy_server::WireVariant)> {
    use fuzzy_server::WireVariant as V;
    (0..n)
        .map(|i| {
            let variant = match i % 4 {
                0 => V::Basic,
                1 => V::Lb,
                2 => V::LbLp,
                _ => V::LbLpUb,
            };
            (i, 3 + (i % 5) as u32, [0.3, 0.5, 0.8][(i % 3) as usize], variant)
        })
        .collect()
}

/// One-shot reference answers through the exact engine path the server
/// workers use (`execute_one` with a reused scratch) over the same
/// bulk-loaded tree a `ServeIndex::mem_from_store` holds.
fn reference_answers(
    store: &FileStore<2>,
    work: &[(u64, u32, f64, fuzzy_server::WireVariant)],
) -> Vec<String> {
    let tree = fuzzy_index::RTree::bulk_load(
        store.summaries().to_vec(),
        fuzzy_index::RTreeConfig::default(),
    );
    let engine = QueryEngine::new(&tree, store);
    let mut scratch = QueryScratch::new();
    work.iter()
        .map(|&(id, k, alpha, variant)| {
            let q = store.probe(ObjectId(id)).unwrap().as_ref().clone();
            let request = BatchRequest::aknn(q, k as usize, alpha, variant.config());
            match execute_one(&engine, &request, &mut scratch).unwrap() {
                fuzzy_query::BatchResponse::Aknn(r) => fingerprint(&r.neighbors),
                other => panic!("expected AKNN, got {other:?}"),
            }
        })
        .collect()
}

fn aknn_request(id: u64, k: u32, alpha: f64, variant: fuzzy_server::WireVariant) -> Request {
    Request::Aknn { query: QuerySource::Stored(ObjectId(id)), k, alpha, variant, deadline_ms: 0 }
}

/// The acceptance bar: served answers are byte-identical to one-shot runs
/// at 1, 2 and 8 connections, with a live SWAP landing mid-run.
#[test]
fn served_answers_are_byte_identical_across_connections_and_a_live_swap() {
    let (path, store) = store_file("determinism", 60);
    let work = workload(60);
    let expected = reference_answers(&store, &work);

    let opts = ServeOptions { workers: 2, ..ServeOptions::default() };
    let index = ServeIndex::mem_from_store(&store);
    let handle = serve(store, index, &ListenAddr::parse("127.0.0.1:0"), &opts).unwrap();
    let addr = handle.addr().to_string();

    let mut control = Client::connect(&addr).unwrap();
    match control.call(&Request::Info).unwrap() {
        Response::Info { objects, epoch, workers } => {
            assert_eq!(objects, 60);
            assert_eq!(epoch, 0);
            assert_eq!(workers, 2);
        }
        other => panic!("INFO: {other:?}"),
    }

    for connections in [1usize, 2, 8] {
        let swap_at = work.len() / 2;
        let answers = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for conn in 0..connections {
                let addr = addr.clone();
                let work = &work;
                handles.push(scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                    let mut out = Vec::new();
                    for (i, &(id, k, alpha, variant)) in work.iter().enumerate() {
                        if i % connections != conn {
                            continue;
                        }
                        match client.call(&aknn_request(id, k, alpha, variant)).unwrap() {
                            Response::Aknn { neighbors, .. } => {
                                out.push((i, fingerprint(&neighbors)));
                            }
                            other => panic!("query {i}: {other:?}"),
                        }
                    }
                    out
                }));
            }
            // A SWAP lands while the query threads are mid-workload. The
            // `:mem:` path bulk-reloads an equivalent tree from the same
            // store, so answers before and after must not differ.
            let mut swapper = Client::connect(&addr).unwrap();
            // Let roughly half the workload drain first.
            std::thread::sleep(Duration::from_millis(20));
            match swapper.call(&Request::Swap { index_path: ":mem:".into() }).unwrap() {
                Response::Swapped { objects, .. } => assert_eq!(objects, 60),
                other => panic!("SWAP at query ~{swap_at}: {other:?}"),
            }

            let mut merged = vec![String::new(); work.len()];
            for h in handles {
                for (i, print) in h.join().unwrap() {
                    merged[i] = print;
                }
            }
            merged
        });
        assert_eq!(
            answers, expected,
            "{connections}-connection run diverged from one-shot answers"
        );
    }

    // The SWAPs published new epochs (one per connection-count round).
    match control.call(&Request::Info).unwrap() {
        Response::Info { epoch, .. } => assert_eq!(epoch, 3),
        other => panic!("INFO after swaps: {other:?}"),
    }
    match control.call(&Request::Stats).unwrap() {
        Response::Stats { served, swaps, errors, .. } => {
            assert_eq!(served, 3 * work.len() as u64);
            assert_eq!(swaps, 3);
            assert_eq!(errors, 0);
        }
        other => panic!("STATS: {other:?}"),
    }

    handle.stop();
    std::fs::remove_file(&path).ok();
}

/// Serving a disk-resident index: a live SWAP between two `.fzpt` files of
/// the same dataset lands mid-run, and every answer — before, during and
/// after, at 1, 2 and 8 connections — is byte-identical to the one-shot
/// engine over the equivalent in-memory tree.
#[test]
fn paged_swap_mid_run_is_byte_identical() {
    let (path, store) = store_file("paged-swap", 60);
    let work = workload(60);
    let expected = reference_answers(&store, &work);

    // Two index files over the same objects.
    let index_files: Vec<PathBuf> = ["a", "b"]
        .iter()
        .map(|tag| {
            let file = path.with_extension(format!("{tag}.fzpt"));
            fuzzy_index::PagedRTree::bulk_write(
                store.summaries().to_vec(),
                fuzzy_index::RTreeConfig::default(),
                &file,
                fuzzy_index::DEFAULT_PAGE_SIZE,
            )
            .unwrap();
            file
        })
        .collect();

    let opts = ServeOptions { workers: 2, ..ServeOptions::default() };
    let index = ServeIndex::open_paged(index_files[0].to_str().unwrap(), 8).unwrap();
    let handle = serve(store, index, &ListenAddr::parse("127.0.0.1:0"), &opts).unwrap();
    let addr = handle.addr().to_string();

    for (round, connections) in [1usize, 2, 8].into_iter().enumerate() {
        // Every round swaps to the file the server is not reading.
        let target = &index_files[(round + 1) % 2];
        let answers = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for conn in 0..connections {
                let addr = addr.clone();
                let work = &work;
                handles.push(scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                    let mut out = Vec::new();
                    for (i, &(id, k, alpha, variant)) in work.iter().enumerate() {
                        if i % connections != conn {
                            continue;
                        }
                        match client.call(&aknn_request(id, k, alpha, variant)).unwrap() {
                            Response::Aknn { neighbors, .. } => {
                                out.push((i, fingerprint(&neighbors)));
                            }
                            other => panic!("query {i}: {other:?}"),
                        }
                    }
                    out
                }));
            }
            let mut swapper = Client::connect(&addr).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            match swapper.call(&Request::Swap { index_path: target.display().to_string() }).unwrap()
            {
                Response::Swapped { objects, .. } => assert_eq!(objects, 60),
                other => panic!("SWAP round {round}: {other:?}"),
            }

            let mut merged = vec![String::new(); work.len()];
            for h in handles {
                for (i, print) in h.join().unwrap() {
                    merged[i] = print;
                }
            }
            merged
        });
        assert_eq!(answers, expected, "{connections}-connection run diverged across the swap");
    }

    let mut control = Client::connect(&addr).unwrap();
    match control.call(&Request::Stats).unwrap() {
        Response::Stats { served, swaps, errors, .. } => {
            assert_eq!(served, 3 * work.len() as u64);
            assert_eq!(swaps, 3);
            assert_eq!(errors, 0);
        }
        other => panic!("STATS: {other:?}"),
    }

    handle.stop();
    for file in &index_files {
        std::fs::remove_file(file).ok();
    }
    std::fs::remove_file(&path).ok();
}

/// A SWAP to the path being served replays only the sidecar over the open
/// base — and must see exactly what a full open would: a tombstoned id is
/// gone, an inserted one answers, a sidecar that tombstones an id the file
/// does not store is the typed `SWAP_FAILED` with the live index
/// untouched. A compacted file (a new inode under the same path), a file
/// rebuilt in place (the same inode, new bytes) and a copy under another
/// path take the full open and answer from what is on disk.
#[test]
fn a_sidecar_only_swap_sees_the_new_delta_and_full_reopens_still_work() {
    use fuzzy_index::{delta_path_for, OverlayRTree, PagedRTree};
    use fuzzy_store::overlay::DeltaLog;

    let (path, store) = store_file("sidecar-swap", 60);
    // Ids 50.. are held out of the index for the writer to insert.
    let summaries = store.summaries().to_vec();
    let index_file = path.with_extension("served.fzpt");
    let target = index_file.display().to_string();
    PagedRTree::bulk_write(
        summaries[..50].to_vec(),
        fuzzy_index::RTreeConfig::default(),
        &index_file,
        fuzzy_index::DEFAULT_PAGE_SIZE,
    )
    .unwrap();

    let opts = ServeOptions { workers: 1, ..ServeOptions::default() };
    let index = ServeIndex::open_paged(&target, 8).unwrap();
    let handle = serve(store, index, &ListenAddr::parse("127.0.0.1:0"), &opts).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Is `id` its own nearest neighbour (distance 0), i.e. live?
    let answers = |client: &mut Client, id: u64| {
        let query = aknn_request(id, 3, 0.5, fuzzy_server::WireVariant::LbLpUb);
        match client.call(&query).unwrap() {
            Response::Aknn { neighbors, .. } => neighbors.iter().any(|n| n.id == ObjectId(id)),
            other => panic!("AKNN {id}: {other:?}"),
        }
    };
    let swap = |client: &mut Client, to: &str| {
        client.call(&Request::Swap { index_path: to.to_string() }).unwrap()
    };
    assert!(answers(&mut client, 7) && !answers(&mut client, 55));

    // The writer's own overlay: one delete, one insert, saved beside the index.
    let mut writer: OverlayRTree<2> = OverlayRTree::open(&index_file).unwrap();
    assert!(writer.delete(ObjectId(7)) && writer.insert(summaries[55]));
    writer.save_delta().unwrap();
    match swap(&mut client, &target) {
        Response::Swapped { epoch, objects } => assert_eq!((epoch, objects), (1, 50)),
        other => panic!("sidecar-only SWAP: {other:?}"),
    }
    assert!(!answers(&mut client, 7) && answers(&mut client, 55));

    // A sidecar that does not belong to this base is refused, typed, and
    // the epoch-1 index keeps answering.
    DeltaLog::<2> { inserted: vec![], tombstones: vec![9_999] }
        .save(delta_path_for(&index_file))
        .unwrap();
    match swap(&mut client, &target) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::SwapFailed);
            assert!(message.contains("9999"), "message {message:?} must name the id");
        }
        other => panic!("a stale sidecar must be refused: {other:?}"),
    }
    match client.call(&Request::Info).unwrap() {
        Response::Info { objects, epoch, .. } => assert_eq!((objects, epoch), (50, 1)),
        other => panic!("INFO: {other:?}"),
    }
    assert!(!answers(&mut client, 7) && answers(&mut client, 55));

    // Compaction renames a new file over the path: the full open, clean.
    assert!(writer.insert(summaries[56]));
    writer.compact(fuzzy_index::DEFAULT_PAGE_SIZE).unwrap();
    match swap(&mut client, &target) {
        Response::Swapped { epoch, objects } => assert_eq!((epoch, objects), (2, 51)),
        other => panic!("SWAP after compaction: {other:?}"),
    }
    assert!(!answers(&mut client, 7) && answers(&mut client, 55) && answers(&mut client, 56));

    // `fkq build-index` rebuilds in place: the same inode and length, new
    // bytes under the open descriptor — the times tell, the full open. (The
    // pause outlasts the tick of a file system with coarse timestamps.)
    std::thread::sleep(Duration::from_millis(50));
    PagedRTree::bulk_write(
        summaries[10..].to_vec(),
        fuzzy_index::RTreeConfig::default(),
        &index_file,
        fuzzy_index::DEFAULT_PAGE_SIZE,
    )
    .unwrap();
    match swap(&mut client, &target) {
        Response::Swapped { epoch, objects } => assert_eq!((epoch, objects), (3, 50)),
        other => panic!("SWAP after an in-place rebuild: {other:?}"),
    }
    assert!(!answers(&mut client, 3) && answers(&mut client, 12) && answers(&mut client, 58));

    // The same bytes under another path: another file, the full open.
    let copy = path.with_extension("copy.fzpt");
    std::fs::copy(&index_file, &copy).unwrap();
    match swap(&mut client, &copy.display().to_string()) {
        Response::Swapped { epoch, objects } => assert_eq!((epoch, objects), (4, 50)),
        other => panic!("SWAP to a copy: {other:?}"),
    }
    assert!(!answers(&mut client, 3) && answers(&mut client, 58));

    match client.call(&Request::Stats).unwrap() {
        Response::Stats { swaps, errors, .. } => assert_eq!((swaps, errors), (4, 1)),
        other => panic!("STATS: {other:?}"),
    }
    handle.stop();
    for file in [&index_file, &copy, &path] {
        std::fs::remove_file(file).ok();
    }
}

/// A sidecar whose checksum holds but whose insert count is 2^59 (its
/// length sum wraps to 0 in a release build and overflows in a debug one)
/// is refused on the SWAP's own connection, typed `SWAP_FAILED`, and the
/// same connection then answers INFO from the index it had.
#[test]
fn a_sidecar_with_wrapping_counts_is_swap_failed_and_the_connection_survives() {
    use fuzzy_index::{delta_path_for, PagedRTree};
    use fuzzy_store::format::fnv1a;
    use fuzzy_store::overlay::DeltaLog;

    let (path, store) = store_file("wrapping-sidecar", 30);
    let index_file = path.with_extension("wrapping.fzpt");
    let summaries = store.summaries().to_vec();
    let config = fuzzy_index::RTreeConfig::default();
    PagedRTree::bulk_write(summaries, config, &index_file, fuzzy_index::DEFAULT_PAGE_SIZE).unwrap();
    let target = index_file.display().to_string();
    let index = ServeIndex::open_paged(&target, 8).unwrap();
    let handle =
        serve(store, index, &ListenAddr::parse("127.0.0.1:0"), &ServeOptions::default()).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Four tombstones after an insert count of 2^59, checksum re-stamped.
    let mut bytes = DeltaLog::<2> { inserted: vec![], tombstones: vec![1, 2, 3, 4] }.to_bytes();
    bytes[8..16].copy_from_slice(&(1u64 << 59).to_le_bytes());
    let end = bytes.len() - 8;
    let sum = fnv1a(&bytes[..end]);
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(delta_path_for(&index_file), &bytes).unwrap();

    match client.call(&Request::Swap { index_path: target }).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::SwapFailed);
            assert!(message.contains("count"), "{message}");
        }
        other => panic!("a sidecar with wrapping counts must be refused: {other:?}"),
    }
    match client.call(&Request::Info).unwrap() {
        Response::Info { objects, epoch, .. } => assert_eq!((objects, epoch), (30, 0)),
        other => panic!("INFO: {other:?}"),
    }
    handle.stop();
    for file in [delta_path_for(&index_file), index_file, path] {
        std::fs::remove_file(file).ok();
    }
}

/// A path that names one of the three deleted index layouts — a `.fzsm`
/// shard manifest, a `.fzlh` hash-table file, a `.fzmt` M-tree — is no
/// index at all: a SWAP
/// to it fails as any non-index file does, typed `SWAP_FAILED`, whether
/// the file is missing or holds an old build's bytes, and the connection
/// and the live index carry on.
#[test]
fn swap_to_a_deleted_format_is_swap_failed_and_the_connection_survives() {
    let (path, store) = store_file("gone-formats", 30);
    let index = ServeIndex::mem_from_store(&store);
    let handle =
        serve(store, index, &ListenAddr::parse("127.0.0.1:0"), &ServeOptions::default()).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    for (ext, magic) in [("fzsm", b"FZSM"), ("fzlh", b"FZLH"), ("fzmt", b"FZMT")] {
        let missing = path.with_extension(format!("missing.{ext}"));
        let stale = path.with_extension(format!("stale.{ext}"));
        // Header of a file an earlier build wrote: magic, version 1, two
        // dimensions, then whatever followed.
        let mut image = magic.to_vec();
        image.extend_from_slice(&[1, 0, 2, 0]);
        image.extend_from_slice(&[0x5A; 120]);
        std::fs::write(&stale, image).unwrap();

        for target in [&missing, &stale] {
            let swap = Request::Swap { index_path: target.display().to_string() };
            match client.call(&swap).unwrap() {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::SwapFailed, "swap to {}", target.display());
                    assert!(!message.is_empty());
                }
                other => panic!("swap to {} must fail: {other:?}", target.display()),
            }
            // Same connection, same epoch-0 index, still answering.
            match client.call(&Request::Info).unwrap() {
                Response::Info { objects, epoch, .. } => assert_eq!((objects, epoch), (30, 0)),
                other => panic!("INFO: {other:?}"),
            }
            let query = aknn_request(3, 4, 0.5, fuzzy_server::WireVariant::LbLpUb);
            assert!(matches!(client.call(&query).unwrap(), Response::Aknn { .. }));
        }
        std::fs::remove_file(&stale).ok();
    }

    match client.call(&Request::Stats).unwrap() {
        Response::Stats { swaps, errors, .. } => assert_eq!((swaps, errors), (0, 6)),
        other => panic!("STATS: {other:?}"),
    }
    handle.stop();
    std::fs::remove_file(&path).ok();
}

/// An expired deadline must surface as DEADLINE_EXCEEDED — and the same
/// connection must keep working afterwards.
///
/// The frames are written raw, back-to-back, against a single-worker
/// server: heavy naive-RKNNs occupy the worker, so by the time the
/// 1 ms-deadline query leaves the queue its deadline has long passed.
#[test]
fn expired_deadline_is_typed_and_does_not_stall_the_connection() {
    // Big enough that even a release build spends well over the doomed
    // query's 1 ms deadline on the Θ(N²) heavy frames ahead of it.
    let (path, store) = store_file("deadline", 400);
    let index = ServeIndex::mem_from_store(&store);
    let opts = ServeOptions { workers: 1, queue_depth: 8, ..ServeOptions::default() };
    let handle = serve(store, index, &ListenAddr::parse("127.0.0.1:0"), &opts).unwrap();
    let ListenAddr::Tcp(addr) = handle.addr().clone() else { panic!("tcp") };

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    use std::io::Write as _;

    // Frames 1–3: heavy — naive RKNN is Θ(N²) profile computations.
    let heavies: Vec<Request> = (0..3)
        .map(|i| Request::Rknn {
            query: QuerySource::Stored(ObjectId(i)),
            k: 8,
            alpha_start: 0.2,
            alpha_end: 0.8,
            algo: fuzzy_query::RknnAlgorithm::Naive,
            variant: fuzzy_server::WireVariant::Basic,
            deadline_ms: 0,
        })
        .collect();
    // Frame 4: 1 ms deadline, queued behind the heavy queries (admission
    // stamps the deadline, so queue wait counts against it).
    let doomed = Request::Aknn {
        query: QuerySource::Stored(ObjectId(4)),
        k: 5,
        alpha: 0.5,
        variant: fuzzy_server::WireVariant::LbLpUb,
        deadline_ms: 1,
    };
    // Frame 5: no deadline — must still be answered normally.
    let after = aknn_request(5, 5, 0.5, fuzzy_server::WireVariant::LbLpUb);

    let mut burst = Vec::new();
    for (i, heavy) in heavies.iter().enumerate() {
        burst.extend_from_slice(&heavy.encode(i as u64 + 1));
    }
    burst.extend_from_slice(&doomed.encode(4));
    burst.extend_from_slice(&after.encode(5));
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();

    let mut responses = Vec::new();
    for _ in 0..5 {
        let frame = read_frame(&mut stream).unwrap().expect("response");
        responses
            .push((frame.request_id, Response::decode(frame.frame_type, &frame.payload).unwrap()));
    }
    responses.sort_by_key(|(id, _)| *id);

    for heavy in &responses[..3] {
        assert!(matches!(heavy.1, Response::Rknn { .. }), "heavy: {heavy:?}");
    }
    match &responses[3].1 {
        Response::Error { code, .. } => assert_eq!(*code, ErrorCode::DeadlineExceeded),
        other => panic!("doomed request: {other:?}"),
    }
    assert!(
        matches!(responses[4].1, Response::Aknn { .. }),
        "connection stalled after deadline: {:?}",
        responses[4]
    );

    // The counter ticked, and only once.
    let mut control = Client::connect(&handle.addr().to_string()).unwrap();
    match control.call(&Request::Stats).unwrap() {
        Response::Stats { deadline_exceeded, .. } => assert_eq!(deadline_exceeded, 1),
        other => panic!("STATS: {other:?}"),
    }

    handle.stop();
    std::fs::remove_file(&path).ok();
}

/// With one worker and a queue of one, a burst over a unix socket must be
/// shed with BUSY — never buffered or dropped without an answer.
#[test]
fn full_queue_sheds_busy_over_unix_socket() {
    let (path, store) = store_file("busy", 120);
    let index = ServeIndex::mem_from_store(&store);
    let socket = std::env::temp_dir().join(format!("fuzzy-serve-busy-{}.sock", std::process::id()));
    let opts = ServeOptions { workers: 1, queue_depth: 1, ..ServeOptions::default() };
    let handle =
        serve(store, index, &ListenAddr::parse(&format!("unix:{}", socket.display())), &opts)
            .unwrap();

    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    use std::io::Write as _;

    // A burst of slow queries: the first occupies the worker, the second
    // fits the queue, the rest must bounce with BUSY immediately.
    let burst_len = 12u64;
    let mut burst = Vec::new();
    for i in 0..burst_len {
        let slow = Request::Rknn {
            query: QuerySource::Stored(ObjectId(i)),
            k: 4,
            alpha_start: 0.2,
            alpha_end: 0.8,
            algo: fuzzy_query::RknnAlgorithm::Naive,
            variant: fuzzy_server::WireVariant::Basic,
            deadline_ms: 0,
        };
        burst.extend_from_slice(&slow.encode(i + 1));
    }
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();

    let (mut answered, mut busy) = (0u64, 0u64);
    for _ in 0..burst_len {
        let frame = read_frame(&mut stream).unwrap().expect("response");
        match Response::decode(frame.frame_type, &frame.payload).unwrap() {
            Response::Rknn { .. } => answered += 1,
            Response::Busy => busy += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(answered >= 1, "at least the first query must run");
    assert!(busy >= burst_len - 2, "a full queue must shed, got only {busy} BUSY");
    assert_eq!(answered + busy, burst_len);

    // The server survived the burst and still answers.
    let mut control = Client::connect(&format!("unix:{}", socket.display())).unwrap();
    match control.call(&Request::Stats).unwrap() {
        Response::Stats { busy: shed, .. } => assert_eq!(shed, busy),
        other => panic!("STATS: {other:?}"),
    }

    handle.stop();
    assert!(!socket.exists(), "stale socket file must be removed on shutdown");
    std::fs::remove_file(&path).ok();
}

/// SHUTDOWN over the wire acknowledges, then the daemon exits and the
/// address stops accepting work.
#[test]
fn shutdown_frame_stops_the_daemon() {
    let (path, store) = store_file("shutdown", 30);
    let index = ServeIndex::mem_from_store(&store);
    let handle =
        serve(store, index, &ListenAddr::parse("127.0.0.1:0"), &ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    assert!(matches!(client.call(&Request::Shutdown).unwrap(), Response::ShutdownAck));
    assert!(handle.is_shutting_down());

    // `fkq serve` parks in join(); the SHUTDOWN frame alone must wake the
    // blocked accept loop, or the daemon never exits. Bound-wait for it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("join() must return after a SHUTDOWN frame without an extra connection");
    std::fs::remove_file(&path).ok();
}

/// A SWAP to a pristine approximate candidate index answers the typed
/// `IndexMismatch`, naming the mismatch, and does not swap: the previous
/// snapshot keeps serving byte-identical answers. A bad alpha on the same
/// connection stays a typed `InvalidArgument`.
#[test]
fn approximate_index_swap_is_a_typed_mismatch() {
    use fuzzy_core::metric::L2;
    use fuzzy_index::{RTree, RTreeConfig, VpTree, VpTreeConfig};

    let (path, store) = store_file("swap-approx", 48);
    let vp_path = path.with_extension("fzvp");
    VpTree::build(&L2, store.summaries(), VpTreeConfig::default()).save(&vp_path).unwrap();

    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let q = store.probe(ObjectId(7)).unwrap().as_ref().clone();
    let request = BatchRequest::aknn(q, 5, 0.5, fuzzy_query::AknnConfig::lb_lp_ub());
    let want = match execute_one(&engine, &request, &mut QueryScratch::new()).unwrap() {
        fuzzy_query::BatchResponse::Aknn(r) => fingerprint(&r.neighbors),
        other => panic!("local AKNN: {other:?}"),
    };

    let index = ServeIndex::mem_from_store(&store);
    let handle =
        serve(store, index, &ListenAddr::parse("127.0.0.1:0"), &ServeOptions::default()).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    match client.call(&Request::Swap { index_path: vp_path.display().to_string() }).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::IndexMismatch, "swap to {}", vp_path.display());
            assert!(message.contains("approximate"), "message {message:?} must name the mismatch");
        }
        other => panic!("swap to {} must be rejected: {other:?}", vp_path.display()),
    }
    match client.call(&Request::Info).unwrap() {
        Response::Info { objects, epoch, .. } => assert_eq!((objects, epoch), (48, 0)),
        other => panic!("INFO: {other:?}"),
    }
    match client.call(&aknn_request(7, 5, 0.5, fuzzy_server::WireVariant::LbLpUb)).unwrap() {
        Response::Aknn { neighbors, .. } => assert_eq!(fingerprint(&neighbors), want),
        other => panic!("AKNN after a refused swap: {other:?}"),
    }
    match client.call(&aknn_request(3, 5, 0.0, fuzzy_server::WireVariant::Basic)).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::InvalidArgument),
        other => panic!("alpha=0 must be rejected: {other:?}"),
    }

    handle.stop();
    for p in [&path, &vp_path] {
        std::fs::remove_file(p).ok();
    }
}
