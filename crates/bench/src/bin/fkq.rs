//! `fkq` — a small command-line front end for fuzzy-knn stores.
//!
//! ```sh
//! fkq generate --kind cell --n 1000 --ppo 200 --out cells.fzkn
//! fkq info cells.fzkn
//! fkq build-index cells.fzkn --out cells.fzpt
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --index-file cells.fzpt
//! fkq rknn cells.fzkn --k 10 --start 0.3 --end 0.7 --algo rss-icr
//! fkq insert cells.fzkn --index-file cells.fzpt --ids 7,8,9
//! fkq delete --index-file cells.fzpt --ids 3,4
//! fkq compact --index-file cells.fzpt
//! fkq serve cells.fzkn --listen 127.0.0.1:7878
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --server 127.0.0.1:7878
//! fkq swap --addr 127.0.0.1:7878 --index-file cells.fzpt
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --brute true
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --recall-dial 1.5 --measure-recall true
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --recall-dial exact
//! ```
//!
//! Query subcommands bulk-load an in-memory R-tree by default; pass
//! `--index-file` to run against a persisted paged index built with
//! `build-index` instead (see `docs/FORMAT.md` for the file layout).
//! The index file is immutable until compaction: `insert`/`delete`
//! accumulate changes in a checksummed sidecar delta log
//! (`<index>.fzdl`) which every query subcommand replays automatically;
//! `compact` folds base + delta into a freshly bulk-loaded file.
//! `aknn --recall-dial` answers through a VP-tree built in memory over the
//! store's expected centers; the approximate index is never stored.
//!
//! `serve` keeps a store/index pair resident behind the FZQP binary
//! protocol (`docs/PROTOCOL.md`); `aknn`/`rknn --server` run the same
//! query through a daemon and print byte-identical answers; `swap`
//! publishes a new index epoch without restarting the daemon.
//! Throughput and latency are measured by fkbench (`benchmark/`), not here.

use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, Threshold};
use fuzzy_datagen::{CellConfig, SyntheticConfig};
use fuzzy_index::{delta_path_for, NodeAccess, OverlayRTree, PagedRTree, RTree, RTreeConfig};
use fuzzy_query::{aknn_brute, AknnConfig, QueryEngine, QueryError, QueryStats, RknnAlgorithm};
use fuzzy_server::{
    serve, Client, ListenAddr, QuerySource, Request, Response, ServeIndex, ServeOptions,
    WireVariant,
};
use fuzzy_store::{FileStore, ObjectStore, StoreError};
use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  fkq generate --kind <synthetic|cell> --n <count> [--ppo <points>] [--seed <u64>] \
[--radius <r> (synthetic)] --out <path>
  fkq info <path> [--index-file <path> [--cache-pages <n>]]
  fkq build-index <path> --out <index-path> [--page-size <bytes>] [--max-entries <n>]
  fkq aknn <path> --k <k> --alpha <a> [--query-id <id> | --query-seed <u64>] \
[--variant <basic|lb|lb-lp|lb-lp-ub>] [--deadline-ms <n>] \
[--index-file <path> [--cache-pages <n>] | --server <addr>] [--brute <true|false>] \
[--recall-dial <exact|v>] [--measure-recall <true|false>]
  fkq rknn <path> --k <k> --start <a> --end <a> [--algo <naive|basic|rss|rss-icr>] \
[--query-id <id> | --query-seed <u64>] [--variant <basic|lb|lb-lp|lb-lp-ub>] [--deadline-ms <n>] \
[--index-file <path> [--cache-pages <n>] | --server <addr>]
  fkq insert <path> --index-file <index> --ids <csv> [--cache-pages <n>]
  fkq delete --index-file <index> --ids <csv> [--cache-pages <n>]
  fkq compact --index-file <index> [--page-size <bytes>] [--cache-pages <n>]
  fkq serve <path> [--listen <host:port|unix:path>] [--index-file <path>] [--workers <n>] \
[--queue-depth <n>] [--cache-pages <n>]
  fkq swap --addr <host:port|unix:path> --index-file <path|:mem:>
  fkq shutdown --addr <host:port|unix:path>
A flag the command does not read on the path its other flags pick is a usage error: \
aknn's approximate path (--recall-dial) reads no --variant, --deadline-ms, --index-file, \
--server or --brute; --brute true reads none of those nor an index flag; \
rknn --algo naive reads no --variant.";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 >= args.len() {
                eprintln!("flag --{name} needs a value");
                usage();
            }
            flags.insert(name.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            pos.push(args[i].clone());
            i += 1;
        }
    }
    (pos, flags)
}

/// Refuse every flag outside `reads`, the flags `what` reads on the path
/// its other flags picked: a flag nothing reads would be silently ignored,
/// so it is a usage error that names the flag instead.
fn reads_only(flags: &HashMap<String, String>, what: &str, reads: &[&str]) {
    let mut ignored: Vec<&str> =
        flags.keys().map(String::as_str).filter(|flag| !reads.contains(flag)).collect();
    if ignored.is_empty() {
        return;
    }
    ignored.sort_unstable();
    for flag in ignored {
        eprintln!("{what} does not read --{flag}");
    }
    usage()
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    flags.get(key).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v}");
            usage()
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if matches!(args[0].as_str(), "--help" | "-h" | "help") {
        println!("fkq — query fuzzy-knn object stores\n\n{USAGE}");
        return;
    }
    let (pos, flags) = parse_flags(&args[1..]);
    match args[0].as_str() {
        "generate" => generate(&flags),
        "info" => info(pos.first().unwrap_or_else(|| usage()), &flags),
        "build-index" => build_index(pos.first().unwrap_or_else(|| usage()), &flags),
        "aknn" => aknn(pos.first().unwrap_or_else(|| usage()), &flags),
        "rknn" => rknn(pos.first().unwrap_or_else(|| usage()), &flags),
        "insert" => insert_cmd(pos.first().unwrap_or_else(|| usage()), &flags),
        "delete" => delete_cmd(&flags),
        "compact" => compact_cmd(&flags),
        "serve" => serve_cmd(pos.first().unwrap_or_else(|| usage()), &flags),
        "swap" => swap_cmd(&flags),
        "shutdown" => shutdown_cmd(&flags),
        _ => usage(),
    }
}

fn generate(flags: &HashMap<String, String>) {
    let kind = flags.get("kind").cloned().unwrap_or_else(|| "synthetic".into());
    let mut reads = vec!["kind", "n", "ppo", "seed", "out"];
    if kind == "synthetic" {
        reads.push("radius");
    }
    reads_only(flags, &format!("generate --kind {kind}"), &reads);
    let n: usize = get(flags, "n").unwrap_or(1_000);
    let ppo: usize = get(flags, "ppo").unwrap_or(200);
    let seed: u64 = get(flags, "seed").unwrap_or(42);
    let out = flags.get("out").cloned().unwrap_or_else(|| usage());
    let store = match kind.as_str() {
        "synthetic" => {
            let base = SyntheticConfig::default();
            let cfg = SyntheticConfig {
                num_objects: n,
                points_per_object: ppo,
                seed,
                radius: get(flags, "radius").unwrap_or(base.radius),
                ..base
            };
            fuzzy_datagen::write_dataset(&out, cfg.generate())
        }
        "cell" => {
            let cfg =
                CellConfig { num_objects: n, points_per_object: ppo, seed, ..Default::default() };
            fuzzy_datagen::write_dataset(&out, cfg.generate())
        }
        other => {
            eprintln!("unknown kind {other}");
            usage()
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("generation failed: {e}");
        exit(1)
    });
    println!("wrote {} objects to {out}", store.len());
}

/// AKNN by the brute-force oracle (`--brute true`): every object
/// evaluated, no index. Answer lines print in the same format as the
/// indexed paths so outputs diff cleanly.
fn run_brute_aknn(store: &FileStore<2>, q: &FuzzyObject<2>, k: usize, alpha: f64) {
    let res = answered(aknn_brute(&L2, store, &store.ids(), q, k, valid_alpha(alpha)));
    println!("{k}NN of {} at α = {alpha} (brute-force oracle):", q.id());
    for n in &res.neighbors {
        println!("  {n}");
    }
    println!(
        "cost: {} object accesses, {} distance evals, {:?}",
        res.stats.object_accesses, res.stats.distance_evals, res.stats.wall
    );
}

fn csv_list<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<Vec<T>> {
    flags.get(key).map(|v| {
        v.split(',')
            .map(|item| {
                item.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad value in --{key}: {item}");
                    usage()
                })
            })
            .collect()
    })
}

fn open(path: &str) -> FileStore<2> {
    FileStore::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1)
    })
}

fn cache_pages(flags: &HashMap<String, String>) -> usize {
    get(flags, "cache-pages").unwrap_or(fuzzy_index::DEFAULT_CACHE_PAGES)
}

/// Open a persisted index that has no sidecar delta log: the bare paged
/// tree. (An index *with* pending inserts/deletes opens through
/// [`open_overlay`], which replays them.)
fn open_paged(path: &str, flags: &HashMap<String, String>) -> PagedRTree<2> {
    PagedRTree::open_with_cache(path, cache_pages(flags)).unwrap_or_else(|e| {
        eprintln!("cannot open index {path}: {e}");
        exit(1)
    })
}

/// Open an index through its overlay, replaying the sidecar delta log if
/// one exists: the mutable view, and how fresh processes see pending
/// inserts/deletes.
fn open_overlay(path: &str, flags: &HashMap<String, String>) -> OverlayRTree<2> {
    OverlayRTree::open_with_cache(path, cache_pages(flags)).unwrap_or_else(|e| {
        eprintln!("cannot open index {path}: {e}");
        exit(1)
    })
}

/// Insert summaries of store objects (by id) into a persisted index's
/// overlay.
fn insert_cmd(path: &str, flags: &HashMap<String, String>) {
    reads_only(flags, "insert", &["index-file", "ids", "cache-pages"]);
    let store = open(path);
    let ix = flags.get("index-file").cloned().unwrap_or_else(|| usage());
    let ids: Vec<u64> = csv_list(flags, "ids").unwrap_or_else(|| usage());
    let mut overlay = open_overlay(&ix, flags);
    let mut inserted = 0usize;
    for id in ids {
        let Some(summary) = store.summaries().iter().find(|s| s.id.0 == id) else {
            eprintln!("{path} stores no object {id}");
            exit(1)
        };
        match overlay.insert(*summary) {
            true => inserted += 1,
            false => eprintln!("id {id} is already indexed; skipped"),
        }
    }
    overlay.save_delta().unwrap_or_else(|e| {
        eprintln!("cannot write delta log: {e}");
        exit(1)
    });
    println!(
        "inserted {inserted} into {ix}: {} live objects (pending +{} -{})",
        NodeAccess::len(&overlay),
        overlay.pending_inserts(),
        overlay.pending_tombstones(),
    );
}

/// Tombstone ids out of a persisted index's overlay.
fn delete_cmd(flags: &HashMap<String, String>) {
    reads_only(flags, "delete", &["index-file", "ids", "cache-pages"]);
    let ix = flags.get("index-file").cloned().unwrap_or_else(|| usage());
    let ids: Vec<u64> = csv_list(flags, "ids").unwrap_or_else(|| usage());
    let mut overlay = open_overlay(&ix, flags);
    let mut deleted = 0usize;
    for id in ids {
        match overlay.delete(fuzzy_core::ObjectId(id)) {
            true => deleted += 1,
            false => eprintln!("id {id} is not indexed; skipped"),
        }
    }
    overlay.save_delta().unwrap_or_else(|e| {
        eprintln!("cannot write delta log: {e}");
        exit(1)
    });
    println!(
        "deleted {deleted} from {ix}: {} live objects (pending +{} -{})",
        NodeAccess::len(&overlay),
        overlay.pending_inserts(),
        overlay.pending_tombstones(),
    );
}

/// Fold a persisted index's overlay back into the file (STR bulk reload).
fn compact_cmd(flags: &HashMap<String, String>) {
    reads_only(flags, "compact", &["index-file", "page-size", "cache-pages"]);
    let ix = flags.get("index-file").cloned().unwrap_or_else(|| usage());
    let overlay = open_overlay(&ix, flags);
    let page_size: u32 = get(flags, "page-size").unwrap_or(overlay.base().page_size());
    let pending = (overlay.pending_inserts(), overlay.pending_tombstones());
    let started = std::time::Instant::now();
    let tree = overlay.compact(page_size).unwrap_or_else(|e| {
        refuse_page_size(&e);
        eprintln!("compaction failed: {e}");
        exit(1)
    });
    println!(
        "compacted {ix}: folded +{} -{} into {} pages of at most {page_size} bytes, {} objects, \
         height {}, {:?}",
        pending.0,
        pending.1,
        tree.page_count(),
        tree.len(),
        NodeAccess::height(&tree),
        started.elapsed()
    );
}

/// A `--page-size` too small for the nodes it must hold is bad input, not
/// a failed write: a usage error naming the flag.
fn refuse_page_size(e: &StoreError) {
    if let StoreError::PageOverflow { needed, page_size } = e {
        eprintln!("--page-size {page_size} is too small: pages must hold {needed} bytes");
        usage();
    }
}

fn info(path: &str, flags: &HashMap<String, String>) {
    match flags.contains_key("index-file") {
        true => reads_only(flags, "info", &["index-file", "cache-pages"]),
        false => reads_only(flags, "info without --index-file", &[]),
    }
    let store = open(path);
    println!("{path}: {} objects", store.len());
    let total_points: u64 = store.summaries().iter().map(|s| s.point_count as u64).sum();
    println!("  total points: {total_points}");
    let mut bbox = fuzzy_geom::Mbr::<2>::empty();
    for s in store.summaries() {
        bbox.expand_mbr(&s.support_mbr);
    }
    println!("  bounding box: {bbox:?}");
    if let Some(ix) = flags.get("index-file") {
        if delta_path_for(ix).exists() {
            let tree = open_overlay(ix, flags);
            println!(
                "  paged index {ix}: height {}, {} pages of at most {} bytes, C_max {}, \
                 overlay +{} -{} ({} live)",
                NodeAccess::height(tree.base()),
                tree.base().page_count(),
                tree.base().page_size(),
                tree.config().max_entries,
                tree.pending_inserts(),
                tree.pending_tombstones(),
                NodeAccess::len(&tree),
            );
        } else {
            let tree = open_paged(ix, flags);
            println!(
                "  paged index {ix}: height {}, {} pages of at most {} bytes, C_max {}",
                NodeAccess::height(&tree),
                tree.page_count(),
                tree.page_size(),
                tree.config().max_entries
            );
        }
    } else {
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        let leaves = tree.leaf_count().expect("an image reads");
        println!(
            "  R-tree: height {}, {leaves} leaves, avg fill {:.1}",
            NodeAccess::height(&tree),
            tree.len() as f64 / leaves as f64
        );
    }
}

/// Build a persistent paged index over a store's summaries (see
/// `docs/FORMAT.md`).
fn build_index(path: &str, flags: &HashMap<String, String>) {
    let out = flags.get("out").cloned().unwrap_or_else(|| usage());
    reads_only(flags, "build-index", &["out", "page-size", "max-entries"]);
    let store = open(path);
    let page_size: u32 = get(flags, "page-size").unwrap_or(fuzzy_index::DEFAULT_PAGE_SIZE);
    let config = RTreeConfig {
        max_entries: get(flags, "max-entries").unwrap_or(RTreeConfig::default().max_entries),
    };
    let started = std::time::Instant::now();
    let tree = PagedRTree::bulk_write(store.summaries().to_vec(), config, &out, page_size)
        .unwrap_or_else(|e| {
            if let StoreError::FanoutTooSmall { max_entries } = e {
                eprintln!("--max-entries must be at least 2, got {max_entries}");
                usage();
            }
            refuse_page_size(&e);
            eprintln!("cannot build index: {e}");
            exit(1)
        });
    println!(
        "wrote {out}: {} objects in {} pages of at most {page_size} bytes, height {}, {:?}",
        tree.len(),
        tree.page_count(),
        NodeAccess::height(&tree),
        started.elapsed()
    );
}

fn query_object(
    path: &str,
    store: &FileStore<2>,
    flags: &HashMap<String, String>,
) -> FuzzyObject<2> {
    // Query by dataset object id, or a pseudo-random member.
    let id = match get::<u64>(flags, "query-id") {
        Some(id) => fuzzy_core::ObjectId(id),
        None => {
            let seed: u64 = get(flags, "query-seed").unwrap_or(7);
            let ids = store.ids();
            if ids.is_empty() {
                eprintln!("{path} stores no objects to query");
                exit(1)
            }
            ids[(seed as usize) % ids.len()]
        }
    };
    store
        .probe(id)
        .unwrap_or_else(|e| {
            eprintln!("cannot load query object {} from {path}: {e}", id.0);
            exit(1)
        })
        .as_ref()
        .clone()
}

/// The index a local query runs over, as `--index-file` selects it: a
/// paged tree with its delta overlay replayed, the bare paged tree, or (no
/// flag) a freshly bulk-loaded in-memory image.
fn local_index(store: &FileStore<2>, flags: &HashMap<String, String>) -> Arc<dyn NodeAccess<2>> {
    match flags.get("index-file") {
        Some(ix) if delta_path_for(ix).exists() => Arc::new(open_overlay(ix, flags)),
        Some(ix) => Arc::new(open_paged(ix, flags)),
        None => Arc::new(RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default())),
    }
}

/// The engine configuration of a local query: the `--variant` a daemon
/// would run, with the `--deadline-ms` budget counted from now, as a
/// daemon counts it from admission.
fn local_config(variant: WireVariant, deadline_ms: u32) -> AknnConfig {
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms.into()));
    variant.config().with_deadline(deadline)
}

/// A local query's answer, or its error reported: exit 2 for an argument
/// the query refuses (a probability or range outside (0, 1], `k` = 0),
/// as for any other bad input; exit 1 for the rest.
fn answered<T>(res: Result<T, QueryError>) -> T {
    res.unwrap_or_else(|e| {
        eprintln!("query failed: {e}");
        use QueryError::{InvalidProbability, InvalidRange, ZeroK};
        exit(if matches!(e, InvalidProbability { .. } | InvalidRange { .. } | ZeroK) {
            2
        } else {
            1
        })
    })
}

/// `--alpha` as the threshold it names, or exit 2 when it lies outside
/// (0, 1].
fn valid_alpha(alpha: f64) -> Threshold {
    if !(alpha > 0.0 && alpha <= 1.0) {
        eprintln!("--alpha must lie in (0, 1]; got {alpha}");
        exit(2)
    }
    Threshold::at(alpha)
}

/// Resolve the `--recall-dial` flag (`exact` or a numeric budget/slack).
fn recall_dial(flags: &HashMap<String, String>) -> fuzzy_index::RecallDial {
    let raw = flags.get("recall-dial").map(String::as_str).unwrap_or("1");
    fuzzy_index::RecallDial::parse(raw).unwrap_or_else(|| {
        eprintln!("bad --recall-dial {raw}: expected 'exact' or a finite value >= 0");
        usage()
    })
}

/// AKNN through the approximate path: a candidate pool from a VP-tree
/// built in memory from the store's summaries, resolved through the
/// exact probe loop — distances stay exact, only recall follows the dial.
/// `--measure-recall true` runs the exact engine alongside and prints the
/// measured recall@k.
fn run_approx_aknn(
    store: &FileStore<2>,
    q: &FuzzyObject<2>,
    k: usize,
    alpha: f64,
    flags: &HashMap<String, String>,
) {
    let t = valid_alpha(alpha);
    let dial = recall_dial(flags);
    let index = fuzzy_index::VpTree::build(&L2, store.summaries());
    let res = answered(fuzzy_query::approx_aknn(&L2, &index, store, q, k, t, dial));
    println!("{k}NN of {} at α = {alpha} (approx vptree, dial {}):", q.id(), dial.label());
    for n in &res.neighbors {
        println!("  {n}");
    }
    println!(
        "cost: {} object accesses, {} bound evals, {:?}",
        res.stats.object_accesses, res.stats.bound_evals, res.stats.wall
    );
    if get::<bool>(flags, "measure-recall").unwrap_or(false) {
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        let exact = QueryEngine::new(&tree, store)
            .aknn(q, k, alpha, &AknnConfig::lb_lp_ub())
            .unwrap_or_else(|e| {
                eprintln!("exact reference failed: {e}");
                exit(1)
            });
        println!("recall@{k}: {:.4}", fuzzy_query::recall_at_k(&res, &exact));
    }
}

/// The flag that picks the query object: `--query-id`, else `--query-seed`.
fn query_flag(flags: &HashMap<String, String>) -> &'static str {
    if flags.contains_key("query-id") {
        "query-id"
    } else {
        "query-seed"
    }
}

/// Refuse the flags an exact query (`aknn` or `rknn`, named by `cmd`) does
/// not read: `reads` plus the flags of where it runs — a daemon, an index
/// file, or the in-memory index.
fn exact_reads_only(flags: &HashMap<String, String>, cmd: &str, reads: &[&str]) {
    let (place, place_reads): (&str, &[&str]) = if flags.contains_key("server") {
        ("through --server", &["server"])
    } else if flags.contains_key("index-file") {
        ("over --index-file", &["index-file", "cache-pages"])
    } else {
        ("over the in-memory index", &[])
    };
    let common = ["deadline-ms", query_flag(flags)];
    reads_only(flags, &format!("{cmd} {place}"), &[reads, &common, place_reads].concat());
}

fn aknn(path: &str, flags: &HashMap<String, String>) {
    let wants_approx = flags.contains_key("recall-dial");
    let brute = !wants_approx && get::<bool>(flags, "brute").unwrap_or(false);
    let query = ["k", "alpha", query_flag(flags)];
    if wants_approx {
        let approx = ["recall-dial", "measure-recall"];
        reads_only(flags, "approximate aknn", &[&query[..], &approx].concat());
    } else if brute {
        reads_only(flags, "aknn --brute true", &[&query[..], &["brute"]].concat());
    } else {
        exact_reads_only(flags, "aknn", &["k", "alpha", "brute", "variant"]);
    }
    let store = open(path);
    let k: usize = get(flags, "k").unwrap_or(10);
    let alpha: f64 = get(flags, "alpha").unwrap_or(0.5);
    let q = query_object(path, &store, flags);
    if wants_approx {
        run_approx_aknn(&store, &q, k, alpha, flags);
        return;
    }
    if brute {
        run_brute_aknn(&store, &q, k, alpha);
        return;
    }
    let (variant, deadline_ms) = (wire_variant(flags), get(flags, "deadline-ms").unwrap_or(0));
    let (neighbors, stats) = match flags.get("server") {
        Some(addr) => {
            let query = QuerySource::Stored(q.id());
            let request = Request::Aknn { query, k: k as u32, alpha, variant, deadline_ms };
            match call(&mut connect(addr), &request) {
                Response::Aknn { neighbors, stats } => (neighbors, stats.to_query_stats()),
                other => unexpected(&other),
            }
        }
        None => {
            let index = local_index(&store, flags);
            let cfg = local_config(variant, deadline_ms);
            let res = answered(QueryEngine::new(&index, &store).aknn(&q, k, alpha, &cfg));
            (res.neighbors, res.stats)
        }
    };
    println!("{k}NN of {} at α = {alpha}:", q.id());
    for n in &neighbors {
        println!("  {n}");
    }
    println!(
        "cost: {} object accesses, {} node accesses ({} from disk), {}",
        stats.object_accesses,
        stats.node_accesses,
        stats.node_disk_reads,
        cost_tail(&stats, !flags.contains_key("server"))
    );
}

/// The end of an engine query's `cost:` line: its wall time, then — when
/// this process ran the query — its prune counts (the wire does not carry
/// them). The counts hold no comma, so stripping the line's last
/// `, …` field strips the wall time and the counts together.
fn cost_tail(stats: &QueryStats, local: bool) -> String {
    let prunes = if local { format!("; prunes: {}", stats.prunes) } else { String::new() };
    format!("{:?}{prunes}", stats.wall)
}

fn rknn(path: &str, flags: &HashMap<String, String>) {
    let algo = flags.get("algo").map(String::as_str).unwrap_or("rss-icr");
    // Naive probes every object: it searches no tree, so it has no variant.
    match algo {
        "naive" => exact_reads_only(flags, "rknn --algo naive", &["k", "start", "end", "algo"]),
        _ => exact_reads_only(flags, "rknn", &["k", "start", "end", "algo", "variant"]),
    }
    let store = open(path);
    let k: usize = get(flags, "k").unwrap_or(10);
    let start: f64 = get(flags, "start").unwrap_or(0.4);
    let end: f64 = get(flags, "end").unwrap_or(0.6);
    let algo = match algo {
        "naive" => RknnAlgorithm::Naive,
        "basic" => RknnAlgorithm::Basic,
        "rss" => RknnAlgorithm::Rss,
        "rss-icr" => RknnAlgorithm::RssIcr,
        other => {
            eprintln!("unknown algorithm {other}");
            usage()
        }
    };
    let q = query_object(path, &store, flags);
    let (variant, deadline_ms) = (wire_variant(flags), get(flags, "deadline-ms").unwrap_or(0));
    let (items, stats) = match flags.get("server") {
        Some(addr) => {
            let request = Request::Rknn {
                query: QuerySource::Stored(q.id()),
                k: k as u32,
                alpha_start: start,
                alpha_end: end,
                algo,
                variant,
                deadline_ms,
            };
            match call(&mut connect(addr), &request) {
                Response::Rknn { items, stats } => (items, stats.to_query_stats()),
                other => unexpected(&other),
            }
        }
        None => {
            let index = local_index(&store, flags);
            let cfg = local_config(variant, deadline_ms);
            let res =
                answered(QueryEngine::new(&index, &store).rknn(&q, k, start, end, algo, &cfg));
            (res.items, res.stats)
        }
    };
    println!("range {k}NN of {} over [{start}, {end}] ({}):", q.id(), algo.name());
    for item in &items {
        println!("  {item}");
    }
    println!(
        "cost: {} object accesses, {} candidates, {}",
        stats.object_accesses,
        stats.candidates,
        cost_tail(&stats, !flags.contains_key("server"))
    );
}

// ---------------------------------------------------------------------
// Resident-server subcommands (see `docs/PROTOCOL.md`).

fn wire_variant(flags: &HashMap<String, String>) -> WireVariant {
    let name = flags.get("variant").map(String::as_str).unwrap_or("lb-lp-ub");
    WireVariant::parse(name).unwrap_or_else(|| {
        eprintln!("unknown variant {name}");
        usage()
    })
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        exit(1)
    })
}

fn call(client: &mut Client, request: &Request) -> Response {
    match client.call(request) {
        Ok(Response::Error { code, message }) => {
            eprintln!("server error ({code:?}): {message}");
            exit(1)
        }
        Ok(Response::Busy) => {
            eprintln!("server busy: request shed by admission control; retry");
            exit(1)
        }
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("request failed: {e}");
            exit(1)
        }
    }
}

fn unexpected(response: &Response) -> ! {
    eprintln!("unexpected response: {response:?}");
    exit(1)
}

/// Start the resident daemon and park until a SHUTDOWN frame arrives.
fn serve_cmd(path: &str, flags: &HashMap<String, String>) {
    let reads = ["listen", "index-file", "workers", "queue-depth", "cache-pages"];
    reads_only(flags, "serve", &reads);
    let store = open(path);
    let index = match flags.get("index-file") {
        Some(ix) => ServeIndex::open_paged(ix, cache_pages(flags)).unwrap_or_else(|e| {
            eprintln!("cannot open index {ix}: {e}");
            exit(1)
        }),
        None => ServeIndex::mem_from_store(&store),
    };
    let listen =
        ListenAddr::parse(flags.get("listen").map(String::as_str).unwrap_or("127.0.0.1:7878"));
    let opts = ServeOptions {
        workers: get(flags, "workers").unwrap_or(0),
        queue_depth: get(flags, "queue-depth").unwrap_or(64),
        cache_pages: cache_pages(flags),
    };
    let handle = serve(store, index, &listen, &opts).unwrap_or_else(|e| {
        eprintln!("cannot bind {listen}: {e}");
        exit(1)
    });
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush(); // scripts wait for this line
    handle.join();
}

/// Publish a new index epoch on a running daemon.
fn swap_cmd(flags: &HashMap<String, String>) {
    reads_only(flags, "swap", &["addr", "index-file"]);
    let addr = flags.get("addr").cloned().unwrap_or_else(|| usage());
    let index_path = flags.get("index-file").cloned().unwrap_or_else(|| usage());
    let mut client = connect(&addr);
    match call(&mut client, &Request::Swap { index_path }) {
        Response::Swapped { epoch, objects } => {
            println!("swapped: epoch {epoch}, {objects} objects");
        }
        other => unexpected(&other),
    }
}

/// Ask a running daemon to exit.
fn shutdown_cmd(flags: &HashMap<String, String>) {
    reads_only(flags, "shutdown", &["addr"]);
    let addr = flags.get("addr").cloned().unwrap_or_else(|| usage());
    let mut client = connect(&addr);
    match call(&mut client, &Request::Shutdown) {
        Response::ShutdownAck => println!("server at {addr} is shutting down"),
        other => unexpected(&other),
    }
}
