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
//! Throughput and latency are measured by fkbench (`benchmark/`), not here;
//! `ab` pairs two trees' fkbench runs into a verdict per metric:
//!
//! ```sh
//! fkq ab --parent ../parent --change . --workload rknn-range --seed 11 --blocks 5
//! ```
//!
//! A command reads what its path looks up — the path its other flags pick
//! — and refuses the rest: a flag that path never looks up, a flag given
//! twice, or a positional argument the command does not take is a usage
//! error (exit 2) naming it, raised before anything is opened, written,
//! bound or connected. So `--cache-pages` is read only beside
//! `--index-file`, `--brute` only off the approximate path, `--query-seed`
//! only without `--query-id`, and `--radius` only for `--kind synthetic`.

use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, Threshold};
use fuzzy_datagen::{CellConfig, SyntheticConfig};
use fuzzy_index::{delta_path_for, NodeAccess, OverlayRTree, PagedRTree, RTree, RTreeConfig};
use fuzzy_query::{aknn_brute, AknnConfig, QueryEngine, QueryError, RknnAlgorithm};
use fuzzy_server::{
    serve, Client, ListenAddr, QuerySource, Request, Response, ServeIndex, ServeOptions,
    WireVariant,
};
use fuzzy_store::{FileStore, ObjectStore, StoreError};
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "fkq/ab.rs"]
mod ab;

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
  fkq ab --parent <dir> --change <dir> --workload <w> [--seed <u64>] [--blocks <n>] \
[--seconds <s>]
A flag the command does not read on the path its other flags pick is a usage error: \
aknn's approximate path (--recall-dial) reads no --variant, --deadline-ms, --index-file, \
--server or --brute; --brute true reads none of those nor an index flag; \
rknn --algo naive reads no --variant.";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// The flags and positional arguments of one command line. Each lookup
/// marks its flag as read, so the flags a path reads are exactly the ones
/// its code looks up; [`Flags::finish`] then refuses every other one.
struct Flags {
    /// `(name, value, read)` per flag, in command-line order.
    given: Vec<(String, String, bool)>,
    /// Positional arguments not yet taken by [`Flags::path`].
    args: Vec<String>,
}

impl Flags {
    /// Split `args` into flags and positionals. A flag without a value, or
    /// one given twice, is a usage error naming it.
    fn parse(args: &[String]) -> Self {
        let mut flags = Self { given: Vec::new(), args: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                flags.args.push(arg.clone());
                continue;
            };
            let Some(value) = it.next() else {
                eprintln!("flag --{name} needs a value");
                usage()
            };
            if flags.given.iter().any(|(given, ..)| given == name) {
                eprintln!("flag --{name} is given more than once");
                usage()
            }
            flags.given.push((name.to_string(), value.clone(), false));
        }
        flags
    }

    /// The command's path argument; a usage error when there is none.
    fn path(&mut self) -> String {
        if self.args.is_empty() {
            usage()
        }
        self.args.remove(0)
    }

    /// The raw value of `--key`, marked as read.
    fn raw(&mut self, key: &str) -> Option<&str> {
        let (_, value, read) = self.given.iter_mut().find(|(name, ..)| name == key)?;
        *read = true;
        Some(value)
    }

    /// `--key` parsed, or a usage error naming it.
    fn get<T: std::str::FromStr>(&mut self, key: &str) -> Option<T> {
        let value = self.raw(key)?;
        Some(value.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {value}");
            usage()
        }))
    }

    /// `--key` as a comma-separated list, each item parsed.
    fn csv<T: std::str::FromStr>(&mut self, key: &str) -> Option<Vec<T>> {
        let value = self.raw(key)?;
        let items = value.split(',').map(|item| {
            item.trim().parse().unwrap_or_else(|_| {
                eprintln!("bad value in --{key}: {item}");
                usage()
            })
        });
        Some(items.collect())
    }

    /// Refuse every flag `what` never looked up, and every positional it
    /// did not take: a flag nothing reads would be silently ignored, so it
    /// is a usage error that names it. Taking `self` ends the lookups;
    /// a command calls this before it opens, writes, binds or connects
    /// anything.
    fn finish(self, what: &str) {
        let mut unread: Vec<&str> =
            self.given.iter().filter(|(.., read)| !read).map(|(name, ..)| name.as_str()).collect();
        if unread.is_empty() && self.args.is_empty() {
            return;
        }
        unread.sort_unstable();
        for flag in unread {
            eprintln!("{what} does not read --{flag}");
        }
        for arg in &self.args {
            eprintln!("{what} does not read the argument {arg}");
        }
        usage()
    }
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
    let flags = Flags::parse(&args[1..]);
    match args[0].as_str() {
        "generate" => generate(flags),
        "info" => info(flags),
        "build-index" => build_index(flags),
        "aknn" => aknn(flags),
        "rknn" => rknn(flags),
        "insert" => insert_cmd(flags),
        "delete" => delete_cmd(flags),
        "compact" => compact_cmd(flags),
        "serve" => serve_cmd(flags),
        "swap" => swap_cmd(flags),
        "shutdown" => shutdown_cmd(flags),
        "ab" => ab::ab_cmd(flags),
        _ => usage(),
    }
}

fn generate(mut flags: Flags) {
    let kind: String = flags.get("kind").unwrap_or_else(|| "synthetic".into());
    let n: usize = flags.get("n").unwrap_or(1_000);
    let ppo: usize = flags.get("ppo").unwrap_or(200);
    let seed: u64 = flags.get("seed").unwrap_or(42);
    let out: Option<String> = flags.get("out");
    // The cell generator has no radius.
    let radius: Option<f64> = if kind == "synthetic" { flags.get("radius") } else { None };
    flags.finish(&format!("generate --kind {kind}"));
    let out = out.unwrap_or_else(|| usage());
    let store = match kind.as_str() {
        "synthetic" => {
            let base = SyntheticConfig::default();
            let cfg = SyntheticConfig {
                num_objects: n,
                points_per_object: ppo,
                seed,
                radius: radius.unwrap_or(base.radius),
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

fn open(path: &str) -> FileStore<2> {
    FileStore::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1)
    })
}

/// `--cache-pages`: the buffer pool of an index file.
fn cache_pages(flags: &mut Flags) -> usize {
    flags.get("cache-pages").unwrap_or(fuzzy_index::DEFAULT_CACHE_PAGES)
}

/// Open a persisted index that has no sidecar delta log: the bare paged
/// tree. (An index *with* pending inserts/deletes opens through
/// [`open_overlay`], which replays them.)
fn open_paged(path: &str, cache_pages: usize) -> PagedRTree<2> {
    PagedRTree::open_with_cache(path, cache_pages).unwrap_or_else(|e| {
        eprintln!("cannot open index {path}: {e}");
        exit(1)
    })
}

/// Open an index through its overlay, replaying the sidecar delta log if
/// one exists: the mutable view, and how fresh processes see pending
/// inserts/deletes.
fn open_overlay(path: &str, cache_pages: usize) -> OverlayRTree<2> {
    OverlayRTree::open_with_cache(path, cache_pages).unwrap_or_else(|e| {
        eprintln!("cannot open index {path}: {e}");
        exit(1)
    })
}

/// Insert summaries of store objects (by id) into a persisted index's
/// overlay.
fn insert_cmd(mut flags: Flags) {
    let path = flags.path();
    let ix: Option<String> = flags.get("index-file");
    let ids: Option<Vec<u64>> = flags.csv("ids");
    let cache = cache_pages(&mut flags);
    flags.finish("insert");
    let store = open(&path);
    let ix = ix.unwrap_or_else(|| usage());
    let ids = ids.unwrap_or_else(|| usage());
    let mut overlay = open_overlay(&ix, cache);
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
fn delete_cmd(mut flags: Flags) {
    let ix: Option<String> = flags.get("index-file");
    let ids: Option<Vec<u64>> = flags.csv("ids");
    let cache = cache_pages(&mut flags);
    flags.finish("delete");
    let ix = ix.unwrap_or_else(|| usage());
    let ids = ids.unwrap_or_else(|| usage());
    let mut overlay = open_overlay(&ix, cache);
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
fn compact_cmd(mut flags: Flags) {
    let ix: Option<String> = flags.get("index-file");
    let page_size: Option<u32> = flags.get("page-size");
    let cache = cache_pages(&mut flags);
    flags.finish("compact");
    let ix = ix.unwrap_or_else(|| usage());
    let overlay = open_overlay(&ix, cache);
    let page_size = page_size.unwrap_or(overlay.base().page_size());
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

fn info(mut flags: Flags) {
    let path = flags.path();
    // A buffer pool needs an index file.
    let index: Option<(String, usize)> =
        flags.get("index-file").map(|ix| (ix, cache_pages(&mut flags)));
    flags.finish(if index.is_some() { "info" } else { "info without --index-file" });
    let store = open(&path);
    println!("{path}: {} objects", store.len());
    let total_points: u64 = store.summaries().iter().map(|s| s.point_count as u64).sum();
    println!("  total points: {total_points}");
    let mut bbox = fuzzy_geom::Mbr::<2>::empty();
    for s in store.summaries() {
        bbox.expand_mbr(&s.support_mbr);
    }
    println!("  bounding box: {bbox:?}");
    if let Some((ix, cache)) = index {
        if delta_path_for(&ix).exists() {
            let tree = open_overlay(&ix, cache);
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
            let tree = open_paged(&ix, cache);
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
fn build_index(mut flags: Flags) {
    let path = flags.path();
    let out: String = flags.get("out").unwrap_or_else(|| usage());
    let page_size: u32 = flags.get("page-size").unwrap_or(fuzzy_index::DEFAULT_PAGE_SIZE);
    let max_entries = flags.get("max-entries").unwrap_or(RTreeConfig::default().max_entries);
    flags.finish("build-index");
    let store = open(&path);
    let config = RTreeConfig { max_entries };
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

/// The query object, as its flags pick it: a dataset object by
/// `--query-id`, else a pseudo-random member by `--query-seed` (which is
/// looked up only without `--query-id`).
enum QueryPick {
    Id(u64),
    Seed(u64),
}

impl QueryPick {
    fn read(flags: &mut Flags) -> Self {
        match flags.get("query-id") {
            Some(id) => Self::Id(id),
            None => Self::Seed(flags.get("query-seed").unwrap_or(7)),
        }
    }

    fn object(&self, path: &str, store: &FileStore<2>) -> FuzzyObject<2> {
        let id = match *self {
            Self::Id(id) => fuzzy_core::ObjectId(id),
            Self::Seed(seed) => {
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
}

/// Where an exact query runs, as its flags pick it: through a daemon
/// (`--server`), over a paged index file (`--index-file`, with its
/// `--cache-pages`), or over a freshly bulk-loaded in-memory image. Only
/// the picked place's flags are looked up.
enum Place {
    Server(String),
    File(String, usize),
    Memory,
}

impl Place {
    fn read(flags: &mut Flags) -> Self {
        if let Some(addr) = flags.get("server") {
            return Self::Server(addr);
        }
        match flags.get("index-file") {
            Some(ix) => Self::File(ix, cache_pages(flags)),
            None => Self::Memory,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Self::Server(_) => "through --server",
            Self::File(..) => "over --index-file",
            Self::Memory => "over the in-memory index",
        }
    }

    /// The index a local query runs over: a paged tree with its delta
    /// overlay replayed, the bare paged tree, or the in-memory image.
    fn local_index(&self, store: &FileStore<2>) -> Arc<dyn NodeAccess<2>> {
        match self {
            Self::File(ix, cache) if delta_path_for(ix).exists() => {
                Arc::new(open_overlay(ix, *cache))
            }
            Self::File(ix, cache) => Arc::new(open_paged(ix, *cache)),
            _ => Arc::new(RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default())),
        }
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

/// AKNN through the approximate path: a candidate pool from a VP-tree
/// built in memory from the store's summaries, resolved through the
/// exact probe loop — distances stay exact, only recall follows the dial
/// (`exact` or a numeric budget/slack). `measure_recall` runs the exact
/// engine alongside and prints the measured recall@k.
fn run_approx_aknn(
    store: &FileStore<2>,
    q: &FuzzyObject<2>,
    k: usize,
    alpha: f64,
    dial: &str,
    measure_recall: bool,
) {
    let t = valid_alpha(alpha);
    let dial = fuzzy_index::RecallDial::parse(dial).unwrap_or_else(|| {
        eprintln!("bad --recall-dial {dial}: expected 'exact' or a finite value >= 0");
        usage()
    });
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
    if measure_recall {
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

fn aknn(mut flags: Flags) {
    let path = flags.path();
    // The approximate path answers locally from a VP-tree it builds, and
    // the brute-force oracle from a scan: neither reads a variant, a
    // deadline or a place to run.
    let dial: Option<String> = flags.get("recall-dial");
    let brute = dial.is_none() && flags.get::<bool>("brute").unwrap_or(false);
    let k: usize = flags.get("k").unwrap_or(10);
    let alpha: f64 = flags.get("alpha").unwrap_or(0.5);
    let pick = QueryPick::read(&mut flags);
    if let Some(dial) = dial {
        let measure_recall = flags.get("measure-recall").unwrap_or(false);
        flags.finish("approximate aknn");
        let store = open(&path);
        let q = pick.object(&path, &store);
        run_approx_aknn(&store, &q, k, alpha, &dial, measure_recall);
        return;
    }
    if brute {
        flags.finish("aknn --brute true");
        let store = open(&path);
        let q = pick.object(&path, &store);
        run_brute_aknn(&store, &q, k, alpha);
        return;
    }
    let variant: Option<String> = flags.get("variant");
    let deadline_ms: u32 = flags.get("deadline-ms").unwrap_or(0);
    let place = Place::read(&mut flags);
    flags.finish(&format!("aknn {}", place.label()));
    let store = open(&path);
    let q = pick.object(&path, &store);
    let variant = wire_variant(variant.as_deref());
    let (neighbors, stats) = match &place {
        Place::Server(addr) => {
            let query = QuerySource::Stored(q.id());
            let request = Request::Aknn { query, k: k as u32, alpha, variant, deadline_ms };
            match call(&mut connect(addr), &request) {
                Response::Aknn { neighbors, stats } => (neighbors, stats.to_query_stats()),
                other => unexpected(&other),
            }
        }
        local => {
            let index = local.local_index(&store);
            let cfg = local_config(variant, deadline_ms);
            let res = answered(QueryEngine::new(&index, &store).aknn(&q, k, alpha, &cfg));
            (res.neighbors, res.stats)
        }
    };
    println!("{k}NN of {} at α = {alpha}:", q.id());
    for n in &neighbors {
        println!("  {n}");
    }
    // Local and served runs print the same line: the wire carries every
    // counter. The prune counts hold no comma, so they close the line.
    println!(
        "cost: {} object accesses, {} node accesses ({} from disk), {:?}; prunes: {}",
        stats.object_accesses, stats.node_accesses, stats.node_disk_reads, stats.wall, stats.prunes
    );
}

fn rknn(mut flags: Flags) {
    let path = flags.path();
    let algo: String = flags.get("algo").unwrap_or_else(|| "rss-icr".into());
    let k: usize = flags.get("k").unwrap_or(10);
    let start: f64 = flags.get("start").unwrap_or(0.4);
    let end: f64 = flags.get("end").unwrap_or(0.6);
    let pick = QueryPick::read(&mut flags);
    // Naive probes every object: it searches no tree, so it has no variant.
    let naive = algo == "naive";
    let variant: Option<String> = if naive { None } else { flags.get("variant") };
    let deadline_ms: u32 = flags.get("deadline-ms").unwrap_or(0);
    let place = Place::read(&mut flags);
    let cmd = if naive { "rknn --algo naive" } else { "rknn" };
    flags.finish(&format!("{cmd} {}", place.label()));
    let store = open(&path);
    let algo = match algo.as_str() {
        "naive" => RknnAlgorithm::Naive,
        "basic" => RknnAlgorithm::Basic,
        "rss" => RknnAlgorithm::Rss,
        "rss-icr" => RknnAlgorithm::RssIcr,
        other => {
            eprintln!("unknown algorithm {other}");
            usage()
        }
    };
    let q = pick.object(&path, &store);
    let variant = wire_variant(variant.as_deref());
    let (items, stats) = match &place {
        Place::Server(addr) => {
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
        local => {
            let index = local.local_index(&store);
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
        "cost: {} object accesses, {} candidates, {} refinement steps, {:?}; prunes: {}",
        stats.object_accesses, stats.candidates, stats.refine_steps, stats.wall, stats.prunes
    );
}

// ---------------------------------------------------------------------
// Resident-server subcommands (see `docs/PROTOCOL.md`).

/// `--variant`, by name (LB-LP-UB when not given).
fn wire_variant(name: Option<&str>) -> WireVariant {
    let name = name.unwrap_or("lb-lp-ub");
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
fn serve_cmd(mut flags: Flags) {
    let path = flags.path();
    let listen: Option<String> = flags.get("listen");
    let ix: Option<String> = flags.get("index-file");
    let workers = flags.get("workers").unwrap_or(0);
    let queue_depth = flags.get("queue-depth").unwrap_or(64);
    let cache = cache_pages(&mut flags);
    flags.finish("serve");
    let store = open(&path);
    let index = match ix {
        Some(ix) => ServeIndex::open_paged(&ix, cache).unwrap_or_else(|e| {
            eprintln!("cannot open index {ix}: {e}");
            exit(1)
        }),
        None => ServeIndex::mem_from_store(&store),
    };
    let listen = ListenAddr::parse(listen.as_deref().unwrap_or("127.0.0.1:7878"));
    let opts = ServeOptions { workers, queue_depth, cache_pages: cache };
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
fn swap_cmd(mut flags: Flags) {
    let addr: Option<String> = flags.get("addr");
    let index_path: Option<String> = flags.get("index-file");
    flags.finish("swap");
    let addr = addr.unwrap_or_else(|| usage());
    let index_path = index_path.unwrap_or_else(|| usage());
    let mut client = connect(&addr);
    match call(&mut client, &Request::Swap { index_path }) {
        Response::Swapped { epoch, objects } => {
            println!("swapped: epoch {epoch}, {objects} objects");
        }
        other => unexpected(&other),
    }
}

/// Ask a running daemon to exit.
fn shutdown_cmd(mut flags: Flags) {
    let addr: Option<String> = flags.get("addr");
    flags.finish("shutdown");
    let addr = addr.unwrap_or_else(|| usage());
    let mut client = connect(&addr);
    match call(&mut client, &Request::Shutdown) {
        Response::ShutdownAck => println!("server at {addr} is shutting down"),
        other => unexpected(&other),
    }
}
