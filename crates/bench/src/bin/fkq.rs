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
//! fkq bench --out BENCH_aknn.json
//! fkq serve cells.fzkn --listen 127.0.0.1:7878
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --server 127.0.0.1:7878
//! fkq loadgen --addr 127.0.0.1:7878 --qps 100,200 --out BENCH_serve.json
//! fkq swap --addr 127.0.0.1:7878 --index-file cells.fzpt
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --brute true
//! fkq build-index cells.fzkn --out cells.fzvp
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --index-file cells.fzvp --recall-dial 1.5 --measure-recall true
//! fkq aknn cells.fzkn --k 10 --alpha 0.5 --index-file cells.fzvp --recall-dial exact
//! ```
//!
//! Query subcommands bulk-load an in-memory R-tree by default; pass
//! `--index-file` to run against a persisted paged index built with
//! `build-index` instead (see `docs/FORMAT.md` for the file layout).
//! The index file is immutable until compaction: `insert`/`delete`
//! accumulate changes in a checksummed sidecar delta log
//! (`<index>.fzdl`) which every query subcommand replays automatically;
//! `compact` folds base + delta into a freshly bulk-loaded file.
//!
//! `serve` keeps a store/index pair resident behind the FZQP binary
//! protocol (`docs/PROTOCOL.md`); `aknn`/`rknn --server` run the same
//! query through a daemon and print byte-identical answers; `loadgen`
//! measures latency under open-loop load and writes `BENCH_serve.json`;
//! `swap` publishes a new index epoch without restarting the daemon.

use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, Threshold};
use fuzzy_datagen::{CellConfig, SyntheticConfig};
use fuzzy_index::{delta_path_for, NodeAccess, OverlayRTree, PagedRTree, RTree, RTreeConfig};
use fuzzy_query::{
    aknn_brute, execute_one, AknnConfig, BatchRequest, BatchResponse, QueryEngine, QueryScratch,
    RknnAlgorithm,
};
use fuzzy_server::{
    serve, Client, ListenAddr, QuerySource, Request, Response, ServeIndex, ServeOptions,
    WireVariant,
};
use fuzzy_store::{FileStore, ObjectStore, StoreError};
use std::collections::HashMap;
use std::process::exit;

const USAGE: &str = "usage:
  fkq generate --kind <synthetic|cell> --n <count> [--ppo <points>] [--seed <u64>] \
[--radius <r>] --out <path>
  fkq info <path> [--index-file <path>]
  fkq build-index <path> --out <index-path> [--page-size <bytes>] [--max-entries <n>] \
[--leaf-size <n>] [--fof-neighbors <n>]
  fkq aknn <path> --k <k> --alpha <a> [--variant <basic|lb|lb-lp|lb-lp-ub>] [--query-seed <u64>] \
[--index-file <path>] [--cache-pages <n>] [--server <addr>] [--deadline-ms <n>] \
[--brute <true|false>] [--recall-dial <exact|v>] [--measure-recall <true|false>]
  fkq rknn <path> --k <k> --start <a> --end <a> [--algo <naive|basic|rss|rss-icr>] \
[--query-seed <u64>] [--index-file <path>] [--cache-pages <n>] [--server <addr>] \
[--deadline-ms <n>]
  fkq insert <path> --index-file <index> --ids <csv> [--cache-pages <n>]
  fkq delete --index-file <index> --ids <csv> [--cache-pages <n>]
  fkq compact --index-file <index> [--page-size <bytes>] [--cache-pages <n>]
  fkq bench [--out <path=BENCH_aknn.json>] [--smoke <true|false>] [--kind <synthetic|cell>] \
[--n <count>] [--ppo <points>] [--seed <u64>] [--queries <count>] [--k <k>] [--alpha <a>] \
[--ks <csv>] [--alphas <csv>] [--threads <csv>] [--backend <mem|paged>] [--page-size <bytes>] \
[--cache-pages <n>] [--mutation-rate <f>] [--approx-sweep <true|false>] \
[--approx-n <count>] [--approx-ppo <points>] [--approx-seed <u64>] [--approx-radius <r>] \
[--vptree-slacks <csv>]
  fkq serve <path> [--listen <host:port|unix:path>] [--index-file <path>] [--workers <n>] \
[--queue-depth <n>] [--cache-pages <n>]
  fkq loadgen --addr <host:port|unix:path> [--qps <csv>] [--duration <secs>] \
[--connections <n>] [--k <k>] [--alpha <a>] [--variant <name>] [--deadline-ms <n>] \
[--query-ids <csv>] [--out <path=BENCH_serve.json>]
  fkq swap --addr <host:port|unix:path> --index-file <path|:mem:>
  fkq shutdown --addr <host:port|unix:path>";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// Retired flags and why: those of the road-network metric, so no such
/// query is ever answered under L2, and the R* split's fill fraction. A
/// leftover one is refused rather than ignored.
const RETIRED_FLAGS: [(&str, &str); 4] = [
    ("metric", "queries run under L2 only"),
    ("graph", "queries run under L2 only"),
    ("fanout", "queries run under L2 only"),
    ("min-fill", "indexes are STR bulk-loaded, which sets the fill"),
];

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if let Some((_, why)) = RETIRED_FLAGS.iter().find(|(retired, _)| *retired == name) {
                eprintln!("flag --{name} is no longer supported: {why}");
                usage();
            }
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
        "bench" => bench(&flags),
        "serve" => serve_cmd(pos.first().unwrap_or_else(|| usage()), &flags),
        "loadgen" => loadgen_cmd(&flags),
        "swap" => swap_cmd(&flags),
        "shutdown" => shutdown_cmd(&flags),
        _ => usage(),
    }
}

fn generate(flags: &HashMap<String, String>) {
    let kind = flags.get("kind").cloned().unwrap_or_else(|| "synthetic".into());
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
    if !(alpha > 0.0 && alpha <= 1.0) {
        eprintln!("--alpha must lie in (0, 1]; got {alpha}");
        exit(1)
    }
    let res =
        aknn_brute(&L2, store, &store.ids(), q, k, Threshold::at(alpha)).unwrap_or_else(|e| {
            eprintln!("query failed: {e}");
            exit(1)
        });
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

/// Run the §6-style AKNN sweeps through the batch executor and write a
/// machine-readable report (see `fuzzy_bench::aknn_suite` for the schema).
fn bench(flags: &HashMap<String, String>) {
    use fuzzy_bench::aknn_suite::{self, BenchOptions, IndexBackend};
    use fuzzy_bench::DatasetSpec;
    use fuzzy_datagen::DatasetKind;

    let smoke: bool = get(flags, "smoke").unwrap_or(false);
    let mut opts = if smoke { BenchOptions::smoke() } else { BenchOptions::full() };
    if let Some(backend) = flags.get("backend") {
        opts.backend = match backend.as_str() {
            "mem" => IndexBackend::Mem,
            "paged" => IndexBackend::Paged,
            other => {
                eprintln!("unknown backend {other}");
                usage()
            }
        };
    }
    opts.page_size = get(flags, "page-size").unwrap_or(opts.page_size);
    opts.cache_pages = get(flags, "cache-pages").unwrap_or(opts.cache_pages);
    if let Some(kind) = flags.get("kind") {
        opts.dataset.kind = match kind.as_str() {
            "synthetic" => DatasetKind::Synthetic,
            "cell" => DatasetKind::Cell,
            other => {
                eprintln!("unknown kind {other}");
                usage()
            }
        };
    }
    let d = &mut opts.dataset;
    *d = DatasetSpec {
        kind: d.kind,
        n: get(flags, "n").unwrap_or(d.n),
        points_per_object: get(flags, "ppo").unwrap_or(d.points_per_object),
        seed: get(flags, "seed").unwrap_or(d.seed),
        radius: get(flags, "radius").map(Some).unwrap_or(d.radius),
    };
    let a = &mut opts.approx_dataset;
    *a = DatasetSpec {
        kind: a.kind,
        n: get(flags, "approx-n").unwrap_or(a.n),
        points_per_object: get(flags, "approx-ppo").unwrap_or(a.points_per_object),
        seed: get(flags, "approx-seed").unwrap_or(a.seed),
        radius: get(flags, "approx-radius").map(Some).unwrap_or(a.radius),
    };
    opts.queries = get(flags, "queries").unwrap_or(opts.queries);
    opts.default_k = get(flags, "k").unwrap_or(opts.default_k);
    opts.default_alpha = get(flags, "alpha").unwrap_or(opts.default_alpha);
    // The in-memory tree is never edited: its default is no mutation
    // sweep, and asking for one is refused.
    let default_rate = if opts.backend == IndexBackend::Mem { 0.0 } else { opts.mutation_rate };
    opts.mutation_rate = get(flags, "mutation-rate").unwrap_or(default_rate);
    if opts.backend == IndexBackend::Mem && opts.mutation_rate > 0.0 {
        eprintln!("--mutation-rate needs --backend paged: the in-memory tree is never edited");
        usage()
    }
    if let Some(ks) = csv_list(flags, "ks") {
        opts.ks = ks;
    }
    if let Some(alphas) = csv_list(flags, "alphas") {
        opts.alphas = alphas;
    }
    if let Some(threads) = csv_list(flags, "threads") {
        opts.thread_counts = threads;
    }
    if let Some(slacks) = csv_list(flags, "vptree-slacks") {
        opts.vptree_slacks = slacks;
    }
    if let Some(false) = get(flags, "approx-sweep") {
        opts.vptree_slacks.clear();
    }

    let out = flags.get("out").cloned().unwrap_or_else(|| "BENCH_aknn.json".into());
    eprintln!(
        "benchmarking {:?} n={} ppo={} queries={} (smoke: {smoke}) ...",
        opts.dataset.kind, opts.dataset.n, opts.dataset.points_per_object, opts.queries
    );
    let report = aknn_suite::run(&opts);
    aknn_suite::write_report(std::path::Path::new(&out), &report).unwrap_or_else(|e| {
        eprintln!("cannot write report: {e}");
        exit(1)
    });

    // Console summary: the variant × threads sweep, qps and mean accesses.
    let runs = report.get("runs").and_then(|r| r.as_arr()).unwrap_or(&[]);
    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "variant", "threads", "qps", "obj/query", "node/query", "disk/query"
    );
    for run in runs {
        if run.get("sweep").and_then(|s| s.as_str()) != Some("variant_threads") {
            continue;
        }
        let f = |key: &str| run.get(key).and_then(|v| v.as_num()).unwrap_or(f64::NAN);
        println!(
            "{:>10} {:>8} {:>10.1} {:>12.1} {:>12.1} {:>12.1}",
            run.get("variant").and_then(|v| v.as_str()).unwrap_or("?"),
            f("threads") as u64,
            f("qps"),
            f("object_accesses_mean"),
            f("node_accesses_mean"),
            f("node_disk_reads_mean"),
        );
    }
    println!("-> {out}");
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
    let ix = flags.get("index-file").cloned().unwrap_or_else(|| usage());
    let overlay = open_overlay(&ix, flags);
    let page_size: u32 = get(flags, "page-size").unwrap_or(overlay.base().page_size());
    let pending = (overlay.pending_inserts(), overlay.pending_tombstones());
    let started = std::time::Instant::now();
    let tree = overlay.compact(page_size).unwrap_or_else(|e| {
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

fn info(path: &str, flags: &HashMap<String, String>) {
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
    let store = open(path);
    let out = flags.get("out").cloned().unwrap_or_else(|| usage());
    if out.ends_with(".fzvp") {
        build_vptree_index(&store, &out, flags);
        return;
    }
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

/// Build and persist the approximate candidate index: a `.fzvp`
/// vantage-point tree over the store's expected centers (L2, see
/// `docs/FORMAT.md`).
fn build_vptree_index(store: &FileStore<2>, out: &str, flags: &HashMap<String, String>) {
    let defaults = fuzzy_index::VpTreeConfig::default();
    let config = fuzzy_index::VpTreeConfig {
        leaf_size: get(flags, "leaf-size").unwrap_or(defaults.leaf_size),
        fof_neighbors: get(flags, "fof-neighbors").unwrap_or(defaults.fof_neighbors),
    };
    let started = std::time::Instant::now();
    let index = fuzzy_index::VpTree::build(&L2, store.summaries(), config);
    index.save(out).unwrap_or_else(|e| {
        eprintln!("cannot write VP-tree index: {e}");
        exit(1)
    });
    println!(
        "wrote {out}: {} objects, vptree backend (leaf size {}), {:?}",
        store.len(),
        config.leaf_size,
        started.elapsed()
    );
}

fn query_object(store: &FileStore<2>, flags: &HashMap<String, String>) -> FuzzyObject<2> {
    // Query by dataset object id, or a pseudo-random member.
    if let Some(id) = get::<u64>(flags, "query-id") {
        return store
            .probe(fuzzy_core::ObjectId(id))
            .unwrap_or_else(|e| {
                eprintln!("cannot load query object {id}: {e}");
                exit(1)
            })
            .as_ref()
            .clone();
    }
    let seed: u64 = get(flags, "query-seed").unwrap_or(7);
    let ids = store.ids();
    let pick = ids[(seed as usize) % ids.len()];
    store.probe(pick).expect("probe query").as_ref().clone()
}

fn variant(flags: &HashMap<String, String>) -> AknnConfig {
    match flags.get("variant").map(String::as_str).unwrap_or("lb-lp-ub") {
        "basic" => AknnConfig::basic(),
        "lb" => AknnConfig::lb(),
        "lb-lp" => AknnConfig::lb_lp(),
        "lb-lp-ub" => AknnConfig::lb_lp_ub(),
        other => {
            eprintln!("unknown variant {other}");
            usage()
        }
    }
}

/// Answer one request in this process against whichever index
/// `--index-file` selects: a paged tree with its delta overlay replayed,
/// the bare paged tree, or (no flag) a freshly bulk-loaded in-memory image.
fn run_local(store: &FileStore<2>, flags: &HashMap<String, String>, request: &BatchRequest<2>) {
    store.reset_stats();
    let tree = match flags.get("index-file") {
        Some(ix) if delta_path_for(ix).exists() => {
            return print_answer(&open_overlay(ix, flags), store, request);
        }
        Some(ix) => open_paged(ix, flags),
        None => RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default()),
    };
    print_answer(&tree, store, request);
}

/// Execute `request` through the engine and print the answer and cost
/// lines.
fn print_answer<I: NodeAccess<2>>(index: &I, store: &FileStore<2>, request: &BatchRequest<2>) {
    let engine = QueryEngine::new(index, store);
    let response = execute_one(&engine, request, &mut QueryScratch::new()).unwrap_or_else(|e| {
        eprintln!("query failed: {e}");
        exit(1)
    });
    match (request, response) {
        (BatchRequest::Aknn { query, k, alpha, .. }, BatchResponse::Aknn(res)) => {
            println!("{k}NN of {} at α = {alpha}:", query.id());
            for n in &res.neighbors {
                println!("  {n}");
            }
            println!(
                "cost: {} object accesses, {} node accesses ({} from disk), {:?}",
                res.stats.object_accesses,
                res.stats.node_accesses,
                res.stats.node_disk_reads,
                res.stats.wall
            );
        }
        (
            BatchRequest::Rknn { query, k, alpha_start, alpha_end, algo, .. },
            BatchResponse::Rknn(res),
        ) => {
            println!(
                "range {k}NN of {} over [{alpha_start}, {alpha_end}] ({}):",
                query.id(),
                algo.name()
            );
            for item in &res.items {
                println!("  {item}");
            }
            println!(
                "cost: {} object accesses, {} candidates, {:?}",
                res.stats.object_accesses, res.stats.candidates, res.stats.wall
            );
        }
        _ => unreachable!("execute_one answers a request in kind"),
    }
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
/// (loaded from a `.fzvp` `--index-file`, else built in memory), resolved
/// through the exact probe loop — distances stay exact, only recall
/// follows the dial. `--measure-recall true` runs the exact engine
/// alongside and prints the measured recall@k.
fn run_approx_aknn(
    store: &FileStore<2>,
    q: &FuzzyObject<2>,
    k: usize,
    alpha: f64,
    flags: &HashMap<String, String>,
) {
    if !(alpha > 0.0 && alpha <= 1.0) {
        eprintln!("--alpha must lie in (0, 1]; got {alpha}");
        exit(1)
    }
    let t = Threshold::at(alpha);
    let dial = recall_dial(flags);
    let cfg = fuzzy_query::ApproxConfig::at(dial);
    let index = match flags.get("index-file") {
        Some(ix) if ix.ends_with(".fzvp") => {
            fuzzy_index::VpTree::load(ix, &L2).unwrap_or_else(|e| {
                eprintln!("cannot open VP-tree index {ix}: {e}");
                exit(1)
            })
        }
        Some(ix) => {
            eprintln!("approximate queries need a .fzvp index; got {ix}");
            exit(1)
        }
        None => {
            fuzzy_index::VpTree::build(&L2, store.summaries(), fuzzy_index::VpTreeConfig::default())
        }
    };
    let res = fuzzy_query::approx_aknn(&L2, &index, store, q, k, t, &cfg).unwrap_or_else(|e| {
        eprintln!("query failed: {e}");
        exit(1)
    });
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

fn aknn(path: &str, flags: &HashMap<String, String>) {
    let store = open(path);
    let k: usize = get(flags, "k").unwrap_or(10);
    let alpha: f64 = get(flags, "alpha").unwrap_or(0.5);
    let q = query_object(&store, flags);
    let wants_approx = flags.contains_key("recall-dial")
        || flags.get("index-file").is_some_and(|ix| ix.ends_with(".fzvp"));
    if wants_approx {
        run_approx_aknn(&store, &q, k, alpha, flags);
        return;
    }
    if get::<bool>(flags, "brute").unwrap_or(false) {
        run_brute_aknn(&store, &q, k, alpha);
        return;
    }
    if let Some(addr) = flags.get("server") {
        server_aknn(addr, q.id(), k, alpha, flags);
        return;
    }
    run_local(&store, flags, &BatchRequest::aknn(q, k, alpha, variant(flags)));
}

fn rknn(path: &str, flags: &HashMap<String, String>) {
    let store = open(path);
    let k: usize = get(flags, "k").unwrap_or(10);
    let start: f64 = get(flags, "start").unwrap_or(0.4);
    let end: f64 = get(flags, "end").unwrap_or(0.6);
    let algo = match flags.get("algo").map(String::as_str).unwrap_or("rss-icr") {
        "naive" => RknnAlgorithm::Naive,
        "basic" => RknnAlgorithm::Basic,
        "rss" => RknnAlgorithm::Rss,
        "rss-icr" => RknnAlgorithm::RssIcr,
        other => {
            eprintln!("unknown algorithm {other}");
            usage()
        }
    };
    let q = query_object(&store, flags);
    if let Some(addr) = flags.get("server") {
        server_rknn(addr, q.id(), k, start, end, algo, flags);
        return;
    }
    let request = BatchRequest::rknn(q, k, (start, end), algo, AknnConfig::lb_lp_ub());
    run_local(&store, flags, &request);
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

/// AKNN through a daemon — prints exactly what the local path prints
/// (the answers are byte-identical; only the cost line's wall differs).
fn server_aknn(
    addr: &str,
    id: fuzzy_core::ObjectId,
    k: usize,
    alpha: f64,
    flags: &HashMap<String, String>,
) {
    let mut client = connect(addr);
    let request = Request::Aknn {
        query: QuerySource::Stored(id),
        k: k as u32,
        alpha,
        variant: wire_variant(flags),
        deadline_ms: get(flags, "deadline-ms").unwrap_or(0),
    };
    match call(&mut client, &request) {
        Response::Aknn { neighbors, stats } => {
            let stats = stats.to_query_stats();
            println!("{k}NN of {id} at α = {alpha}:");
            for n in &neighbors {
                println!("  {n}");
            }
            println!(
                "cost: {} object accesses, {} node accesses ({} from disk), {:?}",
                stats.object_accesses, stats.node_accesses, stats.node_disk_reads, stats.wall
            );
        }
        other => {
            eprintln!("unexpected response: {other:?}");
            exit(1)
        }
    }
}

/// RKNN through a daemon, printed like the local path.
fn server_rknn(
    addr: &str,
    id: fuzzy_core::ObjectId,
    k: usize,
    start: f64,
    end: f64,
    algo: RknnAlgorithm,
    flags: &HashMap<String, String>,
) {
    let mut client = connect(addr);
    let request = Request::Rknn {
        query: QuerySource::Stored(id),
        k: k as u32,
        alpha_start: start,
        alpha_end: end,
        algo,
        variant: wire_variant(flags),
        deadline_ms: get(flags, "deadline-ms").unwrap_or(0),
    };
    match call(&mut client, &request) {
        Response::Rknn { items, stats } => {
            let stats = stats.to_query_stats();
            println!("range {k}NN of {id} over [{start}, {end}] ({}):", algo.name());
            for item in &items {
                println!("  {item}");
            }
            println!(
                "cost: {} object accesses, {} candidates, {:?}",
                stats.object_accesses, stats.candidates, stats.wall
            );
        }
        other => {
            eprintln!("unexpected response: {other:?}");
            exit(1)
        }
    }
}

/// Start the resident daemon and park until a SHUTDOWN frame arrives.
fn serve_cmd(path: &str, flags: &HashMap<String, String>) {
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

/// Drive a daemon with open-loop load and write `BENCH_serve.json`.
fn loadgen_cmd(flags: &HashMap<String, String>) {
    use fuzzy_bench::serve_suite::{self, LoadgenOptions};

    let addr = flags.get("addr").cloned().unwrap_or_else(|| usage());
    // Default query ids: every stored object, as reported by INFO.
    let query_ids = csv_list(flags, "query-ids").unwrap_or_else(|| {
        let mut client = connect(&addr);
        match call(&mut client, &Request::Info) {
            Response::Info { objects, .. } => (0..objects.max(1)).collect(),
            other => {
                eprintln!("unexpected INFO response: {other:?}");
                exit(1)
            }
        }
    });
    let d = LoadgenOptions::default();
    let opts = LoadgenOptions {
        addr,
        connections: get(flags, "connections").unwrap_or(d.connections),
        qps_targets: csv_list(flags, "qps").unwrap_or(d.qps_targets),
        duration_secs: get(flags, "duration").unwrap_or(d.duration_secs),
        k: get(flags, "k").unwrap_or(d.k),
        alpha: get(flags, "alpha").unwrap_or(d.alpha),
        variant: wire_variant(flags),
        deadline_ms: get(flags, "deadline-ms").unwrap_or(d.deadline_ms),
        query_ids,
    };
    eprintln!(
        "loadgen against {}: qps {:?} x {}s over {} connections ...",
        opts.addr, opts.qps_targets, opts.duration_secs, opts.connections
    );
    let report = serve_suite::run(&opts).unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        exit(1)
    });
    let out = flags.get("out").cloned().unwrap_or_else(|| "BENCH_serve.json".into());
    serve_suite::write_report(std::path::Path::new(&out), &report).unwrap_or_else(|e| {
        eprintln!("cannot write report: {e}");
        exit(1)
    });

    println!(
        "{:>10} {:>10} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "target", "achieved", "ok", "busy", "p50 ms", "p95 ms", "p99 ms", "mean ms"
    );
    for run in report.get("runs").and_then(|r| r.as_arr()).unwrap_or(&[]) {
        let f = |key: &str| run.get(key).and_then(|v| v.as_num()).unwrap_or(f64::NAN);
        println!(
            "{:>10.0} {:>10.1} {:>6.0} {:>6.0} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            f("target_qps"),
            f("achieved_qps"),
            f("ok"),
            f("busy"),
            f("latency_ms_p50"),
            f("latency_ms_p95"),
            f("latency_ms_p99"),
            f("latency_ms_mean"),
        );
    }
    println!("-> {out}");
}

/// Publish a new index epoch on a running daemon.
fn swap_cmd(flags: &HashMap<String, String>) {
    let addr = flags.get("addr").cloned().unwrap_or_else(|| usage());
    let index_path = flags.get("index-file").cloned().unwrap_or_else(|| usage());
    let mut client = connect(&addr);
    match call(&mut client, &Request::Swap { index_path }) {
        Response::Swapped { epoch, objects } => {
            println!("swapped: epoch {epoch}, {objects} objects");
        }
        other => {
            eprintln!("unexpected response: {other:?}");
            exit(1)
        }
    }
}

/// Ask a running daemon to exit.
fn shutdown_cmd(flags: &HashMap<String, String>) {
    let addr = flags.get("addr").cloned().unwrap_or_else(|| usage());
    let mut client = connect(&addr);
    match call(&mut client, &Request::Shutdown) {
        Response::ShutdownAck => println!("server at {addr} is shutting down"),
        other => {
            eprintln!("unexpected response: {other:?}");
            exit(1)
        }
    }
}
