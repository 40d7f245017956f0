//! End-to-end check of the persisted index path: build an index file with
//! `fkq build-index`, reopen it in a *fresh process* via `fkq
//! aknn/rknn --index-file`, and diff the answers against the in-memory
//! tree the same binary bulk-loads by default. Beside it: the writer's
//! bytes pinned by digest, compaction and the in-memory bulk load held to
//! `bulk_write`'s bytes, `fkq build-index` refusing a fan-out below 2 and
//! it and `compact` refusing a page size below the minimum, and
//! the query subcommands failing cleanly when there is no query object to
//! load, and local `fkq rknn` running the `--variant` it is given. This is the test the CI `paged-roundtrip` job runs.

use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_index::{leaf_entry_len, OverlayRTree, PagedRTree, RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, QueryEngine, QueryScratch, RknnAlgorithm};
use fuzzy_store::format::fnv1a;
use fuzzy_store::{FileStore, ObjectStore};
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

/// `fnv1a` of the `.fzpt` v4 files [`written_index_bytes_are_pinned`]
/// writes: the key-sorted STR packing's groups, tie order and page
/// numbering (the comparison-sort writer's, which `str_differential`
/// checks node by node), in v4's page framing, checksums and id column.
const PINNED_4K: &str = "74876e44d75528d0";
const PINNED_16K: &str = "e9298ad6faf28200";

fn fkq(args: &[&str], dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fkq"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn fkq");
    assert!(
        out.status.success(),
        "fkq {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Run `fkq` and return its exit status and stderr, success or not.
fn fkq_status(args: &[&str], dir: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fkq"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn fkq");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Strip the cost line: wall-clock and the disk/cache split legitimately
/// differ between backends; the *answers* may not.
fn answers_only(output: &str) -> String {
    output.lines().filter(|l| !l.starts_with("cost:")).collect::<Vec<_>>().join("\n")
}

#[test]
fn persisted_index_answers_match_in_memory_tree_across_processes() {
    let dir = std::env::temp_dir().join(format!("fzpt-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    fkq(
        &["generate", "--kind", "synthetic", "--n", "300", "--ppo", "40", "--out", "data.fzkn"],
        &dir,
    );
    let built =
        fkq(&["build-index", "data.fzkn", "--out", "data.fzpt", "--page-size", "16384"], &dir);
    assert!(built.contains("300 objects"), "unexpected build-index output: {built}");

    // Several query shapes, each answered by both backends in separate
    // process invocations.
    for seed in ["1", "7", "23"] {
        let aknn_args = ["aknn", "data.fzkn", "--k", "8", "--alpha", "0.6", "--query-seed", seed];
        let mem = fkq(&aknn_args, &dir);
        let paged = fkq(&[&aknn_args[..], &["--index-file", "data.fzpt"]].concat(), &dir);
        assert_eq!(answers_only(&mem), answers_only(&paged), "AKNN answers diverged (seed {seed})");
        // The paged run performed real node I/O.
        let cost = paged.lines().find(|l| l.starts_with("cost:")).expect("cost line");
        assert!(!cost.contains("(0 from disk)"), "paged run read no pages: {cost}");

        let rknn_args = [
            "rknn",
            "data.fzkn",
            "--k",
            "4",
            "--start",
            "0.3",
            "--end",
            "0.8",
            "--algo",
            "rss-icr",
            "--query-seed",
            seed,
        ];
        let mem = fkq(&rknn_args, &dir);
        let paged = fkq(&[&rknn_args[..], &["--index-file", "data.fzpt"]].concat(), &dir);
        assert_eq!(answers_only(&mem), answers_only(&paged), "RKNN answers diverged (seed {seed})");
    }

    // `fkq info` reports the paged geometry.
    let info = fkq(&["info", "data.fzkn", "--index-file", "data.fzpt"], &dir);
    assert!(info.contains("paged index"), "{info}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Local `fkq rknn` runs the `--variant` it is given, as a daemon does: its
/// cost line counts the object accesses the engine charges under that
/// variant, for the same query.
#[test]
fn local_rknn_runs_the_variant_it_is_given() {
    let dir = std::env::temp_dir().join(format!("fkq-rknn-variant-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    fkq(&["generate", "--kind", "cell", "--n", "300", "--ppo", "40", "--out", "cells.fzkn"], &dir);
    let args = ["--k", "5", "--start", "0.3", "--end", "0.7", "--query-seed", "1"];
    let printed =
        fkq(&[&["rknn", "cells.fzkn"][..], &args, &["--variant", "basic"]].concat(), &dir);

    let store = FileStore::<2>::open(dir.join("cells.fzkn")).unwrap();
    let q = store.probe(store.ids()[1 % store.len()]).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let (algo, cfg) = (RknnAlgorithm::RssIcr, AknnConfig::basic());
    let want = engine.rknn_with_scratch(&q, 5, 0.3, 0.7, algo, &cfg, &mut QueryScratch::new());
    let want = format!("cost: {} object accesses,", want.unwrap().stats.object_accesses);
    let cost = printed.lines().find(|l| l.starts_with("cost:")).expect("cost line");
    assert!(cost.starts_with(&want), "printed {cost:?}, the engine charges {want:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A seeded `scale`-shaped dataset's summaries, plus 400 copies of its
/// first 400 under fresh ids: duplicate support centres pin STR's tie
/// order too.
fn pinned_summaries() -> Vec<ObjectSummary<2>> {
    let cfg = SyntheticConfig {
        num_objects: 6_000,
        points_per_object: 12,
        radius: 0.1,
        seed: 2010,
        ..SyntheticConfig::default()
    };
    let mut summaries: Vec<ObjectSummary<2>> =
        cfg.generate().map(|o| ObjectSummary::from_object(&o)).collect();
    let copies: Vec<ObjectSummary<2>> = summaries[..400]
        .iter()
        .map(|s| ObjectSummary { id: ObjectId(100_000 + s.id.0), ..*s })
        .collect();
    summaries.extend(copies);
    summaries
}

fn file_digest(path: &Path) -> String {
    format!("{:016x}", fnv1a(&std::fs::read(path).expect("read the index file")))
}

/// The `.fzpt` bytes the writer produces, pinned: any change to the STR
/// packing's groups, tie order or page numbering, or to the page encoding,
/// changes these digests.
#[test]
fn written_index_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("fzpt-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pinned.fzpt");
    for (page_size, max_entries, want) in
        [(4096u32, 16usize, PINNED_4K), (16 * 1024, 64, PINNED_16K)]
    {
        let config = RTreeConfig { max_entries };
        drop(PagedRTree::bulk_write(pinned_summaries(), config, &path, page_size).unwrap());
        assert_eq!(file_digest(&path), want, "{page_size}-byte pages, C_max {max_entries}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Compaction writes exactly what `bulk_write` writes for the overlay's
/// live summaries.
#[test]
fn compaction_writes_the_bytes_bulk_write_writes() {
    let dir = std::env::temp_dir().join(format!("fzpt-compact-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (base_path, fresh_path) = (dir.join("base.fzpt"), dir.join("fresh.fzpt"));
    let all = pinned_summaries();
    let config = RTreeConfig { max_entries: 16 };
    let base = PagedRTree::bulk_write(all[..5_000].to_vec(), config, &base_path, 4096).unwrap();
    let mut overlay = OverlayRTree::new(Arc::new(base)).unwrap();
    for id in (0..5_000).step_by(7) {
        assert!(overlay.delete(ObjectId(id)));
    }
    for s in &all[5_000..] {
        assert!(overlay.insert(*s));
    }
    let live = overlay.live_summaries().unwrap();
    drop(PagedRTree::bulk_write(live, config, &fresh_path, 4096).unwrap());
    drop(overlay.compact(4096).unwrap());
    let (compacted, fresh) =
        (std::fs::read(&base_path).unwrap(), std::fs::read(&fresh_path).unwrap());
    assert!(compacted == fresh, "compaction and bulk_write disagree");
    std::fs::remove_dir_all(&dir).ok();
}

/// An in-memory tree is the index file's bytes: `RTree::bulk_load` builds
/// the image `bulk_write` writes at the smallest page that fits a node (a
/// multiple of 8, here a full leaf plus the page overhead).
#[test]
fn bulk_load_images_are_the_bytes_bulk_write_writes() {
    let dir = std::env::temp_dir().join(format!("fzpt-image-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("written.fzpt");
    for max_entries in [16usize, 64] {
        let config = RTreeConfig { max_entries };
        let image = RTree::bulk_load(pinned_summaries(), config);
        assert_eq!(image.page_size() as usize, max_entries * leaf_entry_len(2) + 16);
        drop(PagedRTree::bulk_write(pinned_summaries(), config, &path, image.page_size()).unwrap());
        let written = std::fs::read(&path).unwrap();
        assert!(image.image() == Some(&written[..]), "C_max {max_entries}: image and file differ");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A node capacity below 2 would never pack into a root, and a page below
/// the format's minimum of 256 bytes is never written: `fkq` refuses both
/// as usage errors naming the flag, and writes nothing — `build-index`
/// creates no file, `compact` leaves the index as it was and no temporary
/// file behind.
#[test]
fn build_index_refuses_a_fan_out_below_two() {
    let dir = std::env::temp_dir().join(format!("fzpt-fanout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    fkq(&["generate", "--kind", "synthetic", "--n", "50", "--ppo", "8", "--out", "d.fzkn"], &dir);
    let refused = [
        ("--max-entries", "0"),
        ("--max-entries", "1"),
        ("--page-size", "0"),
        ("--page-size", "100"),
        ("--page-size", "255"),
    ];
    for (flag, value) in refused {
        let (code, stderr) =
            fkq_status(&["build-index", "d.fzkn", "--out", "d.fzpt", flag, value], &dir);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag) && !stderr.contains("corrupt"), "{stderr}");
        assert!(!dir.join("d.fzpt").exists());
    }
    fkq(&["build-index", "d.fzkn", "--out", "d.fzpt"], &dir);
    let before = std::fs::read(dir.join("d.fzpt")).unwrap();
    for (flag, value) in refused.into_iter().filter(|(flag, _)| *flag == "--page-size") {
        let (code, stderr) = fkq_status(&["compact", "--index-file", "d.fzpt", flag, value], &dir);
        assert_eq!(code, Some(2), "compact {flag} {value}: {stderr}");
        assert!(stderr.contains(flag) && !stderr.contains("corrupt"), "{stderr}");
        assert_eq!(std::fs::read(dir.join("d.fzpt")).unwrap(), before, "the index is untouched");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2, "no temporary file is left");
    std::fs::remove_dir_all(&dir).ok();
}

/// `aknn` and `rknn` pick their query object from the store: a store with
/// no objects, or one whose query record does not decode, is an error that
/// names the store (exit 1), never a panic.
#[test]
fn queries_without_a_loadable_query_object_fail_naming_the_store() {
    let dir = std::env::temp_dir().join(format!("fzkn-no-query-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    fkq(&["generate", "--n", "0", "--out", "empty.fzkn"], &dir);
    fkq(&["generate", "--n", "1", "--ppo", "8", "--out", "damaged.fzkn"], &dir);
    // Flip a byte inside the one object record (records start at offset
    // 16): the store opens, the probe's checksum fails.
    let mut bytes = std::fs::read(dir.join("damaged.fzkn")).unwrap();
    bytes[40] ^= 0x01;
    std::fs::write(dir.join("damaged.fzkn"), bytes).unwrap();
    for (store, says) in
        [("empty.fzkn", "stores no objects"), ("damaged.fzkn", "cannot load query object")]
    {
        for query in [
            &["aknn", store, "--k", "3"][..],
            &["rknn", store, "--k", "3", "--start", "0.3", "--end", "0.7"][..],
        ] {
            let (code, stderr) = fkq_status(query, &dir);
            assert_eq!(code, Some(1), "{query:?}: {stderr}");
            assert!(stderr.contains(store) && stderr.contains(says), "{query:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{query:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
