//! End-to-end check of the persisted index path: build an index file with
//! `fkq build-index`, reopen it in a *fresh process* via `fkq
//! aknn/rknn --index-file`, and diff the answers against the in-memory
//! tree the same binary bulk-loads by default. Beside it: the writer's
//! bytes pinned by digest, compaction and the in-memory bulk load held to
//! `bulk_write`'s bytes, and `fkq build-index` refusing a fan-out below 2.
//! This is the test the CI `paged-roundtrip` job runs.

use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_index::{leaf_entry_len, OverlayRTree, PagedRTree, RTree, RTreeConfig};
use fuzzy_store::format::fnv1a;
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

/// A node capacity below 2 would never pack into a root: `fkq` refuses it
/// as a usage error naming the flag, and writes nothing.
#[test]
fn build_index_refuses_a_fan_out_below_two() {
    let dir = std::env::temp_dir().join(format!("fzpt-fanout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    fkq(&["generate", "--kind", "synthetic", "--n", "50", "--ppo", "8", "--out", "d.fzkn"], &dir);
    for fan_out in ["0", "1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fkq"))
            .args(["build-index", "d.fzkn", "--out", "d.fzpt", "--max-entries", fan_out])
            .current_dir(&dir)
            .output()
            .expect("spawn fkq");
        assert_eq!(out.status.code(), Some(2), "--max-entries {fan_out}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--max-entries"));
        assert!(!dir.join("d.fzpt").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}
