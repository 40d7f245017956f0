//! The retired file formats — the `.fzsm` shard manifest and the `.fzlh`
//! hash-table file (deleted by measurement), the `.fzmt` M-tree and the
//! `.fzrn` road network (deleted with the road-network metric) — are no
//! index at all to this build: `fkq` given one fails the way it fails on
//! any non-index file, exit code 1 and a message naming the path, whether
//! the file is missing or holds an old build's bytes. A leftover flag of
//! the road-network metric, or the R* split's `--min-fill`, is refused by
//! name, as is a mutation sweep over the in-memory tree. Nothing panics,
//! nothing is silently answered from another index or under another
//! metric.

use std::path::Path;
use std::process::{Command, Output};

fn fkq(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fkq")).args(args).current_dir(dir).output().expect("spawn fkq")
}

#[test]
fn fkq_refuses_a_shard_manifest_and_a_hash_table_file() {
    let dir = std::env::temp_dir().join(format!("fz-gone-formats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let generated = fkq(
        &["generate", "--kind", "synthetic", "--n", "40", "--ppo", "20", "--out", "d.fzkn"],
        &dir,
    );
    assert!(generated.status.success());

    for (file, magic) in
        [("old.fzsm", b"FZSM"), ("old.fzlh", b"FZLH"), ("old.fzmt", b"FZMT"), ("old.fzrn", b"FZRN")]
    {
        // Header of a file the previous build wrote: magic, version 1, two
        // dimensions, then whatever followed.
        let mut image = magic.to_vec();
        image.extend_from_slice(&[1, 0, 2, 0]);
        image.extend_from_slice(&[0x5A; 120]);
        std::fs::write(dir.join(file), image).unwrap();
        let missing = file.replace("old", "missing");

        for index in [file, missing.as_str()] {
            for query in [
                &["aknn", "d.fzkn", "--k", "3", "--alpha", "0.5"][..],
                &["rknn", "d.fzkn", "--k", "3", "--start", "0.3", "--end", "0.7"][..],
                &["info", "d.fzkn"][..],
            ] {
                let out = fkq(&[query, &["--index-file", index]].concat(), &dir);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(1), "{query:?} on {index}: {stderr}");
                assert!(
                    stderr.contains("cannot open index") && stderr.contains(index),
                    "{query:?} on {index} must name what it could not open: {stderr}"
                );
                assert!(!stderr.contains("panicked"), "{stderr}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fkq_refuses_the_road_network_flags_by_name() {
    let dir = std::env::temp_dir().join(format!("fz-gone-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let generated = fkq(
        &["generate", "--kind", "synthetic", "--n", "40", "--ppo", "20", "--out", "d.fzkn"],
        &dir,
    );
    assert!(generated.status.success());

    for (flag, value) in
        [("--metric", "graph"), ("--metric", "l2"), ("--graph", "road.fzrn"), ("--min-fill", "0.3")]
    {
        for query in [
            &["aknn", "d.fzkn", "--k", "3", "--alpha", "0.5"][..],
            &["aknn", "d.fzkn", "--k", "3", "--alpha", "0.5", "--brute", "true"][..],
            &["build-index", "d.fzkn", "--out", "d.fzpt"][..],
        ] {
            let out = fkq(&[query, &[flag, value]].concat(), &dir);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{query:?} {flag} {value}: {stderr}");
            assert!(stderr.contains(flag), "{query:?} must name {flag}: {stderr}");
            assert!(out.stdout.is_empty(), "{query:?} {flag} {value} answered something");
        }
    }
    assert!(!dir.join("d.fzpt").exists(), "no index is built under a leftover flag");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fkq_bench_refuses_a_mutation_sweep_on_the_in_memory_tree() {
    let dir = std::env::temp_dir().join(format!("fz-gone-mem-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = fkq(
        &[
            "bench",
            "--smoke",
            "true",
            "--backend",
            "mem",
            "--mutation-rate",
            "0.25",
            "--out",
            "b.json",
        ],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--backend paged"), "the refusal must name the way out: {stderr}");
    assert!(out.stdout.is_empty() && !dir.join("b.json").exists(), "nothing was benchmarked");
    std::fs::remove_dir_all(&dir).ok();
}
