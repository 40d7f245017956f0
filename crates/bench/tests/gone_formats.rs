//! The retired file formats — the `.fzsm` shard manifest and the `.fzlh`
//! hash-table file (deleted by measurement), the `.fzmt` M-tree and the
//! `.fzrn` road network (deleted with the road-network metric), and the
//! `.fzvp` VP-tree (built in memory instead) — are no index at all to
//! this build: `fkq` given one fails the way it fails on any non-index
//! file, exit code 1 and a message naming the path, whether the file is
//! missing or holds an old build's bytes. A leftover flag of the
//! road-network metric, the R* split's `--min-fill`, or the stored
//! VP-tree's `--leaf-size` and `--fof-neighbors`, is refused by name. The
//! retired `bench` and `loadgen` subcommands are no commands at all:
//! usage errors that measure and write nothing (fkbench, under
//! `benchmark/`, is the one benchmark). A `.fzkn` store of the previous
//! version, v3, is refused the same way, naming the path and both
//! versions. Nothing panics, nothing is silently answered from another
//! index or under another metric.

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

    for (file, magic) in [
        ("old.fzsm", b"FZSM"),
        ("old.fzlh", b"FZLH"),
        ("old.fzmt", b"FZMT"),
        ("old.fzrn", b"FZRN"),
        ("old.fzvp", b"FZVP"),
    ] {
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

    for (flag, value) in [
        ("--metric", "graph"),
        ("--metric", "l2"),
        ("--graph", "road.fzrn"),
        ("--min-fill", "0.3"),
        ("--leaf-size", "8"),
        ("--fof-neighbors", "8"),
    ] {
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
fn fkq_refuses_the_retired_bench_and_loadgen_subcommands() {
    let dir = std::env::temp_dir().join(format!("fz-gone-harnesses-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for args in [
        &["bench"][..],
        &["bench", "--smoke", "true", "--out", "b.json"][..],
        &["loadgen", "--addr", "unix:none.sock"][..],
        &["loadgen", "--addr", "127.0.0.1:1", "--qps", "50", "--out", "s.json"][..],
    ] {
        let out = fkq(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} must print the usage: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} measured something");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    let help = fkq(&["--help"], &dir);
    assert!(help.status.success());
    let help = String::from_utf8_lossy(&help.stdout);
    assert!(help.contains("fkq aknn"), "{help}");
    for retired in ["bench", "loadgen"] {
        assert!(!help.contains(retired), "--help still lists {retired}: {help}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fkq_refuses_a_v3_store() {
    let dir = std::env::temp_dir().join(format!("fz-v3-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = fkq(&["generate", "--n", "20", "--ppo", "12", "--out", "d.fzkn"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // The version field, after the magic: 4 written, 3 patched in.
    let mut bytes = std::fs::read(dir.join("d.fzkn")).unwrap();
    assert_eq!(bytes[4..6], [4, 0]);
    bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
    std::fs::write(dir.join("v3.fzkn"), bytes).unwrap();
    for query in [
        &["info", "v3.fzkn"][..],
        &["aknn", "v3.fzkn", "--k", "3"][..],
        &["rknn", "v3.fzkn", "--k", "3"][..],
    ] {
        let out = fkq(query, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{query:?}: {stderr}");
        assert!(
            stderr.contains("cannot open v3.fzkn")
                && stderr.contains("format version 3, expected 4"),
            "{query:?} must name the path and both versions: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{query:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
    std::fs::remove_dir_all(&dir).ok();
}
