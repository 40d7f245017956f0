//! `fkq` reads every flag it is given or refuses to run: a misspelt flag,
//! one the path picked by the other flags never reads (a daemon address
//! beside a local-only path, a recall dial on an exact query), a flag given
//! twice or a positional argument the command does not take is a usage
//! error — exit 2, the flag or argument named on stderr, nothing answered
//! on stdout, nothing written, bound or connected — instead of an answer
//! from somewhere the caller did not ask for. A flag read but holding a
//! value the query refuses is bad input the same way: exit 2, not the
//! I/O-error code 1.

use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn fkq(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fkq")).args(args).current_dir(dir).output().expect("spawn fkq")
}

#[test]
fn fkq_refuses_a_flag_it_would_ignore() {
    let dir = std::env::temp_dir().join(format!("fz-ignored-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = fkq(&["generate", "--n", "40", "--ppo", "12", "--out", "d.fzkn"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for (args, flag) in [
        // Misspelt: RSS-ICR and LB-LP-UB would run in their place.
        (&["rknn", "d.fzkn", "--alog", "rss"][..], "--alog"),
        (&["aknn", "d.fzkn", "--varaint", "basic"][..], "--varaint"),
        // The approximate path answers locally from a VP-tree it builds.
        (
            &["aknn", "d.fzkn", "--recall-dial", "1", "--server", "A", "--variant", "basic"][..],
            "--server",
        ),
        (&["aknn", "d.fzkn", "--recall-dial", "1", "--variant", "basic"][..], "--variant"),
        (&["aknn", "d.fzkn", "--recall-dial", "1", "--deadline-ms", "5"][..], "--deadline-ms"),
        (&["aknn", "d.fzkn", "--index-file", "x.fzpt", "--recall-dial", "1"][..], "--index-file"),
        // The brute-force oracle answers locally too.
        (&["aknn", "d.fzkn", "--brute", "true", "--server", "A"][..], "--server"),
        // RKNN has no approximate path.
        (&["rknn", "d.fzkn", "--recall-dial", "1.5"][..], "--recall-dial"),
        // A buffer pool needs an index file; a query id wins over a seed.
        (&["aknn", "d.fzkn", "--cache-pages", "8"][..], "--cache-pages"),
        (&["rknn", "d.fzkn", "--query-id", "3", "--query-seed", "2"][..], "--query-seed"),
        // Naive RKNN searches no tree, so no pruning variant.
        (&["rknn", "d.fzkn", "--algo", "naive", "--variant", "basic"][..], "--variant"),
        // The cell generator has no radius.
        (&["generate", "--kind", "cell", "--radius", "3", "--out", "c.fzkn"][..], "--radius"),
        // A flag given twice has no one value: neither is read.
        (&["aknn", "d.fzkn", "--k", "5", "--k", "7"][..], "--k"),
        // A positional the command does not take.
        (&["delete", "x.fzkn", "--index-file", "d.fzpt", "--ids", "1"][..], "x.fzkn"),
        (&["aknn", "d.fzkn", "e.fzkn"][..], "e.fzkn"),
    ] {
        let out = fkq(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} answered: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    assert!(!dir.join("c.fzkn").exists(), "no dataset is written under an ignored flag");

    // The flags each path does read still run.
    for args in [
        &["rknn", "d.fzkn", "--algo", "rss", "--query-id", "3", "--variant", "basic"][..],
        &["aknn", "d.fzkn", "--brute", "true", "--query-seed", "2"][..],
        &["aknn", "d.fzkn", "--recall-dial", "1", "--measure-recall", "true"][..],
    ] {
        let out = fkq(args, &dir);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fkq_answers_a_refused_argument_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("fz-bad-arguments-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = fkq(&["generate", "--n", "40", "--ppo", "12", "--out", "d.fzkn"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for (args, says) in [
        (&["aknn", "d.fzkn", "--alpha", "1.5"][..], "probability 1.5 outside (0, 1]"),
        (&["aknn", "d.fzkn", "--alpha", "1.5", "--brute", "true"][..], "--alpha must lie"),
        (&["aknn", "d.fzkn", "--alpha", "1.5", "--recall-dial", "1"][..], "--alpha must lie"),
        (&["aknn", "d.fzkn", "--k", "0"][..], "k must be at least 1"),
        (&["rknn", "d.fzkn", "--start", "0.8", "--end", "0.3"][..], "invalid probability range"),
    ] {
        let out = fkq(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?} must say {says:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} answered: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every subcommand refuses a flag it does not read before it acts: each
/// one given `--bogus 1`, on a line it would otherwise run, exits 2 naming
/// the flag, prints nothing on stdout and leaves the directory as it was —
/// no `--out` file, no `.fzdl` sidecar, no `unix:` socket, no compaction.
#[test]
fn every_subcommand_refuses_an_unread_flag_before_it_acts() {
    let dir = std::env::temp_dir().join(format!("fz-every-command-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for setup in [
        &["generate", "--n", "40", "--ppo", "12", "--out", "d.fzkn"][..],
        &["build-index", "d.fzkn", "--out", "d.fzpt"][..],
    ] {
        let out = fkq(setup, &dir);
        assert!(out.status.success(), "{setup:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
    let listing = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let before = listing(&dir);
    let commands: [&[&str]; 11] = [
        &["generate", "--n", "10", "--ppo", "8", "--out", "g.fzkn"],
        &["info", "d.fzkn", "--index-file", "d.fzpt"],
        &["build-index", "d.fzkn", "--out", "b.fzpt"],
        &["aknn", "d.fzkn", "--k", "3"],
        &["rknn", "d.fzkn", "--k", "3"],
        &["insert", "d.fzkn", "--index-file", "d.fzpt", "--ids", "1"],
        &["delete", "--index-file", "d.fzpt", "--ids", "1"],
        &["compact", "--index-file", "d.fzpt"],
        &["serve", "d.fzkn", "--listen", "unix:s.sock"],
        &["swap", "--addr", "unix:s.sock", "--index-file", "d.fzpt"],
        &["shutdown", "--addr", "unix:s.sock"],
    ];
    for args in commands {
        let args = [args, &["--bogus", "1"]].concat();
        // A daemon that did not refuse would never exit: give it 20 s.
        let mut child = Command::new(env!("CARGO_BIN_EXE_fkq"))
            .args(&args)
            .current_dir(&dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fkq");
        let started = Instant::now();
        while child.try_wait().unwrap().is_none() {
            if started.elapsed() > Duration::from_secs(20) {
                child.kill().ok();
                panic!("{args:?} is still running");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("does not read --bogus"), "{args:?} must name --bogus: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
        assert!(listing(&dir) == before, "{args:?} changed the directory");
    }
    std::fs::remove_dir_all(&dir).ok();
}
