//! `fkq` reads every flag it is given or refuses to run: a misspelt flag,
//! or one the path picked by the other flags never reads (a daemon address
//! beside a local-only path, a recall dial on an exact query), is a usage
//! error — exit 2, the flag named on stderr, nothing answered on stdout —
//! instead of an answer from somewhere the caller did not ask for. A flag
//! read but holding a value the query refuses is bad input the same way:
//! exit 2, not the I/O-error code 1.

use std::path::Path;
use std::process::{Command, Output};

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
