//! `fkq ab`: a paired verdict between two trees' fkbench.
//!
//! `benchmark/Cargo.toml` depends on its own tree's crates by path, so a
//! tree's fkbench binary *is* that tree's library. `ab` builds both with
//! `--locked` (and refuses a build that leaves `benchmark/` dirty), then
//! runs ABBA blocks — parent, change, change, parent — of `fkbench run
//! --workload W --trace 0`, each in a fresh process, and reads each run's
//! last JSON line and its digest.
//!
//! Per end-to-end metric of the change tree's `BENCHMARK.json` it reports
//! the median per-block log-ratio `ln(change / parent)` (a block's ratio is
//! the mean of its two pairs', so a host that changes speed between blocks
//! moves both sides of a block alike), a distribution-free interval for
//! that median from the sign test, the block count, and a verdict against
//! the metric's bound `b`, read in the metric's better direction:
//!
//! * *Faster* — the whole interval is better than no change;
//! * *Slower* — the whole interval is worse than no change;
//! * *Same* — the interval holds no change and lies within `±ln(1 + b)`;
//! * *Unresolved* — anything else: more blocks are needed.
//!
//! Metrics in counts or bytes, every run's `correct`, its failed count and
//! the answer digest are held to equality instead; a difference is
//! reported and makes the command fail.

use super::{usage, Flags};
use fuzzy_bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

/// The least confidence an interval is reported at.
const CONFIDENCE: f64 = 0.9;

/// What one fkbench run reported.
struct Run {
    correct: bool,
    failed: f64,
    digest: String,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

impl Metric {
    /// Counts and byte sizes do not vary with the host: equal or wrong.
    fn is_exact(&self) -> bool {
        self.unit == "count" || self.unit == "B"
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Faster,
    Slower,
    Same,
    Unresolved,
}

/// The median of `ratios` and a sign-test interval for it.
#[derive(Debug)]
struct Summary {
    median: f64,
    lo: f64,
    hi: f64,
    /// The interval's coverage; 0 when there are too few blocks for any.
    confidence: f64,
}

/// The `p`-quantile of ascending `sorted`, interpolated between ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (i, frac) = (at.floor() as usize, at.fract());
    let next = sorted.get(i + 1).copied().unwrap_or(sorted[i]);
    sorted[i] + frac * (next - sorted[i])
}

/// `P(Bin(n, ½) ≤ j)`.
fn binomial_cdf(n: usize, j: usize) -> f64 {
    let (mut term, mut sum) = (0.5f64.powi(n as i32), 0.0);
    for i in 0..=j {
        sum += term;
        term *= (n - i) as f64 / (i + 1) as f64;
    }
    sum
}

/// The median of the block ratios and the narrowest order-statistic
/// interval `[x_(j), x_(n+1−j)]` whose sign-test coverage
/// `1 − 2·P(Bin(n, ½) ≤ j − 1)` is at least [`CONFIDENCE`]; the whole line
/// when no `j` reaches it.
fn summarize(ratios: &[f64]) -> Summary {
    let mut x = ratios.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    let mut summary = Summary {
        median: if n == 0 { f64::NAN } else { quantile(&x, 0.5) },
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        confidence: 0.0,
    };
    for j in (1..=n / 2).rev() {
        let coverage = 1.0 - 2.0 * binomial_cdf(n, j - 1);
        if coverage >= CONFIDENCE {
            (summary.lo, summary.hi, summary.confidence) = (x[j - 1], x[n - j], coverage);
            break;
        }
    }
    summary
}

/// The verdict on a summary of `ln(change / parent)`, read in the
/// metric's better direction, against its bound.
fn verdict(s: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let (lo, hi) = if higher_is_better { (s.lo, s.hi) } else { (-s.hi, -s.lo) };
    let margin = bound.ln_1p();
    if lo > 0.0 {
        Verdict::Faster
    } else if hi < 0.0 {
        Verdict::Slower
    } else if lo > -margin && hi < margin {
        Verdict::Same
    } else {
        Verdict::Unresolved
    }
}

/// Per-block `ln(change / parent)` of one metric over ABBA blocks: each
/// block is `[parent, change, change, parent]`, and its ratio is the mean
/// of its two pairs' log-ratios.
fn block_ratios(blocks: &[[f64; 4]]) -> Vec<f64> {
    blocks.iter().map(|&[a1, b1, b2, a2]| 0.5 * ((b1 / a1).ln() + (b2 / a2).ln())).collect()
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("ab: {message}");
    exit(1)
}

/// Build `tree`'s fkbench as the benchmark builds it, and refuse a build
/// that leaves `benchmark/` dirty. Returns the binary.
fn build(tree: &Path) -> PathBuf {
    let manifest = tree.join("benchmark/Cargo.toml");
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--locked", "--manifest-path"])
        .arg(&manifest)
        .env_remove("CARGO_TARGET_DIR")
        .status()
        .unwrap_or_else(|e| fail(format!("cannot run cargo: {e}")));
    if !status.success() {
        fail(format!("building {} failed", manifest.display()));
    }
    let out = Command::new("git")
        .arg("-C")
        .arg(tree)
        .args(["status", "--porcelain", "--", "benchmark"])
        .output()
        .unwrap_or_else(|e| fail(format!("cannot run git: {e}")));
    if !out.status.success() {
        fail(format!("{} is not a git checkout", tree.display()));
    }
    if !out.stdout.is_empty() {
        let dirty = String::from_utf8_lossy(&out.stdout);
        fail(format!("building left {}/benchmark dirty:\n{dirty}", tree.display()));
    }
    tree.join("benchmark/target/release/fkbench")
}

/// One `fkbench run --workload W --trace 0`: its last JSON line and the
/// digest its header line prints.
fn run(bin: &Path, workload: &str, seed: u64, seconds: f64) -> Run {
    let out = Command::new(bin)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .unwrap_or_else(|e| fail(format!("cannot run {}: {e}", bin.display())));
    let text = String::from_utf8_lossy(&out.stdout);
    let digest = text
        .lines()
        .find_map(|l| l.strip_prefix('#')?.rsplit_once("digest ").map(|(_, d)| d.trim()))
        .unwrap_or("none")
        .to_string();
    let last = text.lines().rev().find_map(|l| Json::parse(l).ok());
    let Some(Json::Obj(fields)) = last else {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        fail(format!("{} printed no JSON line", bin.display()))
    };
    let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let metrics = match field("metrics") {
        Some(Json::Obj(metrics)) => metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
            .collect(),
        _ => Vec::new(),
    };
    Run {
        correct: field("correct") == Some(&Json::Bool(true)),
        failed: field("failed").and_then(Json::as_num).unwrap_or(f64::NAN),
        digest,
        metrics,
    }
}

/// The end-to-end metrics `tree`'s `BENCHMARK.json` declares.
fn declared(tree: &Path) -> Vec<Metric> {
    let path = tree.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
    let json = Json::parse(&text).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    let list = json.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    list.iter()
        .filter_map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_num()?,
            })
        })
        .collect()
}

/// `fkq ab --parent DIR --change DIR --workload W [--seed N] [--blocks B]
/// [--seconds S]`.
pub(crate) fn ab_cmd(mut flags: Flags) {
    let parent: Option<PathBuf> = flags.get("parent");
    let change: Option<PathBuf> = flags.get("change");
    let workload: Option<String> = flags.get("workload");
    let seed: u64 = flags.get("seed").unwrap_or(11);
    let blocks: usize = flags.get("blocks").unwrap_or(5);
    let seconds: f64 = flags.get("seconds").unwrap_or(10.0);
    flags.finish("ab");
    let (Some(parent), Some(change), Some(workload)) = (parent, change, workload) else { usage() };
    if blocks == 0 || seconds.is_nan() || seconds <= 0.0 {
        eprintln!("--blocks and --seconds must be positive");
        usage()
    }
    let metrics = declared(&change);
    let bins = [build(&parent), build(&change)];
    println!(
        "ab {workload} seed {seed}: {blocks} ABBA blocks of {seconds} s runs; parent {}, change {}",
        parent.display(),
        change.display()
    );

    // runs[b][i]: block b's i-th run, in ABBA order.
    let mut runs: Vec<Vec<Run>> = Vec::new();
    for b in 0..blocks {
        let mut block = Vec::new();
        for (i, side) in [0, 1, 1, 0].into_iter().enumerate() {
            let r = run(&bins[side], &workload, seed, seconds);
            let values: Vec<String> = metrics
                .iter()
                .map(|m| format!("{} {}", m.name, r.metric(&m.name).unwrap_or(f64::NAN)))
                .collect();
            let name = ["parent", "change"][side];
            println!(
                "block {} run {} {name}: correct {} digest {} {}",
                b + 1,
                i + 1,
                r.correct,
                r.digest,
                values.join(" ")
            );
            block.push(r);
        }
        runs.push(block);
    }

    let all: Vec<&Run> = runs.iter().flatten().collect();
    let mut ok = true;
    let incorrect = all.iter().filter(|r| !r.correct).count();
    println!("correct: {} of {} runs", all.len() - incorrect, all.len());
    ok &= incorrect == 0;
    let equal = |values: &[String]| values.windows(2).all(|w| w[0] == w[1]);
    for (what, values) in [
        ("digest", all.iter().map(|r| r.digest.clone()).collect::<Vec<_>>()),
        ("failed", all.iter().map(|r| r.failed.to_string()).collect()),
    ] {
        let same = equal(&values);
        println!("{what:<28} {} {}", if same { "equal" } else { "DIFFERS" }, values[0]);
        ok &= same;
    }
    // Per metric: each side's median [quartiles], the median block
    // log-ratio (as a percentage), its interval, the blocks, the pairs the
    // change won in the metric's better direction, and the verdict.
    println!("metric: parent median [q1, q3] -> change median [q1, q3]; log-ratio; interval");
    for m in &metrics {
        let series: Vec<[f64; 4]> = runs
            .iter()
            .map(|b| std::array::from_fn(|i| b[i].metric(&m.name).unwrap_or(f64::NAN)))
            .collect();
        if m.is_exact() {
            let values: Vec<String> = series.iter().flatten().map(|v| v.to_string()).collect();
            let same = equal(&values);
            println!("{}: {} {}", m.name, if same { "equal" } else { "DIFFERS" }, values[0]);
            ok &= same;
            continue;
        }
        let side = |side: [usize; 2]| {
            let mut v: Vec<f64> = series.iter().flat_map(|b| side.map(|i| b[i])).collect();
            v.sort_by(f64::total_cmp);
            let q = |p| format!("{:.6}", quantile(&v, p));
            format!("{} [{}, {}]", q(0.5), q(0.25), q(0.75))
        };
        let (parent_side, change_side) = (side([0, 3]), side([1, 2]));
        let pairs = series.iter().flat_map(|&[a1, b1, b2, a2]| [(a1, b1), (a2, b2)]);
        let better = |(a, b): (f64, f64)| if m.higher_is_better { b > a } else { b < a };
        let wins = pairs.filter(|&pair| better(pair)).count();
        let s = summarize(&block_ratios(&series));
        println!(
            "{}: {parent_side} -> {change_side}; {:+.4} ({:+.1}%); [{:+.4}, {:+.4}] at {:.1}%; \
             {blocks} blocks; change better in {wins} of {} pairs; {:?}",
            m.name,
            s.median,
            100.0 * s.median.exp_m1(),
            s.lo,
            s.hi,
            100.0 * s.confidence,
            2 * blocks,
            verdict(&s, m.higher_is_better, m.bound)
        );
    }
    if !ok {
        fail("the runs differ where they must be equal, or a run was not correct")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` ABBA blocks of a metric whose change side is `shift` times the
    /// parent's, on a host whose speed in block `b` is `host(b)`, with a
    /// deterministic ±`noise` jitter per run.
    fn blocks(n: usize, shift: f64, noise: f64, host: impl Fn(usize) -> f64) -> Vec<[f64; 4]> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            1.0 + noise * (2.0 * (state >> 11) as f64 / (1u64 << 53) as f64 - 1.0)
        };
        (0..n)
            .map(|b| {
                let base = 1000.0 * host(b);
                [base * jitter(), base * shift * jitter(), base * shift * jitter(), base * jitter()]
            })
            .collect()
    }

    #[test]
    fn the_sign_test_interval_has_its_stated_coverage() {
        // n = 5: only the extremes, at 1 − 2/32; n = 10: the 2nd from each
        // end, at 1 − 2·11/1024; n = 4 reaches no 90 % interval.
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.median, s.lo, s.hi), (3.0, 1.0, 5.0));
        assert!((s.confidence - 0.9375).abs() < 1e-12);
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.median, s.lo, s.hi), (5.5, 2.0, 9.0));
        assert!((s.confidence - (1.0 - 22.0 / 1024.0)).abs() < 1e-12);
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.lo, s.hi, s.confidence), (f64::NEG_INFINITY, f64::INFINITY, 0.0));
    }

    #[test]
    fn a_known_shift_reads_faster_and_its_mirror_slower() {
        let r = block_ratios(&blocks(10, 1.15, 0.02, |_| 1.0));
        let s = summarize(&r);
        assert!((s.median - 1.15f64.ln()).abs() < 0.02, "{s:?}");
        assert_eq!(verdict(&s, true, 0.25), Verdict::Faster);
        // The same ratios on a lower-is-better metric (a latency) are worse.
        assert_eq!(verdict(&s, false, 0.25), Verdict::Slower);
    }

    #[test]
    fn no_shift_reads_same_or_unresolved_never_a_direction() {
        let s = summarize(&block_ratios(&blocks(10, 1.0, 0.02, |_| 1.0)));
        assert!(s.lo < 0.0 && s.hi > 0.0, "{s:?}");
        assert_eq!(verdict(&s, true, 0.25), Verdict::Same);
        // A bound tighter than the noise cannot call it the same.
        assert_eq!(verdict(&s, true, 0.001), Verdict::Unresolved);
        // Too few blocks for a 90 % interval: unresolved, whatever the data.
        let s = summarize(&block_ratios(&blocks(4, 1.5, 0.0, |_| 1.0)));
        assert_eq!(verdict(&s, true, 0.25), Verdict::Unresolved);
    }

    #[test]
    fn a_bimodal_host_does_not_hide_a_shift() {
        // The host flips between two speeds 1.4× apart from block to block:
        // pooled, the sides' spreads swamp a 10 % gain; paired in blocks it
        // reads as the shift it is, and no shift stays no shift.
        let host = |b: usize| if b % 3 == 0 { 1.4 } else { 1.0 };
        let series = blocks(10, 1.10, 0.01, host);
        let pooled = |i: [usize; 2]| -> Vec<f64> {
            series.iter().flat_map(|b| i.map(|i| b[i])).collect::<Vec<f64>>()
        };
        let (parent, change) = (pooled([0, 3]), pooled([1, 2]));
        let max_parent = parent.iter().copied().fold(0.0, f64::max);
        let min_change = change.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max_parent > min_change, "the modes overlap the shift");
        let s = summarize(&block_ratios(&series));
        assert!((s.median - 1.10f64.ln()).abs() < 0.01, "{s:?}");
        assert_eq!(verdict(&s, true, 0.25), Verdict::Faster);
        let s = summarize(&block_ratios(&blocks(10, 1.0, 0.01, host)));
        assert_eq!(verdict(&s, true, 0.25), Verdict::Same);
    }
}
