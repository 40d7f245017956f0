//! `fkbench`: the benchmark every speed claim on this repository is
//! measured with. See `README.md` beside this crate for the catalogue.
//!
//! ```text
//! fkbench run [--seed N] [--seconds S] [--smoke]            all four workloads, each in a fresh process
//! fkbench run --workload W [--trace 0|1] [--seed N] ...     one workload, in this process
//! fkbench noise [--seed N] [--seconds S] [--smoke]          two full runs of the same code, compared
//! fkbench compare a.json b.json                             two result files against the recorded bounds
//! ```

mod catalog;
mod clock;
mod inproc;
mod oracle;
mod report;
mod serve;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Dataset};

const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 3.0;

/// Parsed command-line flags; positional arguments are kept in order.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    dataset: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => f.workload = Some(value("--workload")?),
            "--dataset" => f.dataset = Some(value("--dataset")?),
            "--seed" => {
                f.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                f.seconds = Some(s);
            }
            "--trace" => match value("--trace")?.as_str() {
                "0" => f.trace = false,
                "1" => f.trace = true,
                other => return Err(format!("--trace takes 0 or 1, got {other}")),
            },
            "--smoke" => f.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

impl Flags {
    fn ctx(&self, out_dir: PathBuf) -> Ctx {
        Ctx {
            seed: self.seed.unwrap_or(DEFAULT_SEED),
            seconds: self.seconds.unwrap_or(if self.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            smoke: self.smoke,
            out_dir,
        }
    }
}

/// Create `data/` and `out/` beside the crate and move into `data/`:
/// everything the benchmark writes stays inside its own directory.
fn enter_workspace() -> Result<PathBuf, String> {
    let home = report::home();
    let (data, out) = (home.join("data"), home.join("out"));
    for dir in [&data, &out] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir:?}: {e}"))?;
    }
    std::env::set_current_dir(&data).map_err(|e| format!("{data:?}: {e}"))?;
    Ok(out)
}

fn run_workload(name: &str, traced: bool, ctx: &Ctx) -> Result<bool, String> {
    let spec = workloads::spec(name, ctx.smoke).ok_or_else(|| {
        format!("unknown workload {name}; the workloads are {:?}", catalog::WORKLOADS)
    })?;
    let mut outcome = match (name, traced) {
        ("serve-mixed", false) => serve::run(&spec, ctx)?,
        ("serve-mixed", true) => serve::run_traced(&spec, ctx)?,
        (_, false) => inproc::run(&spec, ctx)?,
        (_, true) => inproc::run_traced(&spec, ctx)?,
    };
    report::check_digest(name, ctx, &mut outcome);
    let tally = &outcome.tally;
    let ok_share = 1.0 - tally.failed.min(tally.attempted) as f64 / tally.attempted.max(1) as f64;
    outcome.metrics.insert("ok_share".into(), ok_share);
    report::emit(name, traced, ctx, &outcome)
}

/// Run this program again with `args`, sharing its standard output.
fn child(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe).args(args).status().map_err(|e| e.to_string())?;
    Ok(status.success())
}

/// All four workloads, untraced then traced, each in a fresh process, over
/// datasets generated once. Writes the merged result to `target`.
fn run_all(ctx: &Ctx, target: &Path) -> Result<bool, String> {
    for dataset in [Dataset::Scale, Dataset::Paper] {
        let info = workloads::ensure_dataset(dataset, ctx)?;
        println!(
            "# dataset {} — {} bytes, generated in {:.3} s",
            dataset.file(),
            info.bytes,
            info.generate_s
        );
    }
    let mut correct = true;
    for name in catalog::WORKLOADS {
        for trace in ["0", "1"] {
            let mut args: Vec<String> = ["run", "--workload", name, "--trace", trace]
                .iter()
                .map(|s| s.to_string())
                .collect();
            args.extend(["--seed".into(), ctx.seed.to_string()]);
            args.extend(["--seconds".into(), ctx.seconds.to_string()]);
            if ctx.smoke {
                args.push("--smoke".into());
            }
            correct &= child(&args)?;
        }
    }
    report::merge(&ctx.out_dir, ctx, target)?;
    println!("# merged result: {}", target.display());
    Ok(correct)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err("usage: fkbench <run|noise|compare> …  (see README.md)".into());
    };
    let flags = parse_flags(rest)?;
    match command.as_str() {
        "run" => {
            let ctx = flags.ctx(enter_workspace()?);
            match &flags.workload {
                Some(name) => run_workload(name, flags.trace, &ctx),
                None => run_all(&ctx, &ctx.out_dir.join("result.json")),
            }
        }
        "datagen" => {
            enter_workspace()?;
            let file = flags.dataset.as_deref().ok_or("datagen needs --dataset")?;
            let dataset = [Dataset::Scale, Dataset::Paper]
                .into_iter()
                .find(|d| d.file() == file)
                .ok_or(format!("unknown dataset {file}"))?;
            workloads::generate(dataset, flags.seed.unwrap_or(DEFAULT_SEED), flags.smoke)?;
            Ok(true)
        }
        "noise" => {
            let ctx = flags.ctx(enter_workspace()?);
            let (a, b) = (ctx.out_dir.join("noise-a.json"), ctx.out_dir.join("noise-b.json"));
            let correct = run_all(&ctx, &a)? & run_all(&ctx, &b)?;
            let bad = report::compare(&a, &b, true)?;
            println!(
                "# noise: {bad} metric(s) outside their bounds between two runs of the same code"
            );
            Ok(correct && bad == 0)
        }
        "compare" => {
            let [a, b] = flags.positional.as_slice() else {
                return Err("usage: fkbench compare a.json b.json".into());
            };
            // Relative paths are the caller's; resolve them before moving.
            let (a, b) = (std::path::absolute(a), std::path::absolute(b));
            let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
            let bad = report::compare(&a, &b, false)?;
            println!("# compare: {bad} metric(s) regressed or differ");
            Ok(bad == 0)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fkbench: {e}");
            ExitCode::from(2)
        }
    }
}
