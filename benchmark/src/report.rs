//! Turning an [`Outcome`] into output: the printed metric lines, the
//! result files under `out/`, the one-line result the driver reads, and the
//! comparison of two result files against the bounds in `BENCHMARK.json`.

use crate::catalog::{self, END_TO_END, EXACT_END_TO_END};
use crate::sut::Json;
use crate::workloads::{Ctx, Outcome};
use std::path::{Path, PathBuf};

pub const RESULT_SCHEMA: &str = "fkbench/result/v1";

/// The benchmark's own directory (where `Cargo.toml` is).
pub fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One line of JSON: the pretty printer's output with its line breaks and
/// indentation removed (strings hold no raw line breaks, they are escaped).
pub fn one_line(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim).collect()
}

fn num_of(json: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(json, |j, key| j.get(key))?.as_num()
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a result was measured.
pub fn provenance(ctx: &Ctx) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let home = home();
    let git = command_line("git", &["-C", &home.to_string_lossy(), "rev-parse", "HEAD"]);
    Json::obj(vec![
        ("nproc", Json::num(cores as f64)),
        // Two client threads beside a server worker need two cores; a
        // result from fewer is not comparable with one from more.
        ("oversubscribed", Json::Bool(cores < 2)),
        ("cpu_model", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("git_sha", Json::str(git)),
        ("seed", Json::num(ctx.seed as f64)),
        ("run_seconds", Json::num(ctx.seconds)),
        ("smoke", Json::Bool(ctx.smoke)),
    ])
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare a run's answer digest with the recorded one, when this run is
/// of the recorded seed at full size.
pub fn check_digest(workload: &str, ctx: &Ctx, out: &mut Outcome) {
    if ctx.smoke {
        return;
    }
    let recorded = read_json(&home().join("digests.json"));
    let seed = recorded.as_ref().ok().and_then(|j| num_of(j, &["seed"]));
    let want = recorded.as_ref().ok().and_then(|j| j.get("digests")?.get(workload)?.as_str());
    let got = &out.digest;
    match (seed, want) {
        (Some(seed), Some(want)) if seed as u64 != ctx.seed || want == got => {}
        (Some(seed), Some(want)) => {
            let why = format!("answer digest {got}, recorded for seed {seed}: {want}");
            out.tally.problem(|| why);
        }
        _ => out.tally.problem(|| format!("digests.json records no digest for {workload}")),
    }
}

/// Print every metric of the run by name with its unit, save the full
/// result under `out/`, and end with the one line the driver parses.
/// Returns whether the run was correct.
pub fn emit(workload: &str, traced: bool, ctx: &Ctx, out: &Outcome) -> Result<bool, String> {
    let listed: Vec<(String, &str)> = if traced {
        catalog::per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let correct = out.tally.failed == 0;
    println!(
        "# {workload} seed {} trace {} — {} attempted, {} failed, digest {}",
        ctx.seed, traced as u8, out.tally.attempted, out.tally.failed, out.digest
    );
    let mut metrics = Vec::new();
    let mut full = Vec::new();
    for (name, unit) in &listed {
        // A per-layer metric a workload has no such layer for reads 0; an
        // end-to-end metric must always be measured.
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("{workload} did not measure {name}")),
        };
        let spread = out.spreads.get(name).copied();
        match spread {
            Some(s) => println!("{name:<36} {value:>16.6} {unit:<6} spread {s:.4}"),
            None => println!("{name:<36} {value:>16.6} {unit}"),
        }
        let entry = vec![("value", Json::num(value)), ("unit", Json::str(*unit))];
        metrics.push((name.as_str(), Json::obj(entry.clone())));
        let mut entry = entry;
        if let Some(s) = spread {
            entry.push(("spread", Json::num(s)));
        }
        full.push((name.as_str(), Json::obj(entry)));
    }
    for (key, value) in &out.info {
        println!("  {key} = {}", one_line(value));
    }
    for p in &out.tally.problems {
        println!("  FAILED: {p}");
    }

    let head = vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(out.tally.attempted as f64)),
        ("failed", Json::num(out.tally.failed as f64)),
    ];
    let mut saved = vec![
        ("schema", Json::str(RESULT_SCHEMA)),
        ("workload", Json::str(workload)),
        ("trace", Json::num(traced as u8)),
        ("digest", Json::str(out.digest.clone())),
    ];
    saved.extend(head.clone());
    saved.push(("metrics", Json::obj(full)));
    saved.push(("info", Json::obj(out.info.clone())));
    saved.push(("problems", Json::Arr(out.tally.problems.iter().map(Json::str).collect())));
    saved.push(("provenance", provenance(ctx)));
    let path = result_path(&ctx.out_dir, workload, traced);
    std::fs::write(&path, Json::obj(saved).to_pretty()).map_err(|e| e.to_string())?;

    let mut line = head;
    line.push(("metrics", Json::obj(metrics)));
    println!("{}", one_line(&Json::obj(line)));
    Ok(correct)
}

pub fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!("{workload}.{}.json", if traced { "layers" } else { "end_to_end" }))
}

/// Fold the per-workload result files of one `run` into one document.
pub fn merge(out_dir: &Path, ctx: &Ctx, target: &Path) -> Result<(), String> {
    let mut workloads = Vec::new();
    for name in catalog::WORKLOADS {
        let load = |traced| read_json(&result_path(out_dir, name, traced));
        workloads.push((
            name,
            Json::obj(vec![("end_to_end", load(false)?), ("per_layer", load(true)?)]),
        ));
    }
    let doc = Json::obj(vec![
        ("schema", Json::str(RESULT_SCHEMA)),
        ("provenance", provenance(ctx)),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(target, doc.to_pretty()).map_err(|e| e.to_string())
}

/// The bound and direction of each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let json = read_json(&home().join("../BENCHMARK.json"))?;
    let list = json.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let bound = m.get("bound").and_then(Json::as_num).ok_or("metric without bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            Ok((name.to_string(), bound, higher))
        })
        .collect()
}

fn load_result(path: &Path) -> Result<Json, String> {
    let json = read_json(path)?;
    if json.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
        return Err(format!("{path:?} is not a {RESULT_SCHEMA} file"));
    }
    Ok(json)
}

/// How one metric of one workload compares between two results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The run-to-run spread of either side exceeds the bound: the
    /// difference, whatever it reads, is not resolved.
    Unresolved,
    /// Worse by more than the bound (or, for `noise`, different by more).
    Regressed,
    /// A count that must repeat exactly did not.
    Differs,
}

/// Judge `b` against `a`. `worse_by` is the change in the worse direction
/// as a share of `a`; with `symmetric` a change in either direction counts.
pub fn judge(
    a: f64,
    b: f64,
    spread: f64,
    bound: f64,
    higher_is_better: bool,
    exact: bool,
    symmetric: bool,
) -> (f64, Verdict) {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worse_by = if higher_is_better { -change } else { change };
    let verdict = if exact {
        if a == b {
            Verdict::Ok
        } else {
            Verdict::Differs
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound || (symmetric && -worse_by > bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compare two result files workload by workload against the recorded
/// bounds; prints one row per workload and metric and returns how many
/// rows regressed or differed. Exact-repeat counts and digests are only
/// held to equality when both files ran the same seed.
pub fn compare(a_path: &Path, b_path: &Path, symmetric: bool) -> Result<usize, String> {
    let (a, b) = (load_result(a_path)?, load_result(b_path)?);
    let same_seed = num_of(&a, &["provenance", "seed"]) == num_of(&b, &["provenance", "seed"]);
    for (side, doc) in [("a", &a), ("b", &b)] {
        if doc.get("provenance").and_then(|p| p.get("oversubscribed")) == Some(&Json::Bool(true)) {
            println!("note: result {side} was measured on fewer than 2 cores (oversubscribed)");
        }
    }
    let bounds = bounds()?;
    let mut bad = 0;
    println!(
        "{:<12} {:<28} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for workload in catalog::WORKLOADS {
        let side = |doc: &Json, part: &str| doc.get("workloads")?.get(workload)?.get(part).cloned();
        let (Some(ea), Some(eb)) = (side(&a, "end_to_end"), side(&b, "end_to_end")) else {
            return Err(format!("{workload} is missing from a result file"));
        };
        for (name, bound, higher) in &bounds {
            let get = |doc: &Json, field: &str| num_of(doc, &["metrics", name, field]);
            let (Some(va), Some(vb)) = (get(&ea, "value"), get(&eb, "value")) else {
                return Err(format!("{workload}: {name} is missing from a result file"));
            };
            let spread = get(&ea, "spread").unwrap_or(0.0).max(get(&eb, "spread").unwrap_or(0.0));
            let exact = same_seed && EXACT_END_TO_END.contains(&name.as_str());
            let (worse_by, verdict) = judge(va, vb, spread, *bound, *higher, exact, symmetric);
            bad += matches!(verdict, Verdict::Regressed | Verdict::Differs) as usize;
            println!(
                "{workload:<12} {name:<28} {va:>14.5} {vb:>14.5} {:>8.2}% {:>7.2}% {:>7.2}%  {verdict:?}",
                worse_by * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
        if same_seed {
            let digest = |doc: &Json| doc.get("digest").and_then(Json::as_str).map(String::from);
            if digest(&ea) != digest(&eb) {
                bad += 1;
                println!(
                    "{workload:<12} answer digest differs: {:?} vs {:?}",
                    digest(&ea),
                    digest(&eb)
                );
            }
            if let (Some(la), Some(lb)) = (side(&a, "per_layer"), side(&b, "per_layer")) {
                for (name, _) in catalog::per_layer() {
                    let get = |doc: &Json| num_of(doc, &["metrics", &name, "value"]);
                    if catalog::is_exact_per_layer(&name) && get(&la) != get(&lb) {
                        bad += 1;
                        println!("{workload:<12} {name} differs: {:?} vs {:?}", get(&la), get(&lb));
                    }
                }
            }
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        // Lower is better: 10 % slower against a 5 % bound regresses.
        assert_eq!(judge(1.0, 1.1, 0.01, 0.05, false, false, false).1, Verdict::Regressed);
        // 10 % faster is fine one-sided, a difference for `noise`.
        assert_eq!(judge(1.0, 0.9, 0.01, 0.05, false, false, false).1, Verdict::Ok);
        assert_eq!(judge(1.0, 0.9, 0.01, 0.05, false, false, true).1, Verdict::Regressed);
        // Higher is better: a drop is the worse direction.
        let (worse_by, verdict) = judge(100.0, 90.0, 0.0, 0.05, true, false, false);
        assert!((worse_by - 0.1).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
        // A spread wider than the bound leaves the row unresolved.
        assert_eq!(judge(1.0, 1.5, 0.2, 0.1, false, false, false).1, Verdict::Unresolved);
        // Exact counts allow nothing.
        assert_eq!(judge(7.7, 7.7, 0.0, 0.1, false, true, false).1, Verdict::Ok);
        assert_eq!(judge(7.7, 7.70001, 0.0, 0.1, false, true, false).1, Verdict::Differs);
    }

    #[test]
    fn one_line_keeps_the_document() {
        let doc = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("metrics", Json::obj(vec![("qps", Json::obj(vec![("value", Json::num(1.5))]))])),
            ("text", Json::str("two\nlines  and spaces")),
        ]);
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    /// The names and units this program prints are the ones the contract
    /// file at the repository root declares, in the same order.
    #[test]
    fn printed_schema_matches_benchmark_json() {
        let json = read_json(&home().join("../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect())
        );
        assert_eq!(listed("per_layer"), own(catalog::per_layer()));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, catalog::WORKLOADS.map(String::from));
        assert!(bounds().unwrap().iter().any(|(n, b, _)| n == "setup_s" && *b > 0.0));
        let paths = json.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, &[Json::str("benchmark")]);
    }
}
