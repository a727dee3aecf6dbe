//! Result lines and files, provenance, and the `all` and `compare` commands.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{obj, Json};
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::oracle::Oracle;
use crate::stats::{median, quartile_spread};
use crate::{connections, cores, flag_value, out_dir, Env, Outcome, Res, Workload};

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|s| s.name == name)
        .map_or("", |s| s.unit)
}

fn metrics_json(outcome: &Outcome) -> Json {
    obj(outcome.metrics.iter().map(|&(name, value)| {
        (
            name,
            obj([
                ("value", Json::from(value)),
                ("unit", Json::from(unit_of(name))),
            ]),
        )
    }))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn driver_line(outcome: &Outcome) -> Json {
    obj([
        ("correct", Json::from(outcome.failed == 0)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(outcome)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount `path` lives on, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(env: &Env, oracle: &Oracle, quick: bool) -> Json {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    obj([
        (
            "git_commit",
            Json::from(command_line(
                "git",
                &["-C", manifest_dir, "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        ("nproc", Json::from(cores())),
        ("connections", Json::from(connections())),
        ("n", Json::from(env.n)),
        ("quick", Json::from(quick)),
        ("seed", Json::from(env.seed)),
        ("window_s", Json::from(env.seconds)),
        ("sub_windows", Json::from(crate::SUB_WINDOWS)),
        ("setup_reps", Json::from(crate::SETUP_REPS)),
        ("cand_size", Json::from(env.cand())),
        ("gen_s", Json::from(env.gen_s)),
        ("oracle_s", Json::from(oracle.build_s)),
        ("disk_fs", Json::from(fs_type(&out_dir()))),
    ])
}

/// The full record of one run, for the result file.
pub fn result_json(
    env: &Env,
    oracle: &Oracle,
    trace: bool,
    quick: bool,
    outcome: &Outcome,
) -> Json {
    obj([
        ("workload", Json::from(env.workload.name())),
        ("trace", Json::from(u64::from(trace))),
        ("provenance", provenance(env, oracle, quick)),
        ("correct", Json::from(outcome.failed == 0)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        (
            "error_frac",
            Json::from(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("metrics", metrics_json(outcome)),
        ("notes", obj(outcome.notes.iter().cloned())),
    ])
}

fn result_path(workload: Workload, seed: u64, trace: bool, quick: bool) -> PathBuf {
    let quick = if quick { "-quick" } else { "" };
    out_dir().join(format!(
        "result-{}-seed{seed}-t{}{quick}.json",
        workload.name(),
        u8::from(trace)
    ))
}

pub fn write_result_file(env: &Env, trace: bool, quick: bool, result: &Json) -> Res<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(
        result_path(env.workload, env.seed, trace, quick),
        result.render() + "\n",
    )?;
    Ok(())
}

/// Every metric by name with its unit, for people (on standard error: the
/// last line of standard output belongs to the driver).
pub fn print_human(env: &Env, trace: bool, outcome: &Outcome) {
    eprintln!(
        "== {} seed {} n {} window {} s, {} ==",
        env.workload.name(),
        env.seed,
        env.n,
        env.seconds,
        if trace {
            "traced run (per layer)"
        } else {
            "untraced run (end to end)"
        }
    );
    for &(name, value) in &outcome.metrics {
        eprintln!("{name:<34} {value:>16.4} {}", unit_of(name));
    }
    for (name, value) in &outcome.notes {
        eprintln!("  note {name}: {}", value.render());
    }
    eprintln!(
        "attempted {} failed {} error_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
}

/// `all`: every workload, untraced then traced, each run in a fresh child
/// process (so peak RSS and allocator state do not leak between them).
/// Writes one results file; `Ok(false)` if any run failed an operation.
pub fn all_command(args: &[String]) -> Res<bool> {
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = flag_value(args, "--seed").unwrap_or("1").parse()?;
    let runs: u64 = flag_value(args, "--runs").unwrap_or("1").parse()?;
    let exe = std::env::current_exe()?;
    let mut results = Vec::new();
    let mut clean = true;
    for run in 0..runs {
        let seed = seed + run;
        for workload in Workload::ALL {
            for trace in [false, true] {
                let mut child = Command::new(&exe);
                child.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
                child.args(["--trace", if trace { "1" } else { "0" }]);
                if quick {
                    child.arg("--quick");
                }
                let status = child.stdout(std::process::Stdio::null()).status()?;
                if !status.success() {
                    return Err(format!(
                        "{} (trace {trace}) exited with {status}",
                        workload.name()
                    )
                    .into());
                }
                let text = std::fs::read_to_string(result_path(workload, seed, trace, quick))?;
                let result = Json::parse(&text)?;
                clean &= result.get("correct") == Some(&Json::Bool(true));
                results.push(result);
            }
        }
    }
    let default_out = out_dir().join(format!(
        "results-seed{seed}{}.json",
        if quick { "-quick" } else { "" }
    ));
    let out = flag_value(args, "--out").map_or(default_out, PathBuf::from);
    std::fs::write(&out, obj([("runs", Json::Arr(results))]).render() + "\n")?;
    eprintln!("wrote {}", out.display());
    if !clean {
        eprintln!("at least one workload reported failed operations (error_frac > 0)");
    }
    Ok(clean)
}

/// Untraced values of one results file: (workload, metric) → values.
fn end_to_end_values(file: &Json) -> Vec<((String, String), Vec<f64>)> {
    let mut out: Vec<((String, String), Vec<f64>)> = Vec::new();
    for run in file.get("runs").map_or(&[][..], Json::as_arr) {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, metric) in run.get("metrics").map_or(&[][..], Json::as_obj) {
            let Some(value) = metric.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let key = (workload.to_string(), name.clone());
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => out.push((key, vec![value])),
            }
        }
    }
    out
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
}

/// How much worse `change` is than `parent` as a share of the parent's
/// median (negative = better), and the verdict against `bound`.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
) -> (f64, Option<f64>, Verdict) {
    let (p, c) = (median(parent), median(change));
    let worse_by = match better {
        Better::Lower => (c - p) / p.abs(),
        Better::Higher => (p - c) / p.abs(),
    };
    let spread = match (quartile_spread(parent), quartile_spread(change)) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// `compare <parent.json> <change.json>`: per workload × end-to-end metric,
/// the relative change next to its bound. `Ok(false)` on any `worse`.
pub fn compare_command(args: &[String]) -> Res<bool> {
    let [parent, change] = args else {
        return Err("usage: compare <parent-results.json> <change-results.json>".into());
    };
    let load = |path: &String| -> Res<Json> { Ok(Json::parse(&std::fs::read_to_string(path)?)?) };
    let (parent, change) = (load(parent)?, load(change)?);
    let change_values = end_to_end_values(&change);
    let mut all_ok = true;
    println!(
        "{:<13} {:<26} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "parent", "change", "worse by", "bound", "spread"
    );
    for ((workload, name), parent_values) in end_to_end_values(&parent) {
        let Some(spec) = metrics::end_to_end(&name) else {
            continue;
        };
        let key = (workload.clone(), name.clone());
        let Some((_, values)) = change_values.iter().find(|(k, _)| *k == key) else {
            println!("{workload:<13} {name:<26} missing from the change's results");
            all_ok = false;
            continue;
        };
        let (worse_by, spread, verdict) = judge(&parent_values, values, spec.better, spec.bound);
        all_ok &= verdict != Verdict::Worse;
        println!(
            "{workload:<13} {name:<26} {:>12.4} {:>12.4} {:>+8.2}% {:>6.1}% {:>8}  {}",
            median(&parent_values),
            median(values),
            worse_by * 100.0,
            spec.bound * 100.0,
            spread.map_or("n/a".into(), |s| format!("{:.2}%", s * 100.0)),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    for (label, file) in [("parent", &parent), ("change", &change)] {
        for run in file.get("runs").map_or(&[][..], Json::as_arr) {
            if run.get("correct") != Some(&Json::Bool(true)) {
                println!(
                    "{label}: {} reported failed operations",
                    run.get("workload").and_then(Json::as_str).unwrap_or("?")
                );
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_marks_ok_worse_and_unresolved() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        // Latency up 20 % against a 10 % bound.
        let slower = steady.map(|v| v * 1.2);
        let (worse_by, _, verdict) = judge(&steady, &slower, Better::Lower, 0.10);
        assert!((worse_by - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Worse);
        // The same move is a gain for a higher-is-better metric.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.10).2, Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.10).2,
            Verdict::Worse
        );
        // Within the bound.
        let close = steady.map(|v| v * 1.05);
        assert_eq!(judge(&steady, &close, Better::Lower, 0.10).2, Verdict::Ok);
        // Spread wider than the bound: unresolved, whatever the medians say.
        let noisy = [60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10).2,
            Verdict::Unresolved
        );
        // Single runs have no spread; the medians decide.
        let (_, spread, verdict) = judge(&[100.0], &[130.0], Better::Lower, 0.10);
        assert_eq!((spread, verdict), (None, Verdict::Worse));
    }

    #[test]
    fn results_files_group_untraced_values_by_workload_and_metric() {
        let run = |workload: &str, trace: u64, value: f64| {
            obj([
                ("workload", Json::from(workload)),
                ("trace", Json::from(trace)),
                (
                    "metrics",
                    obj([("qps", obj([("value", Json::from(value))]))]),
                ),
            ])
        };
        let file = obj([(
            "runs",
            Json::Arr(vec![
                run("knn_mem", 0, 1.0),
                run("knn_mem", 1, 9.0),
                run("knn_mem", 0, 3.0),
            ]),
        )]);
        let values = end_to_end_values(&Json::parse(&file.render()).unwrap());
        assert_eq!(
            values,
            vec![(("knn_mem".to_string(), "qps".to_string()), vec![1.0, 3.0])]
        );
    }
}
