//! The repository's benchmark.
//!
//! ```text
//! benchmark run --workload NAME --seed N [--seconds S] [--trace 0|1] [--spans FILE]
//! benchmark collect --out FILE [--runs N] [--seed N] [--workload NAME]...
//! benchmark compare A B
//! ```
//!
//! `run` runs one workload in this process and prints one JSON line: the
//! end-to-end metrics of `BENCHMARK.json` from an untraced run, or with
//! `--trace 1` its per-layer metrics, with the layer table on stderr.
//! `collect` runs every workload several times, one process per run, and
//! writes a results file; `compare` judges one results file against another
//! with the bounds of `BENCHMARK.json`. See README.md.

mod compare;
mod fullproto;
mod harness;
mod metrics;
mod paper;
mod reanalyze;
mod serve;
mod trace;

use harness::{execute, Report};
use std::process::{Command, ExitCode};

/// The workloads, in the order `collect` runs them.
const WORKLOADS: [&str; 4] = ["paper", "fullproto-1m", "reanalyze", "serve-mixed"];

const USAGE: &str = "usage:
  benchmark run --workload NAME --seed N [--seconds S] [--trace 0|1] [--spans FILE]
  benchmark collect --out FILE [--runs N] [--seed N] [--workload NAME]...
  benchmark compare A B
workloads: paper, fullproto-1m, reanalyze, serve-mixed";

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage("missing command");
    };
    let result = match command.as_str() {
        "run" => run_command(rest),
        "collect" => collect_command(rest),
        "compare" => compare_command(rest),
        other => return usage(&format!("unknown command {other:?}")),
    };
    result.unwrap_or_else(|problem| usage(&problem))
}

/// `--flag value` pairs; `--workload` may repeat.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if known.contains(&flag.as_str()) => Ok((flag.clone(), value.clone())),
            [flag, _] => Err(format!("unknown flag {flag:?}")),
            [flag] => Err(format!("{flag} needs a value")),
            _ => unreachable!("chunks(2) yields one or two items"),
        })
        .collect()
}

fn value<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .iter()
        .rev()
        .find(|(flag, _)| flag == name)
        .map(|(_, v)| v.parse().map_err(|_| format!("bad value {v:?} for {name}")))
        .transpose()
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Report> {
    Some(match name {
        "paper" => execute(&paper::FULL, seed, seconds, traced),
        "fullproto-1m" => execute(&fullproto::FULL, seed, seconds, traced),
        "reanalyze" => execute(&reanalyze::FULL, seed, seconds, traced),
        "serve-mixed" => execute(&serve::FULL, seed, seconds, traced),
        _ => return None,
    })
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--spans"],
    )?;
    let workload: String = value(&flags, "--workload")?.ok_or("--workload is required")?;
    let seed: u64 = value(&flags, "--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = value(&flags, "--seconds")?.unwrap_or(20.0);
    let traced = match value::<u8>(&flags, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let spans_path: Option<String> = value(&flags, "--spans")?;
    if !seconds.is_finite() || seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    let report = run_workload(&workload, seed, seconds, traced)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;

    let walls: Vec<String> = report
        .rounds
        .iter()
        .map(|(secs, traced)| format!("{secs:.4}{}", if *traced { " (traced)" } else { "" }))
        .collect();
    eprintln!("rounds, wall seconds: {}", walls.join(", "));
    for metric in &report.metrics {
        eprintln!("{:<40} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(table) = &report.layer_table {
        eprintln!("\n{table}");
    }
    if let Some(path) = spans_path {
        if let Err(e) = std::fs::write(&path, trace::spans_json(&report.spans)) {
            eprintln!("cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    match metrics::result_line(
        report.correct,
        report.attempted,
        report.failed,
        &report.metrics,
    ) {
        Ok(line) => println!("{line}"),
        Err(problem) => {
            eprintln!("{problem}");
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_spec() -> Result<compare::Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    compare::read_spec(&text)
}

/// Runs each workload `--runs` times with seeds `--seed`, `--seed + 1`, ...,
/// one process per run, appends every result to `--out`, and prints each
/// end-to-end metric's spread next to its bound.
fn collect_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--out", "--runs", "--seed", "--workload"])?;
    let out: String = value(&flags, "--out")?.ok_or("--out is required")?;
    let runs: u64 = value(&flags, "--runs")?.unwrap_or(5);
    let first_seed: u64 = value(&flags, "--seed")?.unwrap_or(1);
    let chosen: Vec<&str> = flags
        .iter()
        .filter(|(f, _)| f == "--workload")
        .map(|(_, v)| v.as_str())
        .collect();
    let spec = read_spec()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;

    let mut lines = String::new();
    let mut failed = false;
    for workload in WORKLOADS
        .iter()
        .filter(|w| chosen.is_empty() || chosen.contains(w))
    {
        for seed in first_seed..first_seed + runs {
            let output = Command::new(&exe)
                .args(["run", "--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &spec.run_seconds.to_string(), "--trace", "0"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let Some(result) = stdout.lines().last().filter(|_| output.status.success()) else {
                eprintln!("{workload} seed {seed}: the run failed ({})", output.status);
                failed = true;
                continue;
            };
            lines.push_str(&format!(
                r#"{{"workload":"{workload}","seed":{seed},"result":{result}}}"#
            ));
            lines.push('\n');
            std::fs::write(&out, &lines).map_err(|e| format!("cannot write {out}: {e}"))?;
        }
    }

    let results = compare::read_results(&lines)?;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for workload in &spec.workloads {
        for gate in &spec.end_to_end {
            let v = compare::values(&results, workload, &gate.name);
            if v.is_empty() {
                continue;
            }
            let (q1, q3) = metrics::quartiles(&v);
            println!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>6.0}%",
                workload,
                gate.name,
                metrics::median(&v),
                q1,
                q3,
                100.0 * compare::spread(&v),
                100.0 * gate.bound
            );
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| compare::read_results(&text).map_err(|e| format!("{path}: {e}")))
    };
    let spec = read_spec()?;
    let (table, any_worse) = compare::compare(&spec, &read(a)?, &read(b)?);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use crate::harness::{execute, Workload};

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    /// Runs a workload untraced and traced with no time budget (the
    /// minimum number of rounds), and checks that every check passes and
    /// that exactly the metrics `BENCHMARK.json` names are emitted, with
    /// its units.
    pub fn assert_passes<W: Workload>(workload: &W) {
        let doc = jsonio::Json::parse(SPEC).unwrap();
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = execute(workload, 11, 0.0, traced);
            assert!(
                report.correct,
                "{} of {} checks failed",
                report.failed, report.attempted
            );
            assert!(report.attempted > 0);
            let emitted: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let listed: Vec<(&str, &str)> = doc
                .array_field(key)
                .unwrap()
                .iter()
                .map(|m| (m.str_field("name").unwrap(), m.str_field("unit").unwrap()))
                .collect();
            assert_eq!(emitted, listed, "{key}");
            crate::metrics::result_line(true, 1, 0, &report.metrics).unwrap();
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads_this_program_runs() {
        let spec = crate::compare::read_spec(SPEC).unwrap();
        assert_eq!(spec.workloads, super::WORKLOADS);
    }
}
