//! Reading `BENCHMARK.json` and results files, and judging one set of runs
//! against another with the bounds the benchmark fixes.

use crate::metrics::{median, quartiles};
use jsonio::Json;

/// An end-to-end metric with its direction and bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the tools read.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Gate>,
}

fn schema(e: jsonio::JsonError) -> String {
    format!("BENCHMARK.json: {e}")
}

/// Parses `BENCHMARK.json`.
pub fn read_spec(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(schema)?;
    let workloads = doc
        .array_field("workloads")
        .map_err(schema)?
        .iter()
        .map(|entry| entry.str_field("name").map(str::to_string).map_err(schema))
        .collect::<Result<_, String>>()?;
    let end_to_end = doc
        .array_field("end_to_end")
        .map_err(schema)?
        .iter()
        .map(|entry| {
            Ok(Gate {
                name: entry.str_field("name").map_err(schema)?.to_string(),
                lower_is_better: entry.str_field("better").map_err(schema)? == "lower",
                bound: entry
                    .field("bound")
                    .map_err(schema)?
                    .as_f64()
                    .ok_or("BENCHMARK.json: bound must be a number")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        run_seconds: doc.u64_field("run_seconds").map_err(schema)?,
        workloads,
        end_to_end,
    })
}

/// One line of a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

/// Parses a results file: one `{"workload", "seed", "result"}` object per
/// line, `result` being the line a run prints.
pub fn read_results(text: &str) -> Result<Vec<RunResult>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = |e: jsonio::JsonError| format!("line {}: {e}", i + 1);
            let doc = Json::parse(line).map_err(bad)?;
            let metrics = doc
                .field("result")
                .and_then(|r| r.field("metrics"))
                .map_err(bad)?
                .as_object()
                .ok_or(format!("line {}: metrics is not an object", i + 1))?
                .iter()
                .map(|(name, v)| {
                    let value = v.get("value").and_then(Json::as_f64);
                    value
                        .map(|value| (name.clone(), value))
                        .ok_or(format!("line {}: {name} has no numeric value", i + 1))
                })
                .collect::<Result<_, String>>()?;
            Ok(RunResult {
                workload: doc.str_field("workload").map_err(bad)?.to_string(),
                metrics,
            })
        })
        .collect()
}

/// The values one metric took on one workload across a set of runs.
pub fn values(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Spread of a set of runs: the distance between the quartiles as a share
/// of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better: it wins nine tenths of all run pairs and the medians
    /// differ by more than A's spread.
    Better,
    /// B's median is within the bound of A's.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's spread is wider than the bound, and B does not beat A on
    /// every run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges runs `b` against baseline runs `a`.
pub fn verdict(a: &[f64], b: &[f64], gate: &Gate) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if gate.lower_is_better { x < y } else { x > y };
    let pairs = (a.len() * b.len()) as f64;
    let wins = b
        .iter()
        .map(|&y| a.iter().filter(|&&x| better(y, x)).count())
        .sum::<usize>() as f64;
    if spread(a) > gate.bound || spread(b) > gate.bound {
        return if wins == pairs {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if gate.lower_is_better {
        mb - ma
    } else {
        ma - mb
    } / ma.abs().max(f64::MIN_POSITIVE);
    if worse_by > gate.bound {
        Verdict::Worse
    } else if -worse_by > spread(a) && wins >= 0.9 * pairs {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison table, and whether any metric got worse.
pub fn compare(spec: &Spec, a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<14} {:>30} {:>30} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut any_worse = false;
    let side = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.5} [{:.5}, {:.5}]", median(v), q1, q3)
    };
    for workload in &spec.workloads {
        for gate in &spec.end_to_end {
            let (va, vb) = (
                values(a, workload, &gate.name),
                values(b, workload, &gate.name),
            );
            let v = verdict(&va, &vb, gate);
            any_worse |= v == Verdict::Worse;
            let change = (median(&vb) - median(&va)) / median(&va).abs().max(f64::MIN_POSITIVE);
            out.push_str(&format!(
                "{:<14} {:<14} {:>30} {:>30} {:>7.2}% {:>5.0}%  {} ({} vs {} runs)\n",
                workload,
                gate.name,
                side(&va),
                side(&vb),
                100.0 * change,
                100.0 * gate.bound,
                v.label(),
                va.len(),
                vb.len()
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower_is_better: bool) -> Gate {
        Gate {
            name: "m".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_on_hand_built_runs() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound either way.
        assert_eq!(
            verdict(&a, &[10.5, 10.4, 10.6, 10.5, 10.45], &gate(true)),
            Verdict::Same
        );
        // 20 % slower.
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], &gate(true)),
            Verdict::Worse
        );
        // 20 % faster, every pair won.
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], &gate(true)),
            Verdict::Better
        );
        // The same numbers read as a rate (higher is better) flip.
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], &gate(false)),
            Verdict::Worse
        );
        // A spread wider than the bound cannot call "same" or "worse".
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(
            verdict(&noisy, &[10.0, 10.0, 10.0, 10.0, 10.0], &gate(true)),
            Verdict::Unresolved
        );
        // ... but a change that beats every run still reads as better.
        assert_eq!(
            verdict(&noisy, &[1.0, 1.1, 1.2, 1.0, 1.0], &gate(true)),
            Verdict::Better
        );
        // A small gain inside the baseline's spread is "same".
        assert_eq!(
            verdict(&a, &[9.95, 10.0, 9.9, 10.0, 9.98], &gate(true)),
            Verdict::Same
        );
        assert_eq!(verdict(&a, &[], &gate(true)), Verdict::Unresolved);
    }

    #[test]
    fn results_files_round_trip_into_comparisons() {
        let spec = read_spec(include_str!("../../BENCHMARK.json")).unwrap();
        let line = |w: &str, v: f64| {
            format!(
                r#"{{"workload":"{w}","seed":1,"result":{{"correct":true,"attempted":1,"failed":0,"metrics":{{"wall_s":{{"value":{v},"unit":"s"}}}}}}}}"#
            )
        };
        let a = read_results(
            &[line("paper", 2.0), line("paper", 2.02), line("paper", 1.98)].join("\n"),
        )
        .unwrap();
        let b = read_results(
            &[line("paper", 3.0), line("paper", 3.02), line("paper", 2.98)].join("\n"),
        )
        .unwrap();
        assert_eq!(values(&a, "paper", "wall_s"), vec![2.0, 2.02, 1.98]);
        let (table, worse) = compare(&spec, &a, &b);
        assert!(worse);
        assert!(table
            .lines()
            .any(|l| l.starts_with("paper") && l.contains("wall_s") && l.contains("worse")));
        assert!(read_results("{\"workload\":\"paper\"}").is_err());
    }
}
