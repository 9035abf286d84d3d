//! The estimator calibration bench behind `repro estimators` and
//! `BENCH_estimators.json`.
//!
//! One run answers the question the paper leaves open — *which* network-size
//! estimator should a passive deployment trust under which churn regime? —
//! by driving the whole calibration lab end to end:
//!
//! * `measurement::replicate` reruns the vantage suite R times with
//!   deterministically derived seeds (replicate 0 is the base seed itself);
//! * one streaming campaign per scenario supplies the Kaplan–Meier
//!   session-lifetime context (`analysis::survival`);
//! * `analysis::calibration` turns the replicates into per-regime coverage,
//!   signed bias and the estimator leaderboard, with seeded-bootstrap CI95s
//!   next to the analytic ones.
//!
//! Determinism: everything in `EstimatorsBenchReport::deterministic_json`
//! is content-derived — the CI smoke job compares stdout of a 1-thread run
//! against an 8-thread run byte for byte. Wall-clock timing goes only into
//! the full report (`BENCH_estimators.json`) and stderr.

use crate::round2;
use analysis::calibration::{calibration_report, CalibrationReport};
use jsonio::Json;
use measurement::{run_replicated_vantage_suite, run_stream_suite};
use population::{ChurnScenario, MeasurementPeriod};
use simclock::SimDuration;

/// Configuration of one calibration bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorsBenchConfig {
    /// Measurement period of every campaign.
    pub period: MeasurementPeriod,
    /// Population scale.
    pub scale: f64,
    /// Base seed (replicate 0 runs it verbatim).
    pub seed: u64,
    /// Vantage points per campaign (capture occasions).
    pub vantages: usize,
    /// Seeded replicates per (scenario × vantage count) cell.
    pub replicates: usize,
    /// Bootstrap resamples per replicate (0 = analytic CIs only).
    pub bootstrap: usize,
    /// Tumbling-window width of the survival-context streaming pass.
    pub window: SimDuration,
    /// Churn regimes to calibrate under.
    pub scenarios: Vec<ChurnScenario>,
}

impl Default for EstimatorsBenchConfig {
    fn default() -> Self {
        EstimatorsBenchConfig {
            period: MeasurementPeriod::P4,
            scale: 0.005,
            seed: 1975,
            vantages: 3,
            replicates: 5,
            bootstrap: 200,
            window: SimDuration::from_hours(6),
            scenarios: ChurnScenario::all(),
        }
    }
}

/// The complete result of one calibration bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorsBenchReport {
    /// The configuration of the run.
    pub config: EstimatorsBenchConfig,
    /// The calibration report (cells, coverage, leaderboards).
    pub report: CalibrationReport,
    /// Wall-clock seconds (non-deterministic; excluded from
    /// `Self::deterministic_json`).
    pub wall_secs: f64,
}

impl EstimatorsBenchReport {
    /// The deterministic part of the report — byte-identical across
    /// `--threads` values; the CI smoke job compares exactly this.
    pub(crate) fn deterministic_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("period", self.config.period.label());
        obj.insert("scale", self.config.scale);
        obj.insert("seed", self.config.seed);
        obj.insert("vantages", self.config.vantages);
        obj.insert("replicates", self.config.replicates);
        obj.insert("bootstrap", self.config.bootstrap);
        obj.insert("window_secs", self.config.window.as_secs());
        obj.insert("calibration", self.report.to_json());
        obj
    }

    /// The full report including timing, for `BENCH_estimators.json`.
    pub(crate) fn full_json(&self) -> Json {
        let mut obj = self.deterministic_json();
        obj.insert("wall_secs", round2(self.wall_secs));
        obj
    }

    /// Human-readable one-line summary (stderr of the CLI).
    pub(crate) fn summary(&self) -> String {
        let winners: Vec<String> = self
            .report
            .cells
            .iter()
            .filter_map(|cell| {
                cell.leaderboard
                    .first()
                    .map(|best| format!("{}:{}", cell.scenario, best))
            })
            .collect();
        format!(
            "{} cells x {} replicates ({} bootstrap resamples) | best per regime: {}",
            self.report.cells.len(),
            self.report.replicates,
            self.config.bootstrap,
            winners.join(" ")
        )
    }
}

/// Runs the calibration bench, invoking `progress` with one message per
/// completed stage (replicated campaigns, survival streams, calibration).
pub fn run_estimators_bench_with_progress(
    cfg: &EstimatorsBenchConfig,
    threads: usize,
    progress: impl Fn(&str),
) -> EstimatorsBenchReport {
    let started = std::time::Instant::now();
    let suites = run_replicated_vantage_suite(
        cfg.period,
        cfg.scale,
        cfg.seed,
        cfg.vantages,
        &cfg.scenarios,
        cfg.replicates,
        threads,
    );
    progress(&format!(
        "{} replicated campaigns done",
        suites.len() * cfg.scenarios.len()
    ));
    // The survival context measures the base realisation (replicate 0's
    // seed) once per scenario; a single vantage suffices — session
    // durations are a property of the primary observer.
    let streams = run_stream_suite(
        cfg.period, cfg.scale, cfg.seed, 1, cfg.window, &cfg.scenarios, threads,
    );
    progress(&format!("{} survival streams done", streams.len()));
    let report = calibration_report(&suites, &streams, cfg.bootstrap);
    progress("calibration done");
    EstimatorsBenchReport {
        config: cfg.clone(),
        report,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_covers_every_cell_and_is_deterministic() {
        let cfg = EstimatorsBenchConfig {
            period: MeasurementPeriod::P1,
            scale: 0.003,
            replicates: 2,
            bootstrap: 50,
            scenarios: vec![ChurnScenario::Baseline, ChurnScenario::flash_crowd()],
            ..EstimatorsBenchConfig::default()
        };
        let a = run_estimators_bench_with_progress(&cfg, 1, |_| {});
        let b = run_estimators_bench_with_progress(&cfg, 4, |_| {});
        assert_eq!(
            a.deterministic_json().to_string_compact(),
            b.deterministic_json().to_string_compact(),
            "stdout must not depend on the thread count"
        );
        assert_eq!(a.report.cells.len(), 2);
        for cell in &a.report.cells {
            assert_eq!(cell.replicates, 2);
            assert_eq!(cell.estimators.len(), 4);
            assert!(cell.survival.is_some(), "every cell carries its KM context");
            assert_eq!(cell.leaderboard.len(), 4);
        }
        assert!(a.full_json().get("wall_secs").is_some());
        assert!(a.summary().contains("best per regime"));
    }
}
