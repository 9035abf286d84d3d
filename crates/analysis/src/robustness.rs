//! Estimator robustness under adversarial churn.
//!
//! Section V's network-size estimators are validated in the paper only
//! against benign churn. The scenario subsystem
//! (`population::scenarios::ChurnScenario`) produces adversarial regimes —
//! PID-rotation floods, NAT-heavy populations, flash crowds — and this
//! module quantifies what each regime does to the estimators by comparing
//! them against the simulation's ground-truth *participant* count:
//!
//! * **by PIDs** — the naive upper bound; a rotation flood inflates it
//!   arbitrarily,
//! * **by IP groups** (§V-A) — collapses rotation floods (one IP) but is
//!   driven *below* truth by NAT churn (many participants per IP),
//! * **core lower bound** (§V-B, heavy + normal classes) — immune to
//!   one-time noise but blind to short-lived participants.
//!
//! [`robustness_report`] turns a set of campaigns (typically one per
//! scenario from `measurement::run_scenario_suite`) into a
//! [`RobustnessReport`] with per-scenario signed relative errors, exported
//! as deterministic JSON by the `repro scenarios` CLI subcommand. Each row
//! folds its dataset's connections once (`stream::DatasetFold`) and reads
//! the §V estimate and the Table IV classes from that one fold, with the
//! estimator code the streaming path runs.
//!
//! [`crawl_disagreement_report`] covers the *other* vantage: the DHT-level
//! adversaries (`ChurnScenario::adversaries`) are silent towards the
//! passive monitors but skew the routing tables the active crawler walks.
//! Its rows put each campaign's measured crawl recall next to the passive
//! PID horizon, so an attacked cell shows up as a crawler/monitor
//! disagreement — depressed recall, inflated adversarial discoveries,
//! truncated crawls — while the passive columns stay at their baseline
//! values. Exported by the `repro crawl` CLI subcommand.

use crate::netsize::ConnectionClass;
use crate::report;
use crate::stream::{classify_from, DatasetFold};
use jsonio::Json;
use measurement::{MeasurementCampaign, MeasurementDataset};
use population::Scenario;

/// One estimator compared against the ground-truth participant count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorError {
    /// The estimator's value.
    pub estimate: usize,
    /// The ground truth it approximates.
    pub truth: usize,
    /// `(estimate - truth) / truth`: positive = over-count, negative =
    /// under-count. Zero when both sides are zero.
    pub signed_rel_error: f64,
}

impl EstimatorError {
    /// Compares an estimate against a ground-truth value.
    pub(crate) fn new(estimate: usize, truth: usize) -> EstimatorError {
        let signed_rel_error = if truth == 0 {
            if estimate == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (estimate as f64 - truth as f64) / truth as f64
        };
        EstimatorError {
            estimate,
            truth,
            signed_rel_error,
        }
    }

    fn to_json(self) -> Json {
        let mut obj = Json::object();
        obj.insert("estimate", self.estimate);
        obj.insert("truth", self.truth);
        obj.insert("signed_rel_error", self.signed_rel_error);
        obj
    }
}

/// Estimator errors of one campaign (one scenario × period × scale × seed).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Churn-scenario label (`"baseline"`, `"pidflood"`, …).
    pub scenario: String,
    /// Measurement-period label.
    pub period: String,
    /// Population scale.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Ground-truth PIDs that ever existed in the run.
    pub truth_pids: usize,
    /// Ground-truth participants (PIDs collapsed to operators).
    pub truth_participants: usize,
    /// PIDs the primary observer actually saw.
    pub observed_pids: usize,
    /// The naive PID-count estimator vs. participants.
    pub by_pids: EstimatorError,
    /// The §V-A IP-grouping estimator vs. participants.
    pub by_ip_groups: EstimatorError,
    /// The §V-B core lower bound (heavy + normal) vs. participants.
    pub core_lower_bound: EstimatorError,
    /// Table IV class sizes `(label, peers)` for context.
    pub classes: Vec<(String, usize)>,
}

impl RobustnessRow {
    /// Renders the row as a [`Json`] object — the exact per-row shape of
    /// [`RobustnessReport::to_json`], also embedded verbatim by the
    /// calibration report's single-vantage cells (pinned byte-identical by
    /// `tests/estimator_differential.rs`).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("scenario", self.scenario.as_str());
        obj.insert("period", self.period.as_str());
        obj.insert("scale", self.scale);
        obj.insert("seed", self.seed);
        obj.insert("truth_pids", self.truth_pids);
        obj.insert("truth_participants", self.truth_participants);
        obj.insert("observed_pids", self.observed_pids);
        obj.insert("by_pids", self.by_pids.to_json());
        obj.insert("by_ip_groups", self.by_ip_groups.to_json());
        obj.insert("core_lower_bound", self.core_lower_bound.to_json());
        let mut classes = Json::object();
        for (label, count) in &self.classes {
            classes.insert(label.as_str(), *count);
        }
        obj.insert("classes", classes);
        obj
    }
}

/// Computes the robustness row of one primary dataset against its
/// ground-truth population — the shared numeric core of
/// [`scenario_robustness`] and of the calibration harness's
/// single-vantage path (`crate::calibration`): both feed the same dataset
/// and truth values through this builder, so their rows are byte-identical
/// by construction. It folds the dataset's connections once; the §V
/// estimate and the class sizes both read that fold.
pub fn robustness_row(
    dataset: &MeasurementDataset,
    scenario: &Scenario,
    truth_pids: usize,
    truth_participants: usize,
) -> RobustnessRow {
    let fold = DatasetFold::new(dataset);
    let estimate = fold.network_size();
    let classification = classify_from(fold.aggs());
    RobustnessRow {
        scenario: scenario.churn.label().to_string(),
        period: scenario.period.label().to_string(),
        scale: scenario.scale,
        seed: scenario.seed,
        truth_pids,
        truth_participants,
        observed_pids: dataset.pid_count(),
        by_pids: EstimatorError::new(estimate.by_pids, truth_participants),
        by_ip_groups: EstimatorError::new(estimate.by_ip_groups, truth_participants),
        core_lower_bound: EstimatorError::new(estimate.core_lower_bound, truth_participants),
        classes: ConnectionClass::ALL
            .iter()
            .map(|class| (class.label().to_string(), classification.count(*class)))
            .collect(),
    }
}

/// Computes the robustness row of one finished campaign.
pub fn scenario_robustness(campaign: &MeasurementCampaign) -> RobustnessRow {
    robustness_row(
        campaign.primary(),
        &campaign.scenario,
        campaign.ground_truth.population_size(),
        campaign.ground_truth_participants,
    )
}

/// Per-scenario estimator errors for a suite of campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// One row per campaign, in input order.
    pub rows: Vec<RobustnessRow>,
}

/// Computes the robustness report of a scenario suite (one row per
/// campaign, preserving the input order).
pub fn robustness_report(campaigns: &[MeasurementCampaign]) -> RobustnessReport {
    RobustnessReport {
        rows: campaigns.iter().map(scenario_robustness).collect(),
    }
}

impl RobustnessReport {
    /// Renders the report as a [`Json`] value. The output contains nothing
    /// execution-dependent, so the same campaigns always yield the same
    /// document.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert(
            "rows",
            Json::Array(self.rows.iter().map(|r| r.to_json()).collect()),
        );
        obj
    }

    /// Serialises to compact JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Renders the rows as an aligned text table (errors as signed
    /// percentages).
    pub fn summary_table(&self) -> String {
        let pct = |e: &EstimatorError| {
            if e.signed_rel_error.is_finite() {
                format!("{} ({:+.0}%)", e.estimate, e.signed_rel_error * 100.0)
            } else {
                format!("{} (inf)", e.estimate)
            }
        };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                vec![
                    row.scenario.clone(),
                    row.period.clone(),
                    row.truth_pids.to_string(),
                    row.truth_participants.to_string(),
                    pct(&row.by_pids),
                    pct(&row.by_ip_groups),
                    pct(&row.core_lower_bound),
                ]
            })
            .collect();
        report::text_table(
            &[
                "Scenario",
                "Period",
                "TruthPIDs",
                "TruthParts",
                "byPIDs",
                "byIPgroups (V-A)",
                "core (V-B)",
            ],
            &rows,
        )
    }
}

/// Crawler-vs-monitor comparison of one campaign (one scenario × period ×
/// scale × seed).
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlDisagreementRow {
    /// Churn-scenario label (`"baseline"`, `"sybil"`, `"poison"`, …).
    pub scenario: String,
    /// Measurement-period label.
    pub period: String,
    /// Population scale.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Number of crawls in the campaign.
    pub crawls: usize,
    /// Mean per-crawl recall against the honest online-server ground truth.
    pub mean_recall: f64,
    /// Worst per-crawl recall.
    pub min_recall: f64,
    /// Best per-crawl recall.
    pub max_recall: f64,
    /// Distinct honest server PIDs found across all crawls.
    pub crawler_distinct: usize,
    /// Adversarial identities that answered crawls, summed over the series
    /// (0 in benign campaigns).
    pub adversarial_found: usize,
    /// Iterative lookups issued across all crawls.
    pub lookups: usize,
    /// First-contact queries across all crawls.
    pub queries: usize,
    /// Crawls cut short by the time budget (table poisoning shows up here).
    pub truncated_crawls: usize,
    /// Total PIDs in the primary passive monitor's historic view.
    pub passive_pids: usize,
    /// DHT-Server PIDs in the primary passive monitor's historic view.
    pub passive_server_pids: usize,
}

impl CrawlDisagreementRow {
    /// Renders the row as a [`Json`] object — the exact per-row shape of
    /// [`CrawlDisagreementReport::to_json`].
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("scenario", self.scenario.as_str());
        obj.insert("period", self.period.as_str());
        obj.insert("scale", self.scale);
        obj.insert("seed", self.seed);
        obj.insert("crawls", self.crawls);
        obj.insert("mean_recall", self.mean_recall);
        obj.insert("min_recall", self.min_recall);
        obj.insert("max_recall", self.max_recall);
        obj.insert("crawler_distinct", self.crawler_distinct);
        obj.insert("adversarial_found", self.adversarial_found);
        obj.insert("lookups", self.lookups);
        obj.insert("queries", self.queries);
        obj.insert("truncated_crawls", self.truncated_crawls);
        obj.insert("passive_pids", self.passive_pids);
        obj.insert("passive_server_pids", self.passive_server_pids);
        obj
    }
}

/// Computes the crawl-disagreement row of one finished campaign.
pub fn crawl_disagreement_row(campaign: &MeasurementCampaign) -> CrawlDisagreementRow {
    let recalls: Vec<f64> = campaign.crawls.iter().map(|c| c.recall()).collect();
    let primary = campaign.primary();
    CrawlDisagreementRow {
        scenario: campaign.scenario.churn.label().to_string(),
        period: campaign.scenario.period.label().to_string(),
        scale: campaign.scenario.scale,
        seed: campaign.scenario.seed,
        crawls: campaign.crawls.len(),
        mean_recall: campaign.crawl_summary.mean_recall,
        min_recall: if recalls.is_empty() {
            0.0
        } else {
            recalls.iter().copied().fold(f64::INFINITY, f64::min)
        },
        max_recall: recalls.iter().copied().fold(0.0, f64::max),
        crawler_distinct: campaign.crawl_summary.distinct_servers,
        adversarial_found: campaign.crawls.iter().map(|c| c.adversarial_found).sum(),
        lookups: campaign.crawl_summary.total_lookups,
        queries: campaign.crawl_summary.total_queries,
        truncated_crawls: campaign.crawls.iter().filter(|c| c.truncated).count(),
        passive_pids: primary.pid_count(),
        passive_server_pids: primary.dht_server_pid_count(),
    }
}

/// Crawler-vs-monitor disagreement across a suite of campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlDisagreementReport {
    /// One row per campaign, in input order.
    pub rows: Vec<CrawlDisagreementRow>,
}

/// Computes the crawl-disagreement report of a scenario suite (one row per
/// campaign, preserving the input order).
pub fn crawl_disagreement_report(campaigns: &[MeasurementCampaign]) -> CrawlDisagreementReport {
    CrawlDisagreementReport {
        rows: campaigns.iter().map(crawl_disagreement_row).collect(),
    }
}

impl CrawlDisagreementReport {
    /// Renders the report as a [`Json`] value. The output contains nothing
    /// execution-dependent, so the same campaigns always yield the same
    /// document.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert(
            "rows",
            Json::Array(self.rows.iter().map(|r| r.to_json()).collect()),
        );
        obj
    }

    /// Renders the rows as an aligned text table (recall as percentages).
    pub fn summary_table(&self) -> String {
        let pct = |r: f64| format!("{:.0}%", r * 100.0);
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                vec![
                    row.scenario.clone(),
                    row.period.clone(),
                    row.crawls.to_string(),
                    pct(row.mean_recall),
                    pct(row.min_recall),
                    row.crawler_distinct.to_string(),
                    row.adversarial_found.to_string(),
                    row.truncated_crawls.to_string(),
                    row.passive_server_pids.to_string(),
                ]
            })
            .collect();
        report::text_table(
            &[
                "Scenario",
                "Period",
                "Crawls",
                "Recall",
                "MinRecall",
                "Distinct",
                "AdvFound",
                "Truncated",
                "PassiveSrv",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::run_scenario_suite;
    use population::{ChurnScenario, MeasurementPeriod};

    #[test]
    fn estimator_error_is_signed_and_handles_zero_truth() {
        let over = EstimatorError::new(150, 100);
        assert!((over.signed_rel_error - 0.5).abs() < 1e-12);
        let under = EstimatorError::new(50, 100);
        assert!((under.signed_rel_error + 0.5).abs() < 1e-12);
        assert_eq!(EstimatorError::new(0, 0).signed_rel_error, 0.0);
        assert!(EstimatorError::new(5, 0).signed_rel_error.is_infinite());
    }

    #[test]
    fn report_tells_the_rotation_flood_story() {
        let scenarios = vec![ChurnScenario::Baseline, ChurnScenario::pid_rotation_flood()];
        let campaigns = run_scenario_suite(MeasurementPeriod::P4, 0.004, 5, &scenarios, 2);
        let report = robustness_report(&campaigns);
        assert_eq!(report.rows.len(), 2);
        let row = |scenario| report.rows.iter().find(|r| r.scenario == scenario).unwrap();
        let (baseline, flood) = (row("baseline"), row("pidflood"));
        // The flood adds many PIDs but exactly one participant, so the naive
        // PID estimator degrades more than the §V-A IP grouping.
        assert_eq!(flood.truth_participants, baseline.truth_participants + 1);
        assert!(flood.truth_pids > baseline.truth_pids);
        assert!(
            flood.by_pids.signed_rel_error > baseline.by_pids.signed_rel_error,
            "a PID flood must inflate the naive estimator's error ({} vs {})",
            flood.by_pids.signed_rel_error,
            baseline.by_pids.signed_rel_error
        );
        let grouping_degradation =
            flood.by_ip_groups.signed_rel_error - baseline.by_ip_groups.signed_rel_error;
        let naive_degradation = flood.by_pids.signed_rel_error - baseline.by_pids.signed_rel_error;
        assert!(
            grouping_degradation < naive_degradation,
            "IP grouping must absorb the flood better than PID counting ({grouping_degradation} vs {naive_degradation})"
        );
        // Estimator ordering survives every scenario.
        for row in &report.rows {
            assert!(row.by_ip_groups.estimate <= row.by_pids.estimate);
            assert!(row.core_lower_bound.estimate <= row.by_ip_groups.estimate);
        }
    }

    #[test]
    fn crawl_disagreement_separates_the_vantages() {
        let scenarios = vec![ChurnScenario::Baseline, ChurnScenario::table_poison()];
        let campaigns = run_scenario_suite(MeasurementPeriod::P4, 0.004, 5, &scenarios, 2);
        let report = crawl_disagreement_report(&campaigns);
        assert_eq!(report.rows.len(), 2);
        let row = |scenario| report.rows.iter().find(|r| r.scenario == scenario).unwrap();
        let (baseline, poison) = (row("baseline"), row("poison"));
        assert_eq!(baseline.adversarial_found, 0);
        assert!(poison.adversarial_found > 0, "poisoners answer crawls");
        assert!(
            poison.mean_recall <= baseline.mean_recall,
            "poisoning cannot improve crawler recall ({} vs {})",
            poison.mean_recall,
            baseline.mean_recall
        );
        // The attack lives entirely in the DHT layer: the passive monitors
        // record the exact same horizon in both campaigns.
        assert_eq!(poison.passive_pids, baseline.passive_pids);
        assert_eq!(poison.passive_server_pids, baseline.passive_server_pids);
        for row in &report.rows {
            assert!(row.min_recall <= row.mean_recall && row.mean_recall <= row.max_recall);
            assert!(row.crawls > 0);
        }
        let json = report.to_json();
        assert_eq!(json.array_field("rows").unwrap().len(), 2);
        let table = report.summary_table();
        assert!(table.contains("poison"));
        assert!(table.contains('%'));
    }

    #[test]
    fn report_json_and_table_are_deterministic_and_complete() {
        let scenarios = vec![ChurnScenario::Baseline, ChurnScenario::nat_churn()];
        let campaigns = run_scenario_suite(MeasurementPeriod::P1, 0.003, 9, &scenarios, 1);
        let report = robustness_report(&campaigns);
        let again = robustness_report(&campaigns);
        assert_eq!(report.to_json_string(), again.to_json_string());
        let json = report.to_json();
        let rows = json.array_field("rows").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].str_field("scenario").unwrap(), "baseline");
        assert_eq!(rows[1].str_field("scenario").unwrap(), "natchurn");
        assert!(rows[1].u64_field("truth_participants").unwrap() > 0);
        assert!(rows[1]
            .field("by_ip_groups")
            .unwrap()
            .u64_field("estimate")
            .is_ok());
        let table = report.summary_table();
        assert!(table.contains("natchurn"));
        assert!(table.contains('%'));
    }
}
