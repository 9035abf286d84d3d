//! Estimator calibration: seeded replicates, bootstrap CIs, empirical
//! coverage and the per-regime leaderboard.
//!
//! The paper's methodological question is *which* network-size estimator a
//! passive deployment should trust under which churn regime. Point
//! estimates answer half of it; the other half is whether an estimator's
//! 95 % confidence interval means anything. This module measures exactly
//! that, over the replicated campaigns `measurement::replicate` produces:
//!
//! 1. Each replicate's vantage PID sets collapse into a
//!    `CaptureHistory` — one capture-occasion bitmask per observed PID —
//!    from which every capture–recapture estimator (Lincoln–Petersen,
//!    Chao1, Chao2, first-order jackknife) computes a point estimate and
//!    its *analytic* CI95, plus a seeded-**bootstrap** CI95 (percentile
//!    method over resampled capture histories; the seed derives from the
//!    campaign seed with the same SplitMix64 chain as `measurement::sweep`,
//!    so the resampling is deterministic at any thread count).
//! 2. Across the R replicates of a cell, [`calibration_report`] then
//!    measures each estimator's **signed bias** (mean estimate vs. mean
//!    ground truth), its **truth coverage** (how often an interval
//!    contains that replicate's true PID count — bias shows up here) and
//!    its **self coverage** (how often an interval contains the
//!    estimator's own cross-replicate mean — pure interval calibration,
//!    meaningful even for estimators that are biased under heterogeneous
//!    capture).
//! 3. Estimators are ranked per regime by absolute signed bias into the
//!    cell's [`leaderboard`](CalibrationCell::leaderboard) — the surface of
//!    the `repro estimators` CLI subcommand.
//! 4. Each cell also calibrates the **window** (time-sliced) histories of
//!    the primary vantage: [`WINDOW_OCCASIONS`] equal slices of the first
//!    [`WINDOW_SPAN_SECS`], measured against the span's true ever-online
//!    count. Vantage occasions saturate on long campaigns (every vantage
//!    eventually sees almost every peer, so the intervals collapse to
//!    sub-peer slivers); window occasions keep capture probability
//!    moderate, which is what makes CI95 coverage a meaningful quantity —
//!    the tier-1 coverage test (`tests/calibration_coverage.rs`) asserts
//!    its `[0.85, 0.99]` band on these cells. The lab's measured verdict:
//!    the Chao family's intervals are calibrated there, the jackknife's
//!    undercover (≈ 0.75–0.8), and Lincoln–Petersen is misspecified for
//!    serial slices (`WINDOW_ESTIMATORS` excludes it by design).
//!
//! Single-vantage cells have no capture structure; their cells instead
//! embed the per-replicate [`RobustnessRow`]s (byte-identical to
//! `analysis::robustness` — shared builder, pinned by
//! `tests/estimator_differential.rs`) and rank the single-vantage
//! estimators by mean absolute error. Every cell also carries the
//! Kaplan–Meier session-lifetime summary of the matching streaming
//! campaign when one is supplied — the leaderboard reads "under this churn
//! (median session X s, hazard Y/h), trust estimator Z".

use crate::robustness::{robustness_row, RobustnessRow};
use crate::survival::{analyze_survival, SurvivalAnalysis};
use crate::{report, vantage};
use jsonio::Json;
use measurement::{ReplicateSuite, StreamingCampaign, VantageCampaign};
use simclock::rng::fnv1a;
use simclock::stats::percentile_sorted;
use simclock::SimRng;

/// The capture–recapture estimators the calibration lab ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EstimatorKind {
    /// Chapman's bias-corrected Lincoln–Petersen (primary vs. rest).
    LincolnPetersen,
    /// Bias-corrected Chao1 over the capture-frequency histogram.
    Chao1,
    /// Classic Chao2 incidence estimator (bias-corrected at `f2 = 0`).
    Chao2,
    /// First-order jackknife with the Heltshe–Forrester variance.
    Jackknife1,
}

impl EstimatorKind {
    /// Every estimator, in report order.
    pub const ALL: [EstimatorKind; 4] = [
        EstimatorKind::LincolnPetersen,
        EstimatorKind::Chao1,
        EstimatorKind::Chao2,
        EstimatorKind::Jackknife1,
    ];

    /// Stable label used in JSON, tables and seed derivation.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            EstimatorKind::LincolnPetersen => "lincoln_petersen",
            EstimatorKind::Chao1 => "chao1",
            EstimatorKind::Chao2 => "chao2",
            EstimatorKind::Jackknife1 => "jackknife1",
        }
    }

    /// Applies the estimator to a capture history. `None` below two
    /// occasions (no capture structure to exploit).
    pub(crate) fn estimate(&self, history: &CaptureHistory) -> Option<vantage::CaptureRecapture> {
        match self {
            EstimatorKind::LincolnPetersen => {
                let (n1, n2, m) = history.two_occasion_view();
                vantage::lincoln_petersen(n1, n2, m)
            }
            EstimatorKind::Chao1 => {
                let (f1, f2) = history.f1_f2();
                vantage::chao1(history.occasions, history.observed(), f1, f2)
            }
            EstimatorKind::Chao2 => {
                let (f1, f2) = history.f1_f2();
                vantage::chao2(history.occasions, history.observed(), f1, f2)
            }
            EstimatorKind::Jackknife1 => vantage::jackknife1(
                history.occasions,
                history.observed(),
                &history.uniques_per_occasion(),
            ),
        }
    }
}

/// The incidence matrix of one replicate, compressed: one bitmask per
/// observed PID with bit `i` set iff capture occasion (vantage) `i` saw
/// the PID. Mask order follows PID order, so histories are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CaptureHistory {
    /// Number of capture occasions (vantages).
    pub occasions: usize,
    /// One occasion bitmask per observed PID.
    pub masks: Vec<u32>,
}

impl CaptureHistory {
    /// Builds the history from per-occasion sorted PID sets (the same
    /// inputs [`vantage::accumulation_rows`] consumes).
    pub(crate) fn from_sets(sets: &[Vec<p2pmodel::PeerId>]) -> CaptureHistory {
        let mut by_pid: std::collections::BTreeMap<p2pmodel::PeerId, u32> =
            std::collections::BTreeMap::new();
        for (occasion, set) in sets.iter().enumerate() {
            for pid in set {
                *by_pid.entry(*pid).or_insert(0) |= 1 << occasion;
            }
        }
        CaptureHistory {
            occasions: sets.len(),
            masks: by_pid.into_values().collect(),
        }
    }

    /// Builds the history of a vantage campaign (one occasion per deployed
    /// vantage, in deployment order).
    pub(crate) fn from_campaign(campaign: &VantageCampaign) -> CaptureHistory {
        let sets: Vec<Vec<p2pmodel::PeerId>> = campaign
            .vantages
            .iter()
            .map(|d| d.peers.keys().copied().collect())
            .collect();
        CaptureHistory::from_sets(&sets)
    }

    /// Builds a **time-sliced** history from one dataset: the first `span`
    /// of the measurement divided into `occasions` equal windows, a PID
    /// captured in window `i` iff one of its connections overlaps that
    /// window. Connections opening after the span are ignored.
    ///
    /// This is the classic trapping-occasion formulation for churn data.
    /// Vantage occasions saturate on long campaigns (every vantage
    /// eventually sees almost every peer, so recapture carries almost no
    /// information and the CIs collapse to sub-peer slivers); window
    /// occasions keep per-occasion capture probability moderate — sessions
    /// are much shorter than the campaign — which is what makes the
    /// analytic and bootstrap intervals of the benign calibration cells
    /// actually mean something. A bounded `span` (clamped to the
    /// measurement duration) keeps the closed-population violation
    /// comparable across campaigns of different length: slicing a 3-day
    /// campaign whole inflates the singleton count with turnover and
    /// destabilises the Chao family. `occasions` is clamped to `2..=32`
    /// (the mask width).
    pub(crate) fn from_time_windows(
        dataset: &measurement::MeasurementDataset,
        occasions: usize,
        span: simclock::SimDuration,
    ) -> CaptureHistory {
        let occasions = occasions.clamp(2, 32);
        let full = (dataset.ended_at - dataset.started_at).as_millis();
        let span = u128::from(span.as_millis().clamp(1, full.max(1)));
        let mut by_pid: std::collections::BTreeMap<p2pmodel::PeerId, u32> =
            std::collections::BTreeMap::new();
        for conn in &dataset.connections {
            let lo = u128::from(conn.opened_at.saturating_since(dataset.started_at).as_millis());
            if lo >= span {
                continue;
            }
            let hi = u128::from(conn.closed_at.saturating_since(dataset.started_at).as_millis())
                .min(span - 1);
            let first = ((lo * occasions as u128 / span) as usize).min(occasions - 1);
            let last = ((hi * occasions as u128 / span) as usize).min(occasions - 1);
            let mask = by_pid.entry(conn.peer).or_insert(0);
            for window in first..=last {
                *mask |= 1 << window;
            }
        }
        CaptureHistory {
            occasions,
            masks: by_pid.into_values().collect(),
        }
    }

    /// Observed PIDs (the union size).
    pub(crate) fn observed(&self) -> usize {
        self.masks.len()
    }

    /// Singleton and doubleton counts of the capture-frequency histogram.
    pub(crate) fn f1_f2(&self) -> (usize, usize) {
        let mut f1 = 0;
        let mut f2 = 0;
        for mask in &self.masks {
            match mask.count_ones() {
                1 => f1 += 1,
                2 => f2 += 1,
                _ => {}
            }
        }
        (f1, f2)
    }

    /// Occasion-unique PID counts per occasion (the jackknife's `s_j`
    /// input): entry `i` counts the PIDs seen *only* by occasion `i`.
    pub(crate) fn uniques_per_occasion(&self) -> Vec<usize> {
        let mut uniques = vec![0usize; self.occasions];
        for mask in &self.masks {
            if mask.count_ones() == 1 {
                uniques[mask.trailing_zeros() as usize] += 1;
            }
        }
        uniques
    }

    /// Lincoln–Petersen's two-occasion collapse `(n1, n2, m)`: the primary
    /// occasion vs. the union of the rest — the identical arithmetic of
    /// [`vantage::accumulation_rows`], so the point estimates agree
    /// bit-for-bit.
    pub(crate) fn two_occasion_view(&self) -> (usize, usize, usize) {
        let union = self.masks.len();
        let mut n1 = 0;
        let mut m = 0;
        for mask in &self.masks {
            if mask & 1 != 0 {
                n1 += 1;
                if mask.count_ones() >= 2 {
                    m += 1;
                }
            }
        }
        (n1, union - n1 + m, m)
    }
}

/// Percentile-bootstrap CI95s for every estimator over one capture
/// history: `replicates` resamples of the PID masks (with replacement,
/// seeded), each re-evaluated through all estimators, then the 2.5 / 97.5
/// percentiles of each estimator's bootstrap distribution.
///
/// Returns one `(kind, Option<(low, high)>)` per [`EstimatorKind::ALL`]
/// entry; `None` when the estimator never produced a value (e.g. below two
/// occasions) or `replicates == 0`. Deterministic in `seed`.
pub(crate) fn bootstrap_cis(
    history: &CaptureHistory,
    replicates: usize,
    seed: u64,
) -> Vec<(EstimatorKind, Option<(f64, f64)>)> {
    let n = history.masks.len();
    let mut distributions: Vec<Vec<f64>> =
        (0..4).map(|_| Vec::with_capacity(replicates)).collect();
    if n > 0 {
        let mut rng = SimRng::seed_from(seed);
        let mut resampled = CaptureHistory {
            occasions: history.occasions,
            masks: vec![0; n],
        };
        for _ in 0..replicates {
            for slot in resampled.masks.iter_mut() {
                *slot = history.masks[rng.index(n)];
            }
            for (k, kind) in EstimatorKind::ALL.iter().enumerate() {
                if let Some(cr) = kind.estimate(&resampled) {
                    distributions[k].push(cr.estimate);
                }
            }
        }
    }
    EstimatorKind::ALL
        .iter()
        .zip(distributions)
        .map(|(&kind, mut dist)| {
            if dist.is_empty() {
                return (kind, None);
            }
            dist.sort_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
            let low = percentile_sorted(&dist, 0.025);
            let high = percentile_sorted(&dist, 0.975);
            (kind, Some((low, high)))
        })
        .collect()
}

/// Derives the bootstrap seed of one cell replicate: the campaign seed
/// mixed with the scenario label and a fixed domain tag through the
/// sweep's SplitMix64 chain — unique per (replicate, scenario),
/// independent of scheduling.
pub(crate) fn bootstrap_seed(campaign_seed: u64, scenario_label: &str) -> u64 {
    let mut state = campaign_seed ^ fnv1a(scenario_label);
    simclock::rng::splitmix64(&mut state);
    state ^= fnv1a("bootstrap");
    simclock::rng::splitmix64(&mut state);
    state
}

/// Capture occasions of the calibration harness's time-sliced (window)
/// histories.
pub const WINDOW_OCCASIONS: usize = 12;

/// Span the window histories slice, in seconds (clamped to the campaign
/// duration): bounding the span keeps the closed-population violation
/// comparable across measurement periods of different length.
pub const WINDOW_SPAN_SECS: u64 = 86_400;

/// The estimators calibrated on window histories: the Chao family plus
/// the jackknife. Lincoln–Petersen is excluded *by design* — its
/// two-occasion collapse (first occasion vs. the rest) is misspecified
/// for serial time slices, where session persistence across the block
/// boundary makes recapture nearly certain and degenerates the interval.
pub(crate) const WINDOW_ESTIMATORS: [EstimatorKind; 3] = [
    EstimatorKind::Chao1,
    EstimatorKind::Chao2,
    EstimatorKind::Jackknife1,
];

/// Derives the bootstrap seed of one replicate's *window* history —
/// [`bootstrap_seed`] pushed through one more domain-tagged SplitMix64
/// step so vantage and window resampling streams never alias.
pub(crate) fn window_bootstrap_seed(campaign_seed: u64, scenario_label: &str) -> u64 {
    let mut state = bootstrap_seed(campaign_seed, scenario_label) ^ fnv1a("windows");
    simclock::rng::splitmix64(&mut state);
    state
}

/// One estimator's samples from one replicate.
#[derive(Debug, Clone, PartialEq)]
struct EstimatorSample {
    estimate: f64,
    analytic: (f64, f64),
    bootstrap: Option<(f64, f64)>,
    truth_pids: usize,
}

/// The calibration verdict of one estimator in one cell, across all
/// replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorCalibration {
    /// Estimator label (see `EstimatorKind::label`).
    pub estimator: String,
    /// Replicates in which the estimator produced a value.
    pub replicates_with_estimate: usize,
    /// Mean point estimate across those replicates.
    pub mean_estimate: f64,
    /// Mean ground-truth PID count across those replicates.
    pub mean_truth: f64,
    /// `(mean_estimate − mean_truth) / mean_truth` — the estimator's
    /// systematic error under this regime.
    pub signed_bias: f64,
    /// Mean per-replicate `|estimate − truth| / truth`.
    pub mean_abs_rel_error: f64,
    /// Fraction of replicates whose *analytic* CI95 contains that
    /// replicate's ground truth (bias pulls this down).
    pub coverage_truth_analytic: f64,
    /// Fraction whose *bootstrap* CI95 contains the ground truth.
    pub coverage_truth_bootstrap: Option<f64>,
    /// Fraction whose analytic CI95 contains the estimator's own
    /// cross-replicate mean — interval calibration against the sampling
    /// distribution, the quantity a well-specified CI must cover ~95 % of
    /// the time regardless of bias.
    pub coverage_self_analytic: f64,
    /// Fraction whose bootstrap CI95 contains the cross-replicate mean.
    pub coverage_self_bootstrap: Option<f64>,
    /// Mean analytic CI width relative to the mean truth.
    pub mean_rel_width_analytic: f64,
    /// Mean bootstrap CI width relative to the mean truth.
    pub mean_rel_width_bootstrap: Option<f64>,
}

impl EstimatorCalibration {
    fn from_samples(estimator: &str, samples: &[EstimatorSample]) -> Option<EstimatorCalibration> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean_estimate = samples.iter().map(|s| s.estimate).sum::<f64>() / n;
        let mean_truth = samples.iter().map(|s| s.truth_pids as f64).sum::<f64>() / n;
        let mean_abs_rel_error = samples
            .iter()
            .map(|s| (s.estimate - s.truth_pids as f64).abs() / (s.truth_pids as f64).max(1.0))
            .sum::<f64>()
            / n;
        let covers = |interval: (f64, f64), value: f64| interval.0 <= value && value <= interval.1;
        let fraction = |hits: usize| hits as f64 / n;
        let coverage_truth_analytic = fraction(
            samples.iter().filter(|s| covers(s.analytic, s.truth_pids as f64)).count(),
        );
        let coverage_self_analytic =
            fraction(samples.iter().filter(|s| covers(s.analytic, mean_estimate)).count());
        let mean_rel_width_analytic = samples
            .iter()
            .map(|s| (s.analytic.1 - s.analytic.0) / mean_truth.max(1.0))
            .sum::<f64>()
            / n;
        let with_bootstrap: Vec<&EstimatorSample> =
            samples.iter().filter(|s| s.bootstrap.is_some()).collect();
        let boot = |f: &dyn Fn(&EstimatorSample) -> f64| -> Option<f64> {
            if with_bootstrap.is_empty() {
                None
            } else {
                Some(with_bootstrap.iter().map(|s| f(s)).sum::<f64>() / with_bootstrap.len() as f64)
            }
        };
        let coverage_truth_bootstrap = boot(&|s| {
            f64::from(covers(s.bootstrap.expect("filtered"), s.truth_pids as f64))
        });
        let coverage_self_bootstrap =
            boot(&|s| f64::from(covers(s.bootstrap.expect("filtered"), mean_estimate)));
        let mean_rel_width_bootstrap = boot(&|s| {
            let (low, high) = s.bootstrap.expect("filtered");
            (high - low) / mean_truth.max(1.0)
        });
        Some(EstimatorCalibration {
            estimator: estimator.to_string(),
            replicates_with_estimate: samples.len(),
            mean_estimate,
            mean_truth,
            signed_bias: if mean_truth > 0.0 {
                (mean_estimate - mean_truth) / mean_truth
            } else {
                0.0
            },
            mean_abs_rel_error,
            coverage_truth_analytic,
            coverage_truth_bootstrap,
            coverage_self_analytic,
            coverage_self_bootstrap,
            mean_rel_width_analytic,
            mean_rel_width_bootstrap,
        })
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("estimator", self.estimator.as_str());
        obj.insert("replicates_with_estimate", self.replicates_with_estimate);
        obj.insert("mean_estimate", self.mean_estimate);
        obj.insert("mean_truth", self.mean_truth);
        obj.insert("signed_bias", self.signed_bias);
        obj.insert("mean_abs_rel_error", self.mean_abs_rel_error);
        obj.insert("coverage_truth_analytic", self.coverage_truth_analytic);
        let opt = |v: Option<f64>| v.map(Json::Float).unwrap_or(Json::Null);
        obj.insert("coverage_truth_bootstrap", opt(self.coverage_truth_bootstrap));
        obj.insert("coverage_self_analytic", self.coverage_self_analytic);
        obj.insert("coverage_self_bootstrap", opt(self.coverage_self_bootstrap));
        obj.insert("mean_rel_width_analytic", self.mean_rel_width_analytic);
        obj.insert("mean_rel_width_bootstrap", opt(self.mean_rel_width_bootstrap));
        obj
    }
}

/// One (churn regime × vantage count) cell of the calibration grid, across
/// all replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationCell {
    /// Churn-scenario label.
    pub scenario: String,
    /// Measurement-period label.
    pub period: String,
    /// Population scale.
    pub scale: f64,
    /// Vantage count of the cell.
    pub vantages: usize,
    /// Replicates run.
    pub replicates: usize,
    /// Campaign seeds of the replicates, in replicate order.
    pub seeds: Vec<u64>,
    /// Mean ground-truth PID count across replicates.
    pub truth_pids_mean: f64,
    /// Kaplan–Meier session-lifetime summary of the matching streaming
    /// campaign (when one was supplied).
    pub survival: Option<SurvivalAnalysis>,
    /// The single-vantage robustness rows, one per replicate —
    /// byte-identical to `analysis::robustness` on the same campaigns.
    pub single_vantage: Vec<RobustnessRow>,
    /// Per-estimator calibration results (empty below two vantages).
    pub estimators: Vec<EstimatorCalibration>,
    /// Per-estimator calibration over the primary vantage's **window**
    /// history ([`WINDOW_OCCASIONS`] slices of the first
    /// [`WINDOW_SPAN_SECS`]), measured against the span's true
    /// ever-online count — the benign, assumption-compatible cells the
    /// tier-1 coverage test asserts on. `WINDOW_ESTIMATORS` only.
    pub window_estimators: Vec<EstimatorCalibration>,
    /// Estimator labels ranked best-first: capture–recapture estimators by
    /// absolute signed bias (ties by label), or the single-vantage
    /// estimators by mean absolute error when `vantages < 2`.
    pub leaderboard: Vec<String>,
}

impl CalibrationCell {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("scenario", self.scenario.as_str());
        obj.insert("period", self.period.as_str());
        obj.insert("scale", self.scale);
        obj.insert("vantages", self.vantages);
        obj.insert("replicates", self.replicates);
        obj.insert(
            "seeds",
            Json::Array(self.seeds.iter().map(|&s| Json::from(s)).collect()),
        );
        obj.insert("truth_pids_mean", self.truth_pids_mean);
        obj.insert(
            "survival",
            self.survival.as_ref().map(|s| s.to_json()).unwrap_or(Json::Null),
        );
        obj.insert(
            "single_vantage",
            Json::Array(self.single_vantage.iter().map(|r| r.to_json()).collect()),
        );
        obj.insert(
            "estimators",
            Json::Array(self.estimators.iter().map(|e| e.to_json()).collect()),
        );
        obj.insert("window_occasions", WINDOW_OCCASIONS);
        obj.insert("window_span_secs", WINDOW_SPAN_SECS);
        obj.insert(
            "window_estimators",
            Json::Array(self.window_estimators.iter().map(|e| e.to_json()).collect()),
        );
        obj.insert(
            "leaderboard",
            Json::Array(self.leaderboard.iter().map(|l| Json::from(l.as_str())).collect()),
        );
        obj
    }
}

/// The complete calibration report: one cell per churn regime.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Measurement-period label.
    pub period: String,
    /// Population scale.
    pub scale: f64,
    /// Base seed the replicate seeds derive from.
    pub base_seed: u64,
    /// Vantage count.
    pub vantages: usize,
    /// Replicates per cell.
    pub replicates: usize,
    /// Bootstrap resamples per replicate (0 = analytic CIs only).
    pub bootstrap: usize,
    /// One cell per churn regime, in scenario order.
    pub cells: Vec<CalibrationCell>,
}

/// Builds the calibration report of a replicated suite.
///
/// `suites` come from `measurement::run_replicated_vantage_suite` (every
/// replicate must cover the same scenarios in the same order); `streams`
/// optionally supplies one streaming campaign per scenario for the
/// session-lifetime (survival) context; `bootstrap` is the number of
/// bootstrap resamples per replicate (0 disables bootstrap CIs).
///
/// The output is a pure function of the inputs — nothing
/// execution-dependent — so reports are byte-identical at any thread
/// count.
///
/// # Panics
///
/// Panics if `suites` is empty or the suites' scenario lists disagree.
pub fn calibration_report(
    suites: &[ReplicateSuite],
    streams: &[StreamingCampaign],
    bootstrap: usize,
) -> CalibrationReport {
    let first = suites.first().expect("at least one replicate suite");
    assert!(
        suites.iter().all(|s| s.campaigns.len() == first.campaigns.len()),
        "every replicate must cover the same scenarios"
    );
    let scenario_count = first.campaigns.len();
    let mut cells = Vec::with_capacity(scenario_count);
    for scenario_idx in 0..scenario_count {
        let campaigns: Vec<&VantageCampaign> =
            suites.iter().map(|s| &s.campaigns[scenario_idx]).collect();
        let scenario = &campaigns[0].scenario;
        let scenario_label = scenario.churn.label().to_string();
        let vantages = campaigns[0].vantage_count();

        let single_vantage: Vec<RobustnessRow> = campaigns
            .iter()
            .map(|c| {
                robustness_row(
                    &c.vantages[0],
                    &c.scenario,
                    c.ground_truth.population_size(),
                    c.ground_truth_participants,
                )
            })
            .collect();

        let mut samples: Vec<Vec<EstimatorSample>> = vec![Vec::new(); EstimatorKind::ALL.len()];
        for campaign in &campaigns {
            let history = CaptureHistory::from_campaign(campaign);
            let truth_pids = campaign.ground_truth.population_size();
            let boots = if bootstrap > 0 && vantages >= 2 {
                bootstrap_cis(
                    &history,
                    bootstrap,
                    bootstrap_seed(campaign.scenario.seed, &scenario_label),
                )
            } else {
                EstimatorKind::ALL.iter().map(|&k| (k, None)).collect()
            };
            for (k, kind) in EstimatorKind::ALL.iter().enumerate() {
                if let Some(cr) = kind.estimate(&history) {
                    samples[k].push(EstimatorSample {
                        estimate: cr.estimate,
                        analytic: (cr.ci95_low, cr.ci95_high),
                        bootstrap: boots[k].1,
                        truth_pids,
                    });
                }
            }
        }
        let estimators: Vec<EstimatorCalibration> = EstimatorKind::ALL
            .iter()
            .zip(&samples)
            .filter_map(|(kind, s)| EstimatorCalibration::from_samples(kind.label(), s))
            .collect();

        // The window (time-sliced) histories of the primary vantage, against
        // the span's true ever-online count. Any vantage count ≥ 1 has them:
        // the occasions are time slices, not vantages.
        let mut window_samples: Vec<Vec<EstimatorSample>> =
            vec![Vec::new(); WINDOW_ESTIMATORS.len()];
        for campaign in &campaigns {
            let primary = &campaign.vantages[0];
            let history = CaptureHistory::from_time_windows(
                primary,
                WINDOW_OCCASIONS,
                simclock::SimDuration::from_secs(WINDOW_SPAN_SECS),
            );
            let span_end = primary.started_at
                + simclock::SimDuration::from_secs(WINDOW_SPAN_SECS).min(primary.duration());
            let truth_pids =
                campaign.ground_truth.ever_online_within(primary.started_at, span_end);
            let boots = if bootstrap > 0 {
                bootstrap_cis(
                    &history,
                    bootstrap,
                    window_bootstrap_seed(campaign.scenario.seed, &scenario_label),
                )
            } else {
                EstimatorKind::ALL.iter().map(|&k| (k, None)).collect()
            };
            for (w, kind) in WINDOW_ESTIMATORS.iter().enumerate() {
                let boot = boots
                    .iter()
                    .find(|(k, _)| k == kind)
                    .and_then(|(_, ci)| *ci);
                if let Some(cr) = kind.estimate(&history) {
                    window_samples[w].push(EstimatorSample {
                        estimate: cr.estimate,
                        analytic: (cr.ci95_low, cr.ci95_high),
                        bootstrap: boot,
                        truth_pids,
                    });
                }
            }
        }
        let window_estimators: Vec<EstimatorCalibration> = WINDOW_ESTIMATORS
            .iter()
            .zip(&window_samples)
            .filter_map(|(kind, s)| EstimatorCalibration::from_samples(kind.label(), s))
            .collect();

        let leaderboard = if vantages >= 2 {
            let mut ranked: Vec<(f64, String)> = estimators
                .iter()
                .map(|e| (e.signed_bias.abs(), e.estimator.clone()))
                .collect();
            ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite bias").then(a.1.cmp(&b.1)));
            ranked.into_iter().map(|(_, label)| label).collect()
        } else {
            // Single vantage: rank the §V estimators by mean absolute error
            // against the participant truth.
            let n = single_vantage.len() as f64;
            let mean_abs = |f: &dyn Fn(&RobustnessRow) -> f64| {
                single_vantage.iter().map(|r| f(r).abs()).sum::<f64>() / n.max(1.0)
            };
            let mut ranked = vec![
                (mean_abs(&|r| r.by_pids.signed_rel_error), "by_pids".to_string()),
                (mean_abs(&|r| r.by_ip_groups.signed_rel_error), "by_ip_groups".to_string()),
                (
                    mean_abs(&|r| r.core_lower_bound.signed_rel_error),
                    "core_lower_bound".to_string(),
                ),
            ];
            ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite error").then(a.1.cmp(&b.1)));
            ranked.into_iter().map(|(_, label)| label).collect()
        };

        let truth_pids_mean = campaigns
            .iter()
            .map(|c| c.ground_truth.population_size() as f64)
            .sum::<f64>()
            / campaigns.len() as f64;
        let survival = streams
            .iter()
            .find(|s| s.scenario.churn.label() == scenario_label)
            .map(analyze_survival);

        cells.push(CalibrationCell {
            scenario: scenario_label,
            period: scenario.period.label().to_string(),
            scale: scenario.scale,
            vantages,
            replicates: campaigns.len(),
            seeds: suites.iter().map(|s| s.seed).collect(),
            truth_pids_mean,
            survival,
            single_vantage,
            estimators,
            window_estimators,
            leaderboard,
        });
    }
    let first_scenario = &first.campaigns.first().expect("suite has scenarios").scenario;
    CalibrationReport {
        period: first_scenario.period.label().to_string(),
        scale: first_scenario.scale,
        base_seed: first.seed,
        vantages: cells.first().map(|c| c.vantages).unwrap_or(1),
        replicates: suites.len(),
        bootstrap,
        cells,
    }
}

impl CalibrationReport {
    /// Looks up the cell of a scenario by label.
    pub fn cell(&self, scenario: &str) -> Option<&CalibrationCell> {
        self.cells.iter().find(|c| c.scenario == scenario)
    }

    /// Renders the report as a [`Json`] value (deterministic: nothing
    /// execution-dependent, byte-identical at any thread count).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("period", self.period.as_str());
        obj.insert("scale", self.scale);
        obj.insert("base_seed", self.base_seed);
        obj.insert("vantages", self.vantages);
        obj.insert("replicates", self.replicates);
        obj.insert("bootstrap", self.bootstrap);
        obj.insert(
            "cells",
            Json::Array(self.cells.iter().map(|c| c.to_json()).collect()),
        );
        obj
    }

    /// Serialises to pretty-printed JSON.
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Renders the per-regime leaderboard as an aligned text table: one row
    /// per (scenario, estimator), ranked best-first within each scenario.
    pub fn summary_table(&self) -> String {
        let pct = |v: f64| format!("{:+.1}%", v * 100.0);
        let cov = |v: f64| format!("{:.0}%", v * 100.0);
        let opt_cov = |v: Option<f64>| v.map(cov).unwrap_or_else(|| "-".into());
        let mut rows = Vec::new();
        for cell in &self.cells {
            let median = cell
                .survival
                .as_ref()
                .and_then(|s| s.curve.median_secs())
                .map(|secs| format!("{secs:.0}"))
                .unwrap_or_else(|| "-".into());
            if cell.estimators.is_empty() {
                for (rank, label) in cell.leaderboard.iter().enumerate() {
                    rows.push(vec![
                        cell.scenario.clone(),
                        median.clone(),
                        (rank + 1).to_string(),
                        label.clone(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
                continue;
            }
            for (rank, label) in cell.leaderboard.iter().enumerate() {
                let Some(e) = cell.estimators.iter().find(|e| &e.estimator == label) else {
                    continue;
                };
                rows.push(vec![
                    cell.scenario.clone(),
                    median.clone(),
                    (rank + 1).to_string(),
                    label.clone(),
                    pct(e.signed_bias),
                    cov(e.coverage_self_analytic),
                    opt_cov(e.coverage_self_bootstrap),
                    cov(e.coverage_truth_analytic),
                ]);
            }
        }
        report::text_table(
            &[
                "Scenario",
                "MedSess[s]",
                "Rank",
                "Estimator",
                "Bias",
                "SelfCov(a)",
                "SelfCov(b)",
                "TruthCov(a)",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::run_replicated_vantage_suite;
    use p2pmodel::PeerId;
    use population::{ChurnScenario, MeasurementPeriod};

    fn toy_history() -> CaptureHistory {
        // Occasion 0: {1, 2, 3, 4}; occasion 1: {3, 4, 5}; occasion 2: {4}.
        let sets = vec![
            (1..=4).map(PeerId::derived).collect::<Vec<_>>(),
            (3..=5).map(PeerId::derived).collect::<Vec<_>>(),
            vec![PeerId::derived(4)],
        ];
        let mut sets = sets;
        for set in &mut sets {
            set.sort();
        }
        CaptureHistory::from_sets(&sets)
    }

    #[test]
    fn capture_history_counts_match_the_accumulation_arithmetic() {
        let history = toy_history();
        assert_eq!(history.occasions, 3);
        assert_eq!(history.observed(), 5);
        // Frequencies: 1→1, 2→1, 5→1 singletons; 3→2 doubleton; 4→3.
        assert_eq!(history.f1_f2(), (3, 1));
        // n1 = 4 (occasion 0), recaptures m = {3, 4}, n2 = 5 − 4 + 2 = 3.
        assert_eq!(history.two_occasion_view(), (4, 3, 2));
        // Uniques: occasion 0 holds PIDs 1, 2; occasion 1 holds PID 5.
        assert_eq!(history.uniques_per_occasion(), vec![2, 1, 0]);
        // Estimators agree with direct calls on the same counts.
        let lp = EstimatorKind::LincolnPetersen.estimate(&history).unwrap();
        assert_eq!(lp, vantage::lincoln_petersen(4, 3, 2).unwrap());
        let c1 = EstimatorKind::Chao1.estimate(&history).unwrap();
        assert_eq!(c1, vantage::chao1(3, 5, 3, 1).unwrap());
        let c2 = EstimatorKind::Chao2.estimate(&history).unwrap();
        assert_eq!(c2, vantage::chao2(3, 5, 3, 1).unwrap());
        let jk = EstimatorKind::Jackknife1.estimate(&history).unwrap();
        assert_eq!(jk, vantage::jackknife1(3, 5, &[2, 1, 0]).unwrap());
    }

    #[test]
    fn bootstrap_cis_are_seeded_and_ordered() {
        let history = toy_history();
        let a = bootstrap_cis(&history, 100, 42);
        let b = bootstrap_cis(&history, 100, 42);
        assert_eq!(a, b, "same seed, same intervals");
        // Seed sensitivity needs a history large enough that the bootstrap
        // distribution is not a handful of discrete values.
        let big = {
            let sets: Vec<Vec<PeerId>> = vec![
                (1..=120).map(PeerId::derived).collect(),
                (80..=200).map(PeerId::derived).collect(),
                (150..=260).map(PeerId::derived).collect(),
            ];
            CaptureHistory::from_sets(&sets)
        };
        let c = bootstrap_cis(&big, 100, 42);
        let d = bootstrap_cis(&big, 100, 43);
        assert_ne!(c, d, "different seed resamples differently");
        for (kind, interval) in &a {
            let (low, high) = interval.expect("three occasions estimate everything");
            assert!(low <= high, "{}: ordered interval", kind.label());
            assert!(low >= 0.0);
        }
        // Zero resamples → no intervals.
        for (_, interval) in bootstrap_cis(&history, 0, 1) {
            assert_eq!(interval, None);
        }
    }

    #[test]
    fn calibration_report_ranks_estimators_and_embeds_robustness() {
        let scenarios = vec![ChurnScenario::Baseline, ChurnScenario::flash_crowd()];
        let suites =
            run_replicated_vantage_suite(MeasurementPeriod::P4, 0.003, 23, 3, &scenarios, 3, 2);
        let report = calibration_report(&suites, &[], 50);
        assert_eq!(report.replicates, 3);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.base_seed, 23);
        for cell in &report.cells {
            assert_eq!(cell.vantages, 3);
            assert_eq!(cell.single_vantage.len(), 3);
            assert_eq!(cell.estimators.len(), 4);
            assert_eq!(cell.leaderboard.len(), 4);
            // The leaderboard is sorted by absolute bias.
            let bias = |label: &str| {
                cell.estimators
                    .iter()
                    .find(|e| e.estimator == label)
                    .map(|e| e.signed_bias.abs())
                    .unwrap()
            };
            for pair in cell.leaderboard.windows(2) {
                assert!(bias(&pair[0]) <= bias(&pair[1]));
            }
            for estimator in &cell.estimators {
                assert_eq!(estimator.replicates_with_estimate, 3);
                assert!(estimator.mean_estimate > 0.0);
                assert!((0.0..=1.0).contains(&estimator.coverage_self_analytic));
                assert!(estimator.coverage_self_bootstrap.is_some());
                assert!(estimator.mean_rel_width_analytic > 0.0);
            }
        }
        // Deterministic JSON.
        let again = calibration_report(&suites, &[], 50);
        assert_eq!(
            report.to_json_string_pretty(),
            again.to_json_string_pretty()
        );
        assert!(report.cell("baseline").is_some());
        assert!(report.cell("nope").is_none());
        let table = report.summary_table();
        assert!(table.contains("chao1"));
        assert!(table.contains("Rank"));
    }

    #[test]
    fn single_vantage_cells_rank_the_section_v_estimators() {
        let scenarios = vec![ChurnScenario::Baseline];
        let suites =
            run_replicated_vantage_suite(MeasurementPeriod::P1, 0.003, 5, 1, &scenarios, 2, 2);
        let report = calibration_report(&suites, &[], 50);
        let cell = &report.cells[0];
        assert_eq!(cell.vantages, 1);
        assert!(cell.estimators.is_empty(), "no capture structure below two vantages");
        assert_eq!(
            {
                let mut sorted = cell.leaderboard.clone();
                sorted.sort();
                sorted
            },
            vec!["by_ip_groups", "by_pids", "core_lower_bound"]
        );
        assert_eq!(cell.single_vantage.len(), 2);
        // Replicate 0 runs the base seed itself.
        assert_eq!(cell.single_vantage[0].seed, 5);
        // Window histories have capture structure even below two vantages.
        assert_eq!(cell.window_estimators.len(), WINDOW_ESTIMATORS.len());
        for estimator in &cell.window_estimators {
            assert_eq!(estimator.replicates_with_estimate, 2);
            assert!(estimator.coverage_self_bootstrap.is_some());
            assert_ne!(estimator.estimator, "lincoln_petersen");
        }
    }

    #[test]
    fn window_histories_slice_connections_into_occasions() {
        use measurement::{ConnectionRecord, MeasurementDataset};
        use p2pmodel::{ConnectionId, Direction, IpAddress, Multiaddr, Transport};
        use simclock::{SimDuration, SimTime};

        let mut dataset = MeasurementDataset::new(
            "go-ipfs",
            true,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(48),
        );
        let conn = |id: u64, peer: u64, open_h: u64, close_h: u64| ConnectionRecord {
            id: ConnectionId(id),
            peer: PeerId::derived(peer),
            direction: Direction::Inbound,
            remote_addr: Multiaddr::new(IpAddress::V4(peer as u32), Transport::Tcp, 4001),
            opened_at: SimTime::ZERO + SimDuration::from_hours(open_h),
            closed_at: SimTime::ZERO + SimDuration::from_hours(close_h),
            open_at_end: false,
            close_reason: None,
        };
        // Peer 1: hours 0–5 of a 24 h span sliced into 12 windows of 2 h
        // → windows 0, 1, 2. Peer 2: hours 13–15 → windows 6, 7. Peer 3
        // opens after the span → ignored. Peer 4: two sessions, windows 0
        // and 11 (the close clamps to the span edge).
        dataset.connections.push(conn(1, 1, 0, 5));
        dataset.connections.push(conn(2, 2, 13, 15));
        dataset.connections.push(conn(3, 3, 30, 31));
        dataset.connections.push(conn(4, 4, 1, 2));
        dataset.connections.push(conn(5, 4, 23, 40));

        let history =
            CaptureHistory::from_time_windows(&dataset, 12, SimDuration::from_hours(24));
        assert_eq!(history.occasions, 12);
        assert_eq!(history.observed(), 3, "the late peer is outside the span");
        let mut masks = history.masks.clone();
        masks.sort_unstable();
        // Peer 1 → windows {0,1,2}; peer 2 → {6,7}; peer 4 → {0,11}.
        assert_eq!(masks, vec![0b0000_0000_0111, 0b0000_1100_0000, 0b1000_0000_0011]);
        // f1 counts single-window peers; peer 1 (3 windows), peer 2 (2),
        // peer 4 (3) → none.
        assert_eq!(history.f1_f2(), (0, 1));

        // The span clamps to the measurement duration.
        let clamped =
            CaptureHistory::from_time_windows(&dataset, 12, SimDuration::from_hours(999));
        assert_eq!(clamped.observed(), 4, "full-span slicing sees the late peer too");
    }

    #[test]
    fn window_bootstrap_seeds_never_alias_the_vantage_stream() {
        assert_ne!(window_bootstrap_seed(7, "baseline"), bootstrap_seed(7, "baseline"));
        assert_ne!(window_bootstrap_seed(7, "baseline"), window_bootstrap_seed(8, "baseline"));
        assert_ne!(
            window_bootstrap_seed(7, "baseline"),
            window_bootstrap_seed(7, "flashcrowd")
        );
    }
}
