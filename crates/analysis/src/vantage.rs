//! Multi-vantage horizons and capture–recapture network-size estimation.
//!
//! Section V estimates the network size from what a *single* vantage point
//! observed. With several vantage points deployed in one campaign
//! (`measurement::vantage`), the overlap structure between their PID sets
//! carries additional information: treating each vantage as a *capture
//! occasion*, classic capture–recapture estimators bound the number of PIDs
//! that existed but were seen by **no** vantage — which a per-vantage count
//! can never do.
//!
//! Two estimators are implemented, both with normal-approximation 95 %
//! confidence intervals:
//!
//! * **Lincoln–Petersen** ([`lincoln_petersen`], Chapman's bias-corrected
//!   form): two occasions — the primary vantage vs. the union of the others.
//!   Exact for two occasions, but collapses all extra vantages into one
//!   recapture sample.
//! * **Chao1** ([`chao1`], the bias-corrected frequency-of-capture form; for
//!   incidence data this is often written Chao2): uses the full capture
//!   frequency histogram — `f1` PIDs seen by exactly one vantage, `f2` by
//!   exactly two — and therefore degrades gracefully as vantage count grows.
//!   **Preferred over Lincoln–Petersen whenever more than two vantages are
//!   deployed** or capture heterogeneity is suspected (Chao1 is a lower
//!   bound under heterogeneity, while Lincoln–Petersen's independence
//!   assumption breaks outright).
//!
//! Both estimates are ≥ the observed union size and finite whenever the
//! vantages overlap at all — properties the `vantage_properties` suite
//! fuzzes. [`vantage_report`] wires the estimators into the robustness
//! surface: one [`VantageAnalysis`] per churn regime, each with per-count
//! accumulation rows whose [`EstimatorError`]s are measured against the
//! ground-truth PID population, exported as deterministic JSON by the
//! `repro vantage` CLI subcommand.

use crate::horizon::HorizonEntry;
use crate::report;
use crate::robustness::EstimatorError;
use jsonio::Json;
use measurement::{MeasurementDataset, VantageCampaign};
use p2pmodel::PeerId;
use std::collections::BTreeMap;

/// A capture–recapture estimate with its normal-approximation 95 % CI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureRecapture {
    /// The point estimate of the total PID population.
    pub estimate: f64,
    /// Lower end of the 95 % confidence interval (clipped at the observed
    /// union size — no estimator can undercut what was actually seen).
    pub ci95_low: f64,
    /// Upper end of the 95 % confidence interval.
    pub ci95_high: f64,
}

impl CaptureRecapture {
    fn from_variance(estimate: f64, variance: f64, floor: f64) -> CaptureRecapture {
        let half = 1.96 * variance.max(0.0).sqrt();
        CaptureRecapture {
            estimate,
            ci95_low: (estimate - half).max(floor),
            ci95_high: estimate + half,
        }
    }

    /// Signed relative error of the point estimate against a ground truth.
    pub(crate) fn error_vs(&self, truth: usize) -> EstimatorError {
        EstimatorError::new(self.estimate.round() as usize, truth)
    }

    fn to_json(self) -> Json {
        let mut obj = Json::object();
        obj.insert("estimate", self.estimate);
        obj.insert("ci95_low", self.ci95_low);
        obj.insert("ci95_high", self.ci95_high);
        obj
    }
}

/// Lincoln–Petersen two-occasion estimate in Chapman's bias-corrected form:
/// `N̂ = (n1+1)(n2+1)/(m+1) − 1` for sample sizes `n1`, `n2` with `m`
/// recaptures, with Seber's variance for the CI.
///
/// Returns `None` when either sample is empty (no second occasion → nothing
/// to estimate from). The estimate is always finite — Chapman's `m+1`
/// denominator absorbs the zero-overlap case — and never smaller than the
/// union `n1 + n2 − m`.
pub fn lincoln_petersen(n1: usize, n2: usize, m: usize) -> Option<CaptureRecapture> {
    if n1 == 0 || n2 == 0 {
        return None;
    }
    let m = m.min(n1).min(n2);
    let (n1, n2, m) = (n1 as f64, n2 as f64, m as f64);
    let estimate = (n1 + 1.0) * (n2 + 1.0) / (m + 1.0) - 1.0;
    let variance =
        (n1 + 1.0) * (n2 + 1.0) * (n1 - m) * (n2 - m) / ((m + 1.0) * (m + 1.0) * (m + 2.0));
    let union = n1 + n2 - m;
    Some(CaptureRecapture::from_variance(estimate, variance, union))
}

/// Chao1 bias-corrected richness estimate from a capture-frequency
/// histogram: `N̂ = S + ((t−1)/t) · f1(f1−1) / (2(f2+1))` for `S` observed
/// PIDs over `t` occasions, `f1` seen exactly once and `f2` seen exactly
/// twice, with Chao's 1987 variance for the CI.
///
/// Always finite (the `f2+1` denominator is the bias-corrected form) and
/// never smaller than `S`. Returns `None` for fewer than two occasions —
/// a single vantage has no frequency structure to exploit.
///
/// When `f2 == 0` the general variance expression degenerates (its doubleton
/// term vanishes and the remaining `f2+1` denominators understate the
/// uncertainty of an estimate driven entirely by singletons), so the CI
/// switches to the variance of the bias-corrected variant —
/// `a·f1(f1−1)/2 + a²·f1(2f1−1)²/4 − a²·f1⁴/(4N̂)` — which is the standard
/// companion of the `f2 = 0` point estimate.
pub fn chao1(occasions: usize, observed: usize, f1: usize, f2: usize) -> Option<CaptureRecapture> {
    if occasions < 2 {
        return None;
    }
    let t = occasions as f64;
    let a = (t - 1.0) / t;
    let (s, f1, f2) = (observed as f64, f1 as f64, f2 as f64);
    let g = f2 + 1.0;
    let estimate = s + a * f1 * (f1 - 1.0) / (2.0 * g);
    let variance = if f2 == 0.0 {
        chao_f2_zero_variance(a, f1, estimate)
    } else {
        a * f1 * (f1 - 1.0) / (2.0 * g)
            + a * a * f1 * (2.0 * f1 - 1.0) * (2.0 * f1 - 1.0) / (4.0 * g * g)
            + a * a * f1 * f1 * f2 * (f1 - 1.0) * (f1 - 1.0) / (4.0 * g * g * g * g)
    };
    Some(CaptureRecapture::from_variance(estimate, variance, s))
}

/// Variance of the bias-corrected Chao estimate when no doubletons exist
/// (`f2 == 0`): `a·f1(f1−1)/2 + a²·f1(2f1−1)²/4 − a²·f1⁴/(4N̂)`, clamped at
/// zero. Shared by [`chao1`] and [`chao2`], whose bias-corrected forms
/// coincide in this regime.
fn chao_f2_zero_variance(a: f64, f1: f64, estimate: f64) -> f64 {
    if estimate <= 0.0 {
        return 0.0;
    }
    let variance = a * f1 * (f1 - 1.0) / 2.0
        + a * a * f1 * (2.0 * f1 - 1.0) * (2.0 * f1 - 1.0) / 4.0
        - a * a * f1 * f1 * f1 * f1 / (4.0 * estimate);
    variance.max(0.0)
}

/// Chao2 incidence-based richness estimate in its classic form:
/// `N̂ = S + ((t−1)/t) · f1² / (2 f2)` with Chao's 1987 incidence variance
/// `f2 · (a r²/2 + a² r³ + a² r⁴/4)` for `r = f1/f2`.
///
/// Unlike the bias-corrected [`chao1`], the classic ratio estimator is
/// (asymptotically) unbiased under homogeneous detectability but undefined
/// at `f2 == 0`; there it falls back to the bias-corrected estimate and the
/// matching `f2 = 0` variance, so the result is always finite and never
/// smaller than `S`. Returns `None` for fewer than two occasions.
pub fn chao2(occasions: usize, observed: usize, f1: usize, f2: usize) -> Option<CaptureRecapture> {
    if occasions < 2 {
        return None;
    }
    let t = occasions as f64;
    let a = (t - 1.0) / t;
    let (s, f1, f2) = (observed as f64, f1 as f64, f2 as f64);
    if f2 == 0.0 {
        // No doubletons: the ratio form divides by zero, so use the
        // bias-corrected variant (identical to Chao1's f2 = 0 path).
        let estimate = s + a * f1 * (f1 - 1.0) / 2.0;
        let variance = chao_f2_zero_variance(a, f1, estimate);
        return Some(CaptureRecapture::from_variance(estimate, variance, s));
    }
    let estimate = s + a * f1 * f1 / (2.0 * f2);
    let r = f1 / f2;
    let variance = f2 * (a * r * r / 2.0 + a * a * r * r * r + a * a * r * r * r * r / 4.0);
    Some(CaptureRecapture::from_variance(estimate, variance, s))
}

/// First-order jackknife richness estimate: `N̂ = S + f1 · (t−1)/t` for `S`
/// observed PIDs over `t` occasions with `f1` occasion-unique PIDs, with the
/// Heltshe–Forrester (1983) variance
/// `((t−1)/t) · (Σ_j j²·s_j − f1²/t)` where `s_j` counts the occasions
/// containing exactly `j` of the occasion-unique PIDs.
///
/// `uniques_per_occasion[i]` is the number of PIDs seen *only* by occasion
/// `i` (so `f1` is its sum). The estimate is always finite, never smaller
/// than `S`, and its variance is zero when every occasion contributes the
/// same number of uniques in a two-occasion design — imbalance between
/// occasions is exactly what the jackknife variance measures. Returns
/// `None` for fewer than two occasions.
pub fn jackknife1(
    occasions: usize,
    observed: usize,
    uniques_per_occasion: &[usize],
) -> Option<CaptureRecapture> {
    if occasions < 2 || uniques_per_occasion.len() != occasions {
        return None;
    }
    let t = occasions as f64;
    let a = (t - 1.0) / t;
    let f1: usize = uniques_per_occasion.iter().sum();
    let s = observed as f64;
    let estimate = s + a * f1 as f64;
    let sum_j2: f64 = uniques_per_occasion.iter().map(|&j| (j * j) as f64).sum();
    let variance = (a * (sum_j2 - (f1 * f1) as f64 / t)).max(0.0);
    Some(CaptureRecapture::from_variance(estimate, variance, s))
}

/// One row of the vantage accumulation curve: estimates after the first
/// `vantages` capture occasions.
#[derive(Debug, Clone, PartialEq)]
pub struct VantageCountRow {
    /// How many vantages this row accumulates (1 ≤ v ≤ deployed count).
    pub vantages: usize,
    /// PIDs in the union of the first `vantages` data sets.
    pub union_pids: usize,
    /// The naive estimator — union PID count — against ground-truth PIDs.
    pub naive: EstimatorError,
    /// Lincoln–Petersen (primary vs. union of the rest), if `vantages ≥ 2`.
    pub lincoln_petersen: Option<CaptureRecapture>,
    /// Signed relative error of the Lincoln–Petersen point estimate.
    pub lincoln_petersen_error: Option<EstimatorError>,
    /// Chao1 from the capture-frequency histogram, if `vantages ≥ 2`.
    pub chao1: Option<CaptureRecapture>,
    /// Signed relative error of the Chao1 point estimate.
    pub chao1_error: Option<EstimatorError>,
}

impl VantageCountRow {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("vantages", self.vantages);
        obj.insert("union_pids", self.union_pids);
        obj.insert("naive", estimator_error_json(&self.naive));
        let cr = |v: &Option<CaptureRecapture>, e: &Option<EstimatorError>| -> Json {
            match (v, e) {
                (Some(v), Some(e)) => {
                    let mut obj = v.to_json();
                    obj.insert("signed_rel_error", e.signed_rel_error);
                    obj
                }
                _ => Json::Null,
            }
        };
        obj.insert(
            "lincoln_petersen",
            cr(&self.lincoln_petersen, &self.lincoln_petersen_error),
        );
        obj.insert("chao1", cr(&self.chao1, &self.chao1_error));
        obj
    }
}

fn estimator_error_json(e: &EstimatorError) -> Json {
    let mut obj = Json::object();
    obj.insert("estimate", e.estimate);
    obj.insert("truth", e.truth);
    obj.insert("signed_rel_error", e.signed_rel_error);
    obj
}

/// The complete multi-vantage analysis of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct VantageAnalysis {
    /// Churn-scenario label of the campaign.
    pub scenario: String,
    /// Measurement-period label.
    pub period: String,
    /// Population scale.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Ground-truth PIDs that ever existed in the run (the estimators'
    /// target quantity).
    pub truth_pids: usize,
    /// Ground-truth participants (operators), for context.
    pub truth_participants: usize,
    /// Per-vantage horizons, in deployment order.
    pub per_vantage: Vec<HorizonEntry>,
    /// Pairwise PID-set overlap counts: `overlap[i][j]` = PIDs seen by both
    /// vantage `i` and vantage `j` (diagonal = each vantage's own count).
    pub overlap: Vec<Vec<usize>>,
    /// The accumulation curve: one row per vantage count `1..=V`.
    pub rows: Vec<VantageCountRow>,
}

impl VantageAnalysis {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("scenario", self.scenario.as_str());
        obj.insert("period", self.period.as_str());
        obj.insert("scale", self.scale);
        obj.insert("seed", self.seed);
        obj.insert("truth_pids", self.truth_pids);
        obj.insert("truth_participants", self.truth_participants);
        obj.insert(
            "per_vantage",
            Json::Array(
                self.per_vantage
                    .iter()
                    .map(|e| {
                        let mut v = Json::object();
                        v.insert("client", e.client.as_str());
                        v.insert("total_pids", e.total_pids);
                        v.insert("dht_server_pids", e.dht_server_pids);
                        v
                    })
                    .collect(),
            ),
        );
        obj.insert(
            "overlap",
            Json::Array(
                self.overlap
                    .iter()
                    .map(|row| Json::Array(row.iter().map(|&v| Json::from(v)).collect()))
                    .collect(),
            ),
        );
        obj.insert(
            "rows",
            Json::Array(self.rows.iter().map(|r| r.to_json()).collect()),
        );
        obj
    }
}

fn pid_set(dataset: &MeasurementDataset) -> Vec<PeerId> {
    dataset.peers.keys().copied().collect()
}

/// Computes the capture–recapture accumulation curve over the given sorted
/// PID sets (one per capture occasion, in occasion order): one
/// [`VantageCountRow`] per occasion count `1..=sets.len()`.
///
/// This is the shared numeric core of [`analyze_vantages`] and of the
/// streaming engine's capture–recapture path
/// ([`crate::stream::stream_capture_rows`]): both hand it the same sorted
/// PID sets, so their rows are byte-identical by construction.
///
/// # Panics
///
/// Debug-asserts that every set is sorted (they come from `BTreeMap` keys
/// everywhere in this workspace).
pub fn accumulation_rows(sets: &[Vec<PeerId>], truth_pids: usize) -> Vec<VantageCountRow> {
    debug_assert!(sets.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
    let mut rows = Vec::with_capacity(sets.len());
    let mut frequency: BTreeMap<PeerId, usize> = BTreeMap::new();
    for v in 1..=sets.len() {
        for pid in &sets[v - 1] {
            *frequency.entry(*pid).or_insert(0) += 1;
        }
        let union_pids = frequency.len();
        let naive = EstimatorError::new(union_pids, truth_pids);
        let (lp, chao) = if v >= 2 {
            // Two-occasion view: the primary vantage vs. the union of the
            // other `v - 1` vantages. Recaptures are the primary's PIDs seen
            // by at least one other vantage; the union identity
            // `union = n1 + n2 − m` gives the second sample's size.
            let n1 = sets[0].len();
            let m = frequency
                .iter()
                .filter(|(pid, count)| **count >= 2 && sets[0].binary_search(pid).is_ok())
                .count();
            let n2 = union_pids - n1 + m;
            let lp = lincoln_petersen(n1, n2, m);
            let f1 = frequency.values().filter(|&&c| c == 1).count();
            let f2 = frequency.values().filter(|&&c| c == 2).count();
            let chao = chao1(v, union_pids, f1, f2);
            (lp, chao)
        } else {
            (None, None)
        };
        rows.push(VantageCountRow {
            vantages: v,
            union_pids,
            naive,
            lincoln_petersen: lp,
            lincoln_petersen_error: lp.map(|e| e.error_vs(truth_pids)),
            chao1: chao,
            chao1_error: chao.map(|e| e.error_vs(truth_pids)),
        });
    }
    rows
}

/// Computes the multi-vantage analysis of one campaign: per-vantage
/// horizons, the pairwise overlap matrix and the capture–recapture
/// accumulation curve.
pub fn analyze_vantages(campaign: &VantageCampaign) -> VantageAnalysis {
    let truth_pids = campaign.ground_truth.population_size();
    let sets: Vec<Vec<PeerId>> = campaign.vantages.iter().map(pid_set).collect();

    let overlap: Vec<Vec<usize>> = (0..sets.len())
        .map(|i| {
            (0..sets.len())
                .map(|j| intersection_size(&sets[i], &sets[j]))
                .collect()
        })
        .collect();

    let rows = accumulation_rows(&sets, truth_pids);

    VantageAnalysis {
        scenario: campaign.scenario.churn.label().to_string(),
        period: campaign.scenario.period.label().to_string(),
        scale: campaign.scenario.scale,
        seed: campaign.scenario.seed,
        truth_pids,
        truth_participants: campaign.ground_truth_participants,
        per_vantage: campaign
            .vantages
            .iter()
            .map(HorizonEntry::from_dataset)
            .collect(),
        overlap,
        rows,
    }
}

fn intersection_size(a: &[PeerId], b: &[PeerId]) -> usize {
    // PID vectors come from BTreeMap keys, so both sides are sorted.
    let mut count = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Per-scenario multi-vantage analyses — the estimator-robustness surface of
/// the vantage subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct VantageReport {
    /// One analysis per campaign, in input order.
    pub analyses: Vec<VantageAnalysis>,
}

/// Computes the vantage report of a campaign suite (one analysis per
/// campaign, preserving the input order — typically one per churn regime
/// from `measurement::run_vantage_suite`).
pub fn vantage_report(campaigns: &[VantageCampaign]) -> VantageReport {
    VantageReport {
        analyses: campaigns.iter().map(analyze_vantages).collect(),
    }
}

impl VantageReport {
    /// Renders the report as a [`Json`] value. The output contains nothing
    /// execution-dependent, so the same campaigns always yield the same
    /// document at any thread count.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert(
            "analyses",
            Json::Array(self.analyses.iter().map(|a| a.to_json()).collect()),
        );
        obj
    }

    /// Serialises to pretty-printed JSON.
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Renders the accumulation rows as an aligned text table (errors as
    /// signed percentages).
    pub fn summary_table(&self) -> String {
        let pct = |e: &EstimatorError| {
            if e.signed_rel_error.is_finite() {
                format!("{} ({:+.1}%)", e.estimate, e.signed_rel_error * 100.0)
            } else {
                format!("{} (inf)", e.estimate)
            }
        };
        let opt = |e: &Option<EstimatorError>| e.as_ref().map(pct).unwrap_or_else(|| "-".into());
        let mut rows = Vec::new();
        for analysis in &self.analyses {
            for row in &analysis.rows {
                rows.push(vec![
                    analysis.scenario.clone(),
                    analysis.period.clone(),
                    row.vantages.to_string(),
                    analysis.truth_pids.to_string(),
                    pct(&row.naive),
                    opt(&row.lincoln_petersen_error),
                    opt(&row.chao1_error),
                ]);
            }
        }
        report::text_table(
            &[
                "Scenario",
                "Period",
                "Vantages",
                "TruthPIDs",
                "naive (union)",
                "Lincoln-Petersen",
                "Chao1",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::{run_vantage_campaign, run_vantage_suite};
    use population::{ChurnScenario, MeasurementPeriod, Scenario};

    fn tiny(vantages: usize) -> VantageCampaign {
        run_vantage_campaign(
            Scenario::new(MeasurementPeriod::P4)
                .with_scale(0.003)
                .with_seed(23)
                .with_vantage_points(vantages),
        )
    }

    #[test]
    fn lincoln_petersen_matches_hand_computation() {
        // n1 = 40, n2 = 30, m = 20: Chapman = 41*31/21 - 1.
        let lp = lincoln_petersen(40, 30, 20).unwrap();
        assert!((lp.estimate - (41.0 * 31.0 / 21.0 - 1.0)).abs() < 1e-12);
        assert!(lp.ci95_low <= lp.estimate && lp.estimate <= lp.ci95_high);
        // Estimate is at least the union.
        assert!(lp.estimate >= 40.0 + 30.0 - 20.0);
        // Empty samples estimate nothing.
        assert!(lincoln_petersen(0, 10, 0).is_none());
        assert!(lincoln_petersen(10, 0, 0).is_none());
        // Zero overlap stays finite (Chapman's m+1).
        let disjoint = lincoln_petersen(10, 10, 0).unwrap();
        assert!(disjoint.estimate.is_finite());
        assert!(disjoint.estimate >= 20.0);
        // Overlap is clamped to the sample sizes.
        let clamped = lincoln_petersen(5, 5, 50).unwrap();
        assert!((clamped.estimate - 5.0).abs() < 1e-9);
    }

    #[test]
    fn chao1_matches_hand_computation() {
        // t = 2 occasions, S = 100, f1 = 30, f2 = 70:
        // N̂ = 100 + (1/2)·30·29/(2·71).
        let chao = chao1(2, 100, 30, 70).unwrap();
        assert!((chao.estimate - (100.0 + 0.5 * 30.0 * 29.0 / 142.0)).abs() < 1e-9);
        assert!(chao.estimate >= 100.0);
        assert!(chao.ci95_low >= 100.0, "CI floor is the observed count");
        assert!(chao.estimate.is_finite());
        // No singletons → no unseen mass.
        let saturated = chao1(3, 50, 0, 25).unwrap();
        assert_eq!(saturated.estimate, 50.0);
        // One occasion has no frequency structure.
        assert!(chao1(1, 50, 50, 0).is_none());
        // f2 = 0 stays finite (bias-corrected form).
        assert!(chao1(2, 50, 50, 0).unwrap().estimate.is_finite());
    }

    #[test]
    fn chao1_f2_zero_uses_the_bias_corrected_variance() {
        // Hand-built capture history over two occasions with *disjoint* PID
        // sets: {A, B} vs {C, D}. Every PID is a singleton, so f1 = 4 and
        // f2 = 0 — the degenerate case the general variance mishandles.
        let sets: Vec<Vec<PeerId>> = vec![
            {
                let mut s = vec![PeerId::derived(1), PeerId::derived(2)];
                s.sort();
                s
            },
            {
                let mut s = vec![PeerId::derived(3), PeerId::derived(4)];
                s.sort();
                s
            },
        ];
        let rows = accumulation_rows(&sets, 10);
        let chao = rows[1]
            .chao1
            .expect("two occasions produce a Chao1 estimate");
        // N̂ = 4 + (1/2)·4·3/2 = 7 (the estimate itself is unchanged).
        assert!((chao.estimate - 7.0).abs() < 1e-12);
        // Bias-corrected f2 = 0 variance:
        // a·f1(f1−1)/2 + a²·f1(2f1−1)²/4 − a²·f1⁴/(4N̂)
        // = 3 + 12.25 − 16/7 = 12.964285…
        let variance: f64 = 3.0 + 12.25 - 256.0 / (4.0 * 4.0 * 7.0);
        let half = 1.96 * variance.sqrt();
        assert!(
            (chao.ci95_high - (7.0 + half)).abs() < 1e-9,
            "upper CI uses the f2=0 variance"
        );
        assert!((chao.ci95_low - (7.0 - half).max(4.0)).abs() < 1e-9);
        // Direct call agrees, and stays finite/ordered for larger f1.
        let direct = chao1(2, 4, 4, 0).unwrap();
        assert!((direct.ci95_high - chao.ci95_high).abs() < 1e-12);
        let big = chao1(3, 500, 120, 0).unwrap();
        assert!(big.estimate.is_finite() && big.ci95_low <= big.estimate);
        assert!(big.ci95_high >= big.estimate);
        // Degenerate all-empty history keeps a zero-width interval.
        let empty = chao1(2, 0, 0, 0).unwrap();
        assert_eq!(empty.estimate, 0.0);
        assert_eq!(empty.ci95_high, 0.0);
    }

    #[test]
    fn chao2_matches_hand_computation() {
        // t = 2, S = 100, f1 = 30, f2 = 70: classic ratio form
        // N̂ = 100 + (1/2)·30²/(2·70).
        let chao = chao2(2, 100, 30, 70).unwrap();
        assert!((chao.estimate - (100.0 + 0.5 * 900.0 / 140.0)).abs() < 1e-9);
        assert!(chao.estimate >= 100.0);
        assert!(chao.ci95_low >= 100.0 && chao.ci95_high >= chao.estimate);
        // Chao2's classic form sits above bias-corrected Chao1 on the same
        // history (the (f1−1)/(f2+1) correction shrinks the unseen mass).
        let c1 = chao1(2, 100, 30, 70).unwrap();
        assert!(chao.estimate > c1.estimate);
        // f2 = 0 falls back to the bias-corrected estimate, same as Chao1.
        let fallback = chao2(2, 50, 10, 0).unwrap();
        let c1 = chao1(2, 50, 10, 0).unwrap();
        assert!((fallback.estimate - c1.estimate).abs() < 1e-12);
        assert!((fallback.ci95_high - c1.ci95_high).abs() < 1e-12);
        assert!(chao2(1, 50, 10, 0).is_none());
    }

    #[test]
    fn jackknife1_matches_hand_computation() {
        // t = 2, S = 10, occasion uniques (4, 0): N̂ = 10 + 4·(1/2) = 12.
        let jk = jackknife1(2, 10, &[4, 0]).unwrap();
        assert!((jk.estimate - 12.0).abs() < 1e-12);
        // Heltshe–Forrester: var = (1/2)·(16 + 0 − 16/2) = 4 → half = 1.96·2.
        assert!((jk.ci95_high - (12.0 + 1.96 * 2.0)).abs() < 1e-9);
        // Balanced uniques in a two-occasion design have zero variance.
        let balanced = jackknife1(2, 10, &[2, 2]).unwrap();
        assert!((balanced.estimate - 12.0).abs() < 1e-12);
        assert_eq!(balanced.ci95_low, balanced.ci95_high);
        // No occasion-unique PIDs → no unseen mass, zero-width interval.
        let saturated = jackknife1(3, 50, &[0, 0, 0]).unwrap();
        assert_eq!(saturated.estimate, 50.0);
        assert_eq!(saturated.ci95_low, 50.0);
        // Guards: one occasion, or a mismatched uniques slice.
        assert!(jackknife1(1, 10, &[4]).is_none());
        assert!(jackknife1(3, 10, &[4, 0]).is_none());
    }

    #[test]
    fn analysis_has_per_vantage_horizons_and_symmetric_overlap() {
        let campaign = tiny(3);
        let analysis = analyze_vantages(&campaign);
        assert_eq!(analysis.per_vantage.len(), 3);
        assert_eq!(analysis.overlap.len(), 3);
        for i in 0..3 {
            assert_eq!(analysis.overlap[i][i], analysis.per_vantage[i].total_pids);
            for j in 0..3 {
                assert_eq!(analysis.overlap[i][j], analysis.overlap[j][i]);
                assert!(
                    analysis.overlap[i][j] <= analysis.overlap[i][i].min(analysis.overlap[j][j])
                );
            }
        }
        // Vantage points must actually overlap for the estimators to work.
        assert!(analysis.overlap[0][1] > 0, "vantages see a shared core");
    }

    #[test]
    fn accumulation_rows_are_monotone_and_bounded() {
        let campaign = tiny(3);
        let analysis = analyze_vantages(&campaign);
        assert_eq!(analysis.rows.len(), 3);
        let mut last_union = 0;
        for row in &analysis.rows {
            assert!(
                row.union_pids >= last_union,
                "union is monotone in vantage count"
            );
            last_union = row.union_pids;
            assert!(
                row.union_pids <= analysis.truth_pids,
                "no vantage invents PIDs"
            );
            if let Some(lp) = &row.lincoln_petersen {
                assert!(lp.estimate >= row.union_pids as f64);
                assert!(lp.estimate.is_finite());
            }
            if let Some(chao) = &row.chao1 {
                assert!(chao.estimate >= row.union_pids as f64);
                assert!(chao.estimate.is_finite());
                assert!(chao.ci95_low <= chao.estimate && chao.estimate <= chao.ci95_high);
            }
        }
        assert!(analysis.rows[0].chao1.is_none(), "one vantage, no estimate");
        assert!(analysis.rows.last().unwrap().chao1.is_some());
    }

    #[test]
    fn report_json_is_deterministic_and_complete() {
        let scenarios = vec![ChurnScenario::Baseline, ChurnScenario::pid_rotation_flood()];
        let campaigns = run_vantage_suite(MeasurementPeriod::P4, 0.003, 9, 3, &scenarios, 2);
        let report = vantage_report(&campaigns);
        let again = vantage_report(&campaigns);
        assert_eq!(
            report.to_json_string_pretty(),
            again.to_json_string_pretty()
        );
        let json = Json::parse(&report.to_json_string_pretty()).unwrap();
        let analyses = json.array_field("analyses").unwrap();
        assert_eq!(analyses.len(), 2);
        assert_eq!(analyses[0].str_field("scenario").unwrap(), "baseline");
        assert_eq!(analyses[1].str_field("scenario").unwrap(), "pidflood");
        let rows = analyses[0].array_field("rows").unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[2].field("chao1").unwrap().field("estimate").is_ok());
        assert!(matches!(rows[0].field("chao1").unwrap(), Json::Null));
        let table = report.summary_table();
        assert!(table.contains("pidflood"));
        assert!(table.contains("Chao1"));
    }
}
