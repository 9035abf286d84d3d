//! Kaplan–Meier and hazard-rate session-duration estimation under
//! right-censoring.
//!
//! Session durations observed by a passive vantage are censored by the
//! measurement horizon: a connection still open when the run ends
//! contributes a *lower bound* on its true session length, not the length
//! itself (the paper's §IV churn analysis faces exactly this). Treating
//! end-of-measurement closes as completed sessions biases every duration
//! statistic downward — the longer-lived the peers, the worse.
//!
//! `measurement::stream` tracks those end-closes separately
//! ([`StreamSummary::censored_dur_hist`]), so this module can split the
//! combined run-length duration multiset into completed (event-closed) and
//! right-censored observations and feed both into the standard survival
//! estimators:
//!
//! * **Kaplan–Meier** product-limit survival curve `S(t)` with the
//!   Greenwood variance for pointwise 95 % CIs,
//! * **Nelson–Aalen** cumulative hazard `H(t)`, plus the person-time
//!   average hazard rate (events per session-hour at risk),
//! * survival **quantiles** (median, p25, p75 session lifetime) read off
//!   the curve.
//!
//! Everything operates on the run-length multisets directly — no
//! per-connection materialisation — and works identically for the exact and
//! the log-bucketed duration profiles (bucketed values are bucket lower
//! edges, so bucketed quantiles sit within one bucket width of the exact
//! ones; fuzzed by `tests/survival_properties.rs`).
//!
//! The quantile convention mirrors `simclock::Summary`'s rank
//! interpolation: when the curve hits `1 − p` *exactly* at an event time
//! (which in a censoring-free multiset happens precisely at the even-count
//! midpoints), the quantile is the midpoint of that event time and the
//! next — so for censoring-free data the KM median equals
//! `Summary::from_samples(...).median` (pinned by the property suite).

use jsonio::Json;
use measurement::{StreamSummary, StreamingCampaign};

/// One step of a Kaplan–Meier curve: the state at a distinct observed time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalPoint {
    /// The observed time (ms). Event *or* censoring time.
    pub time_ms: u64,
    /// Sessions at risk just before this time (deaths and censorings at the
    /// time itself are still in the risk set, the standard convention).
    pub at_risk: u64,
    /// Sessions ending (event closes) at this time.
    pub deaths: u64,
    /// Sessions right-censored at this time.
    pub censored: u64,
    /// Kaplan–Meier survival `S(t)` just after this time.
    pub survival: f64,
    /// Greenwood variance of `S(t)`.
    pub variance: f64,
    /// Nelson–Aalen cumulative hazard `H(t)` just after this time.
    pub cum_hazard: f64,
}

impl SurvivalPoint {
    /// Pointwise normal-approximation 95 % CI of `S(t)`, clamped to
    /// `[0, 1]`.
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.96 * self.variance.max(0.0).sqrt();
        (
            (self.survival - half).max(0.0),
            (self.survival + half).min(1.0),
        )
    }
}

/// A Kaplan–Meier survival curve over a censored duration multiset.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalCurve {
    /// Total observations (completed + censored).
    pub total: u64,
    /// Completed sessions (events).
    pub deaths: u64,
    /// Right-censored sessions.
    pub censored: u64,
    /// Total observed session time (ms) across all observations — the
    /// person-time denominator of the average hazard rate.
    pub time_at_risk_ms: u128,
    /// One point per distinct observed time, ascending.
    pub points: Vec<SurvivalPoint>,
}

/// Subtracts run-length multiset `sub` from `total` (saturating per value).
///
/// Both inputs must be ascending run-length histograms, as produced by the
/// streaming engine's duration stores; `sub` is expected to be a
/// sub-multiset of `total` (the censored durations are a subset of the
/// combined ones by construction).
pub(crate) fn multiset_subtract(total: &[(u64, u64)], sub: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(total.len());
    let mut j = 0;
    for &(value, count) in total {
        while j < sub.len() && sub[j].0 < value {
            j += 1;
        }
        let removed = if j < sub.len() && sub[j].0 == value {
            sub[j].1
        } else {
            0
        };
        let remaining = count.saturating_sub(removed);
        if remaining > 0 {
            out.push((value, remaining));
        }
    }
    out
}

impl SurvivalCurve {
    /// Builds the curve from a completed-session multiset and a
    /// right-censored multiset (both ascending run-length histograms of
    /// millisecond durations).
    ///
    /// Ties between deaths and censorings at the same time follow the
    /// standard convention: both are in the risk set at that time, deaths
    /// are applied first, and the censored observations leave afterwards.
    pub fn from_hists(uncensored: &[(u64, u64)], censored: &[(u64, u64)]) -> SurvivalCurve {
        let deaths_total: u64 = uncensored.iter().map(|&(_, c)| c).sum();
        let censored_total: u64 = censored.iter().map(|&(_, c)| c).sum();
        let time_at_risk_ms: u128 = uncensored
            .iter()
            .chain(censored)
            .map(|&(v, c)| v as u128 * c as u128)
            .sum();
        let mut points = Vec::with_capacity(uncensored.len() + censored.len());
        let mut at_risk = deaths_total + censored_total;
        let mut survival = 1.0f64;
        let mut greenwood = 0.0f64;
        let mut cum_hazard = 0.0f64;
        let (mut i, mut j) = (0, 0);
        while i < uncensored.len() || j < censored.len() {
            let (time_ms, deaths, censored_here) =
                match (uncensored.get(i).copied(), censored.get(j).copied()) {
                    (Some((a, da)), Some((b, cb))) => {
                        if a < b {
                            i += 1;
                            (a, da, 0)
                        } else if b < a {
                            j += 1;
                            (b, 0, cb)
                        } else {
                            i += 1;
                            j += 1;
                            (a, da, cb)
                        }
                    }
                    (Some((a, da)), None) => {
                        i += 1;
                        (a, da, 0)
                    }
                    (None, Some((b, cb))) => {
                        j += 1;
                        (b, 0, cb)
                    }
                    (None, None) => unreachable!("loop condition"),
                };
            if deaths > 0 {
                let n = at_risk as f64;
                let d = deaths as f64;
                survival *= 1.0 - d / n;
                cum_hazard += d / n;
                if at_risk > deaths {
                    greenwood += d / (n * (n - d));
                }
            }
            points.push(SurvivalPoint {
                time_ms,
                at_risk,
                deaths,
                censored: censored_here,
                survival,
                variance: survival * survival * greenwood,
                cum_hazard,
            });
            at_risk -= deaths + censored_here;
        }
        SurvivalCurve {
            total: deaths_total + censored_total,
            deaths: deaths_total,
            censored: censored_total,
            time_at_risk_ms,
            points,
        }
    }

    /// Builds the curve of one stream: the combined duration multiset minus
    /// the censored one gives the completed sessions, the censored multiset
    /// is used as-is. Works for both duration modes — the censored store
    /// buckets with the same edges as the direction stores, so the
    /// subtraction stays exact.
    pub(crate) fn from_stream(summary: &StreamSummary) -> SurvivalCurve {
        let combined = summary.combined_dur_hist();
        let uncensored = multiset_subtract(&combined, &summary.censored_dur_hist);
        SurvivalCurve::from_hists(&uncensored, &summary.censored_dur_hist)
    }

    /// The `p`-quantile (`0 < p < 1`) of the session-duration distribution
    /// in seconds: the first event time where `S(t)` drops to `1 − p` or
    /// below.
    ///
    /// When the curve hits `1 − p` *exactly*, the quantile is the midpoint
    /// of that event time and the next event time — the convention that
    /// makes the censoring-free KM median coincide with
    /// `Summary::from_samples`'s rank-interpolated median. Returns `None`
    /// when the curve never reaches `1 − p` (heavy censoring) or is empty.
    pub fn quantile_secs(&self, p: f64) -> Option<f64> {
        const EPS: f64 = 1e-9;
        let target = 1.0 - p.clamp(0.0, 1.0);
        let secs = |ms: u64| ms as f64 / 1000.0;
        let mut events = self.points.iter().filter(|pt| pt.deaths > 0);
        let hit = events.by_ref().find(|pt| pt.survival <= target + EPS)?;
        if (hit.survival - target).abs() <= EPS {
            if let Some(next) = events.next() {
                return Some(secs(hit.time_ms) * 0.5 + secs(next.time_ms) * 0.5);
            }
        }
        Some(secs(hit.time_ms))
    }

    /// Median session lifetime in seconds, if the curve reaches 0.5.
    pub fn median_secs(&self) -> Option<f64> {
        self.quantile_secs(0.5)
    }

    /// The final Nelson–Aalen cumulative hazard `H(∞)`.
    pub(crate) fn cumulative_hazard(&self) -> f64 {
        self.points.last().map(|p| p.cum_hazard).unwrap_or(0.0)
    }

    /// The person-time average hazard rate: events per session-*hour* at
    /// risk (`deaths / Σ durations`). The constant-hazard (exponential)
    /// summary of churn intensity; robust to censoring because censored
    /// time still counts in the denominator.
    pub(crate) fn hazard_per_hour(&self) -> f64 {
        if self.time_at_risk_ms == 0 {
            return 0.0;
        }
        let hours = self.time_at_risk_ms as f64 / 3_600_000.0;
        self.deaths as f64 / hours
    }
}

/// The survival analysis of one streaming campaign's primary stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalAnalysis {
    /// Churn-scenario label of the campaign.
    pub scenario: String,
    /// Measurement-period label.
    pub period: String,
    /// Population scale.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Observer the sessions belong to.
    pub observer: String,
    /// Duration-store mode of the pass (`"Exact"` or `"LogBucketed"`).
    pub duration_mode: String,
    /// The Kaplan–Meier curve.
    pub curve: SurvivalCurve,
}

impl SurvivalAnalysis {
    /// Renders the scalar survival summary (no curve points, so reports and
    /// fixtures stay small).
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("scenario", self.scenario.as_str());
        obj.insert("period", self.period.as_str());
        obj.insert("scale", self.scale);
        obj.insert("seed", self.seed);
        obj.insert("observer", self.observer.as_str());
        obj.insert("duration_mode", self.duration_mode.as_str());
        obj.insert("sessions", self.curve.total);
        obj.insert("completed", self.curve.deaths);
        obj.insert("censored", self.curve.censored);
        let censored_fraction = if self.curve.total == 0 {
            0.0
        } else {
            self.curve.censored as f64 / self.curve.total as f64
        };
        obj.insert("censored_fraction", censored_fraction);
        let q = |v: Option<f64>| v.map(Json::Float).unwrap_or(Json::Null);
        obj.insert("p25_secs", q(self.curve.quantile_secs(0.25)));
        obj.insert("median_secs", q(self.curve.median_secs()));
        obj.insert("p75_secs", q(self.curve.quantile_secs(0.75)));
        obj.insert("cumulative_hazard", self.curve.cumulative_hazard());
        obj.insert("hazard_per_hour", self.curve.hazard_per_hour());
        obj
    }
}

/// Computes the survival analysis of one streaming campaign (primary
/// stream).
pub fn analyze_survival(campaign: &StreamingCampaign) -> SurvivalAnalysis {
    let primary = campaign.primary_stream();
    SurvivalAnalysis {
        scenario: campaign.scenario.churn.label().to_string(),
        period: campaign.scenario.period.label().to_string(),
        scale: campaign.scenario.scale,
        seed: campaign.scenario.seed,
        observer: primary.observer.clone(),
        duration_mode: format!("{:?}", primary.duration_mode),
        curve: SurvivalCurve::from_stream(primary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn km_matches_hand_computation_with_censoring() {
        // Classic textbook example: events at 1, 3; censored at 2, 4.
        // t=1: n=4, d=1 → S = 3/4.
        // t=2: censored leaves, S unchanged.
        // t=3: n=2, d=1 → S = 3/4 · 1/2 = 3/8.
        // t=4: censored leaves, S unchanged.
        let curve = SurvivalCurve::from_hists(&[(1, 1), (3, 1)], &[(2, 1), (4, 1)]);
        assert_eq!(curve.total, 4);
        assert_eq!(curve.deaths, 2);
        assert_eq!(curve.censored, 2);
        assert_eq!(curve.points.len(), 4);
        assert!((curve.points[0].survival - 0.75).abs() < 1e-12);
        assert!((curve.points[1].survival - 0.75).abs() < 1e-12);
        assert!((curve.points[2].survival - 0.375).abs() < 1e-12);
        assert_eq!(curve.points[2].at_risk, 2);
        // Greenwood at t=3: S²·(1/(4·3) + 1/(2·1)).
        let greenwood = 0.375f64 * 0.375 * (1.0 / 12.0 + 0.5);
        assert!((curve.points[2].variance - greenwood).abs() < 1e-12);
        // Nelson–Aalen: 1/4 + 1/2.
        assert!((curve.points[3].cum_hazard - 0.75).abs() < 1e-12);
        // Hazard per hour: 2 events over 10 ms of person-time.
        let hours = 10.0 / 3_600_000.0;
        assert!((curve.hazard_per_hour() - 2.0 / hours).abs() < 1e-6);
    }

    #[test]
    fn ties_between_deaths_and_censorings_share_the_risk_set() {
        // At t=5: 2 deaths and 1 censoring out of 4 at risk → S = 1/2,
        // risk set drops to 1 afterwards.
        let curve = SurvivalCurve::from_hists(&[(5, 2), (9, 1)], &[(5, 1)]);
        assert_eq!(curve.points[0].at_risk, 4);
        assert!((curve.points[0].survival - 0.5).abs() < 1e-12);
        assert_eq!(curve.points[1].at_risk, 1);
        assert!((curve.points[1].survival - 0.0).abs() < 1e-12);
        // All-dead point keeps a finite variance (Greenwood term skipped).
        assert!(curve.points[1].variance.is_finite());
    }

    #[test]
    fn quantiles_follow_the_midpoint_convention() {
        // Censoring-free [1000, 2000]: S(1000) = 0.5 exactly → median is
        // the midpoint 1.5 s, matching rank interpolation.
        let curve = SurvivalCurve::from_hists(&[(1000, 1), (2000, 1)], &[]);
        assert!((curve.median_secs().unwrap() - 1.5).abs() < 1e-12);
        // Censoring-free [1000, 2000, 3000]: median is the middle value.
        let curve = SurvivalCurve::from_hists(&[(1000, 1), (2000, 1), (3000, 1)], &[]);
        assert!((curve.median_secs().unwrap() - 2.0).abs() < 1e-12);
        // Heavy censoring: the curve never reaches 0.5 → no median.
        let curve = SurvivalCurve::from_hists(&[(1000, 1)], &[(5000, 9)]);
        assert_eq!(curve.median_secs(), None);
        // Empty curve has no quantiles.
        let curve = SurvivalCurve::from_hists(&[], &[]);
        assert_eq!(curve.median_secs(), None);
        assert_eq!(curve.cumulative_hazard(), 0.0);
        assert_eq!(curve.hazard_per_hour(), 0.0);
    }

    #[test]
    fn multiset_subtract_removes_the_sub_multiset() {
        let total = vec![(1, 3), (5, 2), (9, 1)];
        let sub = vec![(1, 1), (9, 1)];
        assert_eq!(multiset_subtract(&total, &sub), vec![(1, 2), (5, 2)]);
        assert_eq!(multiset_subtract(&total, &[]), total);
        // Saturating: over-subtraction clamps at zero.
        assert_eq!(multiset_subtract(&[(1, 1)], &[(1, 5)]), vec![]);
    }

    #[test]
    fn ci95_is_clamped_to_the_unit_interval() {
        let curve = SurvivalCurve::from_hists(&[(1, 1), (2, 1)], &[]);
        for point in &curve.points {
            let (low, high) = point.ci95();
            assert!((0.0..=1.0).contains(&low));
            assert!((0.0..=1.0).contains(&high));
            assert!(low <= point.survival && point.survival <= high);
        }
    }
}
