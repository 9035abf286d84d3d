//! Parallel multi-seed measurement campaigns.
//!
//! The paper's headline numbers (Table II connection statistics, the Fig. 7
//! churn CDFs, the Section V network-size estimates) each come from a single
//! week-long measurement. Reproducing them with statistical confidence means
//! running *many* independent campaigns — several seeds per configuration,
//! several scales, several observer settings — and reporting cross-seed
//! dispersion instead of a point estimate.
//!
//! This module turns that into one call:
//!
//! * [`SweepGrid`] describes the cross product of measurement periods,
//!   population scales, seeds and [`ObserverTweak`]s to run.
//! * [`SweepRunner`] executes every cell of the grid in
//!   parallel on OS threads (one campaign per cell, work-stealing over a
//!   shared cursor) and streams each finished [`crate::MeasurementCampaign`] into a
//!   per-cell [`CellReport`], so memory stays bounded by the largest single
//!   campaign rather than the whole grid.
//! * [`SweepReport`] aggregates the cells into cross-seed mean / standard
//!   deviation / 95 % confidence intervals per configuration and exports
//!   everything as JSON.
//!
//! # Determinism
//!
//! Every cell derives its campaign seed from the grid's base seed and the
//! cell coordinates via a SplitMix64 mix — never from thread identity,
//! scheduling order or wall-clock time. Running the same grid with 1 thread
//! or 32 therefore produces byte-identical JSON reports; see
//! [`SweepCell::campaign_seed`].
//!
//! The execution is parallelised with `std::thread` rather than rayon: the
//! build environment is offline and cannot fetch crates, and a work queue
//! over scoped threads is all a sweep needs. Swapping in a rayon
//! `par_iter` later only touches [`SweepRunner::run_with_progress`].
//!
//! # Example
//!
//! ```
//! use measurement::sweep::{SweepGrid, SweepRunner};
//! use population::MeasurementPeriod;
//!
//! let grid = SweepGrid::new(vec![MeasurementPeriod::P1])
//!     .with_scales(vec![0.003])
//!     .with_seeds((1..=2).collect());
//! assert_eq!(grid.cell_count(), 2);
//!
//! let report = SweepRunner::new().run(&grid);
//! assert_eq!(report.cells.len(), 2);
//! assert_eq!(report.aggregates.len(), 1);
//! let agg = &report.aggregates[0];
//! assert_eq!(agg.seeds, 2);
//! assert!(agg.connections.mean > 0.0);
//! ```

use crate::dataset::MeasurementDataset;
use crate::parallel::run_parallel_ordered;
use crate::runner::run_built;
use crate::vantage::run_vantage_built;
use jsonio::Json;
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::rng::fnv1a;
use simclock::SimDuration;
use std::collections::BTreeSet;

/// A variation applied to every observer of a scenario, forming the fourth
/// grid dimension (the paper's Table I varies exactly these knobs between
/// periods).
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverTweak {
    /// Label used in reports and aggregation keys.
    pub label: String,
    /// Factor applied to the connection-manager LowWater/HighWater limits
    /// (1.0 = the period's configured limits).
    pub limits_scale: f64,
    /// Overrides the maintenance interval of every observer, if set.
    pub maintenance_interval: Option<SimDuration>,
    /// Overrides the outbound-connection target of every observer, if set.
    pub outbound_target: Option<usize>,
}

impl Default for ObserverTweak {
    fn default() -> Self {
        ObserverTweak {
            label: "baseline".to_string(),
            limits_scale: 1.0,
            maintenance_interval: None,
            outbound_target: None,
        }
    }
}

impl ObserverTweak {
    /// A tweak that scales the connection-manager watermarks by `factor`.
    pub fn limits(label: impl Into<String>, factor: f64) -> Self {
        ObserverTweak {
            label: label.into(),
            limits_scale: factor,
            ..ObserverTweak::default()
        }
    }
}

/// The cross product of campaign configurations a sweep runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Measurement periods to reproduce.
    pub periods: Vec<MeasurementPeriod>,
    /// Population scales (relative to the paper's ~65 k-PID network).
    pub scales: Vec<f64>,
    /// Grid seeds; each is mixed with the cell coordinates into the actual
    /// campaign seed.
    pub seeds: Vec<u64>,
    /// Observer variations (defaults to a single baseline entry).
    pub tweaks: Vec<ObserverTweak>,
    /// Churn regimes layered onto each period (defaults to baseline only).
    pub scenarios: Vec<ChurnScenario>,
    /// Vantage counts — the sixth grid dimension (defaults to `[1]`, the
    /// paper's single-monitor deployment). Cells with more than one vantage
    /// run the multi-vantage pipeline and report metrics of the
    /// deduplicating union data set.
    pub vantages: Vec<usize>,
    /// Base seed mixed into every cell's campaign seed, so two sweeps over
    /// the same grid can still be decorrelated.
    pub base_seed: u64,
}

impl SweepGrid {
    /// Creates a grid over `periods` with one default scale (0.01), seeds
    /// `1..=4`, the baseline observer configuration and baseline churn.
    pub fn new(periods: Vec<MeasurementPeriod>) -> Self {
        SweepGrid {
            periods,
            scales: vec![0.01],
            seeds: (1..=4).collect(),
            tweaks: vec![ObserverTweak::default()],
            scenarios: vec![ChurnScenario::Baseline],
            vantages: vec![1],
            base_seed: 0x5eed_0000,
        }
    }

    /// Replaces the population scales.
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_scales(mut self, scales: Vec<f64>) -> Self {
        self.scales = scales;
        self
    }

    /// Replaces the seed list.
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the observer variations.
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_tweaks(mut self, tweaks: Vec<ObserverTweak>) -> Self {
        self.tweaks = tweaks;
        self
    }

    /// Replaces the churn regimes (the fifth grid dimension).
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_scenarios(mut self, scenarios: Vec<ChurnScenario>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Replaces the vantage counts (the sixth grid dimension).
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_vantages(mut self, vantages: Vec<usize>) -> Self {
        self.vantages = vantages;
        self
    }

    /// Replaces the base seed.
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.periods.len()
            * self.scales.len()
            * self.seeds.len()
            * self.tweaks.len()
            * self.scenarios.len()
            * self.vantages.len()
    }

    /// Checks the grid for configurations that would produce a meaningless
    /// report: non-finite or non-positive scales, and duplicates along any
    /// dimension. Duplicate coordinates derive identical campaign seeds, so
    /// they would be counted as independent replicates and silently deflate
    /// the reported stddev/CI (and duplicate tweak labels would additionally
    /// merge different configurations into one aggregate row).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for &scale in &self.scales {
            if !scale.is_finite() || scale <= 0.0 {
                return Err(format!("population scale must be finite and positive, got {scale}"));
            }
        }
        for (i, &period) in self.periods.iter().enumerate() {
            if self.periods[..i].contains(&period) {
                return Err(format!("duplicate period {period}"));
            }
        }
        for (i, &scale) in self.scales.iter().enumerate() {
            if self.scales[..i].iter().any(|s| s.to_bits() == scale.to_bits()) {
                return Err(format!("duplicate scale {scale}"));
            }
        }
        for (i, &seed) in self.seeds.iter().enumerate() {
            if self.seeds[..i].contains(&seed) {
                return Err(format!("duplicate seed {seed}"));
            }
        }
        for (i, tweak) in self.tweaks.iter().enumerate() {
            if !tweak.limits_scale.is_finite() || tweak.limits_scale <= 0.0 {
                return Err(format!(
                    "tweak {:?} limits factor must be finite and positive, got {}",
                    tweak.label, tweak.limits_scale
                ));
            }
            if self.tweaks[..i].iter().any(|t| t.label == tweak.label) {
                return Err(format!("duplicate tweak label {:?}", tweak.label));
            }
        }
        for (i, scenario) in self.scenarios.iter().enumerate() {
            if self.scenarios[..i].iter().any(|s| s.label() == scenario.label()) {
                return Err(format!("duplicate scenario {:?}", scenario.label()));
            }
        }
        for (i, &vantages) in self.vantages.iter().enumerate() {
            if vantages == 0 {
                return Err("vantage count must be at least 1".to_string());
            }
            if self.vantages[..i].contains(&vantages) {
                return Err(format!("duplicate vantage count {vantages}"));
            }
        }
        Ok(())
    }

    /// Materialises the grid cells in deterministic order (period-major,
    /// then scenario, then vantage count, then tweak, then scale, then
    /// seed).
    ///
    /// Campaign seeds are derived from each cell's own coordinates (period
    /// label, scenario label, vantage count, tweak label, scale bits, seed)
    /// rather than grid positions, so reordering or subsetting the grid
    /// leaves every surviving cell's seed — and therefore its results —
    /// unchanged. Reproducing one cell in isolation is a one-liner: a
    /// single-period/scale/seed grid with the same base seed.
    ///
    /// Single-vantage cells skip the vantage-count mix entirely, so every
    /// grid from before the vantage dimension existed (implicitly
    /// `vantages = [1]`) keeps its campaign seeds — and therefore its
    /// results — bit-for-bit.
    pub(crate) fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for &period in &self.periods {
            for scenario in &self.scenarios {
                for &vantages in &self.vantages {
                    for tweak in &self.tweaks {
                        for &scale in &self.scales {
                            for &seed in &self.seeds {
                                let mut mixed = splitmix(self.base_seed);
                                mixed = splitmix(mixed ^ fnv1a(period.label()));
                                mixed = splitmix(mixed ^ fnv1a(scenario.label()));
                                if vantages > 1 {
                                    mixed = splitmix(mixed ^ vantages as u64);
                                }
                                mixed = splitmix(mixed ^ fnv1a(&tweak.label));
                                mixed = splitmix(mixed ^ scale.to_bits());
                                mixed = splitmix(mixed ^ seed);
                                cells.push(SweepCell {
                                    index: cells.len(),
                                    period,
                                    scenario: scenario.clone(),
                                    vantages,
                                    scale,
                                    seed,
                                    tweak: tweak.clone(),
                                    campaign_seed: mixed,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// SplitMix64 finaliser (shared with `simclock`): diffuses cell coordinates
/// into campaign seeds, here and in [`crate::replicate`].
pub(crate) fn splitmix(v: u64) -> u64 {
    let mut state = v;
    simclock::rng::splitmix64(&mut state)
}

/// One cell of a sweep: a fully determined campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position of the cell in `SweepGrid::cells` order.
    pub index: usize,
    /// The measurement period to reproduce.
    pub period: MeasurementPeriod,
    /// The churn regime layered onto the period.
    pub scenario: ChurnScenario,
    /// Number of vantage points deployed.
    pub vantages: usize,
    /// Population scale.
    pub scale: f64,
    /// The grid seed (the "replicate number").
    pub seed: u64,
    /// Observer variation applied to this cell.
    pub tweak: ObserverTweak,
    /// The derived seed the campaign actually runs with. Depends only on the
    /// grid definition and the cell coordinates — never on thread count or
    /// execution order — which is what makes sweep output reproducible.
    pub campaign_seed: u64,
}

impl SweepCell {
    /// Materialises this cell's scenario and applies the observer tweak to
    /// every deployed observer (vantage clones included).
    fn build(&self) -> population::ScenarioRun {
        let scenario = Scenario::new(self.period)
            .with_scale(self.scale)
            .with_seed(self.campaign_seed)
            .with_churn(self.scenario.clone())
            .with_vantage_points(self.vantages);
        let mut built = scenario.build();
        for observer in &mut built.config.observers {
            if (self.tweak.limits_scale - 1.0).abs() > f64::EPSILON {
                let low = ((observer.limits.low_water as f64 * self.tweak.limits_scale).round()
                    as usize)
                    .max(1);
                let high = ((observer.limits.high_water as f64 * self.tweak.limits_scale).round()
                    as usize)
                    .max(low + 1);
                observer.limits = p2pmodel::ConnLimits::new(low, high)
                    .with_grace_period(observer.limits.grace_period);
            }
            if let Some(interval) = self.tweak.maintenance_interval {
                observer.maintenance_interval = interval;
            }
            if let Some(target) = self.tweak.outbound_target {
                observer.outbound_target = target;
            }
        }
        built
    }

    /// Runs this cell's campaign and reduces it to the data set the cell's
    /// metrics are computed from, plus the ground-truth population size.
    ///
    /// A single-vantage cell runs the paper pipeline and reports its primary
    /// data set; a multi-vantage cell runs the vantage pipeline and reports
    /// the deduplicating union (for one vantage the two coincide, which is
    /// why the vantage dimension leaves existing grids' numbers unchanged).
    pub(crate) fn run(&self) -> (MeasurementDataset, usize) {
        let built = self.build();
        if self.vantages > 1 {
            let campaign = run_vantage_built(built);
            let population = campaign.ground_truth.population_size();
            (campaign.union, population)
        } else {
            let campaign = run_built(built);
            let population = campaign.ground_truth.population_size();
            (campaign.primary().clone(), population)
        }
    }
}

/// The metrics extracted from one cell's campaign.
///
/// The full [`crate::MeasurementCampaign`] is dropped once these are computed, so a
/// 100-cell sweep never holds 100 campaigns in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Period label (`"P0"`, …).
    pub period: String,
    /// Churn-scenario label (`"baseline"`, `"flashcrowd"`, …).
    pub scenario: String,
    /// Number of vantage points deployed (metrics of multi-vantage cells
    /// describe the union data set).
    pub vantages: u64,
    /// Population scale.
    pub scale: f64,
    /// Grid seed.
    pub seed: u64,
    /// Observer-tweak label.
    pub tweak: String,
    /// Derived campaign seed (for reproducing the cell in isolation).
    pub campaign_seed: u64,
    /// Distinct PIDs observed by the primary client.
    pub pids: u64,
    /// PIDs that ever announced the DHT-Server role.
    pub dht_server_pids: u64,
    /// PIDs with at least one connection.
    pub connected_pids: u64,
    /// Total recorded connections.
    pub connections: u64,
    /// Inbound connections.
    pub inbound: u64,
    /// Outbound connections.
    pub outbound: u64,
    /// Mean connection duration in seconds (Table II "Avg").
    pub conn_avg_secs: f64,
    /// Median connection duration in seconds (Table II "Median").
    pub conn_median_secs: f64,
    /// Distinct IP addresses among connected peers — the paper's §V-A
    /// IP-grouping network-size estimator.
    pub ip_groups: u64,
    /// Ground-truth population size (validation baseline).
    pub ground_truth_population: u64,
}

impl CellReport {
    /// Computes the report from a cell's reduced data set (the primary
    /// monitor's for single-vantage cells, the union's otherwise) and the
    /// run's ground-truth population size.
    pub(crate) fn from_dataset(
        cell: &SweepCell,
        dataset: &MeasurementDataset,
        ground_truth_population: usize,
    ) -> CellReport {
        let durations: Vec<f64> = dataset
            .connections
            .iter()
            .map(|c| c.duration_secs())
            .collect();
        let duration_stats = simclock::stats::Summary::from_samples(&durations);
        let conn_avg_secs = duration_stats.mean;
        let conn_median_secs = duration_stats.median;
        let inbound = dataset.connections.iter().filter(|c| c.is_inbound()).count() as u64;
        let ip_groups = dataset
            .connections
            .iter()
            .map(|c| c.remote_addr.ip())
            .collect::<BTreeSet<_>>()
            .len() as u64;
        CellReport {
            period: cell.period.label().to_string(),
            scenario: cell.scenario.label().to_string(),
            vantages: cell.vantages as u64,
            scale: cell.scale,
            seed: cell.seed,
            tweak: cell.tweak.label.clone(),
            campaign_seed: cell.campaign_seed,
            pids: dataset.pid_count() as u64,
            dht_server_pids: dataset.dht_server_pid_count() as u64,
            connected_pids: dataset.connected_pid_count() as u64,
            connections: dataset.connection_count() as u64,
            inbound,
            outbound: dataset.connection_count() as u64 - inbound,
            conn_avg_secs,
            conn_median_secs,
            ip_groups,
            ground_truth_population: ground_truth_population as u64,
        }
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("period", self.period.as_str());
        obj.insert("scenario", self.scenario.as_str());
        obj.insert("vantages", self.vantages);
        obj.insert("scale", self.scale);
        obj.insert("seed", self.seed);
        obj.insert("tweak", self.tweak.as_str());
        obj.insert("campaign_seed", self.campaign_seed);
        obj.insert("pids", self.pids);
        obj.insert("dht_server_pids", self.dht_server_pids);
        obj.insert("connected_pids", self.connected_pids);
        obj.insert("connections", self.connections);
        obj.insert("inbound", self.inbound);
        obj.insert("outbound", self.outbound);
        obj.insert("conn_avg_secs", self.conn_avg_secs);
        obj.insert("conn_median_secs", self.conn_median_secs);
        obj.insert("ip_groups", self.ip_groups);
        obj.insert("ground_truth_population", self.ground_truth_population);
        obj
    }
}

/// Cross-seed dispersion of one metric: mean, sample standard deviation and
/// the half-width of the normal-approximation 95 % confidence interval
/// (`1.96 · stddev / √n`; a t-distribution correction is overkill for the
/// qualitative error bars the reproduction needs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Arithmetic mean over the seeds.
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub stddev: f64,
    /// Half-width of the 95 % confidence interval (0 for a single seed).
    pub ci95: f64,
}

impl MetricSummary {
    /// Computes the summary over one value per seed.
    pub fn from_values(values: &[f64]) -> MetricSummary {
        if values.is_empty() {
            return MetricSummary {
                mean: 0.0,
                stddev: 0.0,
                ci95: 0.0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        if values.len() < 2 {
            return MetricSummary {
                mean,
                stddev: 0.0,
                ci95: 0.0,
            };
        }
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        let stddev = var.sqrt();
        MetricSummary {
            mean,
            stddev,
            ci95: 1.96 * stddev / n.sqrt(),
        }
    }

    fn to_json(self) -> Json {
        let mut obj = Json::object();
        obj.insert("mean", self.mean);
        obj.insert("stddev", self.stddev);
        obj.insert("ci95", self.ci95);
        obj
    }
}

/// Cross-seed aggregation for one `(period, scenario, scale, tweak)`
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// Period label.
    pub period: String,
    /// Churn-scenario label.
    pub scenario: String,
    /// Number of vantage points deployed.
    pub vantages: u64,
    /// Population scale.
    pub scale: f64,
    /// Observer-tweak label.
    pub tweak: String,
    /// Number of seeds aggregated.
    pub seeds: usize,
    /// Total connections per campaign.
    pub connections: MetricSummary,
    /// Mean connection duration in seconds.
    pub conn_avg_secs: MetricSummary,
    /// Median connection duration in seconds.
    pub conn_median_secs: MetricSummary,
    /// Distinct PIDs observed.
    pub pids: MetricSummary,
    /// PIDs with at least one connection.
    pub connected_pids: MetricSummary,
    /// Distinct-IP network-size estimate.
    pub ip_groups: MetricSummary,
}

impl AggregateRow {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("period", self.period.as_str());
        obj.insert("scenario", self.scenario.as_str());
        obj.insert("vantages", self.vantages);
        obj.insert("scale", self.scale);
        obj.insert("tweak", self.tweak.as_str());
        obj.insert("seeds", self.seeds);
        obj.insert("connections", self.connections.to_json());
        obj.insert("conn_avg_secs", self.conn_avg_secs.to_json());
        obj.insert("conn_median_secs", self.conn_median_secs.to_json());
        obj.insert("pids", self.pids.to_json());
        obj.insert("connected_pids", self.connected_pids.to_json());
        obj.insert("ip_groups", self.ip_groups.to_json());
        obj
    }
}

/// The complete result of a sweep: every cell plus the cross-seed
/// aggregation, in deterministic grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-cell metrics, in `SweepGrid::cells` order.
    pub cells: Vec<CellReport>,
    /// One row per `(period, scale, tweak)`, aggregated over seeds.
    pub aggregates: Vec<AggregateRow>,
}

impl SweepReport {
    /// Builds the report from completed cells (assumed to be in grid order).
    pub(crate) fn from_cells(cells: Vec<CellReport>) -> SweepReport {
        let mut aggregates: Vec<AggregateRow> = Vec::new();
        // Group scales by bit pattern, not f64 equality, so even a rogue NaN
        // scale groups with itself instead of producing empty aggregates.
        let mut keys: Vec<(String, String, u64, u64, String)> = Vec::new();
        for cell in &cells {
            let key = (
                cell.period.clone(),
                cell.scenario.clone(),
                cell.vantages,
                cell.scale.to_bits(),
                cell.tweak.clone(),
            );
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        for (period, scenario, vantages, scale_bits, tweak) in keys {
            let scale = f64::from_bits(scale_bits);
            let group: Vec<&CellReport> = cells
                .iter()
                .filter(|c| {
                    c.period == period
                        && c.scenario == scenario
                        && c.vantages == vantages
                        && c.scale.to_bits() == scale_bits
                        && c.tweak == tweak
                })
                .collect();
            let values = |f: &dyn Fn(&CellReport) -> f64| -> MetricSummary {
                let v: Vec<f64> = group.iter().map(|c| f(c)).collect();
                MetricSummary::from_values(&v)
            };
            aggregates.push(AggregateRow {
                period,
                scenario,
                vantages,
                scale,
                tweak,
                seeds: group.len(),
                connections: values(&|c| c.connections as f64),
                conn_avg_secs: values(&|c| c.conn_avg_secs),
                conn_median_secs: values(&|c| c.conn_median_secs),
                pids: values(&|c| c.pids as f64),
                connected_pids: values(&|c| c.connected_pids as f64),
                ip_groups: values(&|c| c.ip_groups as f64),
            });
        }
        SweepReport { cells, aggregates }
    }

    /// Renders the report as a [`Json`] value.
    ///
    /// The output contains nothing execution-dependent (no timings, no
    /// thread counts), so the same grid always yields the same document.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert(
            "cells",
            Json::Array(self.cells.iter().map(|c| c.to_json()).collect()),
        );
        obj.insert(
            "aggregates",
            Json::Array(self.aggregates.iter().map(|a| a.to_json()).collect()),
        );
        obj
    }

    /// Serialises to pretty-printed JSON.
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Renders the aggregate rows as an aligned text table with `mean ± ci95`
    /// columns — the form used for Table II / Fig. 7 error bars.
    pub fn summary_table(&self) -> String {
        let header = [
            "Period", "Scenario", "Vant", "Scale", "Tweak", "Seeds", "Conns", "Avg[s]", "Median[s]", "PIDs", "IPgroups",
        ];
        let mut rows: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
        for agg in &self.aggregates {
            let pm = |m: &MetricSummary| format!("{:.1}±{:.1}", m.mean, m.ci95);
            rows.push(vec![
                agg.period.clone(),
                agg.scenario.clone(),
                agg.vantages.to_string(),
                format!("{}", agg.scale),
                agg.tweak.clone(),
                agg.seeds.to_string(),
                pm(&agg.connections),
                pm(&agg.conn_avg_secs),
                pm(&agg.conn_median_secs),
                pm(&agg.pids),
                pm(&agg.ip_groups),
            ]);
        }
        let widths: Vec<usize> = (0..header.len())
            .map(|col| rows.iter().map(|r| r[col].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (col, cell) in row.iter().enumerate() {
                if col > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[col]));
            }
            out.push('\n');
            if i == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }
}

/// Executes sweep grids on a pool of OS threads.
#[derive(Debug, Clone, Default)]
pub struct SweepRunner {
    threads: Option<usize>,
}

impl SweepRunner {
    /// Creates a runner that sizes its pool to the available parallelism.
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// Fixes the number of worker threads (1 = serial execution; useful for
    /// verifying that parallelism does not change results).
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    fn effective_threads(&self, cells: usize) -> usize {
        let available = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        available.clamp(1, cells.max(1))
    }

    /// Runs every cell of the grid and aggregates the results.
    pub fn run(&self, grid: &SweepGrid) -> SweepReport {
        self.run_with_progress(grid, |_| {})
    }

    /// Runs the grid, invoking `progress` from worker threads as each cell
    /// completes (out of order; the final report is always in grid order).
    ///
    /// # Panics
    ///
    /// Panics if [`SweepGrid::validate`] rejects the grid (invalid scales or
    /// duplicate tweak labels); call it yourself first to handle the error.
    pub fn run_with_progress(
        &self,
        grid: &SweepGrid,
        progress: impl Fn(&CellReport) + Sync,
    ) -> SweepReport {
        if let Err(problem) = grid.validate() {
            panic!("invalid sweep grid: {problem}");
        }
        let cells = grid.cells();
        if cells.is_empty() {
            return SweepReport::from_cells(Vec::new());
        }
        let threads = self.effective_threads(cells.len());
        let completed = run_parallel_ordered(&cells, threads, |_, cell| {
            // The campaign is reduced to its data set inside `run`, keeping
            // peak memory at O(threads) campaigns.
            let (dataset, population) = cell.run();
            let report = CellReport::from_dataset(cell, &dataset, population);
            drop(dataset);
            progress(&report);
            report
        });
        SweepReport::from_cells(completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid::new(vec![MeasurementPeriod::P1, MeasurementPeriod::P3])
            .with_scales(vec![0.003])
            .with_seeds((1..=3).collect())
    }

    #[test]
    fn cells_enumerate_the_full_cross_product() {
        let grid = tiny_grid().with_tweaks(vec![
            ObserverTweak::default(),
            ObserverTweak::limits("tight", 0.5),
        ]);
        assert_eq!(grid.cell_count(), 2 * 3 * 2);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.cell_count());
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
        // All campaign seeds are distinct.
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.campaign_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len());
    }

    #[test]
    fn campaign_seeds_depend_only_on_grid_definition() {
        let a = tiny_grid().cells();
        let b = tiny_grid().cells();
        assert_eq!(a, b);
        let c = tiny_grid().with_base_seed(999).cells();
        assert_ne!(
            a.iter().map(|x| x.campaign_seed).collect::<Vec<_>>(),
            c.iter().map(|x| x.campaign_seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_and_serial_sweeps_produce_identical_json() {
        let grid = SweepGrid::new(vec![MeasurementPeriod::P1])
            .with_scales(vec![0.003])
            .with_seeds((1..=4).collect());
        let serial = SweepRunner::new().with_threads(1).run(&grid);
        let parallel = SweepRunner::new().with_threads(4).run(&grid);
        assert_eq!(
            serial.to_json_string_pretty(),
            parallel.to_json_string_pretty()
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn aggregates_group_by_configuration_and_count_seeds() {
        let report = SweepRunner::new().run(&tiny_grid());
        assert_eq!(report.cells.len(), 6);
        assert_eq!(report.aggregates.len(), 2, "two periods, one scale, one tweak");
        for agg in &report.aggregates {
            assert_eq!(agg.seeds, 3);
            assert!(agg.connections.mean > 0.0);
            assert!(agg.pids.mean > 0.0);
            // Three independent seeds essentially never agree exactly.
            assert!(agg.connections.stddev > 0.0);
            assert!(agg.connections.ci95 > 0.0);
        }
        // P1 deploys a DHT-Server go-ipfs observer, P3 a DHT-Client one: the
        // server must see more peers on average (the paper's Fig. 2 claim,
        // now with error bars).
        let p1 = report.aggregates.iter().find(|a| a.period == "P1").unwrap();
        let p3 = report.aggregates.iter().find(|a| a.period == "P3").unwrap();
        assert!(p1.pids.mean > p3.pids.mean);
    }

    #[test]
    fn observer_tweaks_change_results() {
        let base = SweepGrid::new(vec![MeasurementPeriod::P1])
            .with_scales(vec![0.003])
            .with_seeds((1..=2).collect());
        let tweaked = base
            .clone()
            .with_tweaks(vec![ObserverTweak::limits("tenth", 0.1)]);
        let a = SweepRunner::new().run(&base);
        let b = SweepRunner::new().run(&tweaked);
        // Aggressive trimming yields shorter average connection durations.
        assert!(
            b.aggregates[0].conn_avg_secs.mean < a.aggregates[0].conn_avg_secs.mean,
            "tight watermarks must trim connections sooner ({} vs {})",
            b.aggregates[0].conn_avg_secs.mean,
            a.aggregates[0].conn_avg_secs.mean
        );
        assert_eq!(b.cells[0].tweak, "tenth");
    }

    #[test]
    fn metric_summary_matches_hand_computation() {
        let s = MetricSummary::from_values(&[2.0, 4.0, 6.0]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * 2.0 / 3f64.sqrt()).abs() < 1e-12);
        let single = MetricSummary::from_values(&[5.0]);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(MetricSummary::from_values(&[]).mean, 0.0);
    }

    #[test]
    fn report_json_contains_cells_and_aggregates() {
        let grid = SweepGrid::new(vec![MeasurementPeriod::P1])
            .with_scales(vec![0.003])
            .with_seeds((1..=2).collect());
        let report = SweepRunner::new().run(&grid);
        let json = jsonio::Json::parse(&report.to_json_string_pretty()).unwrap();
        assert_eq!(json.array_field("cells").unwrap().len(), 2);
        assert_eq!(json.array_field("aggregates").unwrap().len(), 1);
        let cell = &json.array_field("cells").unwrap()[0];
        assert_eq!(cell.str_field("period").unwrap(), "P1");
        assert!(cell.u64_field("connections").unwrap() > 0);
        let table = report.summary_table();
        assert!(table.contains("P1"));
        assert!(table.contains('±'));
    }

    #[test]
    fn validate_rejects_bad_scales_and_duplicate_labels() {
        let good = tiny_grid();
        assert!(good.validate().is_ok());
        assert!(tiny_grid().with_scales(vec![f64::NAN]).validate().is_err());
        assert!(tiny_grid().with_scales(vec![0.0]).validate().is_err());
        assert!(tiny_grid().with_scales(vec![-0.01]).validate().is_err());
        assert!(tiny_grid()
            .with_scales(vec![f64::INFINITY])
            .validate()
            .is_err());
        let dup = tiny_grid().with_tweaks(vec![
            ObserverTweak::limits("base", 0.5),
            ObserverTweak::limits("base", 2.0),
        ]);
        let err = dup.validate().unwrap_err();
        assert!(err.contains("duplicate tweak label"), "got: {err}");
        // Tweak factors are validated like scales.
        assert!(tiny_grid()
            .with_tweaks(vec![ObserverTweak::limits("neg", -0.5)])
            .validate()
            .is_err());
        assert!(tiny_grid()
            .with_tweaks(vec![ObserverTweak::limits("nan", f64::NAN)])
            .validate()
            .is_err());
        // Duplicates along any other dimension deflate the reported CI.
        assert!(tiny_grid().with_seeds(vec![5, 5, 7]).validate().is_err());
        assert!(tiny_grid().with_scales(vec![0.003, 0.003]).validate().is_err());
        assert!(SweepGrid::new(vec![MeasurementPeriod::P1, MeasurementPeriod::P1])
            .validate()
            .is_err());
    }

    #[test]
    fn scenario_axis_expands_the_grid_and_shifts_results() {
        let grid = SweepGrid::new(vec![MeasurementPeriod::P1])
            .with_scales(vec![0.003])
            .with_seeds((1..=2).collect())
            .with_scenarios(vec![
                ChurnScenario::Baseline,
                ChurnScenario::flash_crowd(),
            ]);
        assert_eq!(grid.cell_count(), 4);
        assert!(grid.validate().is_ok());
        let report = SweepRunner::new().run(&grid);
        assert_eq!(report.aggregates.len(), 2, "one row per scenario");
        let baseline = report.aggregates.iter().find(|a| a.scenario == "baseline").unwrap();
        let flash = report.aggregates.iter().find(|a| a.scenario == "flashcrowd").unwrap();
        assert!(
            flash.pids.mean > baseline.pids.mean,
            "a flash crowd must inflate observed PIDs ({} vs {})",
            flash.pids.mean,
            baseline.pids.mean
        );
        // Scenario labels survive into cells, JSON and the text table.
        assert!(report.cells.iter().any(|c| c.scenario == "flashcrowd"));
        let json = report.to_json();
        assert_eq!(json.array_field("aggregates").unwrap().len(), 2);
        assert!(report.summary_table().contains("flashcrowd"));
        // Duplicate scenarios are rejected like any other dimension.
        let dup = SweepGrid::new(vec![MeasurementPeriod::P1])
            .with_scenarios(vec![ChurnScenario::Baseline, ChurnScenario::Baseline]);
        assert!(dup.validate().unwrap_err().contains("duplicate scenario"));
    }

    #[test]
    fn vantage_axis_expands_the_grid_and_keeps_single_vantage_seeds() {
        let base = SweepGrid::new(vec![MeasurementPeriod::P4])
            .with_scales(vec![0.003])
            .with_seeds((1..=2).collect());
        let multi = base.clone().with_vantages(vec![1, 3]);
        assert_eq!(multi.cell_count(), 4);
        assert!(multi.validate().is_ok());
        // Single-vantage cells keep the campaign seeds they had before the
        // vantage dimension existed, so old grids reproduce bit-for-bit.
        let old = base.cells();
        let cells = multi.cells();
        let v1: Vec<&SweepCell> = cells.iter().filter(|c| c.vantages == 1).collect();
        assert_eq!(v1.len(), old.len());
        for (a, b) in old.iter().zip(&v1) {
            assert_eq!(a.campaign_seed, b.campaign_seed);
        }
        let report = SweepRunner::new().run(&multi);
        assert_eq!(report.aggregates.len(), 2, "one row per vantage count");
        let one = report.aggregates.iter().find(|a| a.vantages == 1).unwrap();
        let three = report.aggregates.iter().find(|a| a.vantages == 3).unwrap();
        assert!(
            three.pids.mean > one.pids.mean,
            "the union over 3 vantages must see more PIDs than one monitor ({} vs {})",
            three.pids.mean,
            one.pids.mean
        );
        assert!(three.connections.mean > one.connections.mean);
        // The axis shows up in cells, JSON and the text table.
        assert!(report.cells.iter().any(|c| c.vantages == 3));
        let json = report.to_json();
        assert_eq!(json.array_field("cells").unwrap()[0].u64_field("vantages").unwrap(), 1);
        assert!(report.summary_table().contains("Vant"));
        // Degenerate vantage configurations are rejected.
        assert!(base.clone().with_vantages(vec![0]).validate().is_err());
        assert!(base.clone().with_vantages(vec![2, 2]).validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid sweep grid")]
    fn runner_panics_on_invalid_grid() {
        let grid = tiny_grid().with_scales(vec![f64::NAN]);
        let _ = SweepRunner::new().run(&grid);
    }

    #[test]
    fn cell_seeds_are_position_independent() {
        // A cell keeps its campaign seed when the grid is reordered or
        // subset — the seed derives from the cell's own coordinates.
        let full = SweepGrid::new(vec![MeasurementPeriod::P4, MeasurementPeriod::P1])
            .with_scales(vec![0.003, 0.005])
            .with_seeds(vec![7, 3]);
        let sub = SweepGrid::new(vec![MeasurementPeriod::P1])
            .with_scales(vec![0.005])
            .with_seeds(vec![3]);
        let wanted = sub.cells()[0].campaign_seed;
        let matching = full
            .cells()
            .into_iter()
            .find(|c| c.period == MeasurementPeriod::P1 && c.scale == 0.005 && c.seed == 3)
            .unwrap();
        assert_eq!(matching.campaign_seed, wanted);
    }

    #[test]
    fn empty_grid_produces_empty_report() {
        let grid = SweepGrid::new(Vec::new());
        let report = SweepRunner::new().run(&grid);
        assert!(report.cells.is_empty());
        assert!(report.aggregates.is_empty());
    }

    #[test]
    fn progress_callback_sees_every_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let grid = SweepGrid::new(vec![MeasurementPeriod::P1])
            .with_scales(vec![0.003])
            .with_seeds((1..=3).collect());
        let count = AtomicUsize::new(0);
        SweepRunner::new().run_with_progress(&grid, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }
}
