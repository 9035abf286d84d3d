//! The long-horizon streaming memory bench behind `repro stream
//! --long-horizon` and `benches/stream.rs`.
//!
//! The paper's headline artefacts are time series over a multi-week
//! measurement window, but the batch pipeline's memory grows with campaign
//! *duration*: every connection ever observed stays resident as a
//! ~100-byte record until the estimators run. The streaming engine
//! (`measurement::stream`) exists to break that coupling; this bench proves
//! it on a week of simulated time:
//!
//! * one population (the 14-day Extended scenario at a reduced scale) is
//!   measured at growing horizons — e.g. 1, 3 and 7 days of the same run —
//!   and for each horizon the bench records the **batch resident bytes**
//!   (every materialised `MeasurementDataset`) next to the **streaming peak
//!   state bytes**, in both duration-store modes;
//! * the exact mode (differential-grade, byte-identical estimates) must
//!   stay a large constant factor below batch at every horizon
//!   ([`StreamBenchReport::min_exact_ratio`]);
//! * the log-bucketed mode must be **flat**: its peak grows by at most a
//!   small factor while batch grows with the horizon
//!   ([`StreamBenchReport::bucketed_growth`] vs
//!   [`StreamBenchReport::batch_growth`]) — asserted by this module's
//!   `horizon_results_grow_with_the_horizon_and_stream_stays_small` unit
//!   test and by the CI `stream-smoke` job over `BENCH_stream.json`.
//!
//! Determinism: horizons run in input order with the same seed; every
//! reported number is content-derived (no timing in the deterministic
//! part), so stdout is byte-identical at any `--threads`.

use crate::round2;
use jsonio::Json;
use measurement::stream::StreamConfig;
use measurement::{
    batch_resident_bytes, campaign_from_output, DurationMode, StreamingMonitor,
};
use population::{MeasurementPeriod, Scenario};
use simclock::SimDuration;

/// Configuration of one long-horizon bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBenchConfig {
    /// Population scale of the Extended scenario.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Measurement horizons in days, ascending (capped at the Extended
    /// period's 14 days).
    pub horizons_days: Vec<u64>,
    /// Tumbling-window width of the streaming pass.
    pub window: SimDuration,
}

impl Default for StreamBenchConfig {
    fn default() -> Self {
        StreamBenchConfig {
            scale: 0.0025,
            seed: 0x57_EA_11,
            horizons_days: vec![1, 3, 7],
            window: SimDuration::from_hours(6),
        }
    }
}

/// The measured memory profile of one horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonResult {
    /// Horizon length in days.
    pub days: u64,
    /// Events the primary observer recorded.
    pub events: u64,
    /// Connection records of the primary observer.
    pub connections: u64,
    /// Distinct PIDs the primary observer saw.
    pub pids: usize,
    /// Window panes the streaming pass produced.
    pub windows: usize,
    /// Resident bytes of every materialised batch data set.
    pub batch_bytes: usize,
    /// Streaming peak state bytes, exact duration store (byte-identical
    /// estimates).
    pub exact_peak_bytes: usize,
    /// Streaming peak state bytes, log-bucketed duration store (flat
    /// memory, ~5 % duration resolution).
    pub bucketed_peak_bytes: usize,
}

impl HorizonResult {
    /// Batch bytes per streaming exact-mode byte at this horizon.
    pub fn exact_ratio(&self) -> f64 {
        if self.exact_peak_bytes == 0 {
            return 0.0;
        }
        self.batch_bytes as f64 / self.exact_peak_bytes as f64
    }
}

/// Aggregate result of a long-horizon bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBenchReport {
    /// The configuration of the run.
    pub config: StreamBenchConfig,
    /// One result per horizon, in input order.
    pub horizons: Vec<HorizonResult>,
    /// Wall-clock seconds (non-deterministic; excluded from
    /// [`Self::deterministic_json`]).
    pub wall_secs: f64,
}

impl StreamBenchReport {
    /// Growth of batch resident bytes from the first to the last horizon.
    pub fn batch_growth(&self) -> f64 {
        growth(self.horizons.first(), self.horizons.last(), |h| h.batch_bytes)
    }

    /// Growth of the exact-mode streaming peak across the horizons.
    pub fn exact_growth(&self) -> f64 {
        growth(self.horizons.first(), self.horizons.last(), |h| h.exact_peak_bytes)
    }

    /// Growth of the bucketed-mode streaming peak across the horizons —
    /// the number that must stay ≈ flat while [`Self::batch_growth`]
    /// scales with the horizon.
    pub fn bucketed_growth(&self) -> f64 {
        growth(self.horizons.first(), self.horizons.last(), |h| h.bucketed_peak_bytes)
    }

    /// The smallest batch-over-exact-stream memory ratio over all horizons.
    pub fn min_exact_ratio(&self) -> f64 {
        self.horizons
            .iter()
            .map(HorizonResult::exact_ratio)
            .fold(f64::INFINITY, f64::min)
    }

    /// The deterministic part of the report — byte-identical across
    /// `--threads` values; the CI smoke job compares exactly this.
    pub fn deterministic_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("scale", self.config.scale);
        obj.insert("seed", self.config.seed);
        obj.insert("window_secs", self.config.window.as_secs());
        obj.insert(
            "horizons",
            Json::Array(
                self.horizons
                    .iter()
                    .map(|h| {
                        let mut row = Json::object();
                        row.insert("days", h.days);
                        row.insert("events", h.events);
                        row.insert("connections", h.connections);
                        row.insert("pids", h.pids);
                        row.insert("windows", h.windows);
                        row.insert("batch_bytes", h.batch_bytes);
                        row.insert("exact_peak_bytes", h.exact_peak_bytes);
                        row.insert("bucketed_peak_bytes", h.bucketed_peak_bytes);
                        row.insert("exact_ratio", round2(h.exact_ratio()));
                        row
                    })
                    .collect(),
            ),
        );
        obj.insert("batch_growth", round2(self.batch_growth()));
        obj.insert("exact_growth", round2(self.exact_growth()));
        obj.insert("bucketed_growth", round2(self.bucketed_growth()));
        obj.insert("min_exact_ratio", round2(self.min_exact_ratio()));
        obj
    }

    /// The full report including timing, for `BENCH_stream.json`.
    pub fn full_json(&self) -> Json {
        let mut obj = self.deterministic_json();
        obj.insert("wall_secs", round2(self.wall_secs));
        obj
    }

    /// Human-readable one-screen summary (stderr of the CLI).
    pub fn summary(&self) -> String {
        let last = self.horizons.last();
        format!(
            "{} horizons to {} days | batch grows {:.1}x, stream exact {:.1}x (≥{:.1}x smaller \
             throughout), bucketed {:.2}x (flat)",
            self.horizons.len(),
            last.map(|h| h.days).unwrap_or(0),
            self.batch_growth(),
            self.exact_growth(),
            self.min_exact_ratio(),
            self.bucketed_growth(),
        )
    }
}

fn growth(first: Option<&HorizonResult>, last: Option<&HorizonResult>, f: impl Fn(&HorizonResult) -> usize) -> f64 {
    match (first, last) {
        (Some(first), Some(last)) if f(first) > 0 => f(last) as f64 / f(first) as f64,
        _ => 0.0,
    }
}

/// Runs one horizon: simulates the Extended population truncated to `days`,
/// materialises the batch view, and replays the primary log through the
/// streaming engine in both duration-store modes.
pub fn run_horizon(cfg: &StreamBenchConfig, days: u64) -> HorizonResult {
    let days = days.clamp(1, 14);
    let scenario = Scenario::new(MeasurementPeriod::Extended)
        .with_scale(cfg.scale)
        .with_seed(cfg.seed);
    let mut run = scenario.build();
    // Same population and seed at every horizon; only the measurement
    // window grows — the cleanest apples-to-apples memory comparison.
    run.config.duration = SimDuration::from_days(days);
    let duration = run.config.duration;
    let scenario = run.scenario.clone();
    let participants = run.ground_truth_participants;
    let output = run.simulate();

    let primary = output.log("go-ipfs").expect("Extended deploys go-ipfs");
    let stream_of = |mode: DurationMode, retained: usize| {
        let config = StreamConfig::for_observer("go-ipfs", primary.dht_server, duration, cfg.window)
            .with_duration_mode(mode)
            .with_retained_panes(retained);
        StreamingMonitor::new(config).ingest_log(primary)
    };
    // Exact mode retains everything (differential-grade); the bucketed
    // production profile keeps a day of full pane states for sliding
    // windows and the complete compact series.
    let panes_per_day = (SimDuration::from_days(1).as_millis()
        / cfg.window.as_millis().max(1)) as usize;
    let exact = stream_of(DurationMode::Exact, usize::MAX);
    let bucketed = stream_of(DurationMode::LogBucketed, panes_per_day.max(4));

    let campaign = campaign_from_output(scenario, participants, duration, output);
    HorizonResult {
        days,
        events: exact.events,
        connections: exact.connections,
        pids: exact.pids,
        windows: exact.panes.len(),
        batch_bytes: batch_resident_bytes(&campaign),
        exact_peak_bytes: exact.peak_state_bytes,
        bucketed_peak_bytes: bucketed.peak_state_bytes,
    }
}

/// Runs the full long-horizon bench, invoking `progress` after each horizon.
pub fn run_stream_bench_with_progress(
    cfg: &StreamBenchConfig,
    progress: impl Fn(&HorizonResult),
) -> StreamBenchReport {
    let started = std::time::Instant::now();
    let horizons: Vec<HorizonResult> = cfg
        .horizons_days
        .iter()
        .map(|&days| {
            let result = run_horizon(cfg, days);
            progress(&result);
            result
        })
        .collect();
    StreamBenchReport {
        config: cfg.clone(),
        horizons,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Runs the full long-horizon bench without progress reporting.
pub fn run_stream_bench(cfg: &StreamBenchConfig) -> StreamBenchReport {
    run_stream_bench_with_progress(cfg, |_| {})
}

/// A reduced configuration for smoke tests and CI (minutes of sim time per
/// day-equivalent would be too coarse; this keeps real day horizons at a
/// tiny scale instead).
pub fn smoke_config() -> StreamBenchConfig {
    StreamBenchConfig {
        scale: 0.0015,
        horizons_days: vec![1, 3],
        ..StreamBenchConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_results_grow_with_the_horizon_and_stream_stays_small() {
        let cfg = smoke_config();
        let report = run_stream_bench(&cfg);
        assert_eq!(report.horizons.len(), 2);
        let (short, long) = (&report.horizons[0], &report.horizons[1]);
        assert!(long.connections > short.connections, "more horizon, more churn");
        assert!(long.batch_bytes > short.batch_bytes, "batch memory grows");
        assert!(
            report.min_exact_ratio() >= 4.0,
            "exact streaming must stay ≥4x below batch, got {:.2} \
             (batch {} B vs stream {} B at {} days)",
            report.min_exact_ratio(),
            long.batch_bytes,
            long.exact_peak_bytes,
            long.days
        );
        assert!(
            report.bucketed_growth() * 2.0 <= report.batch_growth(),
            "bucketed streaming must grow at most half as fast as batch \
             (stream {:.2}x vs batch {:.2}x)",
            report.bucketed_growth(),
            report.batch_growth()
        );
    }

    #[test]
    fn deterministic_json_is_reproducible() {
        let cfg = StreamBenchConfig {
            scale: 0.001,
            horizons_days: vec![1, 2],
            ..smoke_config()
        };
        let a = run_stream_bench(&cfg);
        let b = run_stream_bench(&cfg);
        assert_eq!(
            a.deterministic_json().to_string_compact(),
            b.deterministic_json().to_string_compact()
        );
        assert!(a.full_json().get("wall_secs").is_some());
        assert!(a.summary().contains("horizons"));
    }
}
