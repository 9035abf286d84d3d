//! Analyses reproducing every table and figure of the paper.
//!
//! Each module maps to one part of the evaluation:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`churn`] | Table II — connection statistics (sum / avg / median, "All" vs "Peer"), inbound/outbound breakdown |
//! | [`horizon`] | Fig. 2 — passive PID counts vs. active-crawler min/max |
//! | [`metadata`] | Fig. 3 (agents), Fig. 4 (protocols), Table III (version changes), role-switch counts, anomalies |
//! | [`timeline`] | Fig. 5 (simultaneous connections over 24 h), Fig. 6 (PIDs over time, ≥3 d disconnected) |
//! | [`cdf`] | Fig. 7 — CDFs of max connection duration and of connections per PID |
//! | [`netsize`] | Section V — IP-address grouping, Table IV peer classification, network-size estimates |
//! | [`robustness`] | Estimator error under adversarial churn scenarios (diurnal waves, flash crowds, PID floods, NAT churn), plus the crawler-vs-monitor disagreement report for DHT-level attacks (Sybil floods, eclipses, table poisoning) |
//! | [`vantage`] | Multi-vantage horizons, pairwise overlap matrices and Lincoln–Petersen / Chao1 / Chao2 / jackknife capture–recapture network-size estimates |
//! | [`stream`] | Batch-identical estimates plus per-window time series from the single-pass streaming engine (`measurement::stream`) |
//! | [`survival`] | Kaplan–Meier / Nelson–Aalen session-duration estimation under right-censoring (§IV churn, horizon-aware) |
//! | [`calibration`] | Seeded-replicate estimator calibration: bootstrap CIs, empirical coverage, signed bias and the per-regime leaderboard |
//! | [`fingerprint`] | The paper's future-work idea: re-identifying peers by metadata fingerprints |
//! | [`report`] | Text tables / CSV rendering shared by the reproduction harness |
//!
//! Every function consumes [`measurement::MeasurementDataset`]s — the same
//! information the paper's instrumented clients export — so the pipelines are
//! faithful to what a passive vantage point can actually know.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod cdf;
pub mod churn;
pub mod fingerprint;
pub mod horizon;
pub mod metadata;
pub mod netsize;
pub mod report;
pub mod robustness;
pub mod stream;
pub mod survival;
pub mod timeline;
pub mod validation;
pub mod vantage;

pub use calibration::{
    calibration_report, CalibrationCell, CalibrationReport, EstimatorCalibration, WINDOW_OCCASIONS,
    WINDOW_SPAN_SECS,
};
pub use cdf::{connection_count_cdf, max_duration_cdf, DurationCdfs};
pub use churn::{connection_stats, direction_stats, ConnectionStats, DirectionStats};
pub use fingerprint::{fingerprint_groups, FingerprintEstimate};
pub use horizon::{horizon_comparison, HorizonComparison, HorizonEntry};
pub use metadata::{
    agent_histogram, anomaly_report, protocol_histogram, role_switches, version_changes,
    AgentBreakdown, AnomalyReport, RoleSwitchStats, VersionChangeTable,
};
pub use netsize::{
    classify_peers, ip_grouping, network_size_estimate, ConnectionClass, IpGrouping,
    NetworkSizeEstimate, PeerClassification,
};
pub use robustness::{
    crawl_disagreement_report, crawl_disagreement_row, robustness_report, robustness_row,
    scenario_robustness, CrawlDisagreementReport, CrawlDisagreementRow, EstimatorError,
    RobustnessReport, RobustnessRow,
};
pub use stream::{
    answer_stream_query, serve_answerer, stream_capture_rows, stream_classify_peers,
    stream_connection_stats, stream_direction_stats, stream_ip_grouping, stream_network_size,
    stream_report, StreamAnalysis, StreamEstimates, StreamReport,
};
pub use survival::{analyze_survival, SurvivalAnalysis, SurvivalCurve, SurvivalPoint};
pub use timeline::{connection_timeline, pid_growth, PidGrowth};
pub use validation::{churn_decomposition, ChurnDecomposition};
pub use vantage::{
    analyze_vantages, chao1, chao2, jackknife1, lincoln_petersen, vantage_report, CaptureRecapture,
    VantageAnalysis, VantageCountRow, VantageReport,
};
