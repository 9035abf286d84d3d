//! Reproduction of *"Passively Measuring IPFS Churn and Network Size"*
//! (Daniel & Tschorsch, ICDCS 2022).
//!
//! The public IPFS network the paper measured is unreachable from a test
//! machine (and no longer exists in its December-2021 form), so this crate
//! family reproduces the study on a calibrated simulation:
//!
//! * [`simclock`] — discrete-event clock, scheduler, deterministic RNG,
//!   statistics.
//! * [`p2pmodel`] — peer IDs, multiaddresses, agent versions, protocols,
//!   Kademlia routing tables and the libp2p connection manager.
//! * [`netsim`] — the overlay simulator producing exactly the observables a
//!   passive measurement node has.
//! * [`population`] — the peer population calibrated to the paper's reported
//!   network composition, plus the measurement-period scenarios of Table I.
//! * [`measurement`] — the instrumented go-ipfs and hydra clients, the
//!   active-crawler baseline, the JSON data sets and the parallel
//!   multi-seed campaign sweeps.
//! * [`analysis`] — the pipelines that regenerate every table and figure.
//!
//! # Quick start
//!
//! ```
//! use ipfs_passive_measurement::prelude::*;
//!
//! // Reproduce (a scaled-down) measurement period P1: go-ipfs + 2 hydra heads.
//! let campaign = run_period(MeasurementPeriod::P1, 0.004, 42);
//! let stats = connection_stats(campaign.primary());
//! assert!(stats.all_sum > 0);
//! assert!(stats.all_avg_secs > stats.all_median_secs, "heavy-tailed durations");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analysis;
pub use measurement;
pub use netsim;
pub use p2pmodel;
pub use population;
pub use simclock;

/// The most commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use analysis::{
        agent_histogram, analyze_survival, analyze_vantages, calibration_report, chao1, chao2,
        classify_peers, connection_count_cdf, connection_stats, connection_timeline,
        crawl_disagreement_report, crawl_disagreement_row, direction_stats, fingerprint_groups,
        horizon_comparison, ip_grouping, jackknife1, lincoln_petersen, max_duration_cdf,
        network_size_estimate, pid_growth, protocol_histogram, robustness_report, robustness_row,
        role_switches, scenario_robustness, stream_report, vantage_report, version_changes,
        CalibrationReport, ConnectionClass, CrawlDisagreementReport, CrawlDisagreementRow,
        RobustnessReport, StreamAnalysis, StreamEstimates, StreamReport, SurvivalCurve,
        VantageAnalysis, VantageReport, WINDOW_OCCASIONS, WINDOW_SPAN_SECS,
    };
    pub use measurement::{
        run_period, run_replicated_vantage_suite, run_scenario, run_scenario_suite,
        run_stream_suite, run_streaming_campaign, run_vantage_campaign, run_vantage_suite,
        ActiveCrawler, CrawlSnapshot, CrawlSummary, GoIpfsMonitor, HydraMonitor,
        MeasurementCampaign, MeasurementDataset, ObserverTweak, ReplicateSuite, StreamSummary,
        StreamingCampaign, StreamingMonitor, SweepGrid, SweepReport, SweepRunner, VantageCampaign,
        WindowState,
    };
    pub use netsim::{
        dht_log_from_ground_truth, DhtConduct, DhtLog, DhtRole, Network, NetworkConfig,
        ObserverSpec, PopulationAction, PopulationEvent, RemotePeerSpec,
    };
    pub use p2pmodel::{
        AgentVersion, ConnLimits, IdentifyInfo, IterativeLookup, Multiaddr, PeerId, ProtocolSet,
        RoutingTable,
    };
    pub use population::{
        ChurnScenario, MeasurementPeriod, PopulationBuilder, PopulationMix, Scenario,
    };
    pub use simclock::{SimDuration, SimRng, SimTime};
}
