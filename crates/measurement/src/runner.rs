//! End-to-end measurement runs.
//!
//! [`run_period`] reproduces one of the paper's measurement periods: it
//! builds the scenario (observers + population), runs the network simulation,
//! feeds every passive monitor and the active-crawler baseline, and returns a
//! [`MeasurementCampaign`] with everything the analyses need.

use crate::crawler::{ActiveCrawler, CrawlSnapshot, CrawlSummary};
use crate::dataset::MeasurementDataset;
use crate::monitor::{GoIpfsMonitor, HydraMonitor};
use crate::parallel::run_parallel_ordered;
use netsim::{GroundTruth, ObserverLog};
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::SimTime;

/// The complete result of reproducing one measurement period.
#[derive(Debug, Clone)]
pub struct MeasurementCampaign {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Ground-truth participant count of the run (PIDs collapsed to
    /// operators; see `population::Population::participants`), the baseline
    /// `analysis::robustness` measures estimator error against.
    pub ground_truth_participants: usize,
    /// The go-ipfs client's data set, if one was deployed in this period.
    pub go_ipfs: Option<MeasurementDataset>,
    /// One data set per hydra head.
    pub hydra_heads: Vec<MeasurementDataset>,
    /// The union of all hydra heads (how the paper reports hydra PID counts),
    /// if any head was deployed.
    pub hydra_union: Option<MeasurementDataset>,
    /// The active crawler's per-crawl snapshots.
    pub crawls: Vec<CrawlSnapshot>,
    /// Min/max/distinct summary of the crawl series.
    pub crawl_summary: CrawlSummary,
    /// Ground truth of the simulated network (for validation only).
    pub ground_truth: GroundTruth,
}

impl MeasurementCampaign {
    /// All passive data sets (go-ipfs plus every hydra head), in deployment
    /// order — convenient for analyses that iterate over clients.
    pub fn passive_datasets(&self) -> Vec<&MeasurementDataset> {
        let mut datasets = Vec::new();
        if let Some(go_ipfs) = &self.go_ipfs {
            datasets.push(go_ipfs);
        }
        datasets.extend(self.hydra_heads.iter());
        datasets
    }

    /// The primary data set of the campaign: the go-ipfs client if deployed,
    /// otherwise the hydra union.
    ///
    /// # Panics
    ///
    /// Panics if the campaign has neither (no period in the paper is like
    /// that).
    pub fn primary(&self) -> &MeasurementDataset {
        self.go_ipfs
            .as_ref()
            .or(self.hydra_union.as_ref())
            .expect("every measurement period deploys at least one client")
    }
}

/// The datasets a batch run of the campaign materialised (the go-ipfs
/// dataset, every hydra head and the hydra union), as a resident-bytes
/// estimate: the denominator of the streaming memory claim.
pub fn batch_resident_bytes(campaign: &MeasurementCampaign) -> usize {
    let mut bytes = 0;
    if let Some(go_ipfs) = &campaign.go_ipfs {
        bytes += go_ipfs.approx_bytes();
    }
    for head in &campaign.hydra_heads {
        bytes += head.approx_bytes();
    }
    if let Some(union) = &campaign.hydra_union {
        bytes += union.approx_bytes();
    }
    bytes
}

/// Runs a fully specified scenario.
pub fn run_scenario(scenario: Scenario) -> MeasurementCampaign {
    run_built(scenario.build())
}

/// Runs a scenario that has already been materialised into a configuration
/// and a population.
///
/// This is the entry point for callers that tweak the generated
/// [`netsim::NetworkConfig`] before running — the sweep subsystem uses it to
/// vary observer configurations (connection-manager limits, maintenance
/// cadence) across grid cells without touching the scenario definitions.
pub fn run_built(run: population::ScenarioRun) -> MeasurementCampaign {
    let scenario = run.scenario.clone();
    let ground_truth_participants = run.ground_truth_participants;
    let duration = run.config.duration;
    let output = run.simulate();
    campaign_from_output(scenario, ground_truth_participants, duration, output)
}

/// Assembles a [`MeasurementCampaign`] from a finished simulation output:
/// monitor ingestion, hydra union, active-crawler baseline.
///
/// [`run_built`] is `simulate + campaign_from_output`. The streaming
/// differential suite calls it on the same output it folds with
/// [`crate::stream::stream_output`], so both pipelines read one
/// simulation's logs — a precondition of the byte-identical comparison.
pub fn campaign_from_output(
    scenario: Scenario,
    ground_truth_participants: usize,
    duration: simclock::SimDuration,
    output: netsim::SimulationOutput,
) -> MeasurementCampaign {
    let go_ipfs_log: Option<&ObserverLog> = output.log("go-ipfs");
    let hydra_logs: Vec<&ObserverLog> = output
        .logs
        .iter()
        .filter(|l| l.observer.starts_with("hydra-h"))
        .collect();

    let go_ipfs = go_ipfs_log.map(|log| GoIpfsMonitor::new().ingest(log));
    let (hydra_heads, hydra_union) = if hydra_logs.is_empty() {
        (Vec::new(), None)
    } else {
        let (heads, union) = HydraMonitor::new().ingest(&hydra_logs);
        (heads, Some(union))
    };

    let crawler = ActiveCrawler::new();
    let (crawls, crawl_summary) = crawler.crawl_summary(
        &output.dht,
        &output.ground_truth,
        SimTime::ZERO,
        SimTime::ZERO + duration,
    );

    MeasurementCampaign {
        scenario,
        ground_truth_participants,
        go_ipfs,
        hydra_heads,
        hydra_union,
        crawls,
        crawl_summary,
        ground_truth: output.ground_truth,
    }
}

/// Runs one of the paper's measurement periods at the given population scale
/// and seed.
pub fn run_period(period: MeasurementPeriod, scale: f64, seed: u64) -> MeasurementCampaign {
    run_scenario(Scenario::new(period).with_scale(scale).with_seed(seed))
}

/// Runs one measurement period under every given churn regime, in parallel.
///
/// Every campaign uses the *same* period, scale and seed, so the base
/// population is identical across regimes and differences in the results are
/// attributable to the scenario events alone. The returned campaigns are in
/// `scenarios` order regardless of `threads` — determinism is inherited from
/// the per-campaign seed, never from scheduling.
pub fn run_scenario_suite(
    period: MeasurementPeriod,
    scale: f64,
    seed: u64,
    scenarios: &[ChurnScenario],
    threads: usize,
) -> Vec<MeasurementCampaign> {
    run_parallel_ordered(scenarios, threads, |_, churn| {
        run_scenario(
            Scenario::new(period)
                .with_scale(scale)
                .with_seed(seed)
                .with_churn(churn.clone()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(period: MeasurementPeriod) -> MeasurementCampaign {
        run_period(period, 0.004, 11)
    }

    #[test]
    fn p1_campaign_has_goipfs_and_two_hydra_heads() {
        let campaign = tiny(MeasurementPeriod::P1);
        assert!(campaign.go_ipfs.is_some());
        assert_eq!(campaign.hydra_heads.len(), 2);
        assert!(campaign.hydra_union.is_some());
        assert_eq!(campaign.passive_datasets().len(), 3);
        assert_eq!(campaign.primary().client, "go-ipfs");
        // The crawler runs every 8 h over a 1-day period, starting at the
        // start of the run → crawls at 0, 8, 16 and 24 h.
        assert_eq!(campaign.crawls.len(), 4);
        assert_eq!(campaign.crawl_summary.crawls, 4);
    }

    #[test]
    fn p4_campaign_has_only_goipfs() {
        let campaign = tiny(MeasurementPeriod::P4);
        assert!(campaign.go_ipfs.is_some());
        assert!(campaign.hydra_heads.is_empty());
        assert!(campaign.hydra_union.is_none());
        let ds = campaign.primary();
        assert!(ds.dht_server, "P4 runs the go-ipfs client as DHT-Server");
        assert!(ds.pid_count() > 0);
        assert!(ds.connection_count() > 0);
    }

    #[test]
    fn p3_client_campaign_sees_fewer_pids_than_p4() {
        let p3 = tiny(MeasurementPeriod::P3);
        let p4 = tiny(MeasurementPeriod::P4);
        assert!(!p3.primary().dht_server);
        assert!(
            p3.primary().pid_count() < p4.primary().pid_count(),
            "the DHT-Client deployment must see fewer PIDs ({} vs {})",
            p3.primary().pid_count(),
            p4.primary().pid_count()
        );
    }

    #[test]
    fn hydra_union_is_at_least_as_large_as_each_head() {
        let campaign = tiny(MeasurementPeriod::P1);
        let union = campaign.hydra_union.as_ref().unwrap();
        for head in &campaign.hydra_heads {
            assert!(union.pid_count() >= head.pid_count());
        }
    }

    #[test]
    fn scenario_suite_is_deterministic_across_thread_counts() {
        let scenarios = vec![
            ChurnScenario::Baseline,
            ChurnScenario::flash_crowd(),
            ChurnScenario::pid_rotation_flood(),
        ];
        let serial = run_scenario_suite(MeasurementPeriod::P1, 0.003, 7, &scenarios, 1);
        let parallel = run_scenario_suite(MeasurementPeriod::P1, 0.003, 7, &scenarios, 3);
        assert_eq!(serial.len(), 3);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.primary(), b.primary());
            assert_eq!(a.ground_truth, b.ground_truth);
            assert_eq!(a.ground_truth_participants, b.ground_truth_participants);
        }
        // The flash crowd inflates the PID population over baseline; the
        // rotation flood adds exactly one participant.
        assert!(serial[1].ground_truth.population_size() > serial[0].ground_truth.population_size());
        assert_eq!(
            serial[2].ground_truth_participants,
            serial[0].ground_truth_participants + 1
        );
    }

    #[test]
    fn batch_resident_bytes_counts_every_materialised_dataset() {
        let campaign = run_scenario(
            Scenario::new(MeasurementPeriod::P1)
                .with_scale(0.003)
                .with_seed(3),
        );
        let bytes = batch_resident_bytes(&campaign);
        assert!(bytes > campaign.primary().approx_bytes());
    }

    #[test]
    fn passive_pids_are_a_superset_of_nothing_weird() {
        // Every connected PID in the passive data set must exist in the
        // simulated population (ground truth).
        let campaign = tiny(MeasurementPeriod::P4);
        let population: std::collections::BTreeSet<_> = campaign
            .ground_truth
            .peers
            .iter()
            .map(|(peer, _)| *peer)
            .collect();
        for peer in campaign.primary().peers.keys() {
            assert!(population.contains(peer), "observed peer not in population");
        }
    }
}
