//! Multi-vantage-point measurement runs.
//!
//! The paper's passive monitors see only the slice of the network that
//! happens to connect to one vantage point — the root cause of the Fig. 2
//! gap between the passive horizon and the active crawler. This module runs
//! *several* primary-client vantage points in one campaign and combines
//! their views:
//!
//! * [`run_vantage_campaign`] deploys [`Scenario::vantages`] go-ipfs-like
//!   observers in one simulation (one columnar `ObservationTable` per
//!   vantage over the run's shared `IdentifyRegistry`), ingests each
//!   vantage's log into its own [`MeasurementDataset`] and produces the
//!   deduplicating union of all of them via
//!   [`MeasurementDataset::union_of`].
//! * The vantages of one run are the *capture occasions* of the
//!   capture–recapture estimators in `analysis::vantage`: the union of the
//!   first `v` of them is monotone in `v` by construction.
//! * [`run_vantage_suite`] runs one period × vantage count under several
//!   churn regimes in parallel, with the same determinism contract as
//!   [`crate::run_scenario_suite`]: results depend on the configuration,
//!   never on thread count or scheduling.
//!
//! With a single vantage the deployed observers, the simulation trace and
//! the resulting data set are **byte-identical** to the single-monitor
//! pipeline ([`crate::run_scenario`]) — the differential suite pins that.

use crate::dataset::MeasurementDataset;
use crate::monitor::GoIpfsMonitor;
use crate::parallel::run_parallel_ordered;
use netsim::GroundTruth;
use population::{ChurnScenario, MeasurementPeriod, Scenario, ScenarioRun};

/// The complete result of one multi-vantage measurement campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct VantageCampaign {
    /// The scenario that was run (its `vantages` field is the vantage count).
    pub scenario: Scenario,
    /// Ground-truth participant count (PIDs collapsed to operators).
    pub ground_truth_participants: usize,
    /// One data set per vantage point, in deployment order: the period's
    /// go-ipfs observer first, then `vantage-v1`, `vantage-v2`, ….
    pub vantages: Vec<MeasurementDataset>,
    /// The deduplicating union of every vantage's data set
    /// (client label `"vantage-union"`).
    pub union: MeasurementDataset,
    /// Ground truth of the simulated network.
    pub ground_truth: GroundTruth,
}

impl VantageCampaign {
    /// Number of vantage points deployed.
    pub fn vantage_count(&self) -> usize {
        self.vantages.len()
    }
}

/// Runs a scenario's multi-vantage campaign (the scenario's `vantages`
/// field decides how many observers are deployed).
pub fn run_vantage_campaign(scenario: Scenario) -> VantageCampaign {
    run_vantage_built(scenario.build())
}

/// Runs an already materialised scenario as a multi-vantage campaign.
///
/// Like [`crate::run_built`], this is the hook for callers that tweak the
/// generated observer configuration before running — the sweep subsystem
/// applies its observer tweaks to every vantage uniformly through it.
pub fn run_vantage_built(run: ScenarioRun) -> VantageCampaign {
    let scenario = run.scenario.clone();
    let ground_truth_participants = run.ground_truth_participants;
    let output = run.simulate();

    // Vantage 0 is the period's primary go-ipfs observer; additional
    // vantages are its clones under fresh identities. All of them are
    // ingested by the same monitor model, so capture probabilities are
    // homogeneous across occasions — the capture–recapture assumption.
    let monitor = GoIpfsMonitor::new();
    let mut vantages = Vec::with_capacity(scenario.vantages);
    if let Some(log) = output.log("go-ipfs") {
        vantages.push(monitor.ingest(log));
    }
    for vantage in 1..scenario.vantages {
        if let Some(log) = output.log(&format!("vantage-v{vantage}")) {
            vantages.push(monitor.ingest(log));
        }
    }
    let union = MeasurementDataset::union_of("vantage-union", &vantages);

    VantageCampaign {
        scenario,
        ground_truth_participants,
        vantages,
        union,
        ground_truth: output.ground_truth,
    }
}

/// Runs one period × scale × vantage count under every given churn regime,
/// in parallel.
///
/// Campaigns are returned in `scenarios` order regardless of `threads`;
/// determinism comes from the per-campaign seed, never from scheduling.
pub fn run_vantage_suite(
    period: MeasurementPeriod,
    scale: f64,
    seed: u64,
    vantages: usize,
    scenarios: &[ChurnScenario],
    threads: usize,
) -> Vec<VantageCampaign> {
    run_parallel_ordered(scenarios, threads, |_, churn| {
        run_vantage_campaign(
            Scenario::new(period)
                .with_scale(scale)
                .with_seed(seed)
                .with_churn(churn.clone())
                .with_vantage_points(vantages),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;

    fn tiny(vantages: usize) -> VantageCampaign {
        run_vantage_campaign(
            Scenario::new(MeasurementPeriod::P4)
                .with_scale(0.003)
                .with_seed(41)
                .with_vantage_points(vantages),
        )
    }

    #[test]
    fn campaign_deploys_one_dataset_per_vantage() {
        let campaign = tiny(3);
        assert_eq!(campaign.vantage_count(), 3);
        assert_eq!(campaign.vantages[0].client, "go-ipfs");
        assert_eq!(campaign.vantages[1].client, "vantage-v1");
        assert_eq!(campaign.vantages[2].client, "vantage-v2");
        assert_eq!(campaign.union.client, "vantage-union");
        for vantage in &campaign.vantages {
            assert!(vantage.pid_count() > 0);
            assert!(campaign.union.pid_count() >= vantage.pid_count());
        }
    }

    #[test]
    fn union_is_the_union_of_every_vantage() {
        let campaign = tiny(3);
        assert_eq!(
            MeasurementDataset::union_of("vantage-union", &campaign.vantages).to_json_string(),
            campaign.union.to_json_string()
        );
    }

    #[test]
    fn single_vantage_reproduces_the_single_monitor_dataset() {
        let scenario = Scenario::new(MeasurementPeriod::P4).with_scale(0.003).with_seed(41);
        let single = run_scenario(scenario.clone());
        let vantage = run_vantage_campaign(scenario);
        assert_eq!(vantage.vantage_count(), 1);
        assert_eq!(
            vantage.vantages[0].to_json_string(),
            single.primary().to_json_string(),
            "one vantage must reproduce the paper pipeline byte-for-byte"
        );
        assert_eq!(vantage.ground_truth, single.ground_truth);
    }

    #[test]
    fn vantage_suite_is_deterministic_across_thread_counts() {
        let scenarios = vec![ChurnScenario::Baseline, ChurnScenario::flash_crowd()];
        let serial = run_vantage_suite(MeasurementPeriod::P1, 0.003, 7, 2, &scenarios, 1);
        let parallel = run_vantage_suite(MeasurementPeriod::P1, 0.003, 7, 2, &scenarios, 2);
        assert_eq!(serial.len(), 2);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.union.to_json_string(), b.union.to_json_string());
            assert_eq!(a.ground_truth, b.ground_truth);
        }
    }
}
