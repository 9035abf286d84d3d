//! Seeded-replicate campaign runner — the measurement side of the
//! estimator calibration lab.
//!
//! Empirical CI coverage and bias need *many independent realisations* of
//! the same measurement configuration, not one: the calibration harness in
//! `analysis::calibration` judges an estimator by how often its interval
//! covers across R seeded replicates. This module produces those
//! replicates by reusing [`run_vantage_suite`] once per replicate with a
//! deterministically derived campaign seed:
//!
//! * replicate 0 runs the cell's base seed **itself**, so a one-replicate
//!   calibration run is bit-identical to the plain vantage/scenario suite
//!   at the same `(period, scale, seed, vantages)` — the property the
//!   `estimator_differential` suite pins against `analysis::robustness`;
//! * replicates ≥ 1 derive fresh seeds with the same SplitMix64 chain the
//!   sweep grid uses ([`crate::sweep`]), mixing the base seed with the
//!   period label, the vantage count, the scale bits and the replicate
//!   index — so cells never alias and the derivation is independent of
//!   thread scheduling.
//!
//! Replicates run in parallel via the shared work-stealing pool and come
//! back in replicate order regardless of `threads` — the same determinism
//! contract as every other suite runner in this crate.

use crate::parallel::run_parallel_ordered;
use crate::sweep::splitmix;
use crate::vantage::{run_vantage_suite, VantageCampaign};
use population::{ChurnScenario, MeasurementPeriod};
use simclock::rng::fnv1a;

/// One seeded replicate of a vantage-campaign suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicateSuite {
    /// Replicate index (0-based; replicate 0 runs the base seed itself).
    pub replicate: usize,
    /// The campaign seed this replicate ran with.
    pub seed: u64,
    /// One campaign per churn scenario, in `scenarios` order.
    pub campaigns: Vec<VantageCampaign>,
}

/// Derives the campaign seed of one replicate.
///
/// Replicate 0 returns `base_seed` unchanged (see the module docs);
/// replicates ≥ 1 run the sweep grid's SplitMix64 chain over the cell
/// coordinates plus the replicate index. Deterministic and
/// scheduling-independent by construction.
pub(crate) fn replicate_seed(
    base_seed: u64,
    period: MeasurementPeriod,
    scale: f64,
    vantages: usize,
    replicate: usize,
) -> u64 {
    if replicate == 0 {
        return base_seed;
    }
    let mut mixed = splitmix(base_seed);
    mixed = splitmix(mixed ^ fnv1a(period.label()));
    if vantages > 1 {
        mixed = splitmix(mixed ^ vantages as u64);
    }
    mixed = splitmix(mixed ^ scale.to_bits());
    splitmix(mixed ^ replicate as u64)
}

/// Runs `replicates` seeded replicates of one period × scale × vantage
/// count suite under every given churn regime.
///
/// Parallelism is across replicates (each replicate reuses
/// [`run_vantage_suite`] serially); results come back in replicate order
/// regardless of `threads`.
pub fn run_replicated_vantage_suite(
    period: MeasurementPeriod,
    scale: f64,
    base_seed: u64,
    vantages: usize,
    scenarios: &[ChurnScenario],
    replicates: usize,
    threads: usize,
) -> Vec<ReplicateSuite> {
    let seeds: Vec<(usize, u64)> = (0..replicates.max(1))
        .map(|r| (r, replicate_seed(base_seed, period, scale, vantages, r)))
        .collect();
    // When there are fewer replicates than threads, push the surplus into
    // the inner suite runner — the output is order-pinned either way.
    let inner_threads = (threads / seeds.len().max(1)).max(1);
    run_parallel_ordered(&seeds, threads, |_, &(replicate, seed)| ReplicateSuite {
        replicate,
        seed,
        campaigns: run_vantage_suite(period, scale, seed, vantages, scenarios, inner_threads),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_zero_runs_the_base_seed_itself() {
        assert_eq!(replicate_seed(1975, MeasurementPeriod::P4, 0.005, 3, 0), 1975);
        let derived = replicate_seed(1975, MeasurementPeriod::P4, 0.005, 3, 1);
        assert_ne!(derived, 1975);
        // Different coordinates never alias.
        assert_ne!(derived, replicate_seed(1975, MeasurementPeriod::P4, 0.005, 3, 2));
        assert_ne!(derived, replicate_seed(1975, MeasurementPeriod::P2, 0.005, 3, 1));
        assert_ne!(derived, replicate_seed(1975, MeasurementPeriod::P4, 0.004, 3, 1));
        assert_ne!(derived, replicate_seed(1975, MeasurementPeriod::P4, 0.005, 2, 1));
    }

    #[test]
    fn replicated_suites_are_deterministic_across_thread_counts() {
        let scenarios = vec![ChurnScenario::Baseline];
        let serial =
            run_replicated_vantage_suite(MeasurementPeriod::P4, 0.003, 7, 2, &scenarios, 3, 1);
        let parallel =
            run_replicated_vantage_suite(MeasurementPeriod::P4, 0.003, 7, 2, &scenarios, 3, 4);
        assert_eq!(serial.len(), 3);
        assert_eq!(serial, parallel);
        // Replicates are genuinely different realisations…
        assert_ne!(serial[0].seed, serial[1].seed);
        assert_ne!(serial[0].campaigns, serial[1].campaigns);
        // …of the same configuration.
        for suite in &serial {
            assert_eq!(suite.campaigns.len(), 1);
            assert_eq!(suite.campaigns[0].scenario.seed, suite.seed);
            assert_eq!(suite.campaigns[0].vantage_count(), 2);
        }
    }

    #[test]
    fn replicate_zero_matches_the_plain_vantage_suite() {
        let scenarios = vec![ChurnScenario::Baseline];
        let replicated =
            run_replicated_vantage_suite(MeasurementPeriod::P1, 0.003, 11, 2, &scenarios, 2, 2);
        let plain = run_vantage_suite(MeasurementPeriod::P1, 0.003, 11, 2, &scenarios, 1);
        assert_eq!(replicated[0].campaigns, plain);
    }
}
