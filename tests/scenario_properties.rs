//! Property-based tests for the churn-scenario subsystem (seeded loops in
//! the PR-1 style: no proptest offline, so each property runs over a
//! deterministic random sample of configurations and failures reproduce
//! exactly).

use ipfs_passive_measurement::prelude::*;
use simclock::SimDuration;

mod common;

/// Runs `cases` deterministic random configurations through `check`.
fn for_cases(label: &str, cases: u64, mut check: impl FnMut(&mut SimRng)) {
    let mut rng = SimRng::seed_from(simclock::rng::fnv1a(label));
    for _ in 0..cases {
        check(&mut rng);
    }
}

fn small_scenario(period: MeasurementPeriod, seed: u64, churn: ChurnScenario) -> Scenario {
    Scenario::new(period)
        .with_scale(0.003)
        .with_seed(seed)
        .with_churn(churn)
}

/// Joins never exceed population bounds: ground truth contains exactly the
/// base population plus the scenario's scripted joins, and everything any
/// observer records stays inside that bound.
#[test]
fn joins_never_exceed_population_bounds() {
    for_cases("joins_never_exceed_population_bounds", 4, |rng| {
        let seed = rng.uniform_u64(0, 1_000);
        for churn in ChurnScenario::all() {
            let run = small_scenario(MeasurementPeriod::P1, seed, churn.clone()).build();
            let base = run.population.len();
            let joined: usize = run
                .events
                .iter()
                .map(|e| match &e.action {
                    PopulationAction::Join(specs) => specs.len(),
                    PopulationAction::Rotate { join, .. } => join.len(),
                    PopulationAction::Leave(_) => 0,
                })
                .sum();
            assert_eq!(joined, churn.pids_added(0.003), "{churn}");
            let participants = run.ground_truth_participants;
            let output = run.simulate();
            assert_eq!(
                output.ground_truth.population_size(),
                base + joined,
                "{churn}: ground truth must contain base + joins, nothing else"
            );
            assert!(participants <= base + joined, "{churn}");
            // No observer sees a peer outside the ground-truth population.
            let known: std::collections::BTreeSet<PeerId> = output
                .ground_truth
                .peers
                .iter()
                .map(|(peer, _)| *peer)
                .collect();
            for log in &output.logs {
                for &slot in log.table().peer_slots() {
                    let peer = log.registry().peer(slot);
                    assert!(known.contains(&peer), "{churn}: unknown peer observed");
                }
            }
        }
    });
}

/// Retired PIDs never resurrect: once a rotation or a scripted leave
/// retires a PID, no observer records any further event for it — including
/// gossip discoveries scheduled before the departure.
#[test]
fn rotated_pids_never_resurrect_closed_connections() {
    for_cases("rotated_pids_never_resurrect", 3, |rng| {
        let seed = rng.uniform_u64(0, 1_000);
        for churn in [ChurnScenario::pid_rotation_flood(), ChurnScenario::mass_exit()] {
            let run = small_scenario(MeasurementPeriod::P1, seed, churn.clone()).build();
            // Collect when each PID is retired.
            let mut retired_at: std::collections::BTreeMap<PeerId, SimTime> =
                std::collections::BTreeMap::new();
            for event in &run.events {
                if let PopulationAction::Rotate { retire, .. } | PopulationAction::Leave(retire) =
                    &event.action
                {
                    for pid in retire {
                        retired_at.entry(*pid).or_insert(event.at);
                    }
                }
            }
            assert!(!retired_at.is_empty(), "{churn} must retire PIDs");
            let output = run.simulate();
            for log in &output.logs {
                let rows = log.table().peer_slots().iter().zip(log.table().ats());
                for (&slot, &seen) in rows {
                    let peer = log.registry().peer(slot);
                    if let Some(at) = retired_at.get(&peer) {
                        assert!(
                            seen <= *at,
                            "{churn}: retired PID {peer:?} active at {seen} (retired at {at})",
                        );
                    }
                }
            }
            // Ground truth agrees: a retired PID is offline from its
            // retirement on.
            let end = SimTime::ZERO + SimDuration::from_hours(23);
            let online: std::collections::BTreeSet<PeerId> = output
                .ground_truth
                .online_at(end)
                .into_iter()
                .map(|(peer, _)| peer)
                .collect();
            for (pid, at) in &retired_at {
                if *at <= end {
                    assert!(!online.contains(pid), "{churn}: retired PID {pid:?} online at {end}");
                }
            }
        }
    });
}

/// `closed_at >= opened_at` (and window containment) holds for every
/// connection record under every scenario.
#[test]
fn connection_records_stay_ordered_under_every_scenario() {
    for_cases("connection_records_ordered", 2, |rng| {
        let seed = rng.uniform_u64(0, 1_000);
        for churn in ChurnScenario::all() {
            let campaign = run_scenario(small_scenario(MeasurementPeriod::P1, seed, churn.clone()));
            for dataset in campaign.passive_datasets() {
                for conn in &dataset.connections {
                    assert!(
                        conn.closed_at >= conn.opened_at,
                        "{churn}: connection closes before it opens"
                    );
                    assert!(conn.opened_at >= dataset.started_at, "{churn}");
                    assert!(conn.closed_at <= dataset.ended_at, "{churn}");
                }
            }
        }
    });
}

/// Scenario event streams are pure functions of (scenario, seed, scale,
/// duration): rebuilding a scenario run yields identical events, and the
/// simulated output is identical too.
#[test]
fn scenario_runs_are_reproducible() {
    for churn in [ChurnScenario::flash_crowd(), ChurnScenario::nat_churn()] {
        let a = small_scenario(MeasurementPeriod::P1, 77, churn.clone()).build();
        let b = small_scenario(MeasurementPeriod::P1, 77, churn.clone()).build();
        assert_eq!(a.events, b.events, "{churn}");
        assert_eq!(a.ground_truth_participants, b.ground_truth_participants);
        let out_a = a.simulate();
        let out_b = b.simulate();
        assert_eq!(out_a.ground_truth, out_b.ground_truth, "{churn}");
        assert_eq!(out_a.logs[0], out_b.logs[0], "{churn}");
    }
}

/// The robustness report's estimator ordering holds under every regime:
/// core ≤ IP groups ≤ PIDs, and participants never exceed ground-truth PIDs.
#[test]
fn robustness_rows_keep_estimator_ordering() {
    let campaigns = run_scenario_suite(MeasurementPeriod::P1, 0.003, 13, &ChurnScenario::all(), 4);
    let report = robustness_report(&campaigns);
    assert_eq!(report.rows.len(), 6);
    for row in &report.rows {
        assert!(row.core_lower_bound.estimate <= row.by_ip_groups.estimate, "{}", row.scenario);
        assert!(row.by_ip_groups.estimate <= row.by_pids.estimate, "{}", row.scenario);
        assert!(row.truth_participants <= row.truth_pids, "{}", row.scenario);
        assert!(row.observed_pids <= row.truth_pids, "{}", row.scenario);
        assert!(row.by_pids.signed_rel_error.is_finite(), "{}", row.scenario);
    }
}
