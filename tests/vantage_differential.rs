//! Differential tests for the multi-vantage pipeline.
//!
//! Three contracts:
//!
//! 1. **Single-vantage equivalence** — for every measurement period P0–P4, a
//!    1-vantage run through the multi-vantage runner reproduces the existing
//!    single-monitor `MeasurementDataset` byte-for-byte (JSON compare). The
//!    vantage subsystem is an extension, not a fork, of the paper pipeline.
//! 2. **Thread-count independence** — the `repro vantage` report is
//!    byte-identical at 1 and 8 threads (the CI job additionally compares
//!    the binary's stdout).
//! 3. **The capture–recapture pay-off** (the PR's acceptance criterion) —
//!    on benign P0–P4 periods the Chao1 estimate from 3 vantages has a
//!    strictly smaller signed relative error against the ground-truth PID
//!    population than the single-vantage naive estimate.

use ipfs_passive_measurement::prelude::*;

mod common;
use common::{SCALE, SEED};

fn periods() -> [MeasurementPeriod; 5] {
    [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
        MeasurementPeriod::P4,
    ]
}

#[test]
fn one_vantage_reproduces_every_period_byte_for_byte() {
    for period in periods() {
        let scenario = Scenario::new(period).with_scale(SCALE).with_seed(SEED);
        let single = common::campaign(period);
        let vantage = run_vantage_campaign(scenario);
        assert_eq!(vantage.vantage_count(), 1, "{period}");
        let single_json = single
            .go_ipfs
            .as_ref()
            .expect("every period deploys the go-ipfs client")
            .to_json_string();
        assert_eq!(
            vantage.vantages[0].to_json_string(),
            single_json,
            "{period}: the 1-vantage dataset must equal the single-monitor dataset byte-for-byte"
        );
        assert_eq!(vantage.ground_truth, single.ground_truth, "{period}");
        assert_eq!(
            vantage.ground_truth_participants,
            single.ground_truth_participants,
            "{period}"
        );
    }
}

#[test]
fn vantage_report_is_identical_at_1_and_8_threads() {
    let scenarios = vec![
        ChurnScenario::Baseline,
        ChurnScenario::flash_crowd(),
        ChurnScenario::pid_rotation_flood(),
    ];
    let serial = run_vantage_suite(MeasurementPeriod::P1, 0.003, SEED, 3, &scenarios, 1);
    let parallel = run_vantage_suite(MeasurementPeriod::P1, 0.003, SEED, 3, &scenarios, 8);
    let a = vantage_report(&serial);
    let b = vantage_report(&parallel);
    assert_eq!(
        a.to_json_string_pretty(),
        b.to_json_string_pretty(),
        "repro vantage stdout must not depend on --threads"
    );
}

#[test]
fn chao1_beats_the_single_vantage_naive_estimate_on_benign_periods() {
    // The acceptance criterion of the vantage subsystem: capture–recapture
    // must actually buy accuracy. For every benign period, compare the
    // 3-vantage Chao1 estimate against the naive single-vantage PID count,
    // both measured against the ground-truth PID population.
    for period in periods() {
        let campaign = run_vantage_campaign(
            Scenario::new(period)
                .with_scale(0.004)
                .with_seed(SEED)
                .with_vantage_points(3),
        );
        let analysis = analyze_vantages(&campaign);
        let naive = &analysis.rows[0].naive;
        let chao = analysis
            .rows
            .last()
            .expect("a campaign deploys at least one vantage")
            .chao1_error
            .as_ref()
            .expect("three vantages give a Chao1 estimate");
        assert!(
            chao.signed_rel_error.abs() < naive.signed_rel_error.abs(),
            "{period}: Chao1 error {:+.4} must beat the naive single-vantage error {:+.4} \
             (truth {} PIDs, naive {}, chao1 {})",
            chao.signed_rel_error,
            naive.signed_rel_error,
            analysis.truth_pids,
            naive.estimate,
            chao.estimate
        );
    }
}
