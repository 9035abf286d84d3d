//! Property-based tests for the multi-vantage subsystem (seeded fuzz loops
//! in the PR-1 style: no proptest offline, so each property runs over a
//! deterministic random sample of campaigns and failures reproduce exactly).
//!
//! The algebra under test:
//!
//! * the data-set union merge is **commutative**, **associative** and
//!   **idempotent** (up to the client label),
//! * the observed union PID count is **monotone non-decreasing** in the
//!   vantage count,
//! * Lincoln–Petersen and Chao1 estimates are **≥ the observed union** and
//!   **finite** whenever the vantages overlap at all.

use ipfs_passive_measurement::prelude::*;

mod common;

/// Runs `cases` deterministic random configurations through `check`.
fn for_cases(label: &str, cases: u64, mut check: impl FnMut(&mut SimRng)) {
    let mut rng = SimRng::seed_from(simclock::rng::fnv1a(label));
    for _ in 0..cases {
        check(&mut rng);
    }
}

/// Draws a small randomized multi-vantage campaign: random period, scale
/// and seed, 3 vantage points.
fn random_campaign(rng: &mut SimRng) -> VantageCampaign {
    let period = match rng.uniform_u64(0, 3) {
        0 => MeasurementPeriod::P1,
        1 => MeasurementPeriod::P3,
        _ => MeasurementPeriod::P4,
    };
    let scale = 0.002 + rng.uniform_u64(0, 2) as f64 * 0.001;
    let seed = rng.uniform_u64(0, 10_000);
    run_vantage_campaign(
        Scenario::new(period)
            .with_scale(scale)
            .with_seed(seed)
            .with_vantage_points(3),
    )
}

fn union(label: &str, sets: &[&MeasurementDataset]) -> MeasurementDataset {
    MeasurementDataset::union_of(label, sets.iter().copied())
}

#[test]
fn union_merge_is_commutative_associative_and_idempotent() {
    for_cases("vantage_union_algebra", 3, |rng| {
        let campaign = random_campaign(rng);
        let [a, b, c] = [&campaign.vantages[0], &campaign.vantages[1], &campaign.vantages[2]];

        // Commutative: a ∪ b = b ∪ a, byte for byte.
        assert_eq!(
            union("u", &[a, b]).to_json_string(),
            union("u", &[b, a]).to_json_string(),
            "{}: union must not depend on merge order",
            campaign.scenario.period
        );

        // Associative: (a ∪ b) ∪ c = a ∪ (b ∪ c).
        let left = union("u", &[&union("u", &[a, b]), c]);
        let right = union("u", &[a, &union("u", &[b, c])]);
        assert_eq!(
            left.to_json_string(),
            right.to_json_string(),
            "{}: union must not depend on grouping",
            campaign.scenario.period
        );

        // Idempotent: a ∪ a = canonical(a), and re-merging an input into the
        // union changes nothing.
        assert_eq!(
            union("u", &[a, a]).to_json_string(),
            union("u", &[a]).to_json_string(),
            "{}: self-union must not double anything",
            campaign.scenario.period
        );
        let full = union("u", &[a, b, c]);
        assert_eq!(
            union("u", &[&full, b]).to_json_string(),
            full.to_json_string(),
            "{}: re-merging an absorbed vantage must be a no-op",
            campaign.scenario.period
        );

        // And the union is an upper bound of its inputs.
        for vantage in [a, b, c] {
            assert!(full.pid_count() >= vantage.pid_count());
            assert!(full.connection_count() >= vantage.connection_count());
        }
    });
}

#[test]
fn union_pid_count_is_monotone_in_vantage_count() {
    for_cases("vantage_union_monotone", 3, |rng| {
        let campaign = random_campaign(rng);
        let mut last = 0;
        for v in 1..=campaign.vantage_count() {
            let union = MeasurementDataset::union_of("union", campaign.vantages.iter().take(v));
            assert!(
                union.pid_count() >= last,
                "{}: union PIDs shrank from {last} to {} at {v} vantages",
                campaign.scenario.period,
                union.pid_count()
            );
            last = union.pid_count();
            // The union never invents PIDs either.
            assert!(union.pid_count() <= campaign.ground_truth.population_size());
        }
        assert_eq!(last, campaign.union.pid_count());
    });
}

#[test]
fn capture_recapture_estimates_bound_the_union_and_stay_finite() {
    for_cases("vantage_estimator_bounds", 3, |rng| {
        let campaign = random_campaign(rng);
        let analysis = analyze_vantages(&campaign);
        for row in &analysis.rows {
            if row.vantages < 2 {
                assert!(row.lincoln_petersen.is_none());
                assert!(row.chao1.is_none());
                continue;
            }
            // Simulated vantage points always share at least part of the
            // network core, so the estimators must produce finite values…
            let overlap = analysis.overlap[0][1];
            assert!(overlap > 0, "{}: vantages never overlapped", analysis.period);
            let lp = row.lincoln_petersen.expect("two occasions estimate");
            let chao = row.chao1.expect("two occasions estimate");
            for estimate in [lp, chao] {
                assert!(estimate.estimate.is_finite());
                // …that are at least the observed union…
                assert!(
                    estimate.estimate >= row.union_pids as f64,
                    "{}: estimate {} below the observed union {}",
                    analysis.period,
                    estimate.estimate,
                    row.union_pids
                );
                // …with a CI that contains the point estimate and respects
                // the observed floor.
                assert!(estimate.ci95_low <= estimate.estimate);
                assert!(estimate.estimate <= estimate.ci95_high);
                assert!(estimate.ci95_low >= row.union_pids as f64 - 1e-9);
            }
        }
    });
}

#[test]
fn pure_estimator_laws_hold_on_random_inputs() {
    // The estimator functions themselves, fuzzed over raw counts: finite
    // whenever the overlap is non-empty, and never below the union.
    for_cases("raw_estimator_laws", 300, |rng| {
        let n1 = rng.uniform_u64(1, 5_000) as usize;
        let n2 = rng.uniform_u64(1, 5_000) as usize;
        let m = rng.uniform_u64(1, n1.min(n2) as u64 + 1) as usize;
        let lp = lincoln_petersen(n1, n2, m).expect("non-empty samples");
        assert!(lp.estimate.is_finite());
        assert!(lp.estimate >= (n1 + n2 - m) as f64 - 1e-9);

        let occasions = rng.uniform_u64(2, 6) as usize;
        let observed = rng.uniform_u64(1, 5_000) as usize;
        let f1 = rng.uniform_u64(0, observed as u64 + 1) as usize;
        let f2 = rng.uniform_u64(0, (observed - f1) as u64 + 1) as usize;
        let chao = chao1(occasions, observed, f1, f2).expect("two occasions");
        assert!(chao.estimate.is_finite());
        assert!(chao.estimate >= observed as f64 - 1e-9);
    });
}
