//! Cross-crate integration tests: run small measurement campaigns end to end
//! and check the invariants that connect the simulator, the measurement
//! clients and the analyses.

use ipfs_passive_measurement::prelude::*;
use simclock::SimDuration;

mod common;
use common::{campaign, scenario_campaign, SEED};

fn p4() -> MeasurementCampaign {
    campaign(MeasurementPeriod::P4)
}

#[test]
fn campaign_datasets_are_internally_consistent() {
    let campaign = p4();
    let dataset = campaign.primary();

    // Every connection belongs to a known peer record.
    for conn in &dataset.connections {
        assert!(
            dataset.peers.contains_key(&conn.peer),
            "connection for unknown peer {:?}",
            conn.peer
        );
        assert!(conn.closed_at >= conn.opened_at);
        assert!(conn.closed_at <= dataset.ended_at);
    }
    // Timestamps of peer records are within the measurement window.
    for record in dataset.peers.values() {
        assert!(record.first_seen <= record.last_seen);
        assert!(record.last_seen <= dataset.ended_at);
    }
    // Snapshots never report more connected PIDs than open connections.
    for snapshot in &dataset.snapshots {
        assert!(snapshot.connected_pids <= snapshot.open_connections);
        assert!(snapshot.connected_pids <= snapshot.known_pids);
    }
}

#[test]
fn observed_peers_are_a_subset_of_the_population() {
    let campaign = p4();
    let population: std::collections::BTreeSet<_> = campaign
        .ground_truth
        .peers
        .iter()
        .map(|(peer, _)| *peer)
        .collect();
    for peer in campaign.primary().peers.keys() {
        assert!(population.contains(peer));
    }
    // And the passive node sees a substantial share of the network.
    let seen = campaign.primary().pid_count() as f64;
    let total = population.len() as f64;
    assert!(
        seen / total > 0.5,
        "a DHT-Server observer should see most of the network ({seen}/{total})"
    );
}

#[test]
fn table2_shape_avg_exceeds_median_and_inbound_dominates() {
    let campaign = p4();
    let dataset = campaign.primary();
    let stats = analysis::connection_stats(dataset);
    assert!(stats.all_sum > 100, "expected a busy data set, got {}", stats.all_sum);
    assert!(
        stats.all_avg_secs > stats.all_median_secs,
        "heavy-tailed durations: avg {} must exceed median {}",
        stats.all_avg_secs,
        stats.all_median_secs
    );
    assert!(stats.peer_avg_secs > stats.all_avg_secs * 0.5);

    let dirs = analysis::direction_stats(dataset);
    assert!(dirs.inbound > dirs.outbound, "inbound connections must dominate");
    assert!(
        dirs.inbound_avg_secs > dirs.outbound_avg_secs,
        "inbound connections live longer than outbound ones"
    );
    // The paper's central inference, checked against ground truth: most
    // closes are trimming, not node churn.
    let trimmed = dirs.trimmed_fraction.expect("simulated data has ground truth");
    assert!(trimmed > 0.5, "connection churn should be dominated by trimming, got {trimmed}");
}

#[test]
fn low_watermarks_produce_more_and_shorter_connections_than_high_ones() {
    // P0 (600/900 scaled) vs P2 (18k/20k scaled) — Table II's headline trend.
    let p0 = campaign(MeasurementPeriod::P0);
    let p2 = campaign(MeasurementPeriod::P2);
    let s0 = analysis::connection_stats(p0.go_ipfs.as_ref().unwrap());
    let s2 = analysis::connection_stats(p2.go_ipfs.as_ref().unwrap());
    // P0 runs three times as long but still produces disproportionately many
    // connections per day compared to P2.
    let p0_per_day = s0.all_sum as f64 / 3.0;
    let p2_per_day = s2.all_sum as f64;
    assert!(
        p0_per_day > p2_per_day,
        "aggressive trimming must produce more connections per day ({p0_per_day} vs {p2_per_day})"
    );
    assert!(
        s2.all_avg_secs > s0.all_avg_secs,
        "relaxed thresholds must yield longer average durations ({} vs {})",
        s2.all_avg_secs,
        s0.all_avg_secs
    );
}

#[test]
fn dht_client_observer_matches_p3_shape() {
    let p3 = campaign(MeasurementPeriod::P3);
    let p2 = campaign(MeasurementPeriod::P2);
    let client = p3.go_ipfs.as_ref().unwrap();
    let server = p2.go_ipfs.as_ref().unwrap();
    assert!(client.pid_count() < server.pid_count());
    assert!(client.connection_count() < server.connection_count());
    let client_stats = analysis::connection_stats(client);
    let server_stats = analysis::connection_stats(server);
    assert!(
        client_stats.peer_avg_secs < server_stats.peer_avg_secs,
        "connections to a DHT-Client observer are shorter"
    );
}

#[test]
fn fig2_passive_server_view_covers_crawler_for_multiday_periods() {
    let campaign = campaign(MeasurementPeriod::P0);
    let comparison = analysis::horizon_comparison(&campaign);
    assert!(!comparison.passive.is_empty());
    assert!(comparison.crawler.crawls >= 8, "3 days / 8 h = 9 crawls");
    let best_passive = comparison.passive.iter().map(|e| e.dht_server_pids).max();
    assert!(
        best_passive >= Some(comparison.crawler.max_servers),
        "historic passive view must reach the crawler's per-crawl maximum: {:?} vs {:?}",
        comparison.passive,
        comparison.crawler
    );
}

/// The paper's central inference, checked against the simulator's ground
/// truth: connection churn comes from connection-manager trimming, not from
/// peers leaving the network (`analysis::validation`).
#[test]
fn churn_is_trimming_not_node_departure() {
    use MeasurementPeriod::{P0, P1, P2, P3, P4};
    for period in [P0, P1, P2, P3, P4] {
        let churn = analysis::validation::churn_decomposition(&campaign(period));
        assert!(
            churn.trimming_fraction() >= 0.9,
            "{period}: trimming must close at least 90% of connections: {churn:?}"
        );
        // P3's DHT-Client observer is dialled by few peers and sees less
        // connection churn than the network's node churn; every DHT-Server
        // period sees several times more connection churn than node churn.
        if period != P3 {
            assert!(
                churn.connection_to_node_churn_ratio() >= 3.0,
                "{period}: connection churn must dwarf node churn: {churn:?}"
            );
        }
    }
}

#[test]
fn hydra_union_is_a_superset_of_every_head() {
    let campaign = campaign(MeasurementPeriod::P1);
    let union = campaign.hydra_union.as_ref().expect("P1 deploys hydra heads");
    for head in &campaign.hydra_heads {
        assert!(union.pid_count() >= head.pid_count());
        for peer in head.peers.keys() {
            assert!(union.peers.contains_key(peer));
        }
    }
}

#[test]
fn table4_classification_is_total_and_matches_connected_pids() {
    let campaign = p4();
    let dataset = campaign.primary();
    let classes = analysis::classify_peers(dataset);
    assert_eq!(classes.total(), dataset.connected_pid_count());
    // All four classes are populated in a realistic population.
    for class in analysis::ConnectionClass::ALL {
        assert!(
            classes.count(class) > 0,
            "class {class} should not be empty at this scale"
        );
    }
    // One-time users are the largest class, heavy servers a small minority —
    // the qualitative shape of Table IV.
    assert!(classes.count(analysis::ConnectionClass::OneTime) >= classes.count(analysis::ConnectionClass::Heavy));
    // The core (heavy + normal) is a meaningful lower bound below the PID count.
    assert!(classes.core_size() < dataset.pid_count());
    assert!(classes.core_size() > 0);
}

#[test]
fn ip_grouping_reduces_the_estimate_but_not_below_ground_truth_order() {
    let campaign = p4();
    let dataset = campaign.primary();
    let grouping = analysis::ip_grouping(dataset);
    assert!(grouping.groups <= grouping.connected_pids);
    assert!(grouping.groups > 0);
    // The rotating-PID operator and the hydra hosts must show up as large
    // shared-IP groups.
    assert!(
        grouping.largest_group > 5,
        "expected a large shared-IP group, got {}",
        grouping.largest_group
    );
    let estimate = analysis::network_size_estimate(dataset);
    assert!(estimate.by_ip_groups <= estimate.by_pids);
    assert!(estimate.core_lower_bound <= estimate.by_ip_groups);
}

#[test]
fn fig7_cdfs_match_the_papers_qualitative_claims() {
    let campaign = p4();
    let dataset = campaign.primary();
    let cdfs = analysis::max_duration_cdf(dataset, 30.0);
    let below_hour = cdfs.fraction_below(3600.0);
    let above_day = 1.0 - cdfs.fraction_below(24.0 * 3600.0);
    assert!(
        (0.2..=0.85).contains(&below_hour),
        "roughly half of the PIDs stay under an hour (paper: 53 %), got {below_hour}"
    );
    assert!(
        (0.03..=0.5).contains(&above_day),
        "a minority of PIDs stays beyond 24 h (paper: 16 %), got {above_day}"
    );
    let counts = analysis::connection_count_cdf(dataset);
    let single = counts.fraction_at_or_below(1.0);
    assert!(
        (0.2..=0.8).contains(&single),
        "about half of the PIDs connect exactly once (paper: ~50 %), got {single}"
    );
}

#[test]
fn fig6_pid_growth_is_monotone_and_keeps_growing() {
    // A shortened extension run (4 days) at small scale.
    let scenario = population::Scenario::new(MeasurementPeriod::Extended)
        .with_scale(0.002)
        .with_seed(SEED);
    let campaign = measurement::run_scenario(scenario);
    let dataset = campaign.primary();
    let growth = analysis::pid_growth(dataset, SimDuration::from_hours(12), SimDuration::from_days(3));
    let points = growth.total_pids.points();
    assert!(points.len() > 10);
    for pair in points.windows(2) {
        assert!(pair[1].1 >= pair[0].1, "total PIDs must never decrease");
    }
    // The network keeps being discovered: the second half still adds PIDs.
    let mid = points[points.len() / 2].1;
    let last = points.last().unwrap().1;
    assert!(last > mid, "PIDs keep growing over the run ({mid} -> {last})");
    // Long-gone PIDs exist by the end of a 14-day run.
    assert!(growth.final_gone() > 0);
    assert!(growth.final_gone() < growth.final_total());
}

#[test]
fn campaigns_are_reproducible_from_the_seed() {
    let a = run_period(MeasurementPeriod::P3, common::SCALE, 99);
    let b = run_period(MeasurementPeriod::P3, common::SCALE, 99);
    assert_eq!(a.primary().pid_count(), b.primary().pid_count());
    assert_eq!(a.primary().connection_count(), b.primary().connection_count());
    assert_eq!(
        analysis::connection_stats(a.primary()),
        analysis::connection_stats(b.primary())
    );
    let c = run_period(MeasurementPeriod::P3, common::SCALE, 100);
    assert_ne!(
        a.primary().connection_count(),
        c.primary().connection_count(),
        "different seeds should differ"
    );
}

#[test]
fn scenario_campaigns_preserve_dataset_invariants() {
    // The adversarial regimes must not break any internal consistency the
    // baseline data sets guarantee.
    for churn in [ChurnScenario::flash_crowd(), ChurnScenario::mass_exit()] {
        let campaign = scenario_campaign(MeasurementPeriod::P4, churn.clone());
        let dataset = campaign.primary();
        let population: std::collections::BTreeSet<_> = campaign
            .ground_truth
            .peers
            .iter()
            .map(|(peer, _)| *peer)
            .collect();
        for conn in &dataset.connections {
            assert!(conn.closed_at >= conn.opened_at, "{churn}: inverted connection");
            assert!(conn.closed_at <= dataset.ended_at);
            assert!(dataset.peers.contains_key(&conn.peer));
        }
        for peer in dataset.peers.keys() {
            assert!(population.contains(peer), "{churn}: observed peer not in ground truth");
        }
        assert!(
            campaign.ground_truth_participants <= campaign.ground_truth.population_size(),
            "{churn}: participants can never exceed PIDs"
        );
        // Estimator ordering (the properties suite checks it in breadth).
        let estimate = analysis::network_size_estimate(dataset);
        assert!(estimate.by_ip_groups <= estimate.by_pids);
    }
}
