//! Property tests for the routed crawler stack: the Kademlia `closest`
//! primitive, iterative-lookup termination, crawl-vs-ground-truth soundness,
//! the benign recall floor the paper's crawler comparison relies on, and the
//! adversarial invariant that DHT-level attacks bias the crawler while
//! leaving the passive vantage byte-identical.

mod common;

use common::{campaign, scenario_campaign};
use ipfs_passive_measurement::prelude::*;
use p2pmodel::Distance;
use std::collections::BTreeSet;

/// `RoutingTable::closest` must agree with a brute-force sort of the full
/// table contents, for any table shape and any target (seeded fuzz).
#[test]
fn closest_matches_brute_force_over_full_table() {
    let mut fast = Vec::new();
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(0xC10_5E57 + seed);
        let local = PeerId::random(&mut rng);
        let mut table = RoutingTable::new(local);
        let inserts = 1 + (seed as usize) * 73 % 600;
        let peers: Vec<PeerId> = (0..inserts).map(|_| PeerId::random(&mut rng)).collect();
        for slot in 0..inserts as u32 {
            table.insert(&peers, slot);
        }
        for t in 0..16u64 {
            let target = PeerId::derived(seed * 1_000 + t);
            for k in [1usize, 3, 20, 50] {
                table.closest(&peers, &target, k, &mut fast);
                let mut brute: Vec<(Distance, u32)> = table
                    .iter()
                    .map(|slot| (peers[slot as usize].distance(&target), slot))
                    .collect();
                brute.sort_by_key(|&(distance, _)| distance);
                brute.truncate(k);
                assert_eq!(
                    fast, brute,
                    "closest(k={k}) diverged from brute force (seed {seed}, target {t})"
                );
            }
        }
    }
}

/// An iterative lookup over any seeded topology terminates, never queries a
/// peer twice, and its query count is bounded by the number of peers it can
/// reach.
#[test]
fn iterative_lookup_terminates_with_bounded_queries() {
    for seed in 0..6u64 {
        let mut rng = SimRng::seed_from(0x0100_C0B5 + seed);
        let n = 20 + (seed as usize) * 137 % 400;
        let peers: Vec<PeerId> = (0..n).map(|_| PeerId::random(&mut rng)).collect();
        // Every peer maintains a routing table over a random subset of the
        // network, so reply sets differ per responder.
        let tables: Vec<RoutingTable> = peers
            .iter()
            .map(|peer| {
                let mut table = RoutingTable::new(*peer);
                for other in 0..n as u32 {
                    if rng.unit() < 0.35 {
                        table.insert(&peers, other);
                    }
                }
                table
            })
            .collect();
        let target = PeerId::random(&mut rng);
        let seeds = (0..3).map(|slot| (peers[slot as usize].distance(&target), slot));
        let mut lookup = IterativeLookup::new(20, 3, seeds);
        let mut queried = BTreeSet::new();
        let mut rounds = 0usize;
        let mut reply = Vec::new();
        while let Some(batch) = lookup.next_batch() {
            rounds += 1;
            assert!(rounds <= 2 * n, "lookup failed to terminate (seed {seed})");
            for slot in batch {
                assert!(queried.insert(slot), "peer queried twice (seed {seed})");
                tables[slot as usize].closest(&peers, &target, 20, &mut reply);
                lookup.on_response(reply.iter().copied());
            }
        }
        assert!(lookup.queries() <= n, "more queries than peers (seed {seed})");
        assert_eq!(lookup.queries(), queried.len());
    }
}

/// A crawl can only ever find servers that the ground truth says were online
/// at the crawl instant: per-snapshot `servers_found <= servers_online`, and
/// the summary's distinct count is bounded by the ever-online server pool.
#[test]
fn crawls_never_find_more_servers_than_are_online() {
    let campaign = campaign(MeasurementPeriod::P4);
    assert!(!campaign.crawls.is_empty(), "P4 must produce crawls");
    for snapshot in &campaign.crawls {
        assert!(
            snapshot.servers_found <= snapshot.servers_online,
            "crawl at {:?} found {} of {} online servers",
            snapshot.at,
            snapshot.servers_found,
            snapshot.servers_online
        );
        assert!(snapshot.recall() <= 1.0);
        assert_eq!(snapshot.adversarial_found, 0, "baseline has no adversaries");
    }
    let pool = campaign
        .ground_truth
        .ever_online_within(SimTime::ZERO, SimTime::ZERO + campaign.scenario.period.duration());
    assert!(
        campaign.crawl_summary.distinct_servers <= pool,
        "distinct servers {} exceed ever-online pool {}",
        campaign.crawl_summary.distinct_servers,
        pool
    );
}

/// The first crawl fires at `start` itself, never one interval later — the
/// regression the teleporting-crawler fix was about.
#[test]
fn first_crawl_happens_at_the_period_start() {
    let campaign = campaign(MeasurementPeriod::P4);
    assert_eq!(campaign.crawls[0].at, SimTime::ZERO);
}

/// Benign recall floor: on every measurement period P0–P4 the routed crawler
/// recovers at least 70 % of the online DHT servers in every single crawl.
#[test]
fn benign_recall_stays_within_bounds_on_every_period() {
    for period in [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
        MeasurementPeriod::P4,
    ] {
        let campaign = campaign(period);
        assert!(!campaign.crawls.is_empty(), "{period:?} must crawl");
        for snapshot in &campaign.crawls {
            let recall = snapshot.recall();
            assert!(
                (0.7..=1.0).contains(&recall),
                "{period:?} crawl at {:?}: recall {recall:.3} outside [0.7, 1.0] \
                 ({} of {} servers)",
                snapshot.at,
                snapshot.servers_found,
                snapshot.servers_online
            );
        }
        assert!((0.7..=1.0).contains(&campaign.crawl_summary.mean_recall));
    }
}

/// DHT-level adversaries bias the crawler — lower recall, adversarial PIDs in
/// the reply stream — while the passive monitors' datasets stay byte-identical
/// to the baseline run: the attacks live in routing tables, not in the
/// connection behaviour a passive vantage observes.
#[test]
fn adversaries_bias_the_crawler_but_not_the_passive_view() {
    let baseline = campaign(MeasurementPeriod::P4);
    let baseline_json = baseline.primary().to_json_string();
    let mut depressed = 0usize;
    for adversary in ChurnScenario::adversaries() {
        let label = adversary.label();
        let attacked = scenario_campaign(MeasurementPeriod::P4, adversary);
        assert_eq!(
            attacked.primary().to_json_string(),
            baseline_json,
            "{label}: passive dataset must be byte-identical to baseline"
        );
        assert_eq!(
            attacked.passive_datasets().len(),
            baseline.passive_datasets().len()
        );
        let found: u64 = attacked.crawls.iter().map(|s| s.adversarial_found as u64).sum();
        assert!(found > 0, "{label}: crawler never met an adversarial peer");
        assert!(
            attacked.crawl_summary.mean_recall <= baseline.crawl_summary.mean_recall,
            "{label}: adversary must not improve recall"
        );
        if attacked.crawl_summary.mean_recall < baseline.crawl_summary.mean_recall {
            depressed += 1;
        }
    }
    assert!(
        depressed >= 1,
        "at least one adversary must measurably depress crawler recall"
    );
}

/// On synthetic churn, `crawl_summary`'s summary is a pure fold of the
/// snapshot series it returns, and a second crawl returns the same series.
#[test]
fn crawl_summary_is_a_fold_of_the_snapshot_series() {
    for seed in 0..4u64 {
        let mut rng = SimRng::seed_from(0x0005_F01D + seed);
        let mut gt = netsim::GroundTruth::default();
        let n = 40 + (seed as usize) * 61 % 200;
        for i in 0..n {
            let peer = PeerId::derived(seed * 100_000 + i as u64);
            gt.peers.push((peer, true));
            gt.events.push(netsim::GroundTruthEvent::PeerOnline {
                at: SimTime::ZERO,
                peer,
            });
            // Random mid-run churn: some peers drop, a few of those return.
            if rng.unit() < 0.3 {
                let down = SimTime::from_secs(3_600 + (rng.raw_u64() % 80_000));
                gt.events
                    .push(netsim::GroundTruthEvent::PeerOffline { at: down, peer });
                if rng.unit() < 0.5 {
                    gt.events.push(netsim::GroundTruthEvent::PeerOnline {
                        at: down + SimDuration::from_secs(1 + rng.raw_u64() % 5_000),
                        peer,
                    });
                }
            }
        }
        gt.events.sort_by_key(|event| event.at());
        let bootstrap = PeerId::derived(u64::MAX - 7);
        let dht = dht_log_from_ground_truth(&gt, &[bootstrap]);
        let crawler = ActiveCrawler::new();
        let end = SimTime::from_hours(30);
        let (snapshots, summary) = crawler.crawl_summary(&dht, &gt, SimTime::ZERO, end);
        assert_eq!(
            crawler.crawl_summary(&dht, &gt, SimTime::ZERO, end).0,
            snapshots,
            "seed {seed}: a crawl series is reproducible"
        );
        assert_eq!(summary.crawls, snapshots.len());
        assert_eq!(
            summary.total_lookups,
            snapshots.iter().map(|s| s.lookups).sum::<usize>()
        );
        assert_eq!(
            summary.total_queries,
            snapshots.iter().map(|s| s.queries).sum::<usize>()
        );
        let min = snapshots.iter().map(|s| s.servers_found).min().unwrap_or(0);
        let max = snapshots.iter().map(|s| s.servers_found).max().unwrap_or(0);
        assert_eq!(summary.min_servers, min, "seed {seed}");
        assert_eq!(summary.max_servers, max, "seed {seed}");
        let mean: f64 = snapshots.iter().map(|s| s.recall()).sum::<f64>() / snapshots.len() as f64;
        assert!((summary.mean_recall - mean).abs() < 1e-12, "seed {seed}");
    }
}
