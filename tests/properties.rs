//! Cross-crate property-based tests: invariants that must hold for *any*
//! population mix, seed or connection-manager configuration.
//!
//! The offline build has no proptest, so each property is checked over a
//! seeded random sample of configurations; the sample is deterministic, so
//! failures reproduce exactly.

use ipfs_passive_measurement::prelude::*;
use netsim::{Network, SessionPattern};
use simclock::SimDuration;

fn tiny_population(seed: u64, peers: usize, hours: u64) -> Vec<RemotePeerSpec> {
    let mut rng = SimRng::seed_from(seed);
    (0..peers as u64)
        .map(|i| {
            let server = i % 3 != 0;
            let protocols = if server {
                ProtocolSet::go_ipfs_dht_server()
            } else {
                ProtocolSet::go_ipfs_dht_client()
            };
            let addr = Multiaddr::default_swarm(p2pmodel::IpAddress::V4(100 + i as u32));
            let mut spec = RemotePeerSpec::new(
                PeerId::derived(i + 1),
                addr,
                IdentifyInfo::new(AgentVersion::parse("go-ipfs/0.11.0/"), protocols, vec![addr]),
            );
            if rng.chance(0.4) {
                spec = spec.with_session(SessionPattern::Intermittent {
                    online_median_secs: 1800.0,
                    offline_median_secs: 900.0,
                    sigma: 0.8,
                    initial_delay_secs: rng.unit() * (hours as f64) * 600.0,
                });
            }
            spec
        })
        .collect()
}

/// Runs `cases` deterministic random configurations through `check`.
fn for_cases(label: &str, cases: u64, mut check: impl FnMut(&mut SimRng)) {
    // Derive one generator per property so adding a property does not shift
    // the sample of the others.
    let mut rng = SimRng::seed_from(simclock::rng::fnv1a(label));
    for _ in 0..cases {
        check(&mut rng);
    }
}

fn ingest(seed: u64, peers: usize, hours: u64, low: usize, high: usize) -> MeasurementDataset {
    let observer = ObserverSpec::new(
        "go-ipfs",
        PeerId::derived(0),
        DhtRole::Server,
        ConnLimits::new(low, high),
    );
    let config = NetworkConfig {
        seed,
        duration: SimDuration::from_hours(hours),
        observers: vec![observer],
    };
    let output = Network::new(config, tiny_population(seed, peers, hours)).run();
    GoIpfsMonitor::new().ingest(&output.logs[0])
}

/// Whatever the configuration, the monitor pipeline never loses or invents
/// connections: every recorded connection fits inside the measurement window
/// and belongs to a recorded peer.
#[test]
fn monitor_conserves_connections() {
    for_cases("monitor_conserves_connections", 12, |rng| {
        let seed = rng.uniform_u64(0, 1000);
        let peers = rng.uniform_u64(5, 60) as usize;
        let low = rng.uniform_u64(3, 20) as usize;
        let extra = rng.uniform_u64(1, 20) as usize;
        let dataset = ingest(seed, peers, 3, low, low + extra);

        for conn in &dataset.connections {
            assert!(dataset.peers.contains_key(&conn.peer));
            assert!(conn.opened_at >= dataset.started_at);
            assert!(conn.closed_at <= dataset.ended_at);
            assert!(conn.closed_at >= conn.opened_at);
        }
    });
}

/// The Table IV classification is a partition: total classified peers equals
/// the number of connected PIDs, independent of configuration.
#[test]
fn classification_is_a_partition() {
    for_cases("classification_is_a_partition", 12, |rng| {
        let seed = rng.uniform_u64(0, 1000);
        let peers = rng.uniform_u64(5, 60) as usize;
        let dataset = ingest(seed, peers, 2, 30, 50);
        let classes = analysis::classify_peers(&dataset);
        assert_eq!(classes.total(), dataset.connected_pid_count());
        let sum: usize = analysis::ConnectionClass::ALL
            .iter()
            .map(|c| classes.count(*c))
            .sum();
        assert_eq!(sum, classes.total());
        // Server counts never exceed totals.
        for (_, total, servers) in &classes.rows {
            assert!(servers <= total);
        }
    });
}

/// Network-size estimators are always ordered: PIDs ≥ IP groups ≥ core.
#[test]
fn estimators_are_ordered() {
    for_cases("estimators_are_ordered", 12, |rng| {
        let seed = rng.uniform_u64(0, 1000);
        let peers = rng.uniform_u64(5, 60) as usize;
        let dataset = ingest(seed, peers, 2, 40, 60);
        let estimate = analysis::network_size_estimate(&dataset);
        assert!(estimate.by_ip_groups <= estimate.by_pids);
        assert!(estimate.core_lower_bound <= dataset.connected_pid_count());
    });
}

/// The duration CDF of Fig. 7 is a proper CDF: monotone and reaching 1.
#[test]
fn duration_cdf_is_monotone() {
    for_cases("duration_cdf_is_monotone", 12, |rng| {
        let seed = rng.uniform_u64(0, 500);
        let peers = rng.uniform_u64(5, 40) as usize;
        let dataset = ingest(seed, peers, 2, 20, 30);
        let cdfs = analysis::max_duration_cdf(&dataset, 30.0);
        if cdfs.all.is_empty() {
            return;
        }
        let mut previous = 0.0;
        for x in [10.0, 60.0, 600.0, 3_600.0, 86_400.0, 1_000_000.0] {
            let fraction = cdfs.fraction_below(x);
            assert!(fraction >= previous);
            assert!((0.0..=1.0).contains(&fraction));
            previous = fraction;
        }
        assert!((cdfs.fraction_below(10_000_000.0) - 1.0).abs() < 1e-9);
    });
}
