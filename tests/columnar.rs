//! Property tests for the columnar observation pipeline: the
//! `IdentifyRegistry` interning round trips and the engine's pre-sorted
//! column stream. `netsim`'s `events.rs` and `measurement`'s `monitor.rs`
//! unit tests pin that logs over differently ordered registries compare
//! and ingest equal.

use ipfs_passive_measurement::prelude::*;
use netsim::IdentifyRegistry;
use p2pmodel::{IpAddress, Transport};
use simclock::SimTime;

fn random_identify(rng: &mut SimRng) -> IdentifyInfo {
    let agents = [
        "go-ipfs/0.11.0/",
        "go-ipfs/0.11.0-dev/0c2f9d5-dirty",
        "go-ipfs/0.8.0/",
        "hydra-booster/0.7.4",
        "storm",
        "",
    ];
    let agent = AgentVersion::parse(agents[rng.index(agents.len())]);
    let mut protocols = match rng.index(4) {
        0 => ProtocolSet::go_ipfs_dht_server(),
        1 => ProtocolSet::go_ipfs_dht_client(),
        2 => ProtocolSet::hydra_head(),
        _ => ProtocolSet::new(),
    };
    if rng.chance(0.3) {
        protocols.insert(format!("/x/custom/{}", rng.uniform_u64(0, 8)));
    }
    let addr_count = rng.index(3);
    let listen_addrs = (0..addr_count)
        .map(|_| {
            Multiaddr::new(
                IpAddress::random_v4(rng),
                *rng.choose(&Transport::ALL),
                rng.uniform_u64(1, u16::MAX as u64) as u16,
            )
        })
        .collect();
    IdentifyInfo::new(agent, protocols, listen_addrs)
}

/// Property (seeded fuzz loop, `tests/properties.rs` style): interning an
/// identify payload round-trips — `id → info → id` is the identity, equal
/// payloads share an id, and distinct payloads never collide.
#[test]
fn identify_registry_interning_roundtrips() {
    let mut rng = SimRng::seed_from(simclock::rng::fnv1a("identify_registry_roundtrip"));
    for _ in 0..64 {
        let mut registry = IdentifyRegistry::new();
        let mut interned: Vec<(u32, IdentifyInfo)> = Vec::new();
        for _ in 0..rng.uniform_u64(1, 40) {
            let info = random_identify(&mut rng);
            let id = registry.intern_identify(&info);
            // id → info → id is the identity.
            assert_eq!(registry.identify(id), &info);
            let resolved = registry.identify(id).clone();
            assert_eq!(registry.intern_identify(&resolved), id);
            interned.push((id, info));
        }
        // Equal payloads share ids; distinct payloads have distinct ids.
        for (id_a, info_a) in &interned {
            for (id_b, info_b) in &interned {
                assert_eq!(info_a == info_b, id_a == id_b, "intern ids must mirror payload equality");
            }
        }
        assert!(registry.identify_count() <= interned.len());
    }
}

/// Peer slots and address ids round-trip the same way.
#[test]
fn registry_peers_and_addrs_roundtrip() {
    let mut rng = SimRng::seed_from(simclock::rng::fnv1a("registry_peers_addrs"));
    for _ in 0..64 {
        let mut registry = IdentifyRegistry::new();
        for _ in 0..rng.uniform_u64(1, 60) {
            let peer = PeerId::derived(rng.uniform_u64(0, 30));
            let slot = registry.register_peer(peer);
            assert_eq!(registry.peer(slot), peer);
            assert_eq!(registry.slot_of(&peer), Some(slot));
            assert_eq!(registry.register_peer(peer), slot);

            let addr = Multiaddr::new(
                IpAddress::V4(rng.uniform_u64(0, 20) as u32),
                *rng.choose(&Transport::ALL),
                4001,
            );
            let id = registry.intern_addr(addr);
            assert_eq!(registry.addr(id), addr);
            assert_eq!(registry.intern_addr(addr), id);
        }
        assert!(registry.peer_count() <= 30);
    }
}

/// The engine's raw column stream is chronological *before* any end-of-run
/// sort: observed through `run_with_sinks` (which never sorts), every
/// table must already be time-ordered, so the compatibility sort in
/// `Network::run` is a no-op on simulated traces.
#[test]
fn engine_tables_are_chronological() {
    use netsim::{Network, ObservationTable};
    for churn in [ChurnScenario::Baseline, ChurnScenario::flash_crowd()] {
        let run = population::Scenario::new(MeasurementPeriod::P1)
            .with_scale(0.003)
            .with_seed(7)
            .with_churn(churn.clone())
            .build();
        let sinks: Vec<ObservationTable> = run
            .config
            .observers
            .iter()
            .map(|_| ObservationTable::new())
            .collect();
        let raw = Network::new(run.config, run.population.specs)
            .with_population_events(run.events)
            .run_with_sinks(sinks);
        assert!(!raw.sinks.is_empty());
        for table in &raw.sinks {
            assert!(
                table.is_sorted_by_time(),
                "{churn}: engine must emit columns pre-sorted"
            );
            let mut prev = SimTime::ZERO;
            for at in table.ats() {
                assert!(*at >= prev, "{churn}");
                prev = *at;
            }
        }
    }
}
