//! The simulated network and the output of a run.
//!
//! [`Network::run`] consumes a [`NetworkConfig`] and a population of
//! [`RemotePeerSpec`]s and produces the observation log of every measurement
//! node plus the ground truth of what actually happened. The protocol itself
//! lives in [`crate::mailbox`]: `Network::run` executes it on the engine's
//! direct driver (one shard, one queue), [`Network::run_sharded`] on its
//! lock-step driver, and both give the byte-identical output. The engine
//! models exactly the mechanisms the paper identifies as driving its
//! observations:
//!
//! * remote peers come and go according to their session patterns (node
//!   churn),
//! * remote peers dial DHT-Server observers aggressively and DHT-Client
//!   observers rarely (discoverability),
//! * both sides trim connections: the observer through its real
//!   [`p2pmodel::ConnectionManager`], the remote side through per-peer hold
//!   times (connection churn ≫ node churn),
//! * metadata changes propagate to connected observers via identify push,
//! * scripted joins, leaves and PID rotations reshape the population mid-run.
//!
//! Each observer's observations are appended to its own
//! [`crate::ObservationTable`] as plain ids. Identify payloads and
//! multiaddresses are interned once in an [`crate::IdentifyRegistry`]; the
//! hot path records 4-byte ids, so an identify push to `k` connected
//! observers costs `k` column appends instead of `k` deep payload clones.

use crate::config::NetworkConfig;
use crate::dht::DhtLog;
use crate::events::{GroundTruth, ObserverLog};
use crate::mailbox::{run_direct, run_lockstep, FullProtocolConfig, FullProtocolRun};
use crate::spec::{PopulationEvent, RemotePeerSpec};
use std::collections::HashMap;

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutput {
    /// One observation log per observer, in the order they were configured.
    pub logs: Vec<ObserverLog>,
    /// Ground truth of the simulated network.
    pub ground_truth: GroundTruth,
    /// Routing-table membership history of the run ([`Network::run`] and
    /// [`Network::run_sharded`] track it; [`crate::run_full_protocol`] never
    /// does and leaves it empty).
    pub dht: DhtLog,
    /// Observer name → index into `logs`, built once at construction so
    /// [`Self::log`] is a map lookup instead of a linear name scan.
    by_name: HashMap<String, usize>,
}

impl SimulationOutput {
    /// Assembles an output from its logs, the run's ground truth and its
    /// DHT log: the engine's assembly and the archive reader's.
    pub(crate) fn new(logs: Vec<ObserverLog>, ground_truth: GroundTruth, dht: DhtLog) -> Self {
        let mut by_name = HashMap::with_capacity(logs.len());
        for (idx, log) in logs.iter().enumerate() {
            // First-wins on duplicate names, matching the linear scan this
            // index replaced.
            by_name.entry(log.observer.clone()).or_insert(idx);
        }
        SimulationOutput {
            logs,
            ground_truth,
            dht,
            by_name,
        }
    }

    /// Looks up an observer log by name.
    pub fn log(&self, observer: &str) -> Option<&ObserverLog> {
        self.by_name.get(observer).map(|&idx| &self.logs[idx])
    }
}

/// The simulated network: configuration plus population.
///
/// # Example
///
/// ```
/// use netsim::{DhtRole, Network, NetworkConfig, ObserverSpec, RemotePeerSpec};
/// use p2pmodel::{AgentVersion, ConnLimits, IdentifyInfo, IpAddress, Multiaddr, PeerId, ProtocolSet};
/// use simclock::SimDuration;
///
/// let observer = ObserverSpec::new("go-ipfs", PeerId::derived(0), DhtRole::Server, ConnLimits::new(50, 80));
/// let config = NetworkConfig { seed: 7, duration: SimDuration::from_hours(1), observers: vec![observer] };
/// let peers: Vec<RemotePeerSpec> = (1..20)
///     .map(|i| {
///         RemotePeerSpec::new(
///             PeerId::derived(i),
///             Multiaddr::default_swarm(IpAddress::V4(i as u32)),
///             IdentifyInfo::new(
///                 AgentVersion::parse("go-ipfs/0.11.0/"),
///                 ProtocolSet::go_ipfs_dht_server(),
///                 Vec::new(),
///             ),
///         )
///     })
///     .collect();
/// let output = Network::new(config, peers).run();
/// assert_eq!(output.logs.len(), 1);
/// assert!(!output.logs[0].is_empty());
/// ```
pub struct Network {
    config: NetworkConfig,
    peers: Vec<RemotePeerSpec>,
    population_events: Vec<PopulationEvent>,
}

impl Network {
    /// Creates a network from a configuration and a population.
    pub fn new(config: NetworkConfig, peers: Vec<RemotePeerSpec>) -> Self {
        Network {
            config,
            peers,
            population_events: Vec::new(),
        }
    }

    /// Adds a scripted stream of mid-run population mutations (scenario
    /// churn: join/leave/rotate batches). Events must be sorted by time;
    /// same-time events apply in stream order.
    pub fn with_population_events(mut self, events: Vec<PopulationEvent>) -> Self {
        self.population_events = events;
        self
    }

    /// Runs the simulation to completion and returns the observation logs,
    /// the ground truth and the routing-table history. The routing tables
    /// are rebuilt after the run from the ground truth and the observers'
    /// contacts and consume no engine randomness.
    pub fn run(self) -> SimulationOutput {
        let cfg = FullProtocolConfig::from_network(&self.config);
        run_direct(&cfg, self.peers, self.population_events, true).0
    }

    /// Runs the simulation on `shards` lock-step engine shards across
    /// `threads` worker threads. The output is byte-identical to
    /// [`Network::run`] for every shard and thread count; only the
    /// [`crate::MailboxStats`] counters and the wall-clock time differ.
    pub fn run_sharded(self, shards: usize, threads: usize) -> FullProtocolRun {
        let cfg = FullProtocolConfig::from_network(&self.config)
            .with_shards(shards)
            .with_threads(threads);
        let (output, stats, phases) = run_lockstep(&cfg, self.peers, self.population_events, true);
        FullProtocolRun::new(output, stats, phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DhtRole, ObserverSpec};
    use crate::spec::{MetadataChange, PopulationAction};
    use crate::events::GroundTruthEvent;
    use crate::obs::ObservationKind;
    use crate::spec::{DialBehavior, ScheduledChange, SessionPattern};
    use p2pmodel::protocol::well_known;
    use p2pmodel::{
        AgentVersion, CloseReason, ConnLimits, Direction, IdentifyInfo, IpAddress, Multiaddr,
        PeerId, ProtocolSet,
    };
    use simclock::{SimDuration, SimTime};

    fn server_identify() -> IdentifyInfo {
        IdentifyInfo::new(
            AgentVersion::parse("go-ipfs/0.11.0/"),
            ProtocolSet::go_ipfs_dht_server(),
            Vec::new(),
        )
    }

    fn peer(i: u64) -> RemotePeerSpec {
        RemotePeerSpec::new(
            PeerId::derived(i),
            Multiaddr::default_swarm(IpAddress::V4(i as u32 + 1)),
            server_identify(),
        )
    }

    /// The peer of every row of `log`, resolved through its registry.
    fn row_peers(log: &ObserverLog) -> Vec<PeerId> {
        log.table()
            .peer_slots()
            .iter()
            .map(|&slot| log.registry().peer(slot))
            .collect()
    }

    fn observer(limits: ConnLimits, role: DhtRole) -> ObserverSpec {
        ObserverSpec::new("obs", PeerId::derived(1_000_000), role, limits)
    }

    fn run(
        peers: Vec<RemotePeerSpec>,
        limits: ConnLimits,
        role: DhtRole,
        hours: u64,
        seed: u64,
    ) -> SimulationOutput {
        let config = NetworkConfig::single_observer(
            seed,
            SimDuration::from_hours(hours),
            observer(limits, role),
        );
        Network::new(config, peers).run()
    }

    #[test]
    fn every_open_has_a_matching_close() {
        let peers: Vec<_> = (0..50).map(peer).collect();
        let output = run(peers, ConnLimits::new(10, 20), DhtRole::Server, 2, 1);
        let log = &output.logs[0];
        let mut open = 0i64;
        let mut opens = 0;
        let mut closes = 0;
        for kind in log.table().kinds() {
            match kind {
                ObservationKind::OpenedInbound | ObservationKind::OpenedOutbound => {
                    open += 1;
                    opens += 1;
                }
                ObservationKind::Closed => {
                    open -= 1;
                    closes += 1;
                }
                _ => {}
            }
        }
        assert!(opens > 0, "simulation should produce connections");
        assert_eq!(opens, closes, "every connection must eventually close");
        assert_eq!(open, 0);
    }

    #[test]
    fn connection_count_respects_trimming_pressure() {
        let peers: Vec<_> = (0..200)
            .map(|i| {
                peer(i).with_behavior(DialBehavior {
                    // Long remote holds so only the local manager trims.
                    hold_server_median_secs: 100_000.0,
                    hold_sigma: 0.1,
                    redial_median_secs: 30.0,
                    ..DialBehavior::default_peer()
                })
            })
            .collect();
        let output = run(peers, ConnLimits::new(20, 40), DhtRole::Server, 3, 2);
        let log = &output.logs[0];
        // Reconstruct the simultaneous connection count right after every
        // maintenance pass; it must return to at most HighWater shortly after
        // each trim. We check the count at the end of the run is bounded by
        // HighWater plus the dials that can arrive within one interval.
        let conns = log.connections();
        assert!(!conns.is_empty());
        let still_open_before_end = conns
            .iter()
            .filter(|c| matches!(c.closed, Some((_, CloseReason::MeasurementEnd))))
            .count();
        assert!(
            still_open_before_end <= 40 + 200,
            "local trimming must keep the connection count near the watermarks"
        );
        // Local trims must actually have happened.
        let local_trims = conns
            .iter()
            .filter(|c| matches!(c.closed, Some((_, CloseReason::TrimmedLocal))))
            .count();
        assert!(local_trims > 0, "expected local connection trimming");
    }

    #[test]
    fn dht_client_observer_attracts_far_fewer_inbound_dials() {
        let make_peers = || (0..300).map(peer).collect::<Vec<_>>();
        let as_server = run(make_peers(), ConnLimits::new(1000, 2000), DhtRole::Server, 2, 3);
        let as_client = run(make_peers(), ConnLimits::new(1000, 2000), DhtRole::Client, 2, 3);
        // Count distinct peers that dialed *us* (inbound) — the measure of how
        // attractive the observer is to the rest of the network. The client
        // observer is not discoverable via the DHT, so almost nobody dials it.
        let inbound_peers = |output: &SimulationOutput| {
            let mut peers: Vec<_> = output.logs[0]
                .connections()
                .into_iter()
                .filter(|c| c.direction == Direction::Inbound)
                .map(|c| c.peer)
                .collect();
            peers.sort();
            peers.dedup();
            peers.len()
        };
        let server_inbound = inbound_peers(&as_server);
        let client_inbound = inbound_peers(&as_client);
        assert!(
            client_inbound < server_inbound / 2,
            "client observer ({client_inbound}) should attract far fewer inbound dialers than server ({server_inbound})"
        );
    }

    #[test]
    fn one_shot_peers_do_not_return() {
        let peers: Vec<_> = (0..20)
            .map(|i| {
                peer(i).with_session(SessionPattern::OneShot {
                    arrival_secs: 60.0,
                    stay_secs: 120.0,
                })
            })
            .collect();
        let output = run(peers, ConnLimits::new(100, 200), DhtRole::Server, 2, 4);
        // After the one-shot sessions end there must be no online peers.
        let online = output.ground_truth.online_at(SimTime::from_hours(1));
        assert!(online.is_empty());
        // And each peer has exactly one online and one offline event.
        let onlines = output
            .ground_truth
            .events
            .iter()
            .filter(|e| matches!(e, GroundTruthEvent::PeerOnline { .. }))
            .count();
        let offlines = output
            .ground_truth
            .events
            .iter()
            .filter(|e| matches!(e, GroundTruthEvent::PeerOffline { .. }))
            .count();
        assert_eq!(onlines, 20);
        assert_eq!(offlines, 20);
    }

    #[test]
    fn metadata_changes_reach_connected_observers_and_ground_truth() {
        // The peer holds every connection, inbound or outbound, for the whole
        // run, so the observer is connected when the change is pushed.
        let mut p = peer(0).with_behavior(DialBehavior {
            hold_server_median_secs: 100_000.0,
            hold_client_median_secs: 100_000.0,
            hold_sigma: 0.1,
            redial_median_secs: 5.0,
            ..DialBehavior::default_peer()
        });
        p = p.with_changes(vec![ScheduledChange {
            at: SimTime::from_secs(1800),
            change: MetadataChange::RemoveProtocol(well_known::KAD.to_string()),
        }]);
        let output = run(vec![p], ConnLimits::new(100, 200), DhtRole::Server, 1, 5);
        let log = &output.logs[0];
        // The observer must have received at least two identify payloads: one
        // at connection open (server role) and one push after the change.
        let t = log.table();
        let identifies: Vec<&IdentifyInfo> = (0..t.len())
            .filter(|&i| t.kind_at(i) == ObservationKind::Identify)
            .map(|i| log.registry().identify(t.payload_at(i)))
            .collect();
        assert!(identifies.len() >= 2, "expected identify push after role change");
        assert!(identifies.first().unwrap().is_dht_server());
        assert!(!identifies.last().unwrap().is_dht_server());
        // Both payload versions are interned exactly once.
        assert_eq!(log.registry().identify_count(), 2);
        // Ground truth records the role change.
        assert!(output
            .ground_truth
            .events
            .iter()
            .any(|e| matches!(e, GroundTruthEvent::RoleChanged { dht_server: false, .. })));
    }

    #[test]
    fn gossip_discovery_produces_connectionless_peerstore_entries() {
        // DHT-Client peers that never dial anyone: the only way the observer
        // can learn about them is through routing gossip.
        let peers: Vec<_> = (0..50)
            .map(|i| {
                RemotePeerSpec::new(
                    PeerId::derived(i),
                    Multiaddr::default_swarm(IpAddress::V4(i as u32 + 1)),
                    IdentifyInfo::new(
                        AgentVersion::parse("go-ipfs/0.11.0/"),
                        ProtocolSet::go_ipfs_dht_client(),
                        Vec::new(),
                    ),
                )
                .with_behavior(DialBehavior {
                    dial_server_prob: 0.0,
                    dial_client_prob: 0.0,
                    ..DialBehavior::default_peer()
                })
                .with_gossip_visibility(1.0)
            })
            .collect();
        let output = run(peers, ConnLimits::new(100, 200), DhtRole::Server, 1, 6);
        let log = &output.logs[0];
        let discovered = log
            .table()
            .kinds()
            .iter()
            .filter(|&&kind| kind == ObservationKind::Discovered)
            .count();
        assert_eq!(discovered, 50);
        assert!(log.connections().is_empty(), "no peer should have dialed");
    }

    #[test]
    fn same_seed_reproduces_identical_logs() {
        let make = || (0..40).map(peer).collect::<Vec<_>>();
        let a = run(make(), ConnLimits::new(10, 20), DhtRole::Server, 1, 42);
        let b = run(make(), ConnLimits::new(10, 20), DhtRole::Server, 1, 42);
        assert_eq!(a.logs[0], b.logs[0]);
        assert_eq!(a.logs[0].table().checksum(), b.logs[0].table().checksum());
        assert_eq!(a.ground_truth, b.ground_truth);

        let c = run(make(), ConnLimits::new(10, 20), DhtRole::Server, 1, 43);
        assert_ne!(a.logs[0], c.logs[0], "different seeds should differ");
    }

    #[test]
    fn events_are_chronological_and_within_run_bounds() {
        let peers: Vec<_> = (0..60).map(peer).collect();
        let output = run(peers, ConnLimits::new(10, 30), DhtRole::Server, 2, 7);
        let log = &output.logs[0];
        assert!(log.table().is_sorted_by_time());
        let mut prev = SimTime::ZERO;
        for &at in log.table().ats() {
            assert!(at >= prev);
            assert!(at <= log.ended_at);
            prev = at;
        }
    }

    #[test]
    fn outbound_connections_exist_but_are_a_minority() {
        let peers: Vec<_> = (0..200).map(peer).collect();
        let output = run(peers, ConnLimits::new(500, 900), DhtRole::Server, 2, 8);
        let conns = output.logs[0].connections();
        let outbound = conns.iter().filter(|c| c.direction == Direction::Outbound).count();
        let inbound = conns.iter().filter(|c| c.direction == Direction::Inbound).count();
        assert!(outbound > 0, "observer should dial some peers");
        assert!(
            inbound > outbound,
            "passive nodes receive vastly more inbound than outbound connections"
        );
    }

    #[test]
    fn joined_peers_appear_and_connect_after_the_batch() {
        let config = NetworkConfig::single_observer(
            21,
            SimDuration::from_hours(2),
            observer(ConnLimits::new(100, 200), DhtRole::Server),
        );
        let late: Vec<_> = (100..120).map(peer).collect();
        let late_ids: Vec<PeerId> = late.iter().map(|p| p.peer_id).collect();
        let output = Network::new(config, (0..10).map(peer).collect())
            .with_population_events(vec![PopulationEvent {
                at: SimTime::from_hours(1),
                action: PopulationAction::Join(late),
            }])
            .run();
        assert_eq!(output.ground_truth.population_size(), 30);
        // No event involving a late peer may predate the batch.
        let log = &output.logs[0];
        for (peer, &at) in row_peers(log).iter().zip(log.table().ats()) {
            if late_ids.contains(peer) {
                assert!(at >= SimTime::from_hours(1));
            }
        }
        // And the late peers do connect.
        let connected: Vec<_> = output.logs[0]
            .connections()
            .into_iter()
            .filter(|c| late_ids.contains(&c.peer))
            .collect();
        assert!(!connected.is_empty(), "joined peers must dial the observer");
    }

    #[test]
    fn left_peers_never_return() {
        let victims: Vec<PeerId> = (0..10).map(PeerId::derived).collect();
        let config = NetworkConfig::single_observer(
            22,
            SimDuration::from_hours(3),
            observer(ConnLimits::new(100, 200), DhtRole::Server),
        );
        let leave_at = SimTime::from_hours(1);
        // The leave batch owns its PID list; `victims` stays with the test
        // for the assertions below (no clone on the population-event path).
        let leave_batch: Vec<PeerId> = (0..10).map(PeerId::derived).collect();
        let output = Network::new(config, (0..20).map(peer).collect())
            .with_population_events(vec![PopulationEvent {
                at: leave_at,
                action: PopulationAction::Leave(leave_batch),
            }])
            .run();
        // Ground truth shows the victims offline from the leave batch on.
        let online = output.ground_truth.online_at(SimTime::from_hours(2));
        for (peer, _) in &online {
            assert!(!victims.contains(peer), "left peer {peer:?} still online");
        }
        // No connection to a victim opens after the leave.
        for conn in output.logs[0].connections() {
            if victims.contains(&conn.peer) {
                assert!(conn.opened_at < leave_at);
            }
        }
    }

    #[test]
    fn rotated_pids_never_resurrect() {
        let old = peer(0);
        let old_id = old.peer_id;
        let fresh = peer(900);
        let fresh_id = fresh.peer_id;
        let config = NetworkConfig::single_observer(
            23,
            SimDuration::from_hours(2),
            observer(ConnLimits::new(50, 100), DhtRole::Server),
        );
        let rotate_at = SimTime::from_secs(30 * 60);
        let output = Network::new(config, vec![old])
            .with_population_events(vec![PopulationEvent {
                at: rotate_at,
                action: PopulationAction::Rotate {
                    retire: vec![old_id],
                    join: vec![fresh],
                },
            }])
            .run();
        assert_eq!(output.ground_truth.population_size(), 2);
        let log = &output.logs[0];
        let peers = row_peers(log);
        for (peer, &at) in peers.iter().zip(log.table().ats()) {
            if *peer == old_id {
                assert!(
                    at <= rotate_at,
                    "retired PID produced an event after rotation, at {at}"
                );
            }
            if *peer == fresh_id {
                assert!(at >= rotate_at);
            }
        }
        // The replacement actually shows up.
        assert!(peers.contains(&fresh_id));
    }

    #[test]
    fn population_events_preserve_seed_determinism() {
        let make = || {
            let config = NetworkConfig::single_observer(
                24,
                SimDuration::from_hours(2),
                observer(ConnLimits::new(20, 40), DhtRole::Server),
            );
            Network::new(config, (0..30).map(peer).collect())
                .with_population_events(vec![
                    PopulationEvent {
                        at: SimTime::from_secs(20 * 60),
                        action: PopulationAction::Join((50..60).map(peer).collect()),
                    },
                    PopulationEvent {
                        at: SimTime::from_secs(40 * 60),
                        action: PopulationAction::Leave(vec![PeerId::derived(1), PeerId::derived(2)]),
                    },
                ])
                .run()
        };
        let a = make();
        let b = make();
        assert_eq!(a.logs[0], b.logs[0]);
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn multiple_observers_get_independent_logs() {
        let peers: Vec<_> = (0..80).map(peer).collect();
        let mut config = NetworkConfig::single_observer(
            11,
            SimDuration::from_hours(1),
            ObserverSpec::new("go-ipfs", PeerId::derived(2_000_000), DhtRole::Server, ConnLimits::new(50, 100)),
        );
        config.observers.push(ObserverSpec::new(
            "hydra-h0",
            PeerId::derived(2_000_001),
            DhtRole::Server,
            ConnLimits::GO_IPFS_DEFAULT,
        ));
        let output = Network::new(config, peers).run();
        assert_eq!(output.logs.len(), 2);
        assert!(output.log("go-ipfs").is_some());
        assert!(output.log("hydra-h0").is_some());
        assert!(output.log("nope").is_none());
        assert!(!output.logs[0].is_empty());
        assert!(!output.logs[1].is_empty());
    }

    #[test]
    fn rejoining_with_a_known_pid_shares_its_registry_slot() {
        // A Join batch can legitimately re-admit a PID that already exists
        // (a peer scripted to come back under the same identity). The two
        // population entries must share one registry slot so observations
        // attribute to the same PID — and every row must resolve through the
        // registry without panicking.
        let config = NetworkConfig::single_observer(
            25,
            SimDuration::from_hours(2),
            observer(ConnLimits::new(50, 100), DhtRole::Server),
        );
        let rejoiner = peer(3).with_session(SessionPattern::OneShot {
            arrival_secs: 60.0,
            stay_secs: 600.0,
        });
        let output = Network::new(config, (0..5).map(peer).collect())
            .with_population_events(vec![PopulationEvent {
                at: SimTime::from_hours(1),
                action: PopulationAction::Join(vec![rejoiner]),
            }])
            .run();
        // Ground truth counts both population entries; the log's rows
        // resolve without panicking and only know the shared PID.
        assert_eq!(output.ground_truth.population_size(), 6);
        let log = &output.logs[0];
        assert!(!log.is_empty());
        assert!(log.registry().peer_count() <= 5);
        assert!(row_peers(log).contains(&PeerId::derived(3)));
    }
}
