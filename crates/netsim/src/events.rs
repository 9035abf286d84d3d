//! Observation logs and ground truth.
//!
//! The simulator produces two kinds of output:
//!
//! * An [`ObserverLog`] per measurement node — the chronological record of
//!   everything that node could have recorded: connections opening and
//!   closing, identify payloads, peers discovered through routing traffic.
//!   The rows live in an [`ObservationTable`] (struct-of-arrays, 25 bytes
//!   per event) whose ids resolve through a shared [`IdentifyRegistry`] of
//!   interned peers, addresses and payloads; consumers read them through
//!   [`ObserverLog::table`] and [`ObserverLog::registry`].
//! * A [`GroundTruth`] log of what actually happened in the simulated
//!   network (sessions, role changes), which the active-crawler baseline
//!   crawls and which validation tests compare the passive view against.

use crate::obs::{close_reason_from_payload, IdentifyRegistry, ObservationKind, ObservationTable};
use p2pmodel::{ConnectionId, ConnectionInfo, PeerId};
use simclock::{SimDuration, SimTime};
use std::sync::Arc;

/// The complete observation log of one measurement node.
///
/// A thin view over the columnar store: metadata fields stay public, and
/// [`Self::table`]/[`Self::registry`] expose the rows and the registry
/// resolving their ids. Logs are assembled with [`Self::from_columns`].
#[derive(Debug, Clone)]
pub struct ObserverLog {
    /// The observer's name (from its [`crate::ObserverSpec`]).
    pub observer: String,
    /// The observer's peer ID.
    pub peer_id: PeerId,
    /// Whether the observer ran as a DHT-Server.
    pub dht_server: bool,
    /// When the observation started.
    pub started_at: SimTime,
    /// When the observation ended.
    pub ended_at: SimTime,
    table: ObservationTable,
    registry: Arc<IdentifyRegistry>,
}

impl PartialEq for ObserverLog {
    /// Two logs are equal when their metadata and their rows are: each
    /// row's time, kind and connection id, and its peer and payload
    /// resolved through the log's own registry. Registry ids are an
    /// implementation detail and may differ between equal logs.
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.table, &other.table);
        let same_row = |i: usize| {
            let (pa, pb) = (a.payload_at(i), b.payload_at(i));
            self.registry.peer(a.peer_slot_at(i)) == other.registry.peer(b.peer_slot_at(i))
                && match a.kind_at(i) {
                    ObservationKind::Closed => pa == pb,
                    ObservationKind::Identify => {
                        self.registry.identify(pa) == other.registry.identify(pb)
                    }
                    _ => self.registry.addr(pa) == other.registry.addr(pb),
                }
        };
        self.observer == other.observer
            && self.peer_id == other.peer_id
            && self.dht_server == other.dht_server
            && self.started_at == other.started_at
            && self.ended_at == other.ended_at
            && a.ats() == b.ats()
            && a.kinds() == b.kinds()
            && a.conns() == b.conns()
            && (0..a.len()).all(same_row)
    }
}

impl ObserverLog {
    /// Assembles a log from a columnar table and the interning registry that
    /// resolves its ids.
    ///
    /// This is how the engine builds the logs of [`crate::Network::run`], and
    /// how tee pipelines ([`crate::TeeSink`] under
    /// [`crate::Network::run_with_sinks`]) re-assemble a log from the table
    /// half of a tee while a streaming consumer keeps the other half. The
    /// table should be time-sorted
    /// ([`ObservationTable::stable_sort_by_time`]); every id in it must have
    /// been handed out by `registry`.
    pub fn from_columns(
        observer: impl Into<String>,
        peer_id: PeerId,
        dht_server: bool,
        started_at: SimTime,
        ended_at: SimTime,
        table: ObservationTable,
        registry: Arc<IdentifyRegistry>,
    ) -> Self {
        ObserverLog {
            observer: observer.into(),
            peer_id,
            dht_server,
            started_at,
            ended_at,
            table,
            registry,
        }
    }

    /// The columnar event store backing this log.
    pub fn table(&self) -> &ObservationTable {
        &self.table
    }

    /// The interning registry resolving the table's peer slots, address ids
    /// and identify ids.
    pub fn registry(&self) -> &IdentifyRegistry {
        &self.registry
    }

    /// The duration covered by the log.
    pub fn duration(&self) -> SimDuration {
        self.ended_at - self.started_at
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the log contains no events.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Iterates over connection-opened events as [`ConnectionInfo`] records
    /// paired with their close (if observed). Convenient for analyses that
    /// want per-connection rows.
    pub fn connections(&self) -> Vec<ConnectionInfo> {
        let mut open: std::collections::HashMap<ConnectionId, ConnectionInfo> =
            std::collections::HashMap::new();
        let mut all: Vec<ConnectionId> = Vec::new();
        let t = &self.table;
        for i in 0..t.len() {
            match t.kind_at(i) {
                kind @ (ObservationKind::OpenedInbound | ObservationKind::OpenedOutbound) => {
                    let conn = t.conn_at(i).expect("open rows carry a connection id");
                    open.insert(
                        conn,
                        ConnectionInfo::open(
                            conn,
                            self.registry.peer(t.peer_slot_at(i)),
                            kind.direction().expect("open rows have a direction"),
                            self.registry.addr(t.payload_at(i)),
                            t.at(i),
                        ),
                    );
                    all.push(conn);
                }
                ObservationKind::Closed => {
                    let conn = t.conn_at(i).expect("close rows carry a connection id");
                    if let Some(info) = open.get_mut(&conn) {
                        info.close(t.at(i), close_reason_from_payload(t.payload_at(i)));
                    }
                }
                _ => {}
            }
        }
        all.into_iter().filter_map(|id| open.remove(&id)).collect()
    }

    /// Number of distinct peers appearing anywhere in the log.
    pub fn distinct_peers(&self) -> usize {
        let mut slots: Vec<u32> = self.table.peer_slots().to_vec();
        slots.sort_unstable();
        slots.dedup();
        slots.len()
    }
}

/// A ground-truth event: something that actually happened in the simulated
/// network, independent of whether any observer saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum GroundTruthEvent {
    /// A peer came online.
    PeerOnline {
        /// Timestamp.
        at: SimTime,
        /// The peer.
        peer: PeerId,
    },
    /// A peer went offline.
    PeerOffline {
        /// Timestamp.
        at: SimTime,
        /// The peer.
        peer: PeerId,
    },
    /// A peer's DHT role changed.
    RoleChanged {
        /// Timestamp.
        at: SimTime,
        /// The peer.
        peer: PeerId,
        /// Whether the peer is a DHT-Server after the change.
        dht_server: bool,
    },
}

impl GroundTruthEvent {
    /// The timestamp of the event.
    pub fn at(&self) -> SimTime {
        match self {
            GroundTruthEvent::PeerOnline { at, .. }
            | GroundTruthEvent::PeerOffline { at, .. }
            | GroundTruthEvent::RoleChanged { at, .. } => *at,
        }
    }
}

/// What actually happened in the simulated network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// All peers that exist in the population, with their initial DHT role.
    pub peers: Vec<(PeerId, bool)>,
    /// Chronological ground-truth events.
    pub events: Vec<GroundTruthEvent>,
}

impl GroundTruth {
    /// The set of peers online at time `at`, together with their DHT-Server
    /// role at that time, in population (slot) order. This is what a perfect
    /// crawler could enumerate.
    ///
    /// Implemented over dense per-slot columns: one `PeerId → slot` index
    /// build plus flat `Vec<bool>` role/online flags, instead of the hash
    /// map per event the enum path used — this is the crawler's hot loop at
    /// million-peer scale.
    pub fn online_at(&self, at: SimTime) -> Vec<(PeerId, bool)> {
        use std::collections::HashMap;
        let slot: HashMap<PeerId, usize> = self
            .peers
            .iter()
            .enumerate()
            .map(|(idx, (peer, _))| (*peer, idx))
            .collect();
        let mut role: Vec<bool> = self.peers.iter().map(|(_, server)| *server).collect();
        let mut online: Vec<bool> = vec![false; self.peers.len()];
        for event in &self.events {
            if event.at() > at {
                break;
            }
            match event {
                GroundTruthEvent::PeerOnline { peer, .. } => {
                    if let Some(&idx) = slot.get(peer) {
                        online[idx] = true;
                    }
                }
                GroundTruthEvent::PeerOffline { peer, .. } => {
                    if let Some(&idx) = slot.get(peer) {
                        online[idx] = false;
                    }
                }
                GroundTruthEvent::RoleChanged { peer, dht_server, .. } => {
                    if let Some(&idx) = slot.get(peer) {
                        role[idx] = *dht_server;
                    }
                }
            }
        }
        self.peers
            .iter()
            .enumerate()
            .filter(|(idx, _)| online[*idx])
            .map(|(idx, (peer, _))| (*peer, role[idx]))
            .collect()
    }

    /// Number of distinct peers online at some point during `[from, to)` —
    /// the estimand of a capture–recapture analysis whose occasions slice
    /// exactly that span (`analysis::calibration`'s window histories): the
    /// peers online when the span opens plus every later arrival inside it.
    pub fn ever_online_within(&self, from: SimTime, to: SimTime) -> usize {
        let mut seen: std::collections::BTreeSet<PeerId> =
            self.online_at(from).into_iter().map(|(peer, _)| peer).collect();
        for event in &self.events {
            if event.at() >= to {
                break;
            }
            if event.at() <= from {
                continue;
            }
            if let GroundTruthEvent::PeerOnline { peer, .. } = event {
                seen.insert(*peer);
            }
        }
        seen.len()
    }

    /// Total number of distinct peers in the population.
    pub fn population_size(&self) -> usize {
        self.peers.len()
    }

    /// Number of peers whose initial role is DHT-Server.
    pub fn initial_server_count(&self) -> usize {
        self.peers.iter().filter(|(_, server)| *server).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObservationSink;
    use p2pmodel::{
        AgentVersion, CloseReason, Direction, IdentifyInfo, IpAddress, Multiaddr, ProtocolSet,
        Transport,
    };

    fn addr(n: u32) -> Multiaddr {
        Multiaddr::new(IpAddress::V4(n), Transport::Tcp, 4001)
    }

    fn log(table: ObservationTable, registry: IdentifyRegistry, ended_secs: u64) -> ObserverLog {
        let (start, end) = (SimTime::ZERO, SimTime::from_secs(ended_secs));
        ObserverLog::from_columns(
            "go-ipfs",
            PeerId::derived(0),
            true,
            start,
            end,
            table,
            Arc::new(registry),
        )
    }

    /// A connection with two identifies and its close, then a gossip
    /// discovery; the second identify carries `agent`. `reversed` interns
    /// the peers, addresses and payloads in the opposite order before any
    /// row is written, so the same rows carry other ids.
    fn sample(reversed: bool, agent: &str) -> ObserverLog {
        let info = |agent| {
            IdentifyInfo::new(AgentVersion::parse(agent), ProtocolSet::go_ipfs_dht_server(), vec![addr(9)])
        };
        let (peers, addrs) = ([100, 7].map(PeerId::derived), [addr(1), addr(2)]);
        let infos = [info("go-ipfs/0.10.0/"), info(agent)];
        let mut registry = IdentifyRegistry::new();
        for i in if reversed { [1, 0] } else { [0, 1] } {
            registry.register_peer(peers[i]);
            registry.intern_addr(addrs[i]);
            registry.intern_identify(&infos[i]);
        }
        let [p0, p1] = peers.map(|peer| registry.register_peer(peer));
        let [a0, a1] = addrs.map(|addr| registry.intern_addr(addr));
        let [i0, i1] = infos.each_ref().map(|info| registry.intern_identify(info));
        let (mut t, s) = (ObservationTable::new(), SimTime::from_secs);
        t.connection_opened(s(1), ConnectionId(1), p0, Direction::Inbound, a0);
        t.identify_received(s(2), p0, i0);
        t.identify_received(s(3), p0, i1);
        t.connection_closed(s(4), ConnectionId(1), p0, CloseReason::TrimmedRemote);
        t.peer_discovered(s(5), p1, a1);
        log(t, registry, 10)
    }

    #[test]
    fn log_reconstructs_connections() {
        let mut registry = IdentifyRegistry::new();
        let [p100, p200] = [100, 200].map(|i| registry.register_peer(PeerId::derived(i)));
        let a = registry.intern_addr(addr(1));
        let (mut t, s) = (ObservationTable::new(), SimTime::from_secs);
        t.connection_opened(s(10), ConnectionId(1), p100, Direction::Inbound, a);
        t.connection_opened(s(20), ConnectionId(2), p200, Direction::Inbound, a);
        t.connection_closed(s(70), ConnectionId(1), p100, CloseReason::TrimmedRemote);
        let log = log(t, registry, 100);

        let conns = log.connections();
        assert_eq!(conns.len(), 2);
        let first = conns.iter().find(|c| c.id == ConnectionId(1)).unwrap();
        assert!(!first.is_open());
        assert_eq!(first.duration_at(log.ended_at), SimDuration::from_secs(60));
        let second = conns.iter().find(|c| c.id == ConnectionId(2)).unwrap();
        assert!(second.is_open());
        assert_eq!(second.duration_at(log.ended_at), SimDuration::from_secs(80));

        assert_eq!(log.distinct_peers(), 2);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.duration(), SimDuration::from_secs(100));
    }

    #[test]
    fn log_equality_resolves_ids_through_each_registry() {
        let agent = "go-ipfs/0.11.0/";
        let (a, b) = (sample(false, agent), sample(true, agent));
        assert_ne!(a.table().peer_slots(), b.table().peer_slots(), "other ids");
        assert_ne!(a.table().payloads(), b.table().payloads());
        assert_eq!(a, b);
        let changed = sample(true, "go-ipfs/0.12.0/");
        assert_ne!(a, changed, "a changed payload makes the logs unequal");
        let empty = log(ObservationTable::new(), IdentifyRegistry::new(), 10);
        assert_eq!(empty, empty.clone());
        assert_ne!(a, empty);
    }

    #[test]
    fn close_without_open_is_ignored() {
        let mut registry = IdentifyRegistry::new();
        let mut table = ObservationTable::new();
        let peer = registry.register_peer(PeerId::derived(1));
        let reason = CloseReason::TrimmedRemote;
        table.connection_closed(SimTime::from_secs(5), ConnectionId(9), peer, reason);
        assert!(log(table, registry, 10).connections().is_empty());
    }

    #[test]
    fn ground_truth_online_at_respects_sessions_and_roles() {
        let p1 = PeerId::derived(1);
        let p2 = PeerId::derived(2);
        let gt = GroundTruth {
            peers: vec![(p1, true), (p2, false)],
            events: vec![
                GroundTruthEvent::PeerOnline { at: SimTime::from_secs(0), peer: p1 },
                GroundTruthEvent::PeerOnline { at: SimTime::from_secs(10), peer: p2 },
                GroundTruthEvent::RoleChanged { at: SimTime::from_secs(20), peer: p2, dht_server: true },
                GroundTruthEvent::PeerOffline { at: SimTime::from_secs(30), peer: p1 },
            ],
        };
        assert_eq!(gt.population_size(), 2);
        assert_eq!(gt.initial_server_count(), 1);

        let at5 = gt.online_at(SimTime::from_secs(5));
        assert_eq!(at5, vec![(p1, true)]);

        let mut at25 = gt.online_at(SimTime::from_secs(25));
        at25.sort();
        assert_eq!(at25.len(), 2);
        assert!(at25.contains(&(p2, true)), "role change must be visible");

        let at35 = gt.online_at(SimTime::from_secs(35));
        assert_eq!(at35, vec![(p2, true)]);
    }

    #[test]
    fn ever_online_within_counts_residents_and_arrivals() {
        let p1 = PeerId::derived(1);
        let p2 = PeerId::derived(2);
        let p3 = PeerId::derived(3);
        let gt = GroundTruth {
            peers: vec![(p1, true), (p2, false), (p3, false)],
            events: vec![
                GroundTruthEvent::PeerOnline { at: SimTime::from_secs(0), peer: p1 },
                GroundTruthEvent::PeerOffline { at: SimTime::from_secs(8), peer: p1 },
                GroundTruthEvent::PeerOnline { at: SimTime::from_secs(10), peer: p2 },
                GroundTruthEvent::PeerOnline { at: SimTime::from_secs(40), peer: p3 },
            ],
        };
        // [5, 20): p1 is resident at 5 (offline later, still counted), p2
        // arrives inside the span, p3 arrives after it.
        assert_eq!(gt.ever_online_within(SimTime::from_secs(5), SimTime::from_secs(20)), 2);
        // The span end is exclusive; the start is a snapshot.
        assert_eq!(gt.ever_online_within(SimTime::from_secs(5), SimTime::from_secs(40)), 2);
        assert_eq!(gt.ever_online_within(SimTime::from_secs(5), SimTime::from_secs(41)), 3);
        // After p1 leaves, only arrivals count.
        assert_eq!(gt.ever_online_within(SimTime::from_secs(9), SimTime::from_secs(11)), 1);
    }
}
