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

use crate::obs::{IdentifyRegistry, ObservationKind, ObservationTable};
use p2pmodel::PeerId;
use simclock::{SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};
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
    /// This is how the engine's assembly and the archive reader build their
    /// logs. The table should be time-sorted, and every id in it must have
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

    /// Whether the log contains no events.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// One connection reassembled from a log's rows, for tests that read a run
/// per connection.
#[cfg(test)]
pub(crate) struct LoggedConnection {
    pub(crate) id: p2pmodel::ConnectionId,
    pub(crate) peer: PeerId,
    pub(crate) direction: p2pmodel::Direction,
    pub(crate) opened_at: SimTime,
    /// When and why the connection closed, if the log saw the close.
    pub(crate) closed: Option<(SimTime, p2pmodel::CloseReason)>,
}

#[cfg(test)]
impl ObserverLog {
    /// The log's connections in open order, each with its first close.
    pub(crate) fn connections(&self) -> Vec<LoggedConnection> {
        let t = &self.table;
        let mut conns: Vec<LoggedConnection> = Vec::new();
        let mut index = std::collections::HashMap::new();
        for i in 0..t.len() {
            match t.kind_at(i) {
                kind @ (ObservationKind::OpenedInbound | ObservationKind::OpenedOutbound) => {
                    let id = t.conn_at(i).expect("open rows carry a connection id");
                    index.insert(id, conns.len());
                    conns.push(LoggedConnection {
                        id,
                        peer: self.registry.peer(t.peer_slot_at(i)),
                        direction: kind.direction().expect("open rows have a direction"),
                        opened_at: t.at(i),
                        closed: None,
                    });
                }
                ObservationKind::Closed => {
                    let id = t.conn_at(i).expect("close rows carry a connection id");
                    if let Some(&k) = index.get(&id) {
                        let reason = crate::obs::close_reason_from_payload(t.payload_at(i));
                        conns[k].closed.get_or_insert((t.at(i), reason));
                    }
                }
                _ => {}
            }
        }
        conns
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
    /// A replay of the ground truth from time zero: who is online, and in
    /// which role, as of each instant it is advanced to. A crawl series
    /// advances one cursor beside its routing-table replay, so the truth is
    /// replayed once per series, not once per crawl.
    pub fn cursor(&self) -> GroundTruthCursor<'_> {
        let slot: HashMap<PeerId, usize> = self
            .peers
            .iter()
            .enumerate()
            .map(|(idx, (peer, _))| (*peer, idx))
            .collect();
        GroundTruthCursor {
            truth: self,
            slot,
            next: 0,
            role: self.peers.iter().map(|(_, server)| *server).collect(),
            online: vec![false; self.peers.len()],
        }
    }

    /// The set of peers online at time `at`, together with their DHT-Server
    /// role at that time, in population (slot) order. This is what a perfect
    /// crawler could enumerate: one [`Self::cursor`] advanced to `at`.
    pub fn online_at(&self, at: SimTime) -> Vec<(PeerId, bool)> {
        let mut cursor = self.cursor();
        cursor.advance_to(at);
        cursor
            .online()
            .map(|(idx, server)| (self.peers[idx].0, server))
            .collect()
    }

    /// Number of distinct peers online at some point during `[from, to)` —
    /// the estimand of a capture–recapture analysis whose occasions slice
    /// exactly that span (`analysis::calibration`'s window histories): the
    /// peers online when the span opens plus every later arrival inside it.
    pub fn ever_online_within(&self, from: SimTime, to: SimTime) -> usize {
        let mut cursor = self.cursor();
        cursor.advance_to(from);
        let mut seen: BTreeSet<PeerId> =
            cursor.online().map(|(idx, _)| self.peers[idx].0).collect();
        while let Some(event) = cursor.step(|at| at < to) {
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
}

/// A forward-only replay of a [`GroundTruth`] (see [`GroundTruth::cursor`]).
///
/// Peers are numbered by their index in [`GroundTruth::peers`]; an event
/// resolves its `PeerId` through one map built with the cursor, in which a
/// `PeerId` listed twice names its last index. Events for peers the list
/// does not hold change nothing.
#[derive(Debug, Clone)]
pub struct GroundTruthCursor<'a> {
    truth: &'a GroundTruth,
    slot: HashMap<PeerId, usize>,
    /// Index of the next event to apply.
    next: usize,
    role: Vec<bool>,
    online: Vec<bool>,
}

impl<'a> GroundTruthCursor<'a> {
    /// Applies every event at or before `at`. Rewinding needs a fresh
    /// cursor.
    pub fn advance_to(&mut self, at: SimTime) {
        while self.step(|t| t <= at).is_some() {}
    }

    /// Applies the next event if `due` accepts its time, and returns it.
    fn step(&mut self, due: impl Fn(SimTime) -> bool) -> Option<&'a GroundTruthEvent> {
        let event = self.truth.events.get(self.next)?;
        if !due(event.at()) {
            return None;
        }
        self.next += 1;
        let (GroundTruthEvent::PeerOnline { peer, .. }
        | GroundTruthEvent::PeerOffline { peer, .. }
        | GroundTruthEvent::RoleChanged { peer, .. }) = event;
        if let Some(&idx) = self.slot.get(peer) {
            match *event {
                GroundTruthEvent::PeerOnline { .. } => self.online[idx] = true,
                GroundTruthEvent::PeerOffline { .. } => self.online[idx] = false,
                GroundTruthEvent::RoleChanged { dht_server, .. } => self.role[idx] = dht_server,
            }
        }
        Some(event)
    }

    /// The online peers, by index in [`GroundTruth::peers`], with their
    /// DHT-Server role, in index order.
    pub fn online(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.online
            .iter()
            .zip(&self.role)
            .enumerate()
            .filter(|(_, (&online, _))| online)
            .map(|(idx, (_, &server))| (idx, server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmodel::{
        AgentVersion, CloseReason, ConnectionId, Direction, IdentifyInfo, IpAddress, Multiaddr,
        ProtocolSet, Transport,
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
        assert_eq!(
            (first.opened_at, first.closed),
            (s(10), Some((s(70), CloseReason::TrimmedRemote)))
        );
        let second = conns.iter().find(|c| c.id == ConnectionId(2)).unwrap();
        assert_eq!((second.opened_at, second.closed), (s(20), None));

        assert_eq!(log.table().len(), 3);
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

        let at5 = gt.online_at(SimTime::from_secs(5));
        assert_eq!(at5, vec![(p1, true)]);

        let mut at25 = gt.online_at(SimTime::from_secs(25));
        at25.sort();
        assert_eq!(at25.len(), 2);
        assert!(at25.contains(&(p2, true)), "role change must be visible");

        let at35 = gt.online_at(SimTime::from_secs(35));
        assert_eq!(at35, vec![(p2, true)]);
    }

    /// One cursor advanced step by step sees what a fresh one advanced
    /// straight to each instant sees, listed peers and repeats included.
    #[test]
    fn an_advancing_cursor_matches_a_fresh_one_at_every_instant() {
        let p = |i| PeerId::derived(i);
        let s = SimTime::from_secs;
        let gt = GroundTruth {
            // `p(2)` is listed twice (its last index counts); `p(9)` not at all.
            peers: vec![(p(1), true), (p(2), false), (p(3), true), (p(2), true)],
            events: vec![
                GroundTruthEvent::PeerOnline { at: s(0), peer: p(1) },
                GroundTruthEvent::PeerOnline { at: s(0), peer: p(2) },
                GroundTruthEvent::PeerOnline { at: s(5), peer: p(9) },
                GroundTruthEvent::PeerOnline { at: s(10), peer: p(3) },
                GroundTruthEvent::RoleChanged { at: s(10), peer: p(3), dht_server: false },
                GroundTruthEvent::PeerOffline { at: s(20), peer: p(1) },
                GroundTruthEvent::RoleChanged { at: s(30), peer: p(2), dht_server: false },
            ],
        };
        let mut cursor = gt.cursor();
        for at in [0, 4, 10, 15, 20, 30, 40].map(s) {
            cursor.advance_to(at);
            let mut fresh = gt.cursor();
            fresh.advance_to(at);
            let online: Vec<(usize, bool)> = cursor.online().collect();
            assert_eq!(online, fresh.online().collect::<Vec<_>>(), "at {at:?}");
            assert!(online.iter().all(|&(idx, _)| idx != 1), "an earlier repeat never counts");
        }
        assert_eq!(cursor.online().collect::<Vec<_>>(), vec![(2, false), (3, false)]);
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
