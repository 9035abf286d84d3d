//! The measurement data set: the JSON-exportable result of one client's run.
//!
//! Both instrumented clients in the paper periodically export their records
//! to JSON files; [`MeasurementDataset`] is the in-memory equivalent and the
//! single input type of every analysis. Data sets are exported to JSON and
//! not read back: analyses take them from a monitor, and a campaign is
//! stored as a trace archive instead (`measurement::archive`). Hydra heads
//! can be merged into a union data set exactly like the paper unions the
//! PID sets of all heads.

use crate::record::{self, ConnectionRecord, MetadataChangeRecord, PeerRecord, SnapshotRecord};
use jsonio::Json;
use p2pmodel::{CloseReason, ConnectionId, Direction, PeerId};
use simclock::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The complete data set recorded by one measurement client (or the union of
/// several hydra heads).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementDataset {
    /// Name of the client that produced the data (`"go-ipfs"`, `"hydra-h0"`,
    /// `"hydra-union"`, …).
    pub client: String,
    /// Whether the client ran as a DHT-Server.
    pub dht_server: bool,
    /// Start of the measurement.
    pub started_at: SimTime,
    /// End of the measurement.
    pub ended_at: SimTime,
    /// Per-peer records, keyed by peer ID.
    pub peers: BTreeMap<PeerId, PeerRecord>,
    /// Per-connection records, in open order.
    pub connections: Vec<ConnectionRecord>,
    /// Periodic snapshots.
    pub snapshots: Vec<SnapshotRecord>,
}

impl MeasurementDataset {
    /// Creates an empty data set.
    pub fn new(client: impl Into<String>, dht_server: bool, started_at: SimTime, ended_at: SimTime) -> Self {
        MeasurementDataset {
            client: client.into(),
            dht_server,
            started_at,
            ended_at,
            peers: BTreeMap::new(),
            connections: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// The measurement duration.
    pub fn duration(&self) -> SimDuration {
        self.ended_at - self.started_at
    }

    /// Number of peer IDs ever observed.
    pub fn pid_count(&self) -> usize {
        self.peers.len()
    }

    /// Number of peer IDs that ever announced the DHT-Server role.
    pub fn dht_server_pid_count(&self) -> usize {
        self.peers.values().filter(|p| p.ever_dht_server).count()
    }

    /// Number of peer IDs with at least one recorded connection.
    pub fn connected_pid_count(&self) -> usize {
        let mut peers: Vec<PeerId> = self.connections.iter().map(|c| c.peer).collect();
        peers.sort();
        peers.dedup();
        peers.len()
    }

    /// Total number of recorded connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Approximate resident bytes of the data set: the connection and
    /// snapshot vectors (capacity-based) plus every peer record with its
    /// heap-owned strings, address lists and change histories.
    ///
    /// This is the batch side of the memory accounting in the long-horizon
    /// streaming bench (`BENCH_stream.json`): the batch pipeline must hold
    /// all of this before any estimator runs, and the connection vector —
    /// the term that grows with measurement *duration* — dominates it.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let connection_bytes = self.connections.capacity() * size_of::<ConnectionRecord>();
        let snapshot_bytes = self.snapshots.capacity() * size_of::<SnapshotRecord>();
        let peer_bytes: usize = self
            .peers
            .values()
            .map(|record| {
                // Map-entry overhead + the record + its heap allocations.
                size_of::<PeerId>()
                    + size_of::<PeerRecord>()
                    + 16
                    + record.agent.capacity()
                    + record
                        .protocols
                        .iter()
                        .map(|p| size_of::<String>() + p.capacity())
                        .sum::<usize>()
                    + record.addrs.capacity() * size_of::<p2pmodel::Multiaddr>()
                    + record
                        .changes
                        .iter()
                        .map(|c| {
                            size_of::<MetadataChangeRecord>()
                                + c.field.capacity()
                                + c.old.capacity()
                                + c.new.capacity()
                        })
                        .sum::<usize>()
            })
            .sum();
        connection_bytes + snapshot_bytes + peer_bytes
    }

    /// The **deduplicating union** of several data sets under the given
    /// client label (hydra heads / vantage points → union view); empty input
    /// gives an empty data set with an empty measurement window.
    ///
    /// The union is the input of every multi-vantage analysis, so it must
    /// behave like a set union, not a concatenation:
    ///
    /// * Peer records are merged by keeping the earliest first-seen, the
    ///   latest last-seen and the metadata of the record seen more recently
    ///   (ties broken by a fixed total order on the metadata itself, so the
    ///   merge direction never matters). Address lists and change histories
    ///   are unioned and canonically sorted.
    /// * Connection records are deduplicated **by `(connection id, peer)`**:
    ///   a connection observed by two monitors (shared record stores, or
    ///   re-exported data with skewed refresh windows) collapses into one
    ///   record spanning the earliest observed open and the latest observed
    ///   close, instead of double-counting in [`Self::connection_count`] and
    ///   every classification built on it.
    /// * Snapshots are unioned and sorted by timestamp: the union view keeps
    ///   every vantage point's load samples (analyses take maxima over them,
    ///   which for a union means "max at any single vantage").
    ///
    /// **Precondition:** the inputs must share one connection-id space —
    /// i.e. come from the *same* campaign (the simulator numbers
    /// connections from a single per-run counter, so hydra heads and
    /// vantage points always satisfy this). A union of exports of
    /// *independent* runs is outside the contract: their id spaces both
    /// start at 0, and unrelated records that collide on `(id, peer)` would
    /// be collapsed. Re-key the connections first if you need such a union.
    ///
    /// The inputs are merged and put into canonical form in one pass — per-peer
    /// address lists and change histories sorted and deduplicated,
    /// duplicate connections collapsed, connections sorted by
    /// `(opened_at, id, peer)`, snapshots sorted and deduplicated — which
    /// makes the union **commutative, associative and idempotent** up to the
    /// `client` label: the algebra the vantage property suite pins. The
    /// connection pass sorts compact `(key, index)` arrays rather than the
    /// records themselves and gathers each surviving record once.
    pub fn union_of<'a>(
        label: impl Into<String>,
        datasets: impl IntoIterator<Item = &'a MeasurementDataset>,
    ) -> MeasurementDataset {
        let datasets: Vec<&MeasurementDataset> = datasets.into_iter().collect();
        let mut union = MeasurementDataset::new(label, false, SimTime::ZERO, SimTime::ZERO);
        if let Some(first) = datasets.first() {
            union.dht_server = first.dht_server;
            union.started_at = first.started_at;
            union.ended_at = first.ended_at;
            union.peers = first.peers.clone();
            union.snapshots = first.snapshots.clone();
        }
        for dataset in datasets.iter().skip(1) {
            for (peer, record) in &dataset.peers {
                match union.peers.get_mut(peer) {
                    None => {
                        union.peers.insert(*peer, record.clone());
                    }
                    Some(existing) => merge_peer(existing, record),
                }
            }
            union.snapshots.extend(dataset.snapshots.iter().copied());
            union.dht_server |= dataset.dht_server;
            union.started_at = union.started_at.min(dataset.started_at);
            union.ended_at = union.ended_at.max(dataset.ended_at);
        }
        for record in union.peers.values_mut() {
            canonicalize_peer(record);
        }
        let connections: Vec<&ConnectionRecord> =
            datasets.iter().flat_map(|d| &d.connections).collect();
        union.connections = canonicalize_connections(&connections);
        canonicalize_snapshots(&mut union.snapshots);
        union
    }

    /// Renders the data set as a [`Json`] value (the paper's export schema:
    /// client, measurement window, peer records keyed by hex PID, connection
    /// records in open order, periodic snapshots).
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("client", self.client.as_str());
        obj.insert("dht_server", self.dht_server);
        obj.insert("started_at", record::time_to_json(self.started_at));
        obj.insert("ended_at", record::time_to_json(self.ended_at));
        // Built directly: the keys are unique, and `Json::insert` would scan
        // every earlier key for each of the (possibly many) peers.
        let peers = self.peers.iter().map(|(peer, rec)| (peer.to_hex(), rec.to_json()));
        obj.insert("peers", Json::Object(peers.collect()));
        obj.insert(
            "connections",
            Json::Array(self.connections.iter().map(|c| c.to_json()).collect()),
        );
        obj.insert(
            "snapshots",
            Json::Array(self.snapshots.iter().map(|s| s.to_json()).collect()),
        );
        obj
    }

    /// Serialises to a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }
}

/// Sorts and deduplicates a peer record's address list and change history.
fn canonicalize_peer(record: &mut PeerRecord) {
    record.addrs.sort_unstable();
    record.addrs.dedup();
    record.changes.sort_by(change_key_cmp);
    record.changes.dedup();
}

fn change_key_cmp(a: &MetadataChangeRecord, b: &MetadataChangeRecord) -> std::cmp::Ordering {
    (a.at, &a.field, &a.old, &a.new).cmp(&(b.at, &b.field, &b.old, &b.new))
}

/// Merges `record` into `existing` (inputs need not be canonical; the
/// merged record's own collections come out sorted and deduplicated).
/// Metadata follows the later last-seen; on a tie the larger metadata tuple
/// wins, so the result never depends on which side was `self`.
fn merge_peer(existing: &mut PeerRecord, record: &PeerRecord) {
    fn metadata(r: &PeerRecord) -> (SimTime, &str, &[String], bool) {
        (r.last_seen, &r.agent, &r.protocols, r.dht_server)
    }
    if metadata(record) > metadata(existing) {
        existing.agent = record.agent.clone();
        existing.protocols = record.protocols.clone();
        existing.dht_server = record.dht_server;
        existing.last_seen = record.last_seen;
    }
    existing.first_seen = existing.first_seen.min(record.first_seen);
    existing.ever_dht_server |= record.ever_dht_server;
    existing.metadata_known |= record.metadata_known;
    existing.addrs.extend(record.addrs.iter().copied());
    existing.addrs.sort_unstable();
    existing.addrs.dedup();
    existing.changes.extend(record.changes.iter().cloned());
    existing.changes.sort_by(change_key_cmp);
    existing.changes.dedup();
}

/// A fixed total order on connection records sharing an id, for a record
/// whose open and close times so far are `opened_at` and `closed_at`: later
/// close wins, remaining fields only break exact-tie ambiguity
/// deterministically.
#[allow(clippy::type_complexity)]
fn conn_rank(
    c: &ConnectionRecord,
    opened_at: SimTime,
    closed_at: SimTime,
) -> (SimTime, bool, u8, PeerId, p2pmodel::Multiaddr, u8, SimTime) {
    let direction = match c.direction {
        Direction::Inbound => 0u8,
        Direction::Outbound => 1u8,
    };
    let reason = match c.close_reason {
        None => 0u8,
        Some(CloseReason::TrimmedLocal) => 1,
        Some(CloseReason::TrimmedRemote) => 2,
        Some(CloseReason::PeerLeft) => 3,
        Some(CloseReason::MeasurementEnd) => 4,
    };
    (
        closed_at,
        c.open_at_end,
        direction,
        c.peer,
        c.remote_addr,
        reason,
        opened_at,
    )
}

/// One `(connection id, peer)` group of [`canonicalize_connections`]: the
/// input index of the record whose fields win, and the group's span so far.
struct ConnectionGroup {
    id: ConnectionId,
    winner: u32,
    opened_at: SimTime,
    closed_at: SimTime,
}

/// Collapses duplicate `(connection id, peer)` records into one spanning
/// record (earliest open, latest close; all other fields from the
/// maximum-ranked record) and sorts by `(opened_at, id, peer)` — a total
/// order, so the result is independent of input order. Keying on the peer
/// as well as the id keeps records of *distinct* peers apart even if their
/// ids collide (defence in depth for out-of-contract cross-run merges).
///
/// Duplicates fold in input order. Both sorts move `(key, index)` pairs and
/// read a record's peer only when ids tie; each surviving record is copied
/// once, into the result. The result has room for every input record:
/// [`MeasurementDataset::approx_bytes`] counts capacity, and the long-horizon
/// stream report pins it.
fn canonicalize_connections(connections: &[&ConnectionRecord]) -> Vec<ConnectionRecord> {
    let index = |i: usize| u32::try_from(i).expect("a union holds at most u32::MAX connections");
    let peer = |i: u32| &connections[i as usize].peer;
    let mut by_id: Vec<(ConnectionId, u32)> = connections
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id, index(i)))
        .collect();
    by_id.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| peer(a.1).cmp(peer(b.1)))
            .then(a.1.cmp(&b.1))
    });
    let mut groups: Vec<ConnectionGroup> = Vec::with_capacity(by_id.len());
    for (id, i) in by_id {
        let conn = connections[i as usize];
        match groups.last_mut() {
            Some(last) if last.id == id && *peer(last.winner) == conn.peer => {
                let earliest_open = last.opened_at.min(conn.opened_at);
                let leader = connections[last.winner as usize];
                if conn_rank(conn, conn.opened_at, conn.closed_at)
                    > conn_rank(leader, last.opened_at, last.closed_at)
                {
                    last.winner = i;
                    last.closed_at = conn.closed_at;
                }
                last.opened_at = earliest_open;
                last.closed_at = last.closed_at.max(last.opened_at);
            }
            _ => groups.push(ConnectionGroup {
                id,
                winner: i,
                opened_at: conn.opened_at,
                closed_at: conn.closed_at,
            }),
        }
    }
    groups.sort_unstable_by(|a, b| {
        (a.opened_at, a.id)
            .cmp(&(b.opened_at, b.id))
            .then_with(|| peer(a.winner).cmp(peer(b.winner)))
    });
    let mut canonical = Vec::with_capacity(connections.len());
    canonical.extend(groups.into_iter().map(|group| ConnectionRecord {
        opened_at: group.opened_at,
        closed_at: group.closed_at,
        ..connections[group.winner as usize].clone()
    }));
    canonical
}

fn snapshot_key(s: &SnapshotRecord) -> (SimTime, usize, usize, usize) {
    (s.at, s.open_connections, s.known_pids, s.connected_pids)
}

/// Sorts snapshots by `(at, counters)` and drops exact duplicates.
fn canonicalize_snapshots(snapshots: &mut Vec<SnapshotRecord>) {
    snapshots.sort_by_key(snapshot_key);
    snapshots.dedup_by_key(|s| snapshot_key(s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmodel::{IpAddress, Multiaddr, Transport};
    use simclock::SimRng;

    fn addr(n: u32) -> Multiaddr {
        Multiaddr::new(IpAddress::V4(n), Transport::Tcp, 4001)
    }

    fn dataset_with(peer_count: u64, conn_count: u64) -> MeasurementDataset {
        let mut ds = MeasurementDataset::new("go-ipfs", true, SimTime::ZERO, SimTime::from_hours(24));
        for i in 0..peer_count {
            let mut record = PeerRecord::new(PeerId::derived(i), SimTime::from_secs(i));
            record.ever_dht_server = i % 3 == 0;
            record.metadata_known = true;
            ds.peers.insert(record.peer, record);
        }
        for i in 0..conn_count {
            ds.connections.push(ConnectionRecord {
                id: ConnectionId(i),
                peer: PeerId::derived(i % peer_count.max(1)),
                direction: Direction::Inbound,
                remote_addr: addr(i as u32),
                opened_at: SimTime::from_secs(i * 10),
                closed_at: SimTime::from_secs(i * 10 + 60),
                open_at_end: false,
                close_reason: None,
            });
        }
        ds
    }

    #[test]
    fn counts_reflect_contents() {
        let ds = dataset_with(9, 18);
        assert_eq!(ds.pid_count(), 9);
        assert_eq!(ds.connection_count(), 18);
        assert_eq!(ds.connected_pid_count(), 9);
        assert_eq!(ds.dht_server_pid_count(), 3);
        assert_eq!(ds.duration(), SimDuration::from_hours(24));
    }

    #[test]
    fn union_merges_peers_and_deduplicates_connections() {
        let a = dataset_with(4, 4);
        let mut b = dataset_with(6, 3);
        b.client = "hydra-h1".into();
        // Distinct connection ids on b's side: heads draw from one global id
        // space, so the union must see 4 + 3 records.
        for (i, conn) in b.connections.iter_mut().enumerate() {
            conn.id = ConnectionId(100 + i as u64);
        }
        // Give b newer metadata for peer 0.
        if let Some(record) = b.peers.get_mut(&PeerId::derived(0)) {
            record.last_seen = SimTime::from_hours(20);
            record.agent = "go-ipfs/0.12.0/".into();
        }
        let a = MeasurementDataset::union_of("go-ipfs", [&a, &b]);
        assert_eq!(a.pid_count(), 6);
        assert_eq!(a.connection_count(), 7);
        assert_eq!(a.peers[&PeerId::derived(0)].agent, "go-ipfs/0.12.0/");
        // Connections stay sorted by open time in the union.
        for pair in a.connections.windows(2) {
            assert!(pair[0].opened_at <= pair[1].opened_at);
        }
    }

    #[test]
    fn union_is_idempotent() {
        // The latent double-count bug this regression pins: the union of a
        // data set with itself (or with another monitor's view of the *same*
        // connections) used to double connection_count and every analysis
        // built on it.
        let b = dataset_with(4, 2);
        let a = MeasurementDataset::union_of("go-ipfs", [&b, &b]);
        assert_eq!(a.pid_count(), 4);
        assert_eq!(a.connection_count(), 2, "same connection ids must not double-count");
        assert_eq!(a.snapshots.len(), b.snapshots.len());
        let again = MeasurementDataset::union_of("go-ipfs", [&a, &b]);
        assert_eq!(again.to_json_string(), a.to_json_string());
    }

    #[test]
    fn union_collapses_duplicate_ids_with_skewed_windows() {
        // Two monitors record the same connection with skewed refresh
        // windows (e.g. a 30 s-polling client rounds the close up, a
        // logging client records it exactly). The union must keep ONE
        // record spanning the earliest open and the latest close.
        let mut a = dataset_with(2, 0);
        let mut b = dataset_with(2, 0);
        let record = ConnectionRecord {
            id: ConnectionId(7),
            peer: PeerId::derived(1),
            direction: Direction::Inbound,
            remote_addr: addr(1),
            opened_at: SimTime::from_secs(100),
            closed_at: SimTime::from_secs(995),
            open_at_end: false,
            close_reason: None,
        };
        let mut skewed = record.clone();
        skewed.opened_at = SimTime::from_secs(90); // saw the open earlier
        skewed.closed_at = SimTime::from_secs(1020); // close rounded up
        a.connections.push(record);
        b.connections.push(skewed);
        let a = MeasurementDataset::union_of("go-ipfs", [&a, &b]);
        assert_eq!(a.connection_count(), 1);
        let merged = &a.connections[0];
        assert_eq!(merged.opened_at, SimTime::from_secs(90));
        assert_eq!(merged.closed_at, SimTime::from_secs(1020));
    }

    #[test]
    fn union_is_commutative() {
        let a = dataset_with(4, 4);
        let mut b = dataset_with(6, 3);
        for (i, conn) in b.connections.iter_mut().enumerate() {
            conn.id = ConnectionId(50 + i as u64);
            conn.opened_at = SimTime::from_secs(5 + i as u64 * 10);
        }
        if let Some(record) = b.peers.get_mut(&PeerId::derived(1)) {
            record.agent = "go-ipfs/0.12.0/".into(); // same last_seen, other metadata
        }
        let ab = MeasurementDataset::union_of("union", [&a, &b]);
        let ba = MeasurementDataset::union_of("union", [&b, &a]);
        assert_eq!(ab.to_json_string(), ba.to_json_string());
    }

    #[test]
    fn union_of_folds_and_labels() {
        let a = dataset_with(4, 2);
        let mut b = dataset_with(6, 2);
        for (i, conn) in b.connections.iter_mut().enumerate() {
            conn.id = ConnectionId(80 + i as u64);
        }
        let union = MeasurementDataset::union_of("vantage-union", [&a, &b]);
        assert_eq!(union.client, "vantage-union");
        assert_eq!(union.pid_count(), 6);
        assert_eq!(union.connection_count(), 4);
        // Union of one input is that input, canonicalized.
        let single = MeasurementDataset::union_of("x", [&a]);
        assert_eq!(single.pid_count(), a.pid_count());
        // Empty union is a valid empty data set.
        let empty = MeasurementDataset::union_of("none", []);
        assert_eq!(empty.pid_count(), 0);
        assert_eq!(empty.client, "none");
    }

    /// The record-sorting canonicalisation that `canonicalize_connections`
    /// replaced: stable-sort the records by `(id, peer)`, fold each group in
    /// input order, stable-sort the survivors by `(opened_at, id, peer)`.
    fn reference_canonicalize_connections(connections: &mut Vec<ConnectionRecord>) {
        connections.sort_by_key(|c| (c.id, c.peer));
        let mut merged: Vec<ConnectionRecord> = Vec::with_capacity(connections.len());
        for conn in connections.drain(..) {
            match merged.last_mut() {
                Some(last) if last.id == conn.id && last.peer == conn.peer => {
                    let earliest_open = last.opened_at.min(conn.opened_at);
                    if conn_rank(&conn, conn.opened_at, conn.closed_at)
                        > conn_rank(last, last.opened_at, last.closed_at)
                    {
                        *last = conn;
                    }
                    last.opened_at = earliest_open;
                    last.closed_at = last.closed_at.max(last.opened_at);
                }
                _ => merged.push(conn),
            }
        }
        merged.sort_by_key(|c| (c.opened_at, c.id, c.peer));
        *connections = merged;
    }

    /// Runs `cases` deterministic random configurations through `check`.
    fn for_cases(label: &str, cases: u64, mut check: impl FnMut(&mut SimRng)) {
        let mut rng = SimRng::seed_from(simclock::rng::fnv1a(label));
        for _ in 0..cases {
            check(&mut rng);
        }
    }

    /// A connection drawn from few ids, peers and times, so that repeated
    /// `(id, peer)` pairs, ids shared by two peers and equal `opened_at`
    /// values are common. Its close may precede its open, as in a hand-edited
    /// export, which makes the fold's result depend on its order.
    fn random_connection(rng: &mut SimRng) -> ConnectionRecord {
        ConnectionRecord {
            id: ConnectionId(rng.uniform_u64(0, 6)),
            peer: PeerId::derived(rng.uniform_u64(0, 3)),
            direction: if rng.chance(0.5) {
                Direction::Inbound
            } else {
                Direction::Outbound
            },
            remote_addr: addr(rng.uniform_u64(0, 2) as u32),
            opened_at: SimTime::from_secs(rng.uniform_u64(0, 4) * 100),
            closed_at: SimTime::from_secs(rng.uniform_u64(0, 7) * 50),
            open_at_end: rng.chance(0.3),
            close_reason: match rng.uniform_u64(0, 3) {
                0 => None,
                1 => Some(CloseReason::TrimmedLocal),
                _ => Some(CloseReason::PeerLeft),
            },
        }
    }

    #[test]
    fn union_connections_match_the_record_sorting_reference() {
        let (mut repeated_pairs, mut shared_ids, mut equal_opens) = (0, 0, 0);
        for_cases("dataset_union_reference", 300, |rng| {
            let inputs: Vec<MeasurementDataset> = (0..rng.uniform_u64(1, 5))
                .map(|_| {
                    let mut ds = dataset_with(0, 0);
                    ds.connections = (0..rng.uniform_u64(0, 10))
                        .map(|_| random_connection(rng))
                        .collect();
                    ds
                })
                .collect();
            let mut expected: Vec<ConnectionRecord> = inputs
                .iter()
                .flat_map(|d| d.connections.iter().cloned())
                .collect();
            for (i, a) in expected.iter().enumerate() {
                for b in &expected[i + 1..] {
                    repeated_pairs += usize::from(a.id == b.id && a.peer == b.peer);
                    shared_ids += usize::from(a.id == b.id && a.peer != b.peer);
                    equal_opens += usize::from(a.opened_at == b.opened_at);
                }
            }
            reference_canonicalize_connections(&mut expected);
            assert_eq!(
                MeasurementDataset::union_of("u", &inputs).connections,
                expected
            );
        });
        // The ties the reference's order depends on did occur.
        assert!(repeated_pairs > 100 && shared_ids > 100 && equal_opens > 100);
    }
}
