//! The measurement data set: the JSON-exportable result of one client's run.
//!
//! Both instrumented clients in the paper periodically export their records
//! to JSON files; [`MeasurementDataset`] is the in-memory equivalent and the
//! single input type of every analysis. Hydra heads can be merged into a
//! union data set exactly like the paper unions the PID sets of all heads.

use crate::record::{self, ConnectionRecord, MetadataChangeRecord, PeerRecord, SnapshotRecord};
use jsonio::{Json, JsonError};
use p2pmodel::{CloseReason, Direction, PeerId};
use simclock::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::io::{Read, Write};

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

    /// The connections of one peer.
    pub fn connections_of(&self, peer: &PeerId) -> Vec<&ConnectionRecord> {
        self.connections.iter().filter(|c| c.peer == *peer).collect()
    }

    /// Approximate resident bytes of the data set: the connection and
    /// snapshot vectors (capacity-based) plus every peer record with its
    /// heap-owned strings, address lists and change histories.
    ///
    /// This is the batch side of the memory accounting in the long-horizon
    /// streaming bench (`BENCH_stream.json`): the batch pipeline must hold
    /// all of this before any estimator runs, and the connection vector —
    /// the term that grows with measurement *duration* — dominates it.
    pub fn approx_bytes(&self) -> usize {
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

    /// Merges another data set into this one as a **deduplicating union**
    /// (hydra heads / vantage points → union view).
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
    ///
    /// **Precondition:** the inputs must share one connection-id space —
    /// i.e. come from the *same* campaign (the simulator numbers
    /// connections from a single per-run counter, so hydra heads and
    /// vantage points always satisfy this). Merging exports of *independent*
    /// runs is outside the contract: their id spaces both start at 0, and
    /// unrelated records that collide on `(id, peer)` would be collapsed.
    /// Re-key the connections first if you need such a merge.
    /// * Snapshots are unioned and sorted by timestamp: the union view keeps
    ///   every vantage point's load samples (analyses take maxima over them,
    ///   which for a union means "max at any single vantage").
    ///
    /// The result is in canonical form (see [`Self::canonicalize`]), which
    /// makes the union **commutative, associative and idempotent** up to the
    /// `client` label — the algebra the vantage property suite pins.
    pub fn merge(&mut self, other: &MeasurementDataset) {
        for (peer, record) in &other.peers {
            match self.peers.get_mut(peer) {
                None => {
                    self.peers.insert(*peer, record.clone());
                }
                Some(existing) => merge_peer(existing, record),
            }
        }
        self.connections.extend(other.connections.iter().cloned());
        self.snapshots.extend(other.snapshots.iter().copied());
        self.dht_server |= other.dht_server;
        self.started_at = self.started_at.min(other.started_at);
        self.ended_at = self.ended_at.max(other.ended_at);
        self.canonicalize();
    }

    /// Rewrites the data set into its canonical form: per-peer address lists
    /// and change histories sorted and deduplicated, duplicate connection ids
    /// collapsed into one spanning record, connections sorted by
    /// `(opened_at, id)` and snapshots sorted and deduplicated.
    ///
    /// [`Self::merge`] canonicalizes implicitly; monitors emit records in
    /// observation order, which for a single vantage is already the export
    /// the paper's clients produce, so nothing else calls this by default.
    pub fn canonicalize(&mut self) {
        for record in self.peers.values_mut() {
            canonicalize_peer(record);
        }
        canonicalize_connections(&mut self.connections);
        canonicalize_snapshots(&mut self.snapshots);
    }

    /// The union of several data sets under the given client label (empty
    /// input → empty data set with an empty measurement window).
    ///
    /// Equivalent to folding [`Self::merge`] over the inputs — every merge
    /// step is associative and commutative into one canonical form — but
    /// implemented as one concatenation plus a single [`Self::canonicalize`]
    /// pass, so a `k`-way union sorts the combined record vectors once
    /// instead of `k` times. Shares merge's single-id-space precondition.
    pub fn union_of<'a>(
        label: impl Into<String>,
        datasets: impl IntoIterator<Item = &'a MeasurementDataset>,
    ) -> MeasurementDataset {
        let mut datasets = datasets.into_iter();
        let mut union = match datasets.next() {
            Some(first) => first.clone(),
            None => MeasurementDataset::new("", false, SimTime::ZERO, SimTime::ZERO),
        };
        union.client = label.into();
        for dataset in datasets {
            for (peer, record) in &dataset.peers {
                match union.peers.get_mut(peer) {
                    None => {
                        union.peers.insert(*peer, record.clone());
                    }
                    Some(existing) => merge_peer(existing, record),
                }
            }
            union.connections.extend(dataset.connections.iter().cloned());
            union.snapshots.extend(dataset.snapshots.iter().copied());
            union.dht_server |= dataset.dht_server;
            union.started_at = union.started_at.min(dataset.started_at);
            union.ended_at = union.ended_at.max(dataset.ended_at);
        }
        union.canonicalize();
        union
    }

    /// Renders the data set as a [`Json`] value (the paper's export schema:
    /// client, measurement window, peer records keyed by hex PID, connection
    /// records in open order, periodic snapshots).
    pub fn to_json(&self) -> Json {
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

    /// Rebuilds a data set from its [`Json`] form.
    ///
    /// # Errors
    ///
    /// Returns an error if the document does not match the export schema.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut peers = BTreeMap::new();
        let entries = v
            .field("peers")?
            .as_object()
            .ok_or_else(|| JsonError::schema("`peers` must be an object"))?;
        for (hex, rec) in entries {
            let peer = PeerId::from_hex(hex)
                .ok_or_else(|| JsonError::schema("peer key must be a 64-char hex string"))?;
            let record = PeerRecord::from_json(rec)?;
            if record.peer != peer {
                return Err(JsonError::schema("peer key does not match record"));
            }
            peers.insert(peer, record);
        }
        let connections = v
            .array_field("connections")?
            .iter()
            .map(ConnectionRecord::from_json)
            .collect::<Result<_, _>>()?;
        let snapshots = v
            .array_field("snapshots")?
            .iter()
            .map(SnapshotRecord::from_json)
            .collect::<Result<_, _>>()?;
        Ok(MeasurementDataset {
            client: v.str_field("client")?.to_string(),
            dht_server: v.bool_field("dht_server")?,
            started_at: record::time_from_json(v.field("started_at")?)?,
            ended_at: record::time_from_json(v.field("ended_at")?)?,
            peers,
            connections,
            snapshots,
        })
    }

    /// Serialises the data set to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if the writer reports an I/O error.
    pub fn write_json<W: Write>(&self, mut writer: W) -> Result<(), std::io::Error> {
        writer.write_all(self.to_json().to_string_pretty().as_bytes())
    }

    /// Reads a data set back from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if reading fails or the input is not valid JSON for
    /// this schema.
    pub fn read_json<R: Read>(mut reader: R) -> Result<Self, JsonError> {
        let mut text = String::new();
        reader
            .read_to_string(&mut text)
            .map_err(|e| JsonError::schema(format!("read error: {e}")))?;
        Self::from_json_str(&text)
    }

    /// Serialises to a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parses a data set from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not valid JSON for this schema.
    pub fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(s)?)
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
    let metadata = |r: &PeerRecord| (r.last_seen, r.agent.clone(), r.protocols.clone(), r.dht_server);
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

/// A fixed total order on connection records sharing an id: later close wins,
/// remaining fields only break exact-tie ambiguity deterministically.
#[allow(clippy::type_complexity)]
fn conn_rank(c: &ConnectionRecord) -> (SimTime, bool, u8, PeerId, p2pmodel::Multiaddr, u8, SimTime) {
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
    (c.closed_at, c.open_at_end, direction, c.peer, c.remote_addr, reason, c.opened_at)
}

/// Collapses duplicate `(connection id, peer)` records into one spanning
/// record (earliest open, latest close; all other fields from the
/// maximum-ranked record) and sorts by `(opened_at, id, peer)` — a total
/// order, so the result is independent of input order. Keying on the peer
/// as well as the id keeps records of *distinct* peers apart even if their
/// ids collide (defence in depth for out-of-contract cross-run merges).
fn canonicalize_connections(connections: &mut Vec<ConnectionRecord>) {
    connections.sort_by_key(|c| (c.id, c.peer));
    let mut merged: Vec<ConnectionRecord> = Vec::with_capacity(connections.len());
    for conn in connections.drain(..) {
        match merged.last_mut() {
            Some(last) if last.id == conn.id && last.peer == conn.peer => {
                let earliest_open = last.opened_at.min(conn.opened_at);
                if conn_rank(&conn) > conn_rank(last) {
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
    use p2pmodel::{ConnectionId, Direction, IpAddress, Multiaddr, Transport};

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
        assert_eq!(ds.connections_of(&PeerId::derived(0)).len(), 2);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let ds = dataset_with(5, 7);
        let json = ds.to_json_string();
        let parsed = MeasurementDataset::from_json_str(&json).unwrap();
        assert_eq!(parsed, ds);

        let mut buf = Vec::new();
        ds.write_json(&mut buf).unwrap();
        let parsed = MeasurementDataset::read_json(buf.as_slice()).unwrap();
        assert_eq!(parsed, ds);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(MeasurementDataset::from_json_str("not json").is_err());
        assert!(MeasurementDataset::from_json_str("{\"client\":1}").is_err());
    }

    #[test]
    fn merge_unions_peers_and_deduplicates_connections() {
        let mut a = dataset_with(4, 4);
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
        a.merge(&b);
        assert_eq!(a.pid_count(), 6);
        assert_eq!(a.connection_count(), 7);
        assert_eq!(a.peers[&PeerId::derived(0)].agent, "go-ipfs/0.12.0/");
        // Connections stay sorted by open time after merging.
        for pair in a.connections.windows(2) {
            assert!(pair[0].opened_at <= pair[1].opened_at);
        }
    }

    #[test]
    fn merge_is_idempotent() {
        // The latent double-count bug this regression pins: merging a data
        // set with itself (or with another monitor's view of the *same*
        // connections) used to double connection_count and every analysis
        // built on it.
        let mut a = dataset_with(4, 2);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.pid_count(), 4);
        assert_eq!(a.connection_count(), 2, "same connection ids must not double-count");
        assert_eq!(a.snapshots.len(), b.snapshots.len());
        let again = {
            let mut again = a.clone();
            again.merge(&b);
            again
        };
        assert_eq!(again.to_json_string(), a.to_json_string());
    }

    #[test]
    fn merge_collapses_duplicate_ids_with_skewed_windows() {
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
        a.merge(&b);
        assert_eq!(a.connection_count(), 1);
        let merged = &a.connections[0];
        assert_eq!(merged.opened_at, SimTime::from_secs(90));
        assert_eq!(merged.closed_at, SimTime::from_secs(1020));
        // classify_peers-style accounting sees one connection, not two.
        assert_eq!(a.connections_of(&PeerId::derived(1)).len(), 1);
    }

    #[test]
    fn merge_is_commutative_up_to_the_client_label() {
        let a = dataset_with(4, 4);
        let mut b = dataset_with(6, 3);
        for (i, conn) in b.connections.iter_mut().enumerate() {
            conn.id = ConnectionId(50 + i as u64);
            conn.opened_at = SimTime::from_secs(5 + i as u64 * 10);
        }
        if let Some(record) = b.peers.get_mut(&PeerId::derived(1)) {
            record.agent = "go-ipfs/0.12.0/".into(); // same last_seen, other metadata
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        ba.client = ab.client.clone();
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
}
