//! The record types exported by the measurement clients.
//!
//! The paper's instrumented clients periodically export JSON files containing
//! per-peer information (agent version, protocols, multiaddresses, change
//! history) and per-connection information (direction, multiaddress, open and
//! close timestamps). These types mirror that export format; everything the
//! `analysis` crate computes is a function of these records.

use jsonio::Json;
use p2pmodel::{CloseReason, ConnectionId, Direction, Multiaddr, PeerId};
use simclock::{SimDuration, SimTime};

/// A change to a peer's recorded metadata, with the observation timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct MetadataChangeRecord {
    /// When the change was observed.
    pub at: SimTime,
    /// Which field changed (`"agent"`, `"protocols"`, `"addrs"`).
    pub field: String,
    /// The previous value, rendered as text.
    pub old: String,
    /// The new value, rendered as text.
    pub new: String,
}

/// Everything recorded about one peer ID.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerRecord {
    /// The peer ID.
    pub peer: PeerId,
    /// The latest agent version string ("" if none was ever obtained).
    pub agent: String,
    /// The latest announced protocols.
    pub protocols: Vec<String>,
    /// Multiaddresses the peer was observed with.
    pub addrs: Vec<Multiaddr>,
    /// When the peer was first observed.
    pub first_seen: SimTime,
    /// When the peer was last observed.
    pub last_seen: SimTime,
    /// Whether the peer currently announces `/ipfs/kad/1.0.0`.
    pub dht_server: bool,
    /// Whether the peer ever announced `/ipfs/kad/1.0.0` during the
    /// measurement.
    pub ever_dht_server: bool,
    /// Whether identify metadata was ever obtained for the peer.
    pub metadata_known: bool,
    /// Recorded metadata changes, in observation order.
    pub changes: Vec<MetadataChangeRecord>,
}

impl PeerRecord {
    /// Creates a record for a peer first observed at `at`.
    pub fn new(peer: PeerId, at: SimTime) -> Self {
        PeerRecord {
            peer,
            agent: String::new(),
            protocols: Vec::new(),
            addrs: Vec::new(),
            first_seen: at,
            last_seen: at,
            dht_server: false,
            ever_dht_server: false,
            metadata_known: false,
            changes: Vec::new(),
        }
    }

    /// Whether any Bitswap variant is announced (used by the anomaly
    /// analysis: go-ipfs agents without Bitswap).
    pub fn supports_bitswap(&self) -> bool {
        self.protocols
            .iter()
            .any(|p| p.starts_with("/ipfs/bitswap"))
    }

    /// Whether any storm-specific protocol is announced.
    pub fn has_storm_markers(&self) -> bool {
        self.protocols
            .iter()
            .any(|p| p.starts_with("/sbptp") || p.starts_with("/sfst"))
    }

    /// Number of recorded changes touching the given field.
    pub fn change_count(&self, field: &str) -> usize {
        self.changes.iter().filter(|c| c.field == field).count()
    }
}

/// One observed connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionRecord {
    /// Connection identifier.
    pub id: ConnectionId,
    /// The remote peer.
    pub peer: PeerId,
    /// Direction relative to the measurement node.
    pub direction: Direction,
    /// The remote multiaddress.
    pub remote_addr: Multiaddr,
    /// When the connection was opened (as recorded by the client).
    pub opened_at: SimTime,
    /// When the connection was closed (connections still open at the end of
    /// the measurement are recorded as closed at that moment).
    pub closed_at: SimTime,
    /// Whether the connection was still open when the measurement ended.
    pub open_at_end: bool,
    /// Ground-truth close reason from the simulator. Real measurements do not
    /// have this field; analyses that reproduce the paper ignore it, while
    /// validation tests use it to confirm the paper's *inference* that most
    /// closes are due to trimming.
    pub close_reason: Option<CloseReason>,
}

impl ConnectionRecord {
    /// The recorded connection duration.
    pub fn duration(&self) -> SimDuration {
        self.closed_at - self.opened_at
    }

    /// The recorded duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.duration().as_secs_f64()
    }

    /// Whether the connection was inbound.
    pub fn is_inbound(&self) -> bool {
        self.direction == Direction::Inbound
    }
}

/// A periodic snapshot of the client's state (every 30 s for go-ipfs, every
/// minute for hydra heads), the basis of Fig. 5 and Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotRecord {
    /// Snapshot timestamp.
    pub at: SimTime,
    /// Number of simultaneously open connections.
    pub open_connections: usize,
    /// Number of peer IDs ever seen up to this snapshot.
    pub known_pids: usize,
    /// Number of peer IDs currently connected.
    pub connected_pids: usize,
}

// ---- JSON export -----------------------------------------------------------
//
// The build environment has no serde, so the export format is implemented
// explicitly against `jsonio`. Records are exported, never read back. Leaf
// conventions: timestamps are integer milliseconds, peer IDs are 64-char hex
// strings, multiaddresses use their canonical `/ip4/…` text form, and enums
// use their `Display` tokens.

pub(crate) fn time_to_json(t: SimTime) -> Json {
    Json::UInt(t.as_millis())
}

pub(crate) fn peer_to_json(peer: &PeerId) -> Json {
    Json::Str(peer.to_hex())
}

pub(crate) fn addr_to_json(addr: &Multiaddr) -> Json {
    Json::Str(addr.to_string())
}

fn direction_to_json(direction: Direction) -> Json {
    Json::Str(direction.to_string())
}

fn reason_to_json(reason: Option<CloseReason>) -> Json {
    match reason {
        Some(reason) => Json::Str(reason.to_string()),
        None => Json::Null,
    }
}

impl MetadataChangeRecord {
    /// Renders the record as a JSON object.
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("at", time_to_json(self.at));
        obj.insert("field", self.field.as_str());
        obj.insert("old", self.old.as_str());
        obj.insert("new", self.new.as_str());
        obj
    }
}

impl PeerRecord {
    /// Renders the record as a JSON object.
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("peer", peer_to_json(&self.peer));
        obj.insert("agent", self.agent.as_str());
        obj.insert(
            "protocols",
            Json::Array(self.protocols.iter().map(|p| Json::Str(p.clone())).collect()),
        );
        obj.insert(
            "addrs",
            Json::Array(self.addrs.iter().map(addr_to_json).collect()),
        );
        obj.insert("first_seen", time_to_json(self.first_seen));
        obj.insert("last_seen", time_to_json(self.last_seen));
        obj.insert("dht_server", self.dht_server);
        obj.insert("ever_dht_server", self.ever_dht_server);
        obj.insert("metadata_known", self.metadata_known);
        obj.insert(
            "changes",
            Json::Array(self.changes.iter().map(|c| c.to_json()).collect()),
        );
        obj
    }
}

impl ConnectionRecord {
    /// Renders the record as a JSON object.
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("id", self.id.0);
        obj.insert("peer", peer_to_json(&self.peer));
        obj.insert("direction", direction_to_json(self.direction));
        obj.insert("remote_addr", addr_to_json(&self.remote_addr));
        obj.insert("opened_at", time_to_json(self.opened_at));
        obj.insert("closed_at", time_to_json(self.closed_at));
        obj.insert("open_at_end", self.open_at_end);
        obj.insert("close_reason", reason_to_json(self.close_reason));
        obj
    }
}

impl SnapshotRecord {
    /// Renders the record as a JSON object.
    pub(crate) fn to_json(self) -> Json {
        let mut obj = Json::object();
        obj.insert("at", time_to_json(self.at));
        obj.insert("open_connections", self.open_connections);
        obj.insert("known_pids", self.known_pids);
        obj.insert("connected_pids", self.connected_pids);
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmodel::{IpAddress, Transport};

    fn addr() -> Multiaddr {
        Multiaddr::new(IpAddress::V4(1), Transport::Tcp, 4001)
    }

    #[test]
    fn peer_record_protocol_helpers() {
        let mut record = PeerRecord::new(PeerId::derived(1), SimTime::ZERO);
        assert!(!record.supports_bitswap());
        assert!(!record.has_storm_markers());
        record.protocols = vec!["/ipfs/bitswap/1.2.0".into(), "/ipfs/kad/1.0.0".into()];
        assert!(record.supports_bitswap());
        record.protocols = vec!["/sbptp/1.0.0".into()];
        assert!(record.has_storm_markers());
        assert!(!record.supports_bitswap());
    }

    #[test]
    fn peer_record_change_counts() {
        let mut record = PeerRecord::new(PeerId::derived(1), SimTime::ZERO);
        record.changes.push(MetadataChangeRecord {
            at: SimTime::from_secs(10),
            field: "agent".into(),
            old: "go-ipfs/0.10.0/".into(),
            new: "go-ipfs/0.11.0/".into(),
        });
        record.changes.push(MetadataChangeRecord {
            at: SimTime::from_secs(20),
            field: "protocols".into(),
            old: String::new(),
            new: String::new(),
        });
        assert_eq!(record.change_count("agent"), 1);
        assert_eq!(record.change_count("protocols"), 1);
        assert_eq!(record.change_count("addrs"), 0);
    }

    #[test]
    fn connection_record_duration() {
        let record = ConnectionRecord {
            id: ConnectionId(1),
            peer: PeerId::derived(1),
            direction: Direction::Inbound,
            remote_addr: addr(),
            opened_at: SimTime::from_secs(100),
            closed_at: SimTime::from_secs(190),
            open_at_end: false,
            close_reason: Some(CloseReason::TrimmedRemote),
        };
        assert_eq!(record.duration(), SimDuration::from_secs(90));
        assert_eq!(record.duration_secs(), 90.0);
        assert!(record.is_inbound());
    }
}
