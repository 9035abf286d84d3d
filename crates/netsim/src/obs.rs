//! The columnar observation pipeline.
//!
//! The paper's central observation is that *connection churn dwarfs node
//! churn*: a measurement log holds orders of magnitude more events than the
//! network holds peers, so nothing on the observation path allocates per
//! event. It is built from two pieces:
//!
//! * [`IdentifyRegistry`] — interns every distinct [`IdentifyInfo`],
//!   [`Multiaddr`] and [`PeerId`] once and hands out dense `u32` ids. An
//!   identify push records a 4-byte payload id instead of cloning the
//!   payload (agent string, protocol set, address list).
//! * [`ObservationTable`] — the struct-of-arrays store the engine appends
//!   every observation to, one method per observation kind with plain ids:
//!   parallel `at` / `kind` / `peer_slot` / `conn` / `payload` columns, 25
//!   bytes per event, no per-event heap allocation.
//!
//! [`ObserverLog`](crate::ObserverLog) wraps a table plus a shared
//! registry. Every consumer (the measurement monitors, the streaming
//! engine, the archive codec) reads the columns through it; no monitor
//! sees the engine's events any other way.

use p2pmodel::{CloseReason, ConnectionId, Direction, IdentifyInfo, Multiaddr, PeerId};
use simclock::rng::{fnv1a_step, FNV_OFFSET};
use simclock::SimTime;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The kind discriminant of one observation row (one byte per event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ObservationKind {
    /// An inbound connection was opened; `payload` is the remote address id.
    OpenedInbound = 0,
    /// An outbound connection was opened; `payload` is the remote address id.
    OpenedOutbound = 1,
    /// A connection was closed; `payload` encodes the [`CloseReason`].
    Closed = 2,
    /// An identify payload was received; `payload` is the identify id.
    Identify = 3,
    /// The peer was discovered without a connection; `payload` is the
    /// address id.
    Discovered = 4,
}

impl ObservationKind {
    /// The direction of an open event, if this is one.
    pub fn direction(self) -> Option<Direction> {
        match self {
            ObservationKind::OpenedInbound => Some(Direction::Inbound),
            ObservationKind::OpenedOutbound => Some(Direction::Outbound),
            _ => None,
        }
    }

    /// Decodes a discriminant byte written by `kind as u8` — the inverse the
    /// archive reader needs. Returns `None` for bytes no kind maps to.
    pub(crate) fn from_u8(byte: u8) -> Option<ObservationKind> {
        match byte {
            0 => Some(ObservationKind::OpenedInbound),
            1 => Some(ObservationKind::OpenedOutbound),
            2 => Some(ObservationKind::Closed),
            3 => Some(ObservationKind::Identify),
            4 => Some(ObservationKind::Discovered),
            _ => None,
        }
    }
}

/// Narrows a length to the dense `u32` id space the columnar pipeline uses.
///
/// Registry ids and table row indices are deliberately 4 bytes — that is
/// where the 25 B/event figure comes from — so the pipeline caps out at
/// 2^32 - 1 entries per id space. The 10M-peer full-protocol campaign logs
/// ~108.7M events, two orders of magnitude below the cap, but a silent
/// `as u32` wrap past 4.29B entries would corrupt every id after it; this
/// guard turns that into a loud panic naming the exhausted space.
fn dense_id(len: usize, space: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("{space} capacity exceeded: {len} entries do not fit the dense u32 id space (max {})", u32::MAX)
    })
}

/// Packs a [`CloseReason`] into the 4-byte payload column.
pub(crate) fn close_reason_to_payload(reason: CloseReason) -> u32 {
    match reason {
        CloseReason::TrimmedLocal => 0,
        CloseReason::TrimmedRemote => 1,
        CloseReason::PeerLeft => 2,
        CloseReason::MeasurementEnd => 3,
    }
}

/// Unpacks a payload written by `close_reason_to_payload`, or `None` for a
/// value no close reason maps to.
pub(crate) fn try_close_reason(payload: u32) -> Option<CloseReason> {
    match payload {
        0 => Some(CloseReason::TrimmedLocal),
        1 => Some(CloseReason::TrimmedRemote),
        2 => Some(CloseReason::PeerLeft),
        3 => Some(CloseReason::MeasurementEnd),
        _ => None,
    }
}

/// Unpacks a payload written by `close_reason_to_payload`.
///
/// # Panics
///
/// Panics on a payload value no close reason maps to; the engine only ever
/// stores values produced by the packing function, and decoded tables are
/// screened by [`crate::archive::check_rows`].
pub fn close_reason_from_payload(payload: u32) -> CloseReason {
    try_close_reason(payload).unwrap_or_else(|| panic!("invalid close-reason payload {payload}"))
}

/// Interning store shared by every observer of one simulation run.
///
/// Each distinct [`PeerId`], [`Multiaddr`] and [`IdentifyInfo`] is stored
/// once; observations refer to it by a dense `u32` id. Interning the same
/// value twice returns the same id, and ids resolve back to the exact value
/// they were created from — see the round-trip property test in
/// `tests/columnar.rs`.
#[derive(Debug, Clone, Default)]
pub struct IdentifyRegistry {
    peers: Vec<PeerId>,
    peer_slots: HashMap<PeerId, u32>,
    addrs: Vec<Multiaddr>,
    addr_ids: HashMap<Multiaddr, u32>,
    infos: Vec<IdentifyInfo>,
    info_ids: HashMap<IdentifyInfo, u32>,
}

impl IdentifyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry pre-sized for a population of `peers` peers.
    pub(crate) fn with_capacity(peers: usize) -> Self {
        IdentifyRegistry {
            peers: Vec::with_capacity(peers),
            peer_slots: HashMap::with_capacity(peers),
            addrs: Vec::with_capacity(peers),
            addr_ids: HashMap::with_capacity(peers),
            ..Self::default()
        }
    }

    /// Registers a peer and returns its slot; registering the same peer
    /// again returns the existing slot.
    pub fn register_peer(&mut self, peer: PeerId) -> u32 {
        match self.peer_slots.entry(peer) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => {
                let slot = dense_id(self.peers.len(), "IdentifyRegistry peer-slot");
                self.peers.push(peer);
                *new.insert(slot)
            }
        }
    }

    /// Resolves a peer slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never handed out by this registry.
    pub fn peer(&self, slot: u32) -> PeerId {
        self.peers[slot as usize]
    }

    /// Number of registered peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Every registered peer, by slot.
    pub(crate) fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// The slot of a registered peer.
    pub(crate) fn peer_slot(&self, peer: &PeerId) -> Option<u32> {
        self.peer_slots.get(peer).copied()
    }

    /// Interns a multiaddress and returns its id.
    pub fn intern_addr(&mut self, addr: Multiaddr) -> u32 {
        match self.addr_ids.entry(addr) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => {
                let id = dense_id(self.addrs.len(), "IdentifyRegistry address-id");
                self.addrs.push(addr);
                *new.insert(id)
            }
        }
    }

    /// Resolves an address id.
    ///
    /// # Panics
    ///
    /// Panics if the id was never handed out by this registry.
    pub fn addr(&self, id: u32) -> Multiaddr {
        self.addrs[id as usize]
    }

    /// Number of distinct interned addresses.
    pub fn addr_count(&self) -> usize {
        self.addrs.len()
    }

    /// Interns an identify payload and returns its id. The payload is cloned
    /// only on first insertion; every later intern of an equal payload is a
    /// hash lookup.
    pub fn intern_identify(&mut self, info: &IdentifyInfo) -> u32 {
        match self.info_ids.get(info) {
            Some(&id) => id,
            None => self.intern_identify_owned(info.clone()),
        }
    }

    /// Interns an identify payload the caller owns, such as one just
    /// decoded: a new payload is cloned once, into the id vector, and moved
    /// into the lookup map.
    pub(crate) fn intern_identify_owned(&mut self, info: IdentifyInfo) -> u32 {
        match self.info_ids.entry(info) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => {
                let id = dense_id(self.infos.len(), "IdentifyRegistry identify-id");
                self.infos.push(new.key().clone());
                *new.insert(id)
            }
        }
    }

    /// Resolves an identify id.
    ///
    /// # Panics
    ///
    /// Panics if the id was never handed out by this registry.
    pub fn identify(&self, id: u32) -> &IdentifyInfo {
        &self.infos[id as usize]
    }

    /// Number of distinct interned identify payloads.
    pub fn identify_count(&self) -> usize {
        self.infos.len()
    }

    /// Approximate resident bytes of the registry (interned values plus the
    /// lookup indices); see `docs/ARCHITECTURE.md`.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let peer_bytes = self.peers.len() * (size_of::<PeerId>() * 2 + size_of::<u32>());
        let addr_bytes = self.addrs.len() * (size_of::<Multiaddr>() * 2 + size_of::<u32>());
        let info_bytes: usize = self
            .infos
            .iter()
            .map(|info| 2 * (size_of::<IdentifyInfo>() + identify_heap_bytes(info)) + size_of::<u32>())
            .sum();
        peer_bytes + addr_bytes + info_bytes
    }
}

/// Approximate heap bytes owned by one [`IdentifyInfo`] (agent strings,
/// protocol-set nodes, address list).
fn identify_heap_bytes(info: &IdentifyInfo) -> usize {
    use std::mem::size_of;
    let agent_bytes = match &info.agent {
        p2pmodel::AgentVersion::GoIpfs { commit, version, .. } => {
            commit.as_deref().map_or(0, str::len)
                + version.pre.as_deref().map_or(0, str::len)
        }
        p2pmodel::AgentVersion::Other(s) => s.len(),
        p2pmodel::AgentVersion::Missing => 0,
    };
    // One string allocation plus ~3 words of BTreeSet node overhead per
    // protocol id — an estimate.
    let protocol_bytes: usize = info
        .protocols
        .iter()
        .map(|p| p.as_str().len() + size_of::<String>() + 3 * size_of::<usize>())
        .sum();
    let addr_bytes = info.listen_addrs.capacity() * size_of::<Multiaddr>();
    agent_bytes + protocol_bytes + addr_bytes
}

/// The struct-of-arrays observation store: one row per observed event, split
/// into five parallel columns.
///
/// | column      | type           | meaning                                          |
/// |-------------|----------------|--------------------------------------------------|
/// | `at`        | `SimTime` (8B) | event timestamp                                  |
/// | `kind`      | `u8`           | [`ObservationKind`] discriminant                 |
/// | `peer_slot` | `u32`          | registry slot of the remote peer                 |
/// | `conn`      | `u64`          | connection id, or `NO_CONN` for non-conn events  |
/// | `payload`   | `u32`          | addr id / identify id / packed close reason      |
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservationTable {
    at: Vec<SimTime>,
    kind: Vec<ObservationKind>,
    peer_slot: Vec<u32>,
    conn: Vec<u64>,
    payload: Vec<u32>,
}

/// The `conn` column value of rows that do not concern a connection.
pub const NO_CONN: u64 = u64::MAX;

impl ObservationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for `additional` more events in every column.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.at.reserve(additional);
        self.kind.reserve(additional);
        self.peer_slot.reserve(additional);
        self.conn.reserve(additional);
        self.payload.reserve(additional);
    }

    fn push_row(&mut self, at: SimTime, kind: ObservationKind, peer_slot: u32, conn: u64, payload: u32) {
        self.at.push(at);
        self.kind.push(kind);
        self.peer_slot.push(peer_slot);
        self.conn.push(conn);
        self.payload.push(payload);
    }

    /// Appends a row: a connection to the peer in `peer_slot` was opened
    /// from or to the interned address `addr_id`.
    pub fn connection_opened(
        &mut self,
        at: SimTime,
        conn: ConnectionId,
        peer_slot: u32,
        direction: Direction,
        addr_id: u32,
    ) {
        let kind = match direction {
            Direction::Inbound => ObservationKind::OpenedInbound,
            Direction::Outbound => ObservationKind::OpenedOutbound,
        };
        self.push_row(at, kind, peer_slot, conn.0, addr_id);
    }

    /// Appends a row: a connection was closed.
    pub fn connection_closed(
        &mut self,
        at: SimTime,
        conn: ConnectionId,
        peer_slot: u32,
        reason: CloseReason,
    ) {
        self.push_row(
            at,
            ObservationKind::Closed,
            peer_slot,
            conn.0,
            close_reason_to_payload(reason),
        );
    }

    /// Appends a row: the identify payload `payload_id` was received.
    pub fn identify_received(&mut self, at: SimTime, peer_slot: u32, payload_id: u32) {
        self.push_row(at, ObservationKind::Identify, peer_slot, NO_CONN, payload_id);
    }

    /// Appends a row: the peer was discovered through routing gossip
    /// without a connection.
    pub fn peer_discovered(&mut self, at: SimTime, peer_slot: u32, addr_id: u32) {
        self.push_row(at, ObservationKind::Discovered, peer_slot, NO_CONN, addr_id);
    }

    /// Number of events in the table.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether the table holds no events.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The timestamp column.
    pub fn ats(&self) -> &[SimTime] {
        &self.at
    }

    /// The kind column.
    pub(crate) fn kinds(&self) -> &[ObservationKind] {
        &self.kind
    }

    /// The peer-slot column.
    pub fn peer_slots(&self) -> &[u32] {
        &self.peer_slot
    }

    /// The connection-id column ([`NO_CONN`] for non-connection rows).
    pub(crate) fn conns(&self) -> &[u64] {
        &self.conn
    }

    /// The payload column.
    pub fn payloads(&self) -> &[u32] {
        &self.payload
    }

    /// Timestamp of row `i`.
    pub fn at(&self, i: usize) -> SimTime {
        self.at[i]
    }

    /// Kind of row `i`.
    pub fn kind_at(&self, i: usize) -> ObservationKind {
        self.kind[i]
    }

    /// Peer slot of row `i`.
    pub fn peer_slot_at(&self, i: usize) -> u32 {
        self.peer_slot[i]
    }

    /// Connection id of row `i` (`None` for non-connection rows).
    pub fn conn_at(&self, i: usize) -> Option<ConnectionId> {
        match self.conn[i] {
            NO_CONN => None,
            id => Some(ConnectionId(id)),
        }
    }

    /// Payload of row `i`.
    pub fn payload_at(&self, i: usize) -> u32 {
        self.payload[i]
    }

    /// Resident bytes of the column storage (capacity-based, a peak-RSS
    /// proxy).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.at.capacity() * size_of::<SimTime>()
            + self.kind.capacity() * size_of::<ObservationKind>()
            + self.peer_slot.capacity() * size_of::<u32>()
            + self.conn.capacity() * size_of::<u64>()
            + self.payload.capacity() * size_of::<u32>()
    }

    /// Whether the `at` column is non-decreasing.
    pub(crate) fn is_sorted_by_time(&self) -> bool {
        self.at.windows(2).all(|w| w[0] <= w[1])
    }

    /// Reassembles a table from raw column vectors — the archive reader's
    /// path. The columns must be parallel (equal lengths) and are adopted
    /// as-is; pair with the column accessors ([`Self::ats`] & co.) on the
    /// write side.
    ///
    /// # Panics
    ///
    /// Panics if the column lengths disagree.
    pub fn from_columns(
        at: Vec<SimTime>,
        kind: Vec<ObservationKind>,
        peer_slot: Vec<u32>,
        conn: Vec<u64>,
        payload: Vec<u32>,
    ) -> Self {
        let n = at.len();
        assert!(
            kind.len() == n && peer_slot.len() == n && conn.len() == n && payload.len() == n,
            "observation columns must be parallel: at={n} kind={} peer_slot={} conn={} payload={}",
            kind.len(),
            peer_slot.len(),
            conn.len(),
            payload.len()
        );
        ObservationTable {
            at,
            kind,
            peer_slot,
            conn,
            payload,
        }
    }

    /// FNV-1a checksum over all columns — a cheap, order-sensitive
    /// fingerprint the sharded engine reports to pin determinism across
    /// shard and thread counts.
    pub fn checksum(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut mix = |byte: u8| hash = fnv1a_step(hash, byte.into());
        for i in 0..self.len() {
            for b in self.at[i].as_millis().to_le_bytes() {
                mix(b);
            }
            mix(self.kind[i] as u8);
            for b in self.peer_slot[i].to_le_bytes() {
                mix(b);
            }
            for b in self.conn[i].to_le_bytes() {
                mix(b);
            }
            for b in self.payload[i].to_le_bytes() {
                mix(b);
            }
        }
        hash
    }
}

/// Stable global PID ↔ (shard, slot) mapping for partitioned simulations.
///
/// The cross-shard engine ([`crate::mailbox`]) partitions the global peer
/// index space `0..peers` into `shards` contiguous, balanced ranges: shard
/// sizes differ by at most one, with the remainder going to the first
/// shards. The mapping is a pure function of `(peers, shards)` — no
/// allocation, no lookup tables — so every shard, every worker thread and
/// every epoch agrees on who owns a peer, and merged [`ObservationTable`]s /
/// [`IdentifyRegistry`] slots stay canonical: the registry slot of a peer is
/// its *global* index, independent of the shard layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    peers: usize,
    shards: usize,
}

impl ShardMap {
    /// Creates a mapping of `peers` global indexes onto `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(peers: usize, shards: usize) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        ShardMap { peers, shards }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Peers owned by `shard`: `peers / shards`, plus one for the first
    /// `peers % shards` shards.
    pub fn count(&self, shard: usize) -> usize {
        let base = self.peers / self.shards;
        base + usize::from(shard < self.peers % self.shards)
    }

    /// First global index owned by `shard`.
    pub fn start(&self, shard: usize) -> usize {
        let base = self.peers / self.shards;
        let extra = self.peers % self.shards;
        shard * base + shard.min(extra)
    }

    /// The shard owning global index `global`.
    pub fn owner(&self, global: usize) -> usize {
        debug_assert!(global < self.peers);
        let base = self.peers / self.shards;
        let extra = self.peers % self.shards;
        let fat = extra * (base + 1);
        if global < fat {
            global / (base + 1)
        } else {
            extra + (global - fat) / base
        }
    }

    /// The owner shard's local slot of global index `global`.
    pub fn slot(&self, global: usize) -> usize {
        global - self.start(self.owner(global))
    }

    /// The global index of `(shard, slot)`.
    pub fn global(&self, shard: usize, slot: usize) -> usize {
        self.start(shard) + slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmodel::{AgentVersion, IpAddress, ProtocolSet, Transport};

    fn addr(n: u32) -> Multiaddr {
        Multiaddr::new(IpAddress::V4(n), Transport::Tcp, 4001)
    }

    fn info(version: &str) -> IdentifyInfo {
        IdentifyInfo::new(
            AgentVersion::parse(version),
            ProtocolSet::go_ipfs_dht_server(),
            Vec::new(),
        )
    }

    #[test]
    fn registry_interning_is_idempotent() {
        let mut reg = IdentifyRegistry::with_capacity(4);
        let p = PeerId::derived(7);
        let slot = reg.register_peer(p);
        assert_eq!(reg.register_peer(p), slot);
        assert_eq!(reg.peer(slot), p);
        assert_eq!(reg.peer_count(), 1);

        let a = reg.intern_addr(addr(1));
        assert_eq!(reg.intern_addr(addr(1)), a);
        assert_ne!(reg.intern_addr(addr(2)), a);
        assert_eq!(reg.addr(a), addr(1));
        assert_eq!(reg.addr_count(), 2);

        let i0 = reg.intern_identify(&info("go-ipfs/0.11.0/"));
        let i1 = reg.intern_identify(&info("go-ipfs/0.12.0/"));
        assert_eq!(reg.intern_identify(&info("go-ipfs/0.11.0/")), i0);
        assert_ne!(i0, i1);
        assert_eq!(reg.identify(i1), &info("go-ipfs/0.12.0/"));
        assert_eq!(reg.identify_count(), 2);
        assert!(reg.approx_bytes() > 0);
    }

    #[test]
    fn dense_id_guard_accepts_the_full_u32_space() {
        assert_eq!(dense_id(0, "test"), 0);
        assert_eq!(dense_id(u32::MAX as usize, "test"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "IdentifyRegistry peer-slot capacity exceeded")]
    fn dense_id_guard_panics_loudly_past_u32() {
        let _ = dense_id(u32::MAX as usize + 1, "IdentifyRegistry peer-slot");
    }

    #[test]
    fn observation_kind_byte_roundtrip() {
        for kind in [
            ObservationKind::OpenedInbound,
            ObservationKind::OpenedOutbound,
            ObservationKind::Closed,
            ObservationKind::Identify,
            ObservationKind::Discovered,
        ] {
            assert_eq!(ObservationKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(ObservationKind::from_u8(5), None);
        assert_eq!(ObservationKind::from_u8(255), None);
    }

    #[test]
    fn close_reason_payload_roundtrip() {
        for reason in [
            CloseReason::TrimmedLocal,
            CloseReason::TrimmedRemote,
            CloseReason::PeerLeft,
            CloseReason::MeasurementEnd,
        ] {
            assert_eq!(close_reason_from_payload(close_reason_to_payload(reason)), reason);
        }
    }

    #[test]
    fn table_records_rows_in_order() {
        let mut table = ObservationTable::new();
        table.connection_opened(SimTime::from_secs(1), ConnectionId(9), 3, Direction::Inbound, 11);
        table.identify_received(SimTime::from_secs(2), 3, 5);
        table.connection_closed(SimTime::from_secs(4), ConnectionId(9), 3, CloseReason::PeerLeft);
        table.peer_discovered(SimTime::from_secs(4), 8, 12);

        assert_eq!(table.len(), 4);
        assert!(!table.is_empty());
        assert_eq!(table.kind_at(0), ObservationKind::OpenedInbound);
        assert_eq!(table.kind_at(0).direction(), Some(Direction::Inbound));
        assert_eq!(table.conn_at(0), Some(ConnectionId(9)));
        assert_eq!(table.conn_at(1), None);
        assert_eq!(table.payload_at(1), 5);
        assert_eq!(
            close_reason_from_payload(table.payload_at(2)),
            CloseReason::PeerLeft
        );
        assert_eq!(table.peer_slot_at(3), 8);
        assert!(table.is_sorted_by_time());
        // A row is 25 bytes across the five columns.
        assert!(table.approx_bytes() >= table.len() * 25);
    }

    #[test]
    fn table_rebuilds_from_columns() {
        let mut table = ObservationTable::new();
        table.connection_opened(SimTime::from_secs(1), ConnectionId(9), 3, Direction::Inbound, 11);
        table.identify_received(SimTime::from_secs(2), 3, 5);
        table.connection_closed(SimTime::from_secs(4), ConnectionId(9), 3, CloseReason::PeerLeft);
        let rebuilt = ObservationTable::from_columns(
            table.ats().to_vec(),
            table.kinds().to_vec(),
            table.peer_slots().to_vec(),
            table.conns().to_vec(),
            table.payloads().to_vec(),
        );
        assert_eq!(rebuilt, table);
        assert_eq!(rebuilt.checksum(), table.checksum());
    }

    #[test]
    #[should_panic(expected = "observation columns must be parallel")]
    fn from_columns_rejects_ragged_columns() {
        let _ = ObservationTable::from_columns(
            vec![SimTime::ZERO],
            Vec::new(),
            vec![0],
            vec![NO_CONN],
            vec![0],
        );
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let mut a = ObservationTable::new();
        a.identify_received(SimTime::from_secs(1), 1, 0);
        a.identify_received(SimTime::from_secs(1), 2, 0);
        let mut b = ObservationTable::new();
        b.identify_received(SimTime::from_secs(1), 2, 0);
        b.identify_received(SimTime::from_secs(1), 1, 0);
        assert_ne!(a.checksum(), b.checksum());
        assert_eq!(a.checksum(), a.clone().checksum());
    }
}
