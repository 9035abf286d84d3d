//! The passive measurement clients.
//!
//! [`GoIpfsMonitor`] and [`HydraMonitor`] replay an [`ObserverLog`] produced
//! by the simulator into a [`MeasurementDataset`], mimicking how the paper's
//! instrumented clients record what they see:
//!
//! * the go-ipfs client refreshes its view every 30 s, so connection close
//!   times are only known at the next refresh (the paper notes the real
//!   durations "should be slightly smaller than shown"),
//! * the hydra client logs connection events as they happen and refreshes
//!   peer data every minute,
//! * both keep every PID ever seen (historic view) and record metadata
//!   changes with a timestamp,
//! * connections still open at the end of the measurement are recorded as
//!   closed at that moment.

use crate::dataset::MeasurementDataset;
use crate::record::{ConnectionRecord, MetadataChangeRecord, PeerRecord, SnapshotRecord};
use netsim::obs::close_reason_from_payload;
use netsim::{ObservationKind, ObserverLog};
use p2pmodel::ConnectionId;
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;

/// The instrumented go-ipfs client (§III-A).
#[derive(Debug, Clone)]
pub struct GoIpfsMonitor {
    /// Interval at which peer and connection data is refreshed and exported.
    pub snapshot_interval: SimDuration,
}

impl Default for GoIpfsMonitor {
    fn default() -> Self {
        GoIpfsMonitor {
            snapshot_interval: SimDuration::from_secs(30),
        }
    }
}

impl GoIpfsMonitor {
    /// Creates a monitor with the paper's 30 s refresh interval.
    pub fn new() -> Self {
        Self::default()
    }

    /// Converts an observer log into the data set the client would have
    /// exported. Connection close times are rounded **up** to the next
    /// refresh tick, exactly like a 30 s polling client over-estimates
    /// durations.
    pub fn ingest(&self, log: &ObserverLog) -> MeasurementDataset {
        build_dataset(log, Some(self.snapshot_interval), self.snapshot_interval)
    }
}

/// The instrumented hydra-booster client (§III-B).
#[derive(Debug, Clone)]
pub struct HydraMonitor {
    /// Interval at which peer data is refreshed (1 min in the paper).
    pub update_interval: SimDuration,
}

impl Default for HydraMonitor {
    fn default() -> Self {
        HydraMonitor {
            update_interval: SimDuration::from_mins(1),
        }
    }
}

impl HydraMonitor {
    /// Creates a monitor with the paper's 1 min update interval.
    pub fn new() -> Self {
        Self::default()
    }

    /// Converts the log of a single head. Connection events are recorded at
    /// their exact timestamps (the hydra instrumentation logs connect and
    /// disconnect events directly).
    pub(crate) fn ingest_head(&self, log: &ObserverLog) -> MeasurementDataset {
        build_dataset(log, None, self.update_interval)
    }

    /// Converts the logs of all heads and additionally returns the
    /// deduplicating union data set (the paper reports hydra PID counts as
    /// the union of all heads; all heads share one campaign, so they satisfy
    /// the union's single-id-space precondition).
    pub fn ingest(&self, logs: &[&ObserverLog]) -> (Vec<MeasurementDataset>, MeasurementDataset) {
        let heads: Vec<MeasurementDataset> = logs.iter().map(|log| self.ingest_head(log)).collect();
        let mut union = MeasurementDataset::union_of("hydra-union", &heads);
        if heads.is_empty() {
            union.dht_server = true;
        }
        (heads, union)
    }
}

/// Shared log-to-dataset conversion.
///
/// `close_quantisation` rounds connection close times up to the next multiple
/// of the given interval (go-ipfs polling); `None` keeps exact close times
/// (hydra event logging). `snapshot_interval` controls the cadence of
/// [`SnapshotRecord`]s.
///
/// This is the ingest hot path: it walks the log's columnar
/// [`netsim::ObservationTable`] row by row and folds each row into the
/// state of its peer's registry slot. A table of one `u32` per slot of the
/// log's registry leads to that state, which lives in a `Vec` in first-seen
/// order: the peer's record, its last identify id and its open-connection
/// count. No row hashes or compares a `PeerId`, and `dataset.peers` is
/// built once, at the end. Identify payloads are compared by registry id,
/// so a million identify events with an unchanged payload cost a million
/// integer compares — not a million deep `IdentifyInfo` clones.
///
/// Connection records stay where their open row put them. The export order
/// — closes in close order, then the connections still open at the end in
/// id order, stably sorted by open time — comes from sorting one
/// `(opened_at, position)` key per record, and each record is copied once,
/// into the dataset.
fn build_dataset(
    log: &ObserverLog,
    close_quantisation: Option<SimDuration>,
    snapshot_interval: SimDuration,
) -> MeasurementDataset {
    let table = log.table();
    let registry = log.registry();
    // Peers, records and exports each number at most one per row, so every
    // position below fits a `u32`, 1 + a peer's position too.
    assert!(
        table.len() < u32::MAX as usize,
        "a table's row positions fit u32"
    );

    // `slot_index[slot]` is 1 + the position of the slot's state in
    // `peers`, or 0 until a row names the slot.
    let mut slot_index = vec![0u32; registry.peer_count()];
    let mut peers: Vec<PeerState> = Vec::new();
    let mut connected_peers: usize = 0;

    // Connection records in open order; `open_conns` leads from a live
    // connection to its record, `exported` lists records in export order.
    let mut records: Vec<ConnectionRecord> = Vec::new();
    let mut open_conns: HashMap<ConnectionId, u32> = HashMap::new();
    let mut exported: Vec<u32> = Vec::new();

    let mut snapshots = Snapshots {
        next: log.started_at + snapshot_interval,
        interval: snapshot_interval,
        records: Vec::new(),
    };
    let mut open_count: usize = 0;

    for i in 0..table.len() {
        let at = table.at(i);
        snapshots.flush(at, open_count, peers.len(), connected_peers);
        let slot = table.peer_slot_at(i);
        let index = match slot_index[slot as usize] {
            0 => {
                peers.push(PeerState {
                    record: PeerRecord::new(registry.peer(slot), at),
                    last_identify: None,
                    open: 0,
                });
                slot_index[slot as usize] = peers.len() as u32;
                peers.len() - 1
            }
            position => position as usize - 1,
        };
        let state = &mut peers[index];
        let record = &mut state.record;
        if at > record.last_seen {
            record.last_seen = at;
        }

        match table.kind_at(i) {
            kind @ (ObservationKind::OpenedInbound | ObservationKind::OpenedOutbound) => {
                let conn = table.conn_at(i).expect("open rows carry a connection id");
                let remote_addr = registry.addr(table.payload_at(i));
                if !record.addrs.contains(&remote_addr) {
                    record.addrs.push(remote_addr);
                }
                // A repeated open of a live id replaces its record, which is
                // then never exported.
                open_conns.insert(conn, records.len() as u32);
                records.push(ConnectionRecord {
                    id: conn,
                    peer: record.peer,
                    direction: kind.direction().expect("open rows have a direction"),
                    remote_addr,
                    opened_at: at,
                    closed_at: log.ended_at,
                    open_at_end: true,
                    close_reason: None,
                });
                open_count += 1;
                state.open += 1;
                if state.open == 1 {
                    connected_peers += 1;
                }
            }
            ObservationKind::Closed => {
                let conn = table.conn_at(i).expect("close rows carry a connection id");
                if let Some(position) = open_conns.remove(&conn) {
                    let rec = &mut records[position as usize];
                    let closed_at = match close_quantisation {
                        Some(step) if !step.is_zero() => quantise_up(at, log.started_at, step)
                            .min(log.ended_at),
                        _ => at,
                    };
                    rec.closed_at = closed_at.max(rec.opened_at);
                    rec.open_at_end = false;
                    rec.close_reason = Some(close_reason_from_payload(table.payload_at(i)));
                    exported.push(position);
                    open_count = open_count.saturating_sub(1);
                    // The close row's peer loses an open connection, as
                    // long as it holds one.
                    if state.open > 0 {
                        state.open -= 1;
                        if state.open == 0 {
                            connected_peers -= 1;
                        }
                    }
                }
            }
            ObservationKind::Identify => {
                let payload_id = table.payload_at(i);
                let previous_id = state.last_identify.replace(payload_id);
                // Same interned id ⇒ byte-identical payload ⇒ the enum path
                // would have found no changed fields and re-written the same
                // record values. Skip it entirely.
                if previous_id == Some(payload_id) {
                    continue;
                }
                let info = registry.identify(payload_id);
                if let Some(previous_id) = previous_id {
                    let previous = registry.identify(previous_id);
                    for field in previous.changed_fields(info) {
                        let (old, new) = match field {
                            "agent" => (previous.agent.to_string(), info.agent.to_string()),
                            "protocols" => (
                                format!("{} protocols", previous.protocols.len()),
                                format!("{} protocols", info.protocols.len()),
                            ),
                            _ => (
                                format!("{} addrs", previous.listen_addrs.len()),
                                format!("{} addrs", info.listen_addrs.len()),
                            ),
                        };
                        record.changes.push(MetadataChangeRecord {
                            at,
                            field: field.to_string(),
                            old,
                            new,
                        });
                    }
                }
                record.agent = info.agent.to_string();
                record.protocols = info.protocols.iter().map(|p| p.to_string()).collect();
                record.dht_server = info.is_dht_server();
                record.ever_dht_server |= info.is_dht_server();
                record.metadata_known |= info.is_known();
            }
            ObservationKind::Discovered => {
                let addr = registry.addr(table.payload_at(i));
                if !record.addrs.contains(&addr) {
                    record.addrs.push(addr);
                }
            }
        }
    }

    // Snapshots up to the end of the run.
    snapshots.flush(log.ended_at, open_count, peers.len(), connected_peers);

    // Connections still open at the end are exported after the closed ones,
    // in id order, as closed now (their records were opened that way).
    let mut remaining: Vec<(ConnectionId, u32)> = open_conns.into_iter().collect();
    remaining.sort_unstable_by_key(|&(id, _)| id);
    exported.extend(remaining.into_iter().map(|(_, position)| position));
    let mut order: Vec<(SimTime, u32)> = exported
        .iter()
        .enumerate()
        .map(|(k, &position)| (records[position as usize].opened_at, k as u32))
        .collect();
    order.sort_unstable();

    let mut dataset = MeasurementDataset::new(
        log.observer.clone(),
        log.dht_server,
        log.started_at,
        log.ended_at,
    );
    dataset.peers = peers
        .into_iter()
        .map(|state| (state.record.peer, state.record))
        .collect();
    // Grown by push, not collected: `approx_bytes` counts capacity, and the
    // long-horizon stream report pins it.
    for (_, k) in order {
        dataset.connections.push(records[exported[k as usize] as usize].clone());
    }
    dataset.snapshots = snapshots.records;
    dataset
}

/// What [`build_dataset`] keeps about one peer a row has named.
struct PeerState {
    record: PeerRecord,
    /// Registry id of the last identify payload received.
    last_identify: Option<u32>,
    /// Connections to the peer that are open.
    open: usize,
}

/// The periodic [`SnapshotRecord`]s of one ingest.
struct Snapshots {
    next: SimTime,
    interval: SimDuration,
    records: Vec<SnapshotRecord>,
}

impl Snapshots {
    /// Records every snapshot due at or before `up_to` with the given
    /// counters.
    fn flush(
        &mut self,
        up_to: SimTime,
        open_connections: usize,
        known_pids: usize,
        connected_pids: usize,
    ) {
        while self.next <= up_to {
            self.records.push(SnapshotRecord {
                at: self.next,
                open_connections,
                known_pids,
                connected_pids,
            });
            self.next += self.interval;
        }
    }
}

/// Rounds `at` up to the next multiple of `step` after `origin`.
///
/// Shared with the streaming engine (`crate::stream`), which must reproduce
/// the polling clients' close-time quantisation bit-for-bit to stay
/// byte-identical with the batch pipeline.
pub(crate) fn quantise_up(at: SimTime, origin: SimTime, step: SimDuration) -> SimTime {
    let elapsed = (at - origin).as_millis();
    let step_ms = step.as_millis().max(1);
    let ticks = elapsed.div_ceil(step_ms);
    origin + SimDuration::from_millis(ticks * step_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{IdentifyRegistry, ObservationTable};
    use p2pmodel::{
        AgentVersion, CloseReason, Direction, IdentifyInfo, IpAddress, Multiaddr, PeerId,
        ProtocolSet, Transport,
    };
    use std::sync::Arc;

    fn addr(n: u32) -> Multiaddr {
        Multiaddr::new(IpAddress::V4(n), Transport::Tcp, 4001)
    }

    fn server_info(version: &str) -> IdentifyInfo {
        IdentifyInfo::new(
            AgentVersion::parse(version),
            ProtocolSet::go_ipfs_dht_server(),
            Vec::new(),
        )
    }

    fn sample_log() -> ObserverLog {
        sample_log_interned(Interning::InRowOrder)
    }

    /// How the sample log's registry hands out ids before the rows are
    /// written.
    #[derive(Clone, Copy)]
    enum Interning {
        /// Peers, addresses and payloads in the order the rows name them.
        InRowOrder,
        /// The same values in the opposite order.
        Reversed,
        /// Each used value preceded by one that no row names, as in an
        /// archive log, whose registry every observer shares.
        Sparse,
    }

    /// The sample log, with the same rows under the registry ids `interning`
    /// hands out.
    fn sample_log_interned(interning: Interning) -> ObserverLog {
        let (peers, addrs) = ([1, 2, 3].map(PeerId::derived), [1, 2, 3].map(addr));
        let infos = [
            server_info("go-ipfs/0.10.0/abc"),
            server_info("go-ipfs/0.11.0/def"),
        ];
        let mut registry = IdentifyRegistry::new();
        match interning {
            Interning::InRowOrder => {}
            Interning::Reversed => {
                for &peer in peers.iter().rev() {
                    registry.register_peer(peer);
                }
                for &addr in addrs.iter().rev() {
                    registry.intern_addr(addr);
                }
                for info in infos.iter().rev() {
                    registry.intern_identify(info);
                }
            }
            Interning::Sparse => {
                for (n, (&peer, &used_addr)) in (100..).zip(peers.iter().zip(&addrs)) {
                    registry.register_peer(PeerId::derived(n));
                    registry.register_peer(peer);
                    registry.intern_addr(addr(n as u32));
                    registry.intern_addr(used_addr);
                }
                for (n, info) in infos.iter().enumerate() {
                    registry.intern_identify(&server_info(&format!("go-ipfs/0.{n}.0/unused")));
                    registry.intern_identify(info);
                }
            }
        }
        let [p1, p2, p3] = peers.map(|peer| registry.register_peer(peer));
        let [a1, a2, a3] = addrs.map(|addr| registry.intern_addr(addr));
        let [old, new] = infos.each_ref().map(|info| registry.intern_identify(info));
        let (mut t, s) = (ObservationTable::new(), SimTime::from_secs);
        t.connection_opened(s(10), ConnectionId(1), p1, Direction::Inbound, a1);
        t.identify_received(s(10), p1, old);
        t.identify_received(s(500), p1, new);
        t.connection_closed(s(995), ConnectionId(1), p1, CloseReason::TrimmedRemote);
        // A second connection that never closes.
        t.connection_opened(s(2000), ConnectionId(2), p2, Direction::Outbound, a2);
        // A peer only known through gossip.
        t.peer_discovered(s(2500), p3, a3);
        let (start, end) = (SimTime::ZERO, SimTime::from_hours(1));
        ObserverLog::from_columns(
            "go-ipfs",
            PeerId::derived(0),
            true,
            start,
            end,
            t,
            Arc::new(registry),
        )
    }

    #[test]
    fn ingest_is_independent_of_registry_ids() {
        let (log, hydra) = (sample_log(), HydraMonitor::new());
        for interning in [Interning::Reversed, Interning::Sparse] {
            let reinterned = sample_log_interned(interning);
            assert_ne!(log.table().peer_slots(), reinterned.table().peer_slots());
            assert_ne!(log.table().payloads(), reinterned.table().payloads());
            assert_eq!(log, reinterned);
            assert_eq!(
                GoIpfsMonitor::new().ingest(&log),
                GoIpfsMonitor::new().ingest(&reinterned)
            );
            assert_eq!(hydra.ingest_head(&log), hydra.ingest_head(&reinterned));
        }
        // Half of the sparse registry is never named by a row.
        let sparse = sample_log_interned(Interning::Sparse);
        let registry = sparse.registry();
        assert_eq!(registry.peer_count(), 6);
        assert_eq!(registry.addr_count(), 6);
        assert_eq!(registry.identify_count(), 4);
    }

    #[test]
    fn go_ipfs_monitor_quantises_close_times_up() {
        let dataset = GoIpfsMonitor::new().ingest(&sample_log());
        let conn = dataset
            .connections
            .iter()
            .find(|c| c.id == ConnectionId(1))
            .unwrap();
        // Closed at 995 s, next 30 s tick is 1 020 s.
        assert_eq!(conn.closed_at, SimTime::from_secs(1020));
        assert_eq!(conn.close_reason, Some(CloseReason::TrimmedRemote));
        assert!(!conn.open_at_end);
    }

    #[test]
    fn hydra_monitor_keeps_exact_close_times() {
        let dataset = HydraMonitor::new().ingest_head(&sample_log());
        let conn = dataset
            .connections
            .iter()
            .find(|c| c.id == ConnectionId(1))
            .unwrap();
        assert_eq!(conn.closed_at, SimTime::from_secs(995));
    }

    #[test]
    fn still_open_connections_close_at_measurement_end() {
        let dataset = GoIpfsMonitor::new().ingest(&sample_log());
        let conn = dataset
            .connections
            .iter()
            .find(|c| c.id == ConnectionId(2))
            .unwrap();
        assert!(conn.open_at_end);
        assert_eq!(conn.closed_at, SimTime::from_hours(1));
        assert_eq!(conn.close_reason, None);
    }

    #[test]
    fn connections_opened_together_export_in_close_order_then_id_order() {
        let mut registry = IdentifyRegistry::new();
        let peer = registry.register_peer(PeerId::derived(1));
        let remote = registry.intern_addr(addr(1));
        let (mut t, s) = (ObservationTable::new(), SimTime::from_secs);
        t.connection_opened(s(5), ConnectionId(9), peer, Direction::Outbound, remote);
        for id in [1, 2, 3, 5, 4] {
            t.connection_opened(s(10), ConnectionId(id), peer, Direction::Inbound, remote);
        }
        // Closed out of open order; 4 and 5 stay open to the end.
        for id in [3, 1, 2] {
            t.connection_closed(s(20), ConnectionId(id), peer, CloseReason::PeerLeft);
        }
        t.connection_closed(s(30), ConnectionId(9), peer, CloseReason::TrimmedLocal);
        let (start, end) = (SimTime::ZERO, SimTime::from_hours(1));
        let log = ObserverLog::from_columns(
            "go-ipfs",
            PeerId::derived(0),
            true,
            start,
            end,
            t,
            Arc::new(registry),
        );
        let ids = |dataset: MeasurementDataset| -> Vec<u64> {
            dataset.connections.iter().map(|c| c.id.0).collect()
        };
        assert_eq!(ids(GoIpfsMonitor::new().ingest(&log)), [9, 3, 1, 2, 4, 5]);
        assert_eq!(ids(HydraMonitor::new().ingest_head(&log)), [9, 3, 1, 2, 4, 5]);
    }

    #[test]
    fn metadata_changes_are_recorded_with_old_and_new_value() {
        let dataset = GoIpfsMonitor::new().ingest(&sample_log());
        let record = &dataset.peers[&PeerId::derived(1)];
        assert_eq!(record.change_count("agent"), 1);
        let change = &record.changes[0];
        assert!(change.old.contains("0.10.0"));
        assert!(change.new.contains("0.11.0"));
        assert_eq!(record.agent, "go-ipfs/0.11.0/def");
        assert!(record.ever_dht_server);
    }

    #[test]
    fn gossip_only_peers_have_no_connections_but_are_known() {
        let dataset = GoIpfsMonitor::new().ingest(&sample_log());
        assert_eq!(dataset.pid_count(), 3);
        assert_eq!(dataset.connected_pid_count(), 2);
        let gossip_peer = &dataset.peers[&PeerId::derived(3)];
        assert!(!gossip_peer.metadata_known);
        assert_eq!(gossip_peer.addrs, vec![addr(3)]);
    }

    #[test]
    fn snapshots_cover_the_whole_run_at_the_configured_interval() {
        let dataset = GoIpfsMonitor::new().ingest(&sample_log());
        // One hour at 30 s → 120 snapshots.
        assert_eq!(dataset.snapshots.len(), 120);
        assert!(dataset.snapshots.iter().any(|s| s.open_connections > 0));
        let last = dataset.snapshots.last().unwrap();
        assert_eq!(last.at, SimTime::from_hours(1));
        // Known PIDs never decrease (historic view).
        for pair in dataset.snapshots.windows(2) {
            assert!(pair[0].known_pids <= pair[1].known_pids);
        }
    }

    #[test]
    fn hydra_union_merges_heads() {
        let log0 = sample_log();
        let mut registry = IdentifyRegistry::new();
        let peer = registry.register_peer(PeerId::derived(42));
        let remote = registry.intern_addr(addr(42));
        let (mut t, s) = (ObservationTable::new(), SimTime::from_secs);
        t.connection_opened(s(50), ConnectionId(99), peer, Direction::Inbound, remote);
        t.connection_closed(s(80), ConnectionId(99), peer, CloseReason::PeerLeft);
        let (start, end) = (SimTime::ZERO, SimTime::from_hours(1));
        let log1 = ObserverLog::from_columns(
            "hydra-h1",
            PeerId::derived(10),
            true,
            start,
            end,
            t,
            Arc::new(registry),
        );

        let monitor = HydraMonitor::new();
        let (heads, union) = monitor.ingest(&[&log0, &log1]);
        assert_eq!(heads.len(), 2);
        assert_eq!(union.client, "hydra-union");
        assert_eq!(union.pid_count(), 4);
        assert_eq!(union.connection_count(), 3);
    }

    #[test]
    fn hydra_union_of_no_heads_is_empty() {
        let (heads, union) = HydraMonitor::new().ingest(&[]);
        assert!(heads.is_empty());
        assert_eq!(union.pid_count(), 0);
    }

    #[test]
    fn quantise_up_is_exact_on_boundaries() {
        let origin = SimTime::ZERO;
        let step = SimDuration::from_secs(30);
        assert_eq!(quantise_up(SimTime::from_secs(30), origin, step), SimTime::from_secs(30));
        assert_eq!(quantise_up(SimTime::from_secs(31), origin, step), SimTime::from_secs(60));
        assert_eq!(quantise_up(SimTime::from_secs(0), origin, step), SimTime::from_secs(0));
    }
}
