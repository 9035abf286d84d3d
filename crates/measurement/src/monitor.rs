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
use p2pmodel::PeerId;
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

    /// Creates a monitor with a custom refresh interval.
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_interval(snapshot_interval: SimDuration) -> Self {
        GoIpfsMonitor { snapshot_interval }
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
    pub fn ingest_head(&self, log: &ObserverLog) -> MeasurementDataset {
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
/// [`netsim::ObservationTable`] row by row. Identify payloads are compared
/// by registry id, so a million identify events with an unchanged payload
/// cost a million integer compares — not a million deep `IdentifyInfo`
/// clones.
fn build_dataset(
    log: &ObserverLog,
    close_quantisation: Option<SimDuration>,
    snapshot_interval: SimDuration,
) -> MeasurementDataset {
    let mut dataset = MeasurementDataset::new(
        log.observer.clone(),
        log.dht_server,
        log.started_at,
        log.ended_at,
    );

    let table = log.table();
    let registry = log.registry();

    // Last identify payload per peer, by registry id — an id compare replaces
    // the payload clone-and-diff of the enum path.
    let mut last_identify: HashMap<PeerId, u32> = HashMap::new();
    let mut open_conns: HashMap<p2pmodel::ConnectionId, ConnectionRecord> = HashMap::new();

    // Snapshot bookkeeping.
    let mut next_snapshot = log.started_at + snapshot_interval;
    let mut open_count: usize = 0;
    let mut connected_peers: HashMap<PeerId, usize> = HashMap::new();

    let flush_snapshots = |up_to: SimTime,
                               next_snapshot: &mut SimTime,
                               dataset: &mut MeasurementDataset,
                               open_count: usize,
                               connected: usize| {
        while *next_snapshot <= up_to {
            dataset.snapshots.push(SnapshotRecord {
                at: *next_snapshot,
                open_connections: open_count,
                known_pids: dataset.peers.len(),
                connected_pids: connected,
            });
            *next_snapshot += snapshot_interval;
        }
    };

    for i in 0..table.len() {
        let at = table.at(i);
        flush_snapshots(
            at,
            &mut next_snapshot,
            &mut dataset,
            open_count,
            connected_peers.len(),
        );
        let peer = registry.peer(table.peer_slot_at(i));
        let record = dataset
            .peers
            .entry(peer)
            .or_insert_with(|| PeerRecord::new(peer, at));
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
                open_conns.insert(
                    conn,
                    ConnectionRecord {
                        id: conn,
                        peer,
                        direction: kind.direction().expect("open rows have a direction"),
                        remote_addr,
                        opened_at: at,
                        closed_at: log.ended_at,
                        open_at_end: true,
                        close_reason: None,
                    },
                );
                open_count += 1;
                *connected_peers.entry(peer).or_insert(0) += 1;
            }
            ObservationKind::Closed => {
                let conn = table.conn_at(i).expect("close rows carry a connection id");
                if let Some(mut rec) = open_conns.remove(&conn) {
                    let closed_at = match close_quantisation {
                        Some(step) if !step.is_zero() => quantise_up(at, log.started_at, step)
                            .min(log.ended_at),
                        _ => at,
                    };
                    rec.closed_at = closed_at.max(rec.opened_at);
                    rec.open_at_end = false;
                    rec.close_reason = Some(close_reason_from_payload(table.payload_at(i)));
                    dataset.connections.push(rec);
                    open_count = open_count.saturating_sub(1);
                    if let Some(count) = connected_peers.get_mut(&peer) {
                        *count -= 1;
                        if *count == 0 {
                            connected_peers.remove(&peer);
                        }
                    }
                }
            }
            ObservationKind::Identify => {
                let payload_id = table.payload_at(i);
                let previous_id = last_identify.insert(peer, payload_id);
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
    flush_snapshots(
        log.ended_at,
        &mut next_snapshot,
        &mut dataset,
        open_count,
        connected_peers.len(),
    );

    // Connections still open at the end are recorded as closed now.
    let mut remaining: Vec<ConnectionRecord> = open_conns.into_values().collect();
    remaining.sort_by_key(|c| c.id);
    for mut rec in remaining {
        rec.closed_at = log.ended_at;
        rec.open_at_end = true;
        dataset.connections.push(rec);
    }
    dataset.connections.sort_by_key(|c| c.opened_at);
    dataset
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
    use netsim::{IdentifyRegistry, ObservationSink, ObservationTable};
    use p2pmodel::{
        AgentVersion, CloseReason, ConnectionId, Direction, IdentifyInfo, IpAddress, Multiaddr,
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
        sample_log_interned(false)
    }

    /// The sample log; `reversed` interns its peers, addresses and payloads
    /// in the opposite order before any row is written, so the same rows
    /// carry other registry ids.
    fn sample_log_interned(reversed: bool) -> ObserverLog {
        let (peers, addrs) = ([1, 2, 3].map(PeerId::derived), [1, 2, 3].map(addr));
        let infos = [
            server_info("go-ipfs/0.10.0/abc"),
            server_info("go-ipfs/0.11.0/def"),
        ];
        let mut registry = IdentifyRegistry::new();
        if reversed {
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
        let (log, reinterned) = (sample_log(), sample_log_interned(true));
        assert_ne!(log.table().payloads(), reinterned.table().payloads());
        assert_eq!(log, reinterned);
        assert_eq!(
            GoIpfsMonitor::new().ingest(&log),
            GoIpfsMonitor::new().ingest(&reinterned)
        );
        let hydra = HydraMonitor::new();
        assert_eq!(hydra.ingest_head(&log), hydra.ingest_head(&reinterned));
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
