//! Network-size estimation (Section V, Table IV).
//!
//! Counting PIDs over-estimates the number of participants: the paper sees
//! 40k–65k PIDs but never more than ~16k simultaneous connections. Section V
//! explores two estimators, both reproduced here:
//!
//! * **IP-address grouping** ([`ip_grouping`], §V-A): PIDs connecting from
//!   the same IP address are grouped into one probable participant. This
//!   collapses hydra heads, NATed users and rotating-PID operators, but still
//!   over-counts.
//! * **Connection-time classification** ([`classify_peers`], §V-B /
//!   Table IV): peers are classified as heavy / normal / light / one-time
//!   from the duration and number of their connections; heavy + normal peers
//!   form the "core network".
//!
//! Every estimator folds the dataset's connections once
//! (`stream::DatasetFold`: per-peer connection count, longest duration,
//! first IP and DHT-Server flag) and runs the code the streaming path runs
//! on a `StreamSummary`, so each has one implementation.

use crate::stream::{classify_from, ip_grouping_from, DatasetFold};
use measurement::MeasurementDataset;
use p2pmodel::PeerId;
use simclock::SimDuration;
use std::collections::BTreeMap;

/// The result of grouping PIDs by the IP address they connected from (§V-A).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IpGrouping {
    /// PIDs in the data set (connected or not).
    pub total_pids: usize,
    /// PIDs with at least one recorded connection.
    pub connected_pids: usize,
    /// Distinct IP addresses seen across those connections.
    pub distinct_ips: usize,
    /// Number of IP groups (= estimated participants by this method).
    pub groups: usize,
    /// Groups consisting of exactly one PID.
    pub singleton_groups: usize,
    /// PIDs that are alone on their IP address.
    pub unique_ip_pids: usize,
    /// Size of the largest group (the paper found one IP with 2 156 PIDs).
    pub largest_group: usize,
    /// Sizes of the ten largest groups, descending.
    pub top_groups: Vec<usize>,
}

/// Groups connected PIDs by the IP address of their connections.
///
/// A PID that connected from several IPs is counted towards each of them for
/// the distinct-IP statistics but assigned to the group of its first observed
/// address for the group partition (the paper's method groups by connected
/// multiaddress; multi-homed peers are rare enough not to matter).
pub fn ip_grouping(dataset: &MeasurementDataset) -> IpGrouping {
    let fold = DatasetFold::new(dataset);
    ip_grouping_from(
        fold.pids,
        fold.distinct_connection_ips,
        fold.peers.iter().map(|(_, agg)| agg),
    )
}

/// The connection classes of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectionClass {
    /// Connected for more than 24 h: stable, constantly active peers.
    Heavy,
    /// Connected for more than 2 h (but at most 24 h).
    Normal,
    /// At most 2 h but at least 3 connections: recurring / experimental /
    /// faulty peers.
    Light,
    /// Less than 2 h and fewer than 3 connections.
    OneTime,
}

impl ConnectionClass {
    /// All classes in Table IV order.
    pub const ALL: [ConnectionClass; 4] = [
        ConnectionClass::Heavy,
        ConnectionClass::Normal,
        ConnectionClass::Light,
        ConnectionClass::OneTime,
    ];

    /// The label used in Table IV.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ConnectionClass::Heavy => "Heavy",
            ConnectionClass::Normal => "Normal",
            ConnectionClass::Light => "Light",
            ConnectionClass::OneTime => "One-time",
        }
    }

    /// Classifies a peer from its maximum connection duration and its number
    /// of connections, using the thresholds of Table IV.
    pub(crate) fn classify(max_duration: SimDuration, connection_count: usize) -> ConnectionClass {
        if max_duration > SimDuration::from_hours(24) {
            ConnectionClass::Heavy
        } else if Self::in_core(max_duration) {
            ConnectionClass::Normal
        } else if connection_count >= 3 {
            ConnectionClass::Light
        } else {
            ConnectionClass::OneTime
        }
    }

    /// Whether a peer whose longest connection lasted `max_duration` is in
    /// the core network (§V-B): Heavy or Normal, connected for more than
    /// 2 h. The connection count only separates Light from One-time, so the
    /// core needs just the duration.
    pub(crate) fn in_core(max_duration: SimDuration) -> bool {
        max_duration > SimDuration::from_hours(2)
    }
}

impl std::fmt::Display for ConnectionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Table IV: peers and DHT-Servers per connection class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerClassification {
    /// `(total peers, DHT-Server peers)` per class, keyed by class label in
    /// Table IV order.
    pub rows: Vec<(String, usize, usize)>,
    /// The class of every peer (for downstream analyses).
    pub per_peer: BTreeMap<PeerId, ConnectionClass>,
}

impl PeerClassification {
    /// Total peers in the given class.
    pub fn count(&self, class: ConnectionClass) -> usize {
        self.rows
            .iter()
            .find(|(label, _, _)| label == class.label())
            .map(|(_, total, _)| *total)
            .unwrap_or(0)
    }

    /// Total classified peers.
    pub fn total(&self) -> usize {
        self.rows.iter().map(|(_, total, _)| total).sum()
    }

    /// The paper's "core network": heavy plus normal peers.
    pub fn core_size(&self) -> usize {
        self.count(ConnectionClass::Heavy) + self.count(ConnectionClass::Normal)
    }
}

/// Classifies every peer with connection information (Table IV).
pub fn classify_peers(dataset: &MeasurementDataset) -> PeerClassification {
    classify_from(DatasetFold::new(dataset).aggs())
}

/// The combined network-size estimate of Section V.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSizeEstimate {
    /// Estimate by PID count (the naive upper bound).
    pub by_pids: usize,
    /// Estimate by IP grouping (§V-A).
    pub by_ip_groups: usize,
    /// Lower bound on the core network (heavy + normal classes, §V-B).
    pub core_lower_bound: usize,
    /// Maximum number of simultaneous connections observed (context for the
    /// "~2 PIDs per peer" argument).
    pub max_simultaneous_connections: usize,
}

/// Computes all three estimates for a data set.
pub fn network_size_estimate(dataset: &MeasurementDataset) -> NetworkSizeEstimate {
    DatasetFold::new(dataset).network_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::{ConnectionRecord, PeerRecord, SnapshotRecord};
    use p2pmodel::{ConnectionId, Direction, IpAddress, Multiaddr, Transport};
    use simclock::SimTime;

    fn conn(id: u64, peer: u64, ip: u32, opened: u64, closed: u64) -> ConnectionRecord {
        ConnectionRecord {
            id: ConnectionId(id),
            peer: PeerId::derived(peer),
            direction: Direction::Inbound,
            remote_addr: Multiaddr::new(IpAddress::V4(ip), Transport::Tcp, 4001),
            opened_at: SimTime::from_secs(opened),
            closed_at: SimTime::from_secs(closed),
            open_at_end: false,
            close_reason: None,
        }
    }

    fn dataset(connections: Vec<ConnectionRecord>, server_peers: &[u64]) -> MeasurementDataset {
        let mut ds = MeasurementDataset::new("go-ipfs", true, SimTime::ZERO, SimTime::from_days(3));
        for c in &connections {
            ds.peers
                .entry(c.peer)
                .or_insert_with(|| PeerRecord::new(c.peer, SimTime::ZERO));
        }
        for label in server_peers {
            let peer = PeerId::derived(*label);
            ds.peers
                .entry(peer)
                .or_insert_with(|| PeerRecord::new(peer, SimTime::ZERO))
                .ever_dht_server = true;
        }
        ds.connections = connections;
        ds
    }

    #[test]
    fn classification_thresholds_match_table_four() {
        let two_h = SimDuration::from_hours(2);
        let day = SimDuration::from_hours(24);
        assert_eq!(
            ConnectionClass::classify(day + SimDuration::from_secs(1), 1),
            ConnectionClass::Heavy
        );
        assert_eq!(ConnectionClass::classify(day, 50), ConnectionClass::Normal);
        assert_eq!(
            ConnectionClass::classify(two_h + SimDuration::from_secs(1), 1),
            ConnectionClass::Normal
        );
        assert_eq!(ConnectionClass::classify(two_h, 3), ConnectionClass::Light);
        assert_eq!(
            ConnectionClass::classify(two_h, 2),
            ConnectionClass::OneTime
        );
        assert_eq!(
            ConnectionClass::classify(SimDuration::from_secs(60), 1),
            ConnectionClass::OneTime
        );
        assert_eq!(ConnectionClass::Heavy.to_string(), "Heavy");
    }

    #[test]
    fn classify_peers_counts_servers_per_class() {
        let connections = vec![
            // Peer 1: heavy server (30 h connection).
            conn(1, 1, 1, 0, 30 * 3600),
            // Peer 2: normal client (3 h).
            conn(2, 2, 2, 0, 3 * 3600),
            // Peer 3: light client (3 short connections).
            conn(3, 3, 3, 0, 100),
            conn(4, 3, 3, 200, 300),
            conn(5, 3, 3, 400, 500),
            // Peer 4: one-time client.
            conn(6, 4, 4, 0, 600),
        ];
        let ds = dataset(connections, &[1]);
        let classes = classify_peers(&ds);
        assert_eq!(classes.count(ConnectionClass::Heavy), 1);
        assert_eq!(classes.rows[0], ("Heavy".to_string(), 1, 1));
        assert_eq!(classes.count(ConnectionClass::Normal), 1);
        assert_eq!(classes.count(ConnectionClass::Light), 1);
        assert_eq!(classes.count(ConnectionClass::OneTime), 1);
        assert_eq!(classes.total(), 4);
        assert_eq!(classes.core_size(), 2);
        assert_eq!(
            classes.per_peer[&PeerId::derived(3)],
            ConnectionClass::Light
        );
    }

    #[test]
    fn ip_grouping_collapses_shared_addresses() {
        let connections = vec![
            conn(1, 1, 10, 0, 100),
            conn(2, 2, 10, 0, 100), // same IP as peer 1
            conn(3, 3, 30, 0, 100),
            conn(4, 4, 40, 0, 100),
            conn(5, 4, 41, 200, 300), // peer 4 reconnects from another IP
        ];
        let ds = dataset(connections, &[]);
        let grouping = ip_grouping(&ds);
        assert_eq!(grouping.connected_pids, 4);
        assert_eq!(grouping.distinct_ips, 4);
        assert_eq!(grouping.groups, 3, "peers 1+2 share a group");
        assert_eq!(grouping.largest_group, 2);
        assert_eq!(grouping.singleton_groups, 2);
        assert_eq!(grouping.top_groups[0], 2);
        assert!(grouping.groups <= grouping.connected_pids);
    }

    #[test]
    fn ip_grouping_of_empty_dataset_is_zeroed() {
        let ds = dataset(Vec::new(), &[]);
        let grouping = ip_grouping(&ds);
        assert_eq!(grouping.groups, 0);
        assert_eq!(grouping.largest_group, 0);
        assert_eq!(grouping.connected_pids, 0);
        assert_eq!(grouping.distinct_ips, 0);
        assert!(grouping.top_groups.is_empty());
    }

    #[test]
    fn empty_dataset_classifies_and_estimates_without_panicking() {
        let ds = dataset(Vec::new(), &[]);
        let classes = classify_peers(&ds);
        assert_eq!(classes.total(), 0);
        assert_eq!(classes.core_size(), 0);
        assert!(classes.per_peer.is_empty());
        for class in ConnectionClass::ALL {
            assert_eq!(classes.count(class), 0);
        }
        assert!(classes.rows.iter().all(|(_, _, servers)| *servers == 0));
        let estimate = network_size_estimate(&ds);
        assert_eq!(estimate.by_pids, 0);
        assert_eq!(estimate.by_ip_groups, 0);
        assert_eq!(estimate.core_lower_bound, 0);
        assert_eq!(
            estimate.max_simultaneous_connections, 0,
            "no snapshots, no max"
        );
    }

    #[test]
    fn all_one_time_population_has_an_empty_core() {
        // Every peer: one short connection, each from its own IP — the
        // extreme the paper's flash-crowd-like tail approaches.
        let connections: Vec<ConnectionRecord> = (0..40u64)
            .map(|i| conn(i, i, 5_000 + i as u32, i * 10, i * 10 + 300))
            .collect();
        let ds = dataset(connections, &[]);
        let classes = classify_peers(&ds);
        assert_eq!(classes.count(ConnectionClass::OneTime), 40);
        assert_eq!(classes.count(ConnectionClass::Heavy), 0);
        assert_eq!(classes.count(ConnectionClass::Normal), 0);
        assert_eq!(classes.count(ConnectionClass::Light), 0);
        assert_eq!(
            classes.core_size(),
            0,
            "one-time users never reach the core"
        );
        let estimate = network_size_estimate(&ds);
        assert_eq!(estimate.by_pids, 40);
        assert_eq!(estimate.by_ip_groups, 40);
        assert_eq!(estimate.core_lower_bound, 0);
    }

    #[test]
    fn single_ip_population_collapses_to_one_group() {
        // NAT extreme: many distinct peers, every connection from one IP.
        let connections: Vec<ConnectionRecord> = (0..25u64)
            .map(|i| conn(i, i, 777, 0, 3 * 3600 + i))
            .collect();
        let ds = dataset(connections, &[]);
        let grouping = ip_grouping(&ds);
        assert_eq!(grouping.connected_pids, 25);
        assert_eq!(grouping.distinct_ips, 1);
        assert_eq!(grouping.groups, 1, "one shared IP is one group");
        assert_eq!(grouping.largest_group, 25);
        assert_eq!(grouping.singleton_groups, 0);
        assert_eq!(grouping.unique_ip_pids, 0);
        assert_eq!(grouping.top_groups, vec![25]);
        // §V-A under-counts by 24 participants here while §V-B sees all 25
        // normal-class peers — the tension the robustness report measures.
        let estimate = network_size_estimate(&ds);
        assert_eq!(estimate.by_ip_groups, 1);
        assert_eq!(estimate.core_lower_bound, 25);
    }

    #[test]
    fn estimates_are_ordered_pids_ge_groups_ge_core() {
        let mut connections = Vec::new();
        for i in 0..50u64 {
            // 25 heavy peers, 25 one-time peers; 5 share one IP.
            let ip = if i < 5 { 1000 } else { 2000 + i as u32 };
            let closed = if i < 25 { 30 * 3600 } else { 500 };
            connections.push(conn(i, i, ip, 0, closed));
        }
        let mut ds = dataset(connections, &[]);
        ds.snapshots.push(SnapshotRecord {
            at: SimTime::from_hours(1),
            open_connections: 25,
            known_pids: 50,
            connected_pids: 25,
        });
        let estimate = network_size_estimate(&ds);
        assert!(estimate.by_pids >= estimate.by_ip_groups);
        assert!(estimate.by_ip_groups >= estimate.core_lower_bound);
        assert_eq!(estimate.max_simultaneous_connections, 25);
        assert_eq!(estimate.by_pids, 50);
        assert_eq!(estimate.by_ip_groups, 46);
        assert_eq!(estimate.core_lower_bound, 25);
    }
}
