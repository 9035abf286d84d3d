//! Connection-churn statistics (Table II).
//!
//! For every measurement client and period the paper reports, over all
//! recorded connections:
//!
//! * type **"All"** — the number of connections and the mean/median of their
//!   durations (each connection contributes one value), and
//! * type **"Peer"** — the number of peers with connection information and
//!   the mean/median of the *per-peer average* connection duration (each
//!   peer contributes exactly one value).
//!
//! It additionally observes that inbound connections vastly outnumber and
//! outlive outbound ones — evidence that closes are dominated by connection
//! trimming. [`direction_stats`] reproduces that breakdown.
//!
//! Each makes one pass over the dataset's connections and computes its
//! statistics with the code the streaming path runs on a `StreamSummary`,
//! so each statistic has one implementation. [`connection_stats`] reads the
//! dataset fold (`stream::DatasetFold`: per-peer aggregates behind a hash
//! index and every duration in `u64` milliseconds); [`direction_stats`]
//! needs no per-peer state and collects only each direction's durations
//! and the close counts. Durations are sorted once, as integers, into the
//! run-length multisets a streaming pass keeps.

use crate::stream::{connection_stats_from, direction_stats_from, run_lengths, DatasetFold};
use measurement::{DirectionAgg, MeasurementDataset};
use p2pmodel::CloseReason;

/// One row pair of Table II for a single client and period.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionStats {
    /// The client the statistics describe.
    pub client: String,
    /// Type "All": number of connections.
    pub all_sum: usize,
    /// Type "All": mean connection duration in seconds.
    pub all_avg_secs: f64,
    /// Type "All": median connection duration in seconds.
    pub all_median_secs: f64,
    /// Type "Peer": number of peers with at least one connection.
    pub peer_sum: usize,
    /// Type "Peer": mean of per-peer average durations in seconds.
    pub peer_avg_secs: f64,
    /// Type "Peer": median of per-peer average durations in seconds.
    pub peer_median_secs: f64,
}

/// Inbound/outbound breakdown of the same connections.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionStats {
    /// Number of inbound connections.
    pub inbound: usize,
    /// Number of outbound connections.
    pub outbound: usize,
    /// Mean duration of inbound connections in seconds.
    pub inbound_avg_secs: f64,
    /// Mean duration of outbound connections in seconds.
    pub outbound_avg_secs: f64,
    /// Fraction of closed connections whose ground-truth close reason is
    /// connection trimming (local or remote). `None` if the data set carries
    /// no ground-truth reasons. The paper can only *infer* this; the
    /// simulator lets us verify the inference.
    pub trimmed_fraction: Option<f64>,
}

/// Computes the Table II statistics for one data set.
///
/// Only peers with recorded connection information contribute, exactly as in
/// the paper ("in the statistic, we consider only peers with recorded
/// connection information").
pub fn connection_stats(dataset: &MeasurementDataset) -> ConnectionStats {
    let fold = DatasetFold::new(dataset);
    connection_stats_from(
        &dataset.client,
        &run_lengths(fold.durations_ms),
        fold.peers.iter().map(|(_, agg)| agg),
    )
}

/// Computes the inbound/outbound breakdown for one data set.
pub fn direction_stats(dataset: &MeasurementDataset) -> DirectionStats {
    let (mut inbound_ms, mut outbound_ms) = (Vec::new(), Vec::new());
    let (mut closes_with_reason, mut trimmed_closes) = (0, 0);
    for conn in &dataset.connections {
        let ms = conn.duration().as_millis();
        if conn.is_inbound() {
            inbound_ms.push(ms);
        } else {
            outbound_ms.push(ms);
        }
        if let Some(reason) = conn.close_reason {
            closes_with_reason += 1;
            if matches!(
                reason,
                CloseReason::TrimmedLocal | CloseReason::TrimmedRemote
            ) {
                trimmed_closes += 1;
            }
        }
    }
    let direction = |ms: Vec<u64>| DirectionAgg {
        count: ms.len() as u64,
        dur_hist: run_lengths(ms),
    };
    direction_stats_from(
        &direction(inbound_ms),
        &direction(outbound_ms),
        closes_with_reason,
        trimmed_closes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::ConnectionRecord;
    use p2pmodel::{ConnectionId, Direction, IpAddress, Multiaddr, PeerId, Transport};
    use simclock::SimTime;

    fn conn(
        id: u64,
        peer: u64,
        opened: u64,
        closed: u64,
        inbound: bool,
        reason: Option<CloseReason>,
    ) -> ConnectionRecord {
        ConnectionRecord {
            id: ConnectionId(id),
            peer: PeerId::derived(peer),
            direction: if inbound {
                Direction::Inbound
            } else {
                Direction::Outbound
            },
            remote_addr: Multiaddr::new(IpAddress::V4(peer as u32), Transport::Tcp, 4001),
            opened_at: SimTime::from_secs(opened),
            closed_at: SimTime::from_secs(closed),
            open_at_end: false,
            close_reason: reason,
        }
    }

    fn dataset(connections: Vec<ConnectionRecord>) -> MeasurementDataset {
        let mut ds =
            MeasurementDataset::new("go-ipfs", true, SimTime::ZERO, SimTime::from_hours(24));
        ds.connections = connections;
        ds
    }

    #[test]
    fn all_and_peer_statistics_follow_the_papers_definitions() {
        // Peer A: two connections of 100 s and 300 s (average 200 s).
        // Peer B: one connection of 600 s.
        let ds = dataset(vec![
            conn(1, 1, 0, 100, true, None),
            conn(2, 1, 200, 500, true, None),
            conn(3, 2, 0, 600, true, None),
        ]);
        let stats = connection_stats(&ds);
        assert_eq!(stats.all_sum, 3);
        assert!((stats.all_avg_secs - (100.0 + 300.0 + 600.0) / 3.0).abs() < 1e-9);
        assert_eq!(stats.all_median_secs, 300.0);
        assert_eq!(stats.peer_sum, 2);
        assert!((stats.peer_avg_secs - 400.0).abs() < 1e-9);
        assert_eq!(stats.peer_median_secs, 400.0);
        assert_eq!(stats.client, "go-ipfs");
    }

    #[test]
    fn empty_dataset_yields_zeroes() {
        let stats = connection_stats(&dataset(Vec::new()));
        assert_eq!(stats.all_sum, 0);
        assert_eq!(stats.peer_sum, 0);
        assert_eq!(stats.all_avg_secs, 0.0);
        let dirs = direction_stats(&dataset(Vec::new()));
        assert_eq!(dirs.inbound, 0);
        assert_eq!(dirs.outbound, 0);
        assert_eq!(dirs.trimmed_fraction, None);
    }

    #[test]
    fn peer_average_differs_from_all_average_with_skewed_peers() {
        // One crawler-like peer with many short connections pulls the "All"
        // average down but contributes only one (small) value to "Peer".
        let mut connections = vec![conn(0, 99, 0, 100_000, true, None)];
        for i in 1..=50 {
            connections.push(conn(i, 1, i * 10, i * 10 + 10, true, None));
        }
        let stats = connection_stats(&dataset(connections));
        assert!(stats.peer_avg_secs > stats.all_avg_secs);
        assert_eq!(stats.peer_sum, 2);
        assert_eq!(stats.all_sum, 51);
    }

    #[test]
    fn direction_breakdown_counts_and_averages() {
        let ds = dataset(vec![
            conn(1, 1, 0, 300, true, Some(CloseReason::TrimmedRemote)),
            conn(2, 2, 0, 100, true, Some(CloseReason::PeerLeft)),
            conn(3, 3, 0, 50, false, Some(CloseReason::TrimmedLocal)),
        ]);
        let dirs = direction_stats(&ds);
        assert_eq!(dirs.inbound, 2);
        assert_eq!(dirs.outbound, 1);
        assert_eq!(dirs.inbound_avg_secs, 200.0);
        assert_eq!(dirs.outbound_avg_secs, 50.0);
        let trimmed = dirs.trimmed_fraction.unwrap();
        assert!((trimmed - 2.0 / 3.0).abs() < 1e-9);
    }
}
