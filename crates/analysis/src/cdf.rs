//! Fig. 7: CDFs of connection behaviour per PID.
//!
//! The left plot of Fig. 7 is the CDF of the **maximum** connection duration
//! per PID (grouped into 30 s intervals), split into all PIDs, DHT-Servers
//! and DHT-Clients; the right plot is the CDF of the **number of
//! connections** per PID. The paper reads off that ~53 % of PIDs stay below
//! one hour, ~16 % above 24 h, ~50 % have a single connection and only ~10 %
//! have more than 15.
//!
//! Both CDFs read the per-peer entries of one fold of the dataset's
//! connections (`stream::DatasetFold`).

use crate::stream::DatasetFold;
use measurement::MeasurementDataset;
use simclock::Cdf;

/// The three duration CDFs of the left plot of Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationCdfs {
    /// All PIDs with connection information.
    pub all: Cdf,
    /// PIDs that (ever) announced the DHT-Server role.
    pub dht_server: Cdf,
    /// PIDs that never announced the DHT-Server role.
    pub dht_client: Cdf,
}

impl DurationCdfs {
    /// Fraction of all PIDs whose maximum connection duration is at most the
    /// given number of seconds.
    pub fn fraction_below(&self, secs: f64) -> f64 {
        self.all.fraction_at_or_below(secs)
    }
}

/// Computes the per-PID maximum connection duration CDFs (Fig. 7, left),
/// with durations grouped into `bucket_secs` intervals (30 s in the paper).
pub fn max_duration_cdf(dataset: &MeasurementDataset, bucket_secs: f64) -> DurationCdfs {
    let bucket = if bucket_secs > 0.0 { bucket_secs } else { 1.0 };
    let round = |secs: f64| (secs / bucket).ceil() * bucket;

    let mut all = Vec::new();
    let mut servers = Vec::new();
    let mut clients = Vec::new();
    for (_, agg) in &DatasetFold::new(dataset).peers {
        let value = round(agg.max_duration.as_secs_f64());
        all.push(value);
        if agg.ever_dht_server {
            servers.push(value);
        } else {
            clients.push(value);
        }
    }
    DurationCdfs {
        all: Cdf::from_samples(&all),
        dht_server: Cdf::from_samples(&servers),
        dht_client: Cdf::from_samples(&clients),
    }
}

/// Computes the CDF of the number of connections per PID (Fig. 7, right).
pub fn connection_count_cdf(dataset: &MeasurementDataset) -> Cdf {
    let samples: Vec<f64> = DatasetFold::new(dataset)
        .peers
        .iter()
        .map(|(_, agg)| agg.connections as f64)
        .collect();
    Cdf::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::{ConnectionRecord, PeerRecord};
    use p2pmodel::{ConnectionId, Direction, IpAddress, Multiaddr, PeerId, Transport};
    use simclock::SimTime;

    fn conn(id: u64, peer: u64, opened: u64, closed: u64) -> ConnectionRecord {
        ConnectionRecord {
            id: ConnectionId(id),
            peer: PeerId::derived(peer),
            direction: Direction::Inbound,
            remote_addr: Multiaddr::new(IpAddress::V4(peer as u32), Transport::Tcp, 4001),
            opened_at: SimTime::from_secs(opened),
            closed_at: SimTime::from_secs(closed),
            open_at_end: false,
            close_reason: None,
        }
    }

    fn dataset() -> MeasurementDataset {
        let mut ds = MeasurementDataset::new("go-ipfs", true, SimTime::ZERO, SimTime::from_days(3));
        // Peer 1 (server): max duration 90 000 s (> 24 h), 2 connections.
        // Peer 2 (client): max duration 45 s, 1 connection.
        // Peer 3 (client): max duration 7 000 s, 3 connections.
        let mut server = PeerRecord::new(PeerId::derived(1), SimTime::ZERO);
        server.ever_dht_server = true;
        ds.peers.insert(server.peer, server);
        ds.peers.insert(
            PeerId::derived(2),
            PeerRecord::new(PeerId::derived(2), SimTime::ZERO),
        );
        ds.peers.insert(
            PeerId::derived(3),
            PeerRecord::new(PeerId::derived(3), SimTime::ZERO),
        );
        ds.connections = vec![
            conn(1, 1, 0, 90_000),
            conn(2, 1, 100_000, 100_010),
            conn(3, 2, 0, 45),
            conn(4, 3, 0, 7_000),
            conn(5, 3, 8_000, 8_020),
            conn(6, 3, 9_000, 9_030),
        ];
        ds
    }

    #[test]
    fn duration_cdf_splits_by_role() {
        let cdfs = max_duration_cdf(&dataset(), 30.0);
        assert_eq!(cdfs.all.len(), 3);
        assert_eq!(cdfs.dht_server.len(), 1);
        assert_eq!(cdfs.dht_client.len(), 2);
        // One of three peers stays above 24 h.
        let below_day = cdfs.fraction_below(24.0 * 3600.0);
        assert!((below_day - 2.0 / 3.0).abs() < 1e-9);
        // The 45 s client rounds up to the 60 s bucket.
        assert_eq!(cdfs.dht_client.fraction_at_or_below(59.0), 0.0);
        assert_eq!(cdfs.dht_client.fraction_at_or_below(60.0), 0.5);
        assert_eq!(cdfs.dht_client.fraction_at_or_below(30.0), 0.0);
    }

    #[test]
    fn duration_cdf_is_monotone() {
        let cdfs = max_duration_cdf(&dataset(), 30.0);
        let mut prev = 0.0;
        for x in [10.0, 100.0, 1000.0, 10_000.0, 100_000.0, 1_000_000.0] {
            let f = cdfs.fraction_below(x);
            assert!(f >= prev);
            prev = f;
        }
        assert_eq!(prev, 1.0);
    }

    #[test]
    fn connection_count_cdf_counts_per_pid() {
        let cdf = connection_count_cdf(&dataset());
        assert_eq!(cdf.len(), 3);
        // Peer 2 has exactly one connection → a third of PIDs at 1.
        assert!((cdf.fraction_at_or_below(1.0) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(cdf.fraction_at_or_below(3.0), 1.0);
        assert!(
            cdf.fraction_at_or_below(2.0) < 1.0,
            "one PID has 3 connections"
        );
    }

    #[test]
    fn empty_dataset_produces_empty_cdfs() {
        let ds = MeasurementDataset::new("x", true, SimTime::ZERO, SimTime::ZERO);
        let cdfs = max_duration_cdf(&ds, 30.0);
        assert!(cdfs.all.is_empty());
        assert!(connection_count_cdf(&ds).is_empty());
    }

    #[test]
    fn zero_bucket_defaults_to_one_second() {
        let cdfs = max_duration_cdf(&dataset(), 0.0);
        assert_eq!(cdfs.all.len(), 3);
        assert_eq!(cdfs.dht_client.fraction_at_or_below(45.0), 0.5);
    }
}
