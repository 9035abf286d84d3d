//! The batch estimators against the per-connection reference they replaced.
//!
//! `analysis::{churn, cdf, netsize, robustness}` fold a dataset's
//! connections once (per-peer aggregates behind a hash index, `u64`
//! millisecond duration multisets, close counts) and compute each statistic
//! with the code the streaming path runs on a `StreamSummary`. The
//! [`reference`] module keeps the per-connection `BTreeMap` loops those
//! functions ran before, verbatim apart from the crate-private helpers it
//! cannot call: `ConnectionClass::classify` and `EstimatorError::new` are
//! copied, and `ConnectionClass::label` is the class's `Display`. On
//! seeded, hand-built datasets, all seven estimators and `robustness_row`
//! must render the same `Debug` bytes — float bits included — from both.
//!
//! The datasets cover what the fold must get right: the empty dataset, peers
//! without connections, connections whose peer has no record, zero and tied
//! durations, durations on the Table IV thresholds, one peer on several IPs
//! and several peers on one IP, both directions, and closes without a
//! reason, with each trimmed reason and with the other reasons.

use ipfs_passive_measurement::prelude::*;
use measurement::{ConnectionRecord, PeerRecord, SnapshotRecord};
use p2pmodel::{CloseReason, ConnectionId, Direction, IpAddress, Transport};

/// The per-connection estimators as `analysis` ran them before the dataset
/// fold: every connection walks `PeerId`-keyed B-trees.
mod reference {
    use analysis::{
        ConnectionClass, ConnectionStats, DirectionStats, DurationCdfs, EstimatorError, IpGrouping,
        NetworkSizeEstimate, PeerClassification, RobustnessRow,
    };
    use measurement::MeasurementDataset;
    use p2pmodel::{CloseReason, IpAddress, PeerId};
    use population::Scenario;
    use simclock::{Cdf, SimDuration, Summary};
    use std::collections::BTreeMap;

    /// `ConnectionClass::classify` (crate-private): the Table IV thresholds.
    fn classify(max_duration: SimDuration, connection_count: usize) -> ConnectionClass {
        if max_duration > SimDuration::from_hours(24) {
            ConnectionClass::Heavy
        } else if max_duration > SimDuration::from_hours(2) {
            ConnectionClass::Normal
        } else if connection_count >= 3 {
            ConnectionClass::Light
        } else {
            ConnectionClass::OneTime
        }
    }

    /// `EstimatorError::new` (crate-private).
    fn estimator_error(estimate: usize, truth: usize) -> EstimatorError {
        let signed_rel_error = if truth == 0 {
            if estimate == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (estimate as f64 - truth as f64) / truth as f64
        };
        EstimatorError {
            estimate,
            truth,
            signed_rel_error,
        }
    }

    pub fn connection_stats(dataset: &MeasurementDataset) -> ConnectionStats {
        let durations: Vec<f64> = dataset
            .connections
            .iter()
            .map(|c| c.duration_secs())
            .collect();
        let all = Summary::from_samples(&durations);

        let mut per_peer: BTreeMap<PeerId, Vec<f64>> = BTreeMap::new();
        for conn in &dataset.connections {
            per_peer
                .entry(conn.peer)
                .or_default()
                .push(conn.duration_secs());
        }
        let peer_averages: Vec<f64> = per_peer
            .values()
            .map(|durations| durations.iter().sum::<f64>() / durations.len() as f64)
            .collect();
        let peer = Summary::from_samples(&peer_averages);

        ConnectionStats {
            client: dataset.client.clone(),
            all_sum: all.count,
            all_avg_secs: all.mean,
            all_median_secs: all.median,
            peer_sum: peer.count,
            peer_avg_secs: peer.mean,
            peer_median_secs: peer.median,
        }
    }

    pub fn direction_stats(dataset: &MeasurementDataset) -> DirectionStats {
        let inbound: Vec<f64> = dataset
            .connections
            .iter()
            .filter(|c| c.is_inbound())
            .map(|c| c.duration_secs())
            .collect();
        let outbound: Vec<f64> = dataset
            .connections
            .iter()
            .filter(|c| !c.is_inbound())
            .map(|c| c.duration_secs())
            .collect();

        let with_reason = dataset
            .connections
            .iter()
            .filter(|c| c.close_reason.is_some())
            .count();
        let trimmed = dataset
            .connections
            .iter()
            .filter(|c| {
                matches!(
                    c.close_reason,
                    Some(CloseReason::TrimmedLocal) | Some(CloseReason::TrimmedRemote)
                )
            })
            .count();
        let trimmed_fraction = if with_reason == 0 {
            None
        } else {
            Some(trimmed as f64 / with_reason as f64)
        };

        DirectionStats {
            inbound: inbound.len(),
            outbound: outbound.len(),
            inbound_avg_secs: Summary::from_samples(&inbound).mean,
            outbound_avg_secs: Summary::from_samples(&outbound).mean,
            trimmed_fraction,
        }
    }

    pub fn max_duration_cdf(dataset: &MeasurementDataset, bucket_secs: f64) -> DurationCdfs {
        let mut max_per_peer: BTreeMap<PeerId, f64> = BTreeMap::new();
        for conn in &dataset.connections {
            let duration = conn.duration_secs();
            let entry = max_per_peer.entry(conn.peer).or_insert(0.0);
            if duration > *entry {
                *entry = duration;
            }
        }
        let bucket = if bucket_secs > 0.0 { bucket_secs } else { 1.0 };
        let round = |secs: f64| (secs / bucket).ceil() * bucket;

        let mut all = Vec::new();
        let mut servers = Vec::new();
        let mut clients = Vec::new();
        for (peer, max_duration) in &max_per_peer {
            let value = round(*max_duration);
            all.push(value);
            let is_server = dataset
                .peers
                .get(peer)
                .map(|r| r.ever_dht_server)
                .unwrap_or(false);
            if is_server {
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

    pub fn connection_count_cdf(dataset: &MeasurementDataset) -> Cdf {
        let mut counts: BTreeMap<PeerId, usize> = BTreeMap::new();
        for conn in &dataset.connections {
            *counts.entry(conn.peer).or_insert(0) += 1;
        }
        let samples: Vec<f64> = counts.values().map(|c| *c as f64).collect();
        Cdf::from_samples(&samples)
    }

    pub fn ip_grouping(dataset: &MeasurementDataset) -> IpGrouping {
        let mut first_ip: BTreeMap<PeerId, IpAddress> = BTreeMap::new();
        let mut all_ips: std::collections::BTreeSet<IpAddress> = std::collections::BTreeSet::new();
        for conn in &dataset.connections {
            let ip = conn.remote_addr.ip();
            all_ips.insert(ip);
            first_ip.entry(conn.peer).or_insert(ip);
        }
        let mut groups: BTreeMap<IpAddress, usize> = BTreeMap::new();
        for ip in first_ip.values() {
            *groups.entry(*ip).or_insert(0) += 1;
        }
        let mut sizes: Vec<usize> = groups.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));

        IpGrouping {
            total_pids: dataset.pid_count(),
            connected_pids: first_ip.len(),
            distinct_ips: all_ips.len(),
            groups: groups.len(),
            singleton_groups: sizes.iter().filter(|&&s| s == 1).count(),
            unique_ip_pids: sizes.iter().filter(|&&s| s == 1).count(),
            largest_group: sizes.first().copied().unwrap_or(0),
            top_groups: sizes.into_iter().take(10).collect(),
        }
    }

    pub fn classify_peers(dataset: &MeasurementDataset) -> PeerClassification {
        let mut max_duration: BTreeMap<PeerId, SimDuration> = BTreeMap::new();
        let mut counts: BTreeMap<PeerId, usize> = BTreeMap::new();
        for conn in &dataset.connections {
            let duration = conn.duration();
            let entry = max_duration.entry(conn.peer).or_insert(SimDuration::ZERO);
            if duration > *entry {
                *entry = duration;
            }
            *counts.entry(conn.peer).or_insert(0) += 1;
        }
        let mut per_peer = BTreeMap::new();
        let mut totals: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (peer, duration) in &max_duration {
            let class = classify(*duration, counts[peer]);
            per_peer.insert(*peer, class);
            let is_server = dataset
                .peers
                .get(peer)
                .map(|r| r.ever_dht_server)
                .unwrap_or(false);
            let entry = totals.entry(class.to_string()).or_insert((0, 0));
            entry.0 += 1;
            if is_server {
                entry.1 += 1;
            }
        }
        let rows = ConnectionClass::ALL
            .iter()
            .map(|class| {
                let (total, servers) = totals.get(&class.to_string()).copied().unwrap_or((0, 0));
                (class.to_string(), total, servers)
            })
            .collect();
        PeerClassification { rows, per_peer }
    }

    pub fn network_size_estimate(dataset: &MeasurementDataset) -> NetworkSizeEstimate {
        let grouping = ip_grouping(dataset);
        let classes = classify_peers(dataset);
        let max_simultaneous = dataset
            .snapshots
            .iter()
            .map(|s| s.open_connections)
            .max()
            .unwrap_or(0);
        NetworkSizeEstimate {
            by_pids: dataset.pid_count(),
            by_ip_groups: grouping.groups,
            core_lower_bound: classes.core_size(),
            max_simultaneous_connections: max_simultaneous,
        }
    }

    pub fn robustness_row(
        dataset: &MeasurementDataset,
        scenario: &Scenario,
        truth_pids: usize,
        truth_participants: usize,
    ) -> RobustnessRow {
        let estimate = network_size_estimate(dataset);
        let classification = classify_peers(dataset);
        RobustnessRow {
            scenario: scenario.churn.label().to_string(),
            period: scenario.period.label().to_string(),
            scale: scenario.scale,
            seed: scenario.seed,
            truth_pids,
            truth_participants,
            observed_pids: dataset.pid_count(),
            by_pids: estimator_error(estimate.by_pids, truth_participants),
            by_ip_groups: estimator_error(estimate.by_ip_groups, truth_participants),
            core_lower_bound: estimator_error(estimate.core_lower_bound, truth_participants),
            classes: ConnectionClass::ALL
                .iter()
                .map(|class| (class.to_string(), classification.count(*class)))
                .collect(),
        }
    }
}

/// Runs `cases` deterministic random configurations through `check`.
fn for_cases(label: &str, cases: u64, mut check: impl FnMut(&mut SimRng)) {
    // Derive one generator per property so adding a property does not shift
    // the sample of the others.
    let mut rng = SimRng::seed_from(simclock::rng::fnv1a(label));
    for _ in 0..cases {
        check(&mut rng);
    }
}

/// Which of the dataset shapes the fold must handle the sample produced.
#[derive(Debug, Default)]
struct Coverage {
    empty: bool,
    peer_without_connections: bool,
    connection_without_peer_record: bool,
    zero_duration: bool,
    tied_durations: bool,
    on_a_class_threshold: bool,
    peer_on_several_ips: bool,
    peers_sharing_an_ip: bool,
    inbound: bool,
    outbound: bool,
    close_without_reason: bool,
    trimmed_local: bool,
    trimmed_remote: bool,
    other_close_reason: bool,
}

impl Coverage {
    fn record(&mut self, dataset: &MeasurementDataset) {
        use std::collections::{BTreeMap, BTreeSet};
        let conns = &dataset.connections;
        self.empty |= dataset.peers.is_empty() && conns.is_empty();
        let connected: BTreeSet<PeerId> = conns.iter().map(|c| c.peer).collect();
        self.peer_without_connections |= dataset.peers.keys().any(|p| !connected.contains(p));
        self.connection_without_peer_record |=
            conns.iter().any(|c| !dataset.peers.contains_key(&c.peer));
        self.zero_duration |= conns.iter().any(|c| c.duration() == SimDuration::ZERO);
        let mut durations: Vec<SimDuration> = conns.iter().map(|c| c.duration()).collect();
        durations.sort_unstable();
        self.tied_durations |= durations.windows(2).any(|w| w[0] == w[1]);
        self.on_a_class_threshold |= conns.iter().any(|c| {
            [SimDuration::from_hours(2), SimDuration::from_hours(24)].contains(&c.duration())
        });
        let mut ips_of: BTreeMap<PeerId, BTreeSet<IpAddress>> = BTreeMap::new();
        let mut peers_on: BTreeMap<IpAddress, BTreeSet<PeerId>> = BTreeMap::new();
        for c in conns {
            ips_of.entry(c.peer).or_default().insert(c.remote_addr.ip());
            peers_on
                .entry(c.remote_addr.ip())
                .or_default()
                .insert(c.peer);
        }
        self.peer_on_several_ips |= ips_of.values().any(|ips| ips.len() > 1);
        self.peers_sharing_an_ip |= peers_on.values().any(|peers| peers.len() > 1);
        self.inbound |= conns.iter().any(|c| c.is_inbound());
        self.outbound |= conns.iter().any(|c| !c.is_inbound());
        for c in conns {
            match c.close_reason {
                None => self.close_without_reason = true,
                Some(CloseReason::TrimmedLocal) => self.trimmed_local = true,
                Some(CloseReason::TrimmedRemote) => self.trimmed_remote = true,
                Some(CloseReason::PeerLeft | CloseReason::MeasurementEnd) => {
                    self.other_close_reason = true
                }
            }
        }
    }

    fn assert_complete(&self) {
        let debug = format!("{self:?}");
        assert!(
            !debug.contains("false"),
            "a dataset shape never occurred: {debug}"
        );
    }
}

/// A hand-built dataset: up to 30 peers, some without a record and some
/// recorded without connections, on a pool of IPs smaller than the peers,
/// with durations drawn from zero, a few tied values, the Table IV
/// thresholds and a wide random range.
fn random_dataset(rng: &mut SimRng) -> MeasurementDataset {
    let end = SimTime::from_days(3);
    let mut dataset = MeasurementDataset::new("go-ipfs", rng.chance(0.5), SimTime::ZERO, end);
    let peer_count = rng.uniform_u64(0, 31);
    let first_label = rng.uniform_u64(0, 1_000_000);
    let peers: Vec<PeerId> = (0..peer_count)
        .map(|i| PeerId::derived(first_label + i))
        .collect();
    for &peer in &peers {
        if rng.chance(0.8) {
            let mut record = PeerRecord::new(peer, SimTime::ZERO);
            record.ever_dht_server = rng.chance(0.5);
            dataset.peers.insert(peer, record);
        }
    }
    if peers.is_empty() {
        return dataset;
    }
    let ip_pool = rng.uniform_u64(1, peer_count + 2) as u32;
    let home: Vec<u32> = peers
        .iter()
        .map(|_| rng.index(ip_pool as usize) as u32)
        .collect();
    let thresholds = [
        0,
        30_000,
        60_000,
        2 * 3_600_000,
        2 * 3_600_000 + 1,
        24 * 3_600_000,
        24 * 3_600_000 + 1,
    ];
    let connections = rng.uniform_u64(0, 120);
    for id in 0..connections {
        // Skew towards a few busy peers, so some have many connections.
        let owner = rng.index(peers.len()).min(rng.index(peers.len()));
        let ip = if rng.chance(0.8) {
            home[owner]
        } else {
            rng.index(ip_pool as usize) as u32
        };
        let duration_ms = if rng.chance(0.4) {
            *rng.choose(&thresholds)
        } else {
            rng.uniform_u64(0, 30 * 3_600_000)
        };
        let opened = SimTime::from_millis(rng.uniform_u64(0, end.as_millis() - duration_ms));
        let close_reason = match rng.index(6) {
            0 | 1 => None,
            2 => Some(CloseReason::TrimmedLocal),
            3 => Some(CloseReason::TrimmedRemote),
            4 => Some(CloseReason::PeerLeft),
            _ => Some(CloseReason::MeasurementEnd),
        };
        dataset.connections.push(ConnectionRecord {
            id: ConnectionId(id),
            peer: peers[owner],
            direction: if rng.chance(0.6) {
                Direction::Inbound
            } else {
                Direction::Outbound
            },
            remote_addr: Multiaddr::new(IpAddress::V4(0x0A00_0000 + ip), Transport::Tcp, 4001),
            opened_at: opened,
            closed_at: opened + SimDuration::from_millis(duration_ms),
            open_at_end: close_reason == Some(CloseReason::MeasurementEnd),
            close_reason,
        });
    }
    for minute in 0..rng.uniform_u64(0, 4) {
        dataset.snapshots.push(SnapshotRecord {
            at: SimTime::from_secs(60 * minute),
            open_connections: rng.index(50),
            known_pids: dataset.peers.len(),
            connected_pids: 0,
        });
    }
    dataset
}

/// Asserts that two values render the same `Debug` bytes.
fn assert_same_debug(fold: impl std::fmt::Debug, reference: impl std::fmt::Debug, what: &str) {
    assert_eq!(
        format!("{fold:?}"),
        format!("{reference:?}"),
        "{what}: the fold and the per-connection reference disagree"
    );
}

/// Checks all seven estimators and `robustness_row` on one dataset; `rng`
/// draws the robustness row's scenario and truth values.
fn assert_fold_matches_reference(ds: &MeasurementDataset, rng: &mut SimRng) {
    assert_same_debug(
        connection_stats(ds),
        reference::connection_stats(ds),
        "Table II",
    );
    assert_same_debug(
        direction_stats(ds),
        reference::direction_stats(ds),
        "directions",
    );
    for bucket in [30.0, 0.0] {
        assert_same_debug(
            max_duration_cdf(ds, bucket),
            reference::max_duration_cdf(ds, bucket),
            "Fig. 7 durations",
        );
    }
    assert_same_debug(
        connection_count_cdf(ds),
        reference::connection_count_cdf(ds),
        "Fig. 7 counts",
    );
    assert_same_debug(ip_grouping(ds), reference::ip_grouping(ds), "§V-A grouping");
    assert_same_debug(
        classify_peers(ds),
        reference::classify_peers(ds),
        "Table IV",
    );
    assert_same_debug(
        network_size_estimate(ds),
        reference::network_size_estimate(ds),
        "§V estimate",
    );
    let scenario = Scenario::new(MeasurementPeriod::P4)
        .with_scale(0.01)
        .with_seed(rng.uniform_u64(0, 100));
    let truth_pids = rng.uniform_u64(0, 60) as usize;
    let truth_participants = rng.uniform_u64(0, 40) as usize;
    assert_same_debug(
        robustness_row(ds, &scenario, truth_pids, truth_participants),
        reference::robustness_row(ds, &scenario, truth_pids, truth_participants),
        "robustness row",
    );
}

/// Every estimator on the dataset fold renders exactly what the
/// per-connection reference renders: on the empty dataset, then on every
/// sampled one.
#[test]
fn fold_estimators_match_the_per_connection_reference() {
    let mut coverage = Coverage::default();
    let empty = MeasurementDataset::new("go-ipfs", true, SimTime::ZERO, SimTime::from_days(3));
    coverage.record(&empty);
    assert_fold_matches_reference(&empty, &mut SimRng::seed_from(0));
    for_cases(
        "fold_estimators_match_the_per_connection_reference",
        400,
        |rng| {
            let dataset = random_dataset(rng);
            coverage.record(&dataset);
            assert_fold_matches_reference(&dataset, rng);
        },
    );
    coverage.assert_complete();
}
