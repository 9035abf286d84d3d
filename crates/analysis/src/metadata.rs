//! Meta-data analyses: Fig. 3, Fig. 4, Table III, role switches, anomalies.
//!
//! Everything in Section IV-B of the paper is a function of the identify
//! metadata the passive clients record: the agent-version histogram (Fig. 3),
//! the supported-protocol histogram (Fig. 4), the go-ipfs version-change
//! classification (Table III), the kad/autonat announcement flapping counts
//! and the anomalies (go-ipfs agents without Bitswap, storm markers, a
//! go-ethereum node).

use measurement::MeasurementDataset;
use p2pmodel::agent::{AgentVersion, VersionChangeKind};
use p2pmodel::protocol::well_known;
use simclock::Histogram;

/// Fig. 3: occurrences of agent strings, grouped the way the figure groups
/// them (go-ipfs by version number, agents with ≤ `other_threshold`
/// occurrences as "other").
pub fn agent_histogram(dataset: &MeasurementDataset, other_threshold: u64) -> Histogram {
    let mut histogram = Histogram::new();
    for record in dataset.peers.values() {
        let agent = AgentVersion::parse(&record.agent);
        histogram.add(agent.display_group());
    }
    histogram.group_small(other_threshold, "other")
}

/// Fig. 4: occurrences of supported protocols (protocols with ≤
/// `other_threshold` supporters as "other").
pub fn protocol_histogram(dataset: &MeasurementDataset, other_threshold: u64) -> Histogram {
    let mut histogram = Histogram::new();
    for record in dataset.peers.values() {
        for protocol in &record.protocols {
            histogram.add(protocol.clone());
        }
    }
    histogram.group_small(other_threshold, "other")
}

/// The agent-family breakdown the paper reports alongside Fig. 3 (go-ipfs /
/// hydra / crawler / other / missing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentBreakdown {
    /// PIDs announcing some go-ipfs version.
    pub go_ipfs: usize,
    /// PIDs announcing hydra-booster.
    pub hydra: usize,
    /// PIDs announcing a known crawler agent.
    pub crawler: usize,
    /// PIDs announcing any other agent.
    pub other: usize,
    /// PIDs for which no agent string was obtained.
    pub missing: usize,
    /// Number of distinct agent strings observed.
    pub distinct_agents: usize,
    /// Number of distinct supported protocols observed.
    pub distinct_protocols: usize,
    /// PIDs announcing the Kademlia protocol (DHT-Servers).
    pub kad_supporters: usize,
    /// PIDs announcing some Bitswap variant.
    pub bitswap_supporters: usize,
}

/// Computes the agent-family breakdown.
pub fn agent_breakdown(dataset: &MeasurementDataset) -> AgentBreakdown {
    let mut breakdown = AgentBreakdown::default();
    let mut agents = std::collections::BTreeSet::new();
    let mut protocols = std::collections::BTreeSet::new();
    for record in dataset.peers.values() {
        if !record.agent.is_empty() {
            agents.insert(record.agent.clone());
        }
        for protocol in &record.protocols {
            protocols.insert(protocol.clone());
        }
        if record.dht_server {
            breakdown.kad_supporters += 1;
        }
        if record.supports_bitswap() {
            breakdown.bitswap_supporters += 1;
        }
        let agent = AgentVersion::parse(&record.agent);
        match &agent {
            AgentVersion::GoIpfs { .. } => breakdown.go_ipfs += 1,
            AgentVersion::Missing => breakdown.missing += 1,
            AgentVersion::Other(s) => {
                let lower = s.to_ascii_lowercase();
                if lower.contains("hydra") {
                    breakdown.hydra += 1;
                } else if lower.contains("crawler") {
                    breakdown.crawler += 1;
                } else {
                    breakdown.other += 1;
                }
            }
        }
    }
    breakdown.distinct_agents = agents.len();
    breakdown.distinct_protocols = protocols.len();
    breakdown
}

/// Table III: classification of observed go-ipfs version changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionChangeTable {
    /// Version number increased.
    pub upgrades: usize,
    /// Version number decreased.
    pub downgrades: usize,
    /// Only the commit part (or flavor) changed.
    pub changes: usize,
    /// Transitions from a main build to a main build.
    pub main_to_main: usize,
    /// Transitions from a dirty build to a main build.
    pub dirty_to_main: usize,
    /// Transitions from a main build to a dirty build.
    pub main_to_dirty: usize,
    /// Transitions from a dirty build to a dirty build.
    pub dirty_to_dirty: usize,
    /// Number of distinct peers that changed their go-ipfs version.
    pub peers_with_changes: usize,
}

/// Computes Table III from the recorded agent-change histories.
pub fn version_changes(dataset: &MeasurementDataset) -> VersionChangeTable {
    let mut table = VersionChangeTable::default();
    for record in dataset.peers.values() {
        let mut changed = false;
        for change in &record.changes {
            if change.field != "agent" {
                continue;
            }
            let old = AgentVersion::parse(&change.old);
            let new = AgentVersion::parse(&change.new);
            let Some(classified) = old.classify_change(&new) else {
                continue;
            };
            changed = true;
            match classified.kind {
                VersionChangeKind::Upgrade => table.upgrades += 1,
                VersionChangeKind::Downgrade => table.downgrades += 1,
                VersionChangeKind::Change => table.changes += 1,
            }
            match classified.flavor_transition() {
                "main-main" => table.main_to_main += 1,
                "dirty-main" => table.dirty_to_main += 1,
                "main-dirty" => table.main_to_dirty += 1,
                _ => table.dirty_to_dirty += 1,
            }
        }
        if changed {
            table.peers_with_changes += 1;
        }
    }
    table
}

/// Role-switch statistics: how many peers toggled their kad / autonat
/// announcements and how often (Section IV-B).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoleSwitchStats {
    /// Peers that changed their protocol announcements at all.
    pub peers_with_protocol_changes: usize,
    /// Total number of protocol-announcement change events.
    pub protocol_change_events: usize,
    /// Peers that ever announced kad and currently do not (or vice versa), a
    /// proxy for DHT-Server ↔ DHT-Client switches observable at the end of
    /// the measurement.
    pub role_switchers: usize,
}

/// Computes the role-switch statistics.
pub fn role_switches(dataset: &MeasurementDataset) -> RoleSwitchStats {
    let mut stats = RoleSwitchStats::default();
    for record in dataset.peers.values() {
        let protocol_changes = record.change_count("protocols");
        if protocol_changes > 0 {
            stats.peers_with_protocol_changes += 1;
            stats.protocol_change_events += protocol_changes;
        }
        if record.ever_dht_server && !record.dht_server {
            stats.role_switchers += 1;
        }
    }
    stats
}

/// The anomalies called out in Section IV-B.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnomalyReport {
    /// go-ipfs agents that do not announce any Bitswap variant.
    pub go_ipfs_without_bitswap: usize,
    /// Of those, how many announce the storm `sbptp` protocol instead.
    pub go_ipfs_with_storm_markers: usize,
    /// Peers announcing any storm protocol at all.
    pub storm_protocol_peers: usize,
    /// Peers announcing a go-ethereum agent.
    pub ethereum_agents: usize,
    /// Peers announcing kad but nothing else that go-ipfs would announce
    /// (minimal DHT nodes such as hydra heads and crawlers).
    pub minimal_dht_nodes: usize,
}

/// Scans a data set for the paper's anomalies.
pub fn anomaly_report(dataset: &MeasurementDataset) -> AnomalyReport {
    let mut report = AnomalyReport::default();
    for record in dataset.peers.values() {
        let agent = AgentVersion::parse(&record.agent);
        let is_go_ipfs = agent.is_go_ipfs();
        if is_go_ipfs && !record.supports_bitswap() && !record.protocols.is_empty() {
            report.go_ipfs_without_bitswap += 1;
            if record.has_storm_markers() {
                report.go_ipfs_with_storm_markers += 1;
            }
        }
        if record.has_storm_markers() {
            report.storm_protocol_peers += 1;
        }
        if record.agent.to_ascii_lowercase().contains("ethereum") {
            report.ethereum_agents += 1;
        }
        if record.dht_server && !record.supports_bitswap() && record.protocols.len() <= 4 {
            report.minimal_dht_nodes += 1;
        }
    }
    report
}

/// Convenience: the number of peers announcing the given protocol.
pub(crate) fn protocol_supporters(dataset: &MeasurementDataset, protocol: &str) -> usize {
    dataset
        .peers
        .values()
        .filter(|record| record.protocols.iter().any(|p| p == protocol))
        .count()
}

/// Convenience: the number of peers announcing `/ipfs/kad/1.0.0`.
pub fn kad_supporters(dataset: &MeasurementDataset) -> usize {
    protocol_supporters(dataset, well_known::KAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::{MetadataChangeRecord, PeerRecord};
    use p2pmodel::PeerId;
    use simclock::SimTime;

    fn peer(label: u64, agent: &str, protocols: &[&str]) -> PeerRecord {
        let mut record = PeerRecord::new(PeerId::derived(label), SimTime::ZERO);
        record.agent = agent.to_string();
        record.protocols = protocols.iter().map(|p| p.to_string()).collect();
        record.dht_server = protocols.contains(&well_known::KAD);
        record.ever_dht_server = record.dht_server;
        record.metadata_known = !agent.is_empty() || !protocols.is_empty();
        record
    }

    fn dataset(peers: Vec<PeerRecord>) -> MeasurementDataset {
        let mut ds =
            MeasurementDataset::new("go-ipfs", true, SimTime::ZERO, SimTime::from_hours(24));
        for p in peers {
            ds.peers.insert(p.peer, p);
        }
        ds
    }

    #[test]
    fn agent_histogram_groups_by_version_and_other() {
        let mut peers = Vec::new();
        for i in 0..150 {
            peers.push(peer(i, "go-ipfs/0.11.0/abc", &[]));
        }
        for i in 200..205 {
            peers.push(peer(i, "exotic-agent/1.0", &[]));
        }
        let hist = agent_histogram(&dataset(peers), 100);
        assert_eq!(hist.count("0.11.0"), 150);
        assert_eq!(hist.count("other"), 5);
        assert_eq!(hist.count("exotic-agent/1.0"), 0);
    }

    #[test]
    fn protocol_histogram_counts_supporters() {
        let peers = vec![
            peer(1, "go-ipfs/0.11.0/", &[well_known::KAD, well_known::PING]),
            peer(2, "go-ipfs/0.11.0/", &[well_known::PING]),
        ];
        let hist = protocol_histogram(&dataset(peers), 0);
        assert_eq!(hist.count(well_known::PING), 2);
        assert_eq!(hist.count(well_known::KAD), 1);
    }

    #[test]
    fn breakdown_classifies_agent_families() {
        let peers = vec![
            peer(
                1,
                "go-ipfs/0.11.0/abc",
                &[well_known::KAD, well_known::BITSWAP_1_2],
            ),
            peer(2, "hydra-booster/0.7.4", &[well_known::KAD]),
            peer(3, "nebula-crawler/1.0.0", &[well_known::KAD]),
            peer(4, "storm", &[well_known::SBPTP]),
            peer(5, "", &[]),
        ];
        let breakdown = agent_breakdown(&dataset(peers));
        assert_eq!(breakdown.go_ipfs, 1);
        assert_eq!(breakdown.hydra, 1);
        assert_eq!(breakdown.crawler, 1);
        assert_eq!(breakdown.other, 1);
        assert_eq!(breakdown.missing, 1);
        assert_eq!(breakdown.kad_supporters, 3);
        assert_eq!(breakdown.bitswap_supporters, 1);
        assert_eq!(breakdown.distinct_agents, 4);
    }

    #[test]
    fn version_change_table_classifies_transitions() {
        let mut upgrader = peer(1, "go-ipfs/0.11.0/def", &[]);
        upgrader.changes.push(MetadataChangeRecord {
            at: SimTime::from_secs(10),
            field: "agent".into(),
            old: "go-ipfs/0.10.0/abc".into(),
            new: "go-ipfs/0.11.0/def".into(),
        });
        let mut downgrader = peer(2, "go-ipfs/0.9.1/x", &[]);
        downgrader.changes.push(MetadataChangeRecord {
            at: SimTime::from_secs(10),
            field: "agent".into(),
            old: "go-ipfs/0.10.0/abc".into(),
            new: "go-ipfs/0.9.1/x".into(),
        });
        let mut committer = peer(3, "go-ipfs/0.10.0/zzz-dirty", &[]);
        committer.changes.push(MetadataChangeRecord {
            at: SimTime::from_secs(10),
            field: "agent".into(),
            old: "go-ipfs/0.10.0/abc".into(),
            new: "go-ipfs/0.10.0/zzz-dirty".into(),
        });
        // A protocols-only change must not count.
        let mut unrelated = peer(4, "go-ipfs/0.10.0/abc", &[]);
        unrelated.changes.push(MetadataChangeRecord {
            at: SimTime::from_secs(10),
            field: "protocols".into(),
            old: "12 protocols".into(),
            new: "13 protocols".into(),
        });

        let table = version_changes(&dataset(vec![upgrader, downgrader, committer, unrelated]));
        assert_eq!(table.upgrades, 1);
        assert_eq!(table.downgrades, 1);
        assert_eq!(table.changes, 1);
        assert_eq!(table.peers_with_changes, 3);
        assert_eq!(table.main_to_main, 2);
        assert_eq!(table.main_to_dirty, 1);
    }

    #[test]
    fn role_switch_stats_count_flappers() {
        let mut flapper = peer(1, "go-ipfs/0.11.0/", &[well_known::PING]);
        flapper.ever_dht_server = true;
        flapper.dht_server = false;
        flapper.changes.push(MetadataChangeRecord {
            at: SimTime::from_secs(5),
            field: "protocols".into(),
            old: "13 protocols".into(),
            new: "12 protocols".into(),
        });
        flapper.changes.push(MetadataChangeRecord {
            at: SimTime::from_secs(15),
            field: "protocols".into(),
            old: "12 protocols".into(),
            new: "13 protocols".into(),
        });
        let stable = peer(2, "go-ipfs/0.11.0/", &[well_known::KAD]);
        let stats = role_switches(&dataset(vec![flapper, stable]));
        assert_eq!(stats.peers_with_protocol_changes, 1);
        assert_eq!(stats.protocol_change_events, 2);
        assert_eq!(stats.role_switchers, 1);
    }

    #[test]
    fn anomaly_report_finds_disguised_storm_and_ethereum() {
        let peers = vec![
            // go-ipfs without Bitswap announcing sbptp.
            peer(
                1,
                "go-ipfs/0.8.0/ce693d7",
                &[well_known::KAD, well_known::SBPTP],
            ),
            // Normal go-ipfs.
            peer(
                2,
                "go-ipfs/0.11.0/",
                &[well_known::KAD, well_known::BITSWAP_1_2],
            ),
            // Ethereum node.
            peer(3, "go-ethereum/v1.10.13", &[well_known::PING]),
            // Plain storm.
            peer(4, "storm", &[well_known::SBPTP, well_known::SFST_1]),
        ];
        let report = anomaly_report(&dataset(peers));
        assert_eq!(report.go_ipfs_without_bitswap, 1);
        assert_eq!(report.go_ipfs_with_storm_markers, 1);
        assert_eq!(report.storm_protocol_peers, 2);
        assert_eq!(report.ethereum_agents, 1);
    }

    #[test]
    fn kad_supporter_count_matches_breakdown() {
        let peers = vec![
            peer(1, "go-ipfs/0.11.0/", &[well_known::KAD]),
            peer(2, "go-ipfs/0.11.0/", &[]),
        ];
        let ds = dataset(peers);
        assert_eq!(kad_supporters(&ds), 1);
        assert_eq!(agent_breakdown(&ds).kad_supporters, 1);
        assert_eq!(protocol_supporters(&ds, well_known::PING), 0);
    }
}
