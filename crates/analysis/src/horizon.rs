//! Measurement-horizon comparison (Fig. 2).
//!
//! Fig. 2 compares, per measurement period, the number of PIDs seen by each
//! passive client (total and DHT-Server-only) against the range of node
//! counts reported by the active crawler (min and max over its 8-hourly
//! crawls). The takeaway the shape must reproduce: for multi-day periods the
//! historic passive view accumulates at least as many DHT-Server PIDs as a
//! fresh-snapshot crawl reports.

use measurement::{CrawlSummary, MeasurementCampaign, MeasurementDataset};

/// One bar of Fig. 2: a passive client's PID counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HorizonEntry {
    /// Client name.
    pub client: String,
    /// Total PIDs ever seen.
    pub total_pids: usize,
    /// PIDs that (ever) announced the DHT-Server role.
    pub dht_server_pids: usize,
}

impl HorizonEntry {
    /// Builds the entry for one data set.
    pub(crate) fn from_dataset(dataset: &MeasurementDataset) -> Self {
        HorizonEntry {
            client: dataset.client.clone(),
            total_pids: dataset.pid_count(),
            dht_server_pids: dataset.dht_server_pid_count(),
        }
    }
}

/// The full Fig. 2 comparison for one measurement period.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonComparison {
    /// The period label ("P0", "P1", …).
    pub period: String,
    /// One entry per passive client (go-ipfs, each hydra head, hydra union).
    pub passive: Vec<HorizonEntry>,
    /// The crawler's min/max/distinct summary.
    pub crawler: CrawlSummary,
    /// Ground-truth population size (for validation; not part of the figure).
    pub population: usize,
}

/// Builds the Fig. 2 comparison from a measurement campaign.
pub fn horizon_comparison(campaign: &MeasurementCampaign) -> HorizonComparison {
    let mut passive = Vec::new();
    if let Some(go_ipfs) = &campaign.go_ipfs {
        passive.push(HorizonEntry::from_dataset(go_ipfs));
    }
    for head in &campaign.hydra_heads {
        passive.push(HorizonEntry::from_dataset(head));
    }
    if let Some(union) = &campaign.hydra_union {
        passive.push(HorizonEntry::from_dataset(union));
    }
    HorizonComparison {
        period: campaign.scenario.period.label().to_string(),
        passive,
        crawler: campaign.crawl_summary,
        population: campaign.ground_truth.population_size(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::PeerRecord;
    use p2pmodel::PeerId;
    use simclock::SimTime;

    fn dataset(name: &str, total: u64, servers: u64) -> MeasurementDataset {
        let mut ds = MeasurementDataset::new(name, true, SimTime::ZERO, SimTime::from_days(1));
        for i in 0..total {
            let mut record = PeerRecord::new(PeerId::derived(i), SimTime::ZERO);
            record.ever_dht_server = i < servers;
            ds.peers.insert(record.peer, record);
        }
        ds
    }

    #[test]
    fn entry_counts_totals_and_servers() {
        let entry = HorizonEntry::from_dataset(&dataset("go-ipfs", 100, 30));
        assert_eq!(entry.total_pids, 100);
        assert_eq!(entry.dht_server_pids, 30);
        assert_eq!(entry.client, "go-ipfs");
    }
}
