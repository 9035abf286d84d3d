//! Validation against simulation ground truth.
//!
//! The paper's headline conclusion — "instead of nodes joining and leaving
//! the network, we believe that the reason for the high connection churn is
//! IPFS's connection trimming mechanism" — is an *inference*: a passive
//! vantage point observes connection churn but cannot see node churn
//! directly. Because this reproduction runs on a simulator, the inference can
//! be checked: the simulator knows why every connection closed and when every
//! peer actually left. This module quantifies both sides.

use measurement::MeasurementCampaign;
use netsim::GroundTruthEvent;
use p2pmodel::CloseReason;

/// Decomposition of observed connection closes by ground-truth cause, next to
/// the actual node-churn rate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnDecomposition {
    /// Connection closes caused by the observer's own connection manager.
    pub closed_by_local_trim: usize,
    /// Connection closes caused by the remote peer's connection manager.
    pub closed_by_remote_trim: usize,
    /// Connection closes caused by the remote peer leaving the network.
    pub closed_by_peer_departure: usize,
    /// Connections still open when the measurement ended.
    pub closed_by_measurement_end: usize,
    /// Connection churn rate: closes per simulated hour.
    pub connection_churn_per_hour: f64,
    /// Node churn rate: ground-truth peer departures per simulated hour.
    pub node_churn_per_hour: f64,
}

impl ChurnDecomposition {
    /// Total observed closes.
    pub(crate) fn total_closes(&self) -> usize {
        self.closed_by_local_trim
            + self.closed_by_remote_trim
            + self.closed_by_peer_departure
            + self.closed_by_measurement_end
    }

    /// Fraction of closes caused by trimming (local or remote), ignoring the
    /// measurement-end artefact.
    pub fn trimming_fraction(&self) -> f64 {
        let trimmed = self.closed_by_local_trim + self.closed_by_remote_trim;
        let real_closes = trimmed + self.closed_by_peer_departure;
        if real_closes == 0 {
            0.0
        } else {
            trimmed as f64 / real_closes as f64
        }
    }

    /// Ratio of connection churn to node churn — the quantity the paper can
    /// only argue about qualitatively.
    pub fn connection_to_node_churn_ratio(&self) -> f64 {
        if self.node_churn_per_hour == 0.0 {
            f64::INFINITY
        } else {
            self.connection_churn_per_hour / self.node_churn_per_hour
        }
    }
}

/// Computes the churn decomposition for a campaign's primary data set.
pub fn churn_decomposition(campaign: &MeasurementCampaign) -> ChurnDecomposition {
    let dataset = campaign.primary();
    let mut decomposition = ChurnDecomposition::default();
    for conn in &dataset.connections {
        match conn.close_reason {
            Some(CloseReason::TrimmedLocal) => decomposition.closed_by_local_trim += 1,
            Some(CloseReason::TrimmedRemote) => decomposition.closed_by_remote_trim += 1,
            Some(CloseReason::PeerLeft) => decomposition.closed_by_peer_departure += 1,
            Some(CloseReason::MeasurementEnd) | None => {
                decomposition.closed_by_measurement_end += 1
            }
        }
    }
    let hours = dataset.duration().as_secs_f64() / 3600.0;
    if hours > 0.0 {
        decomposition.connection_churn_per_hour = decomposition.total_closes() as f64 / hours;
        let departures = campaign
            .ground_truth
            .events
            .iter()
            .filter(|e| matches!(e, GroundTruthEvent::PeerOffline { .. }))
            .count();
        decomposition.node_churn_per_hour = departures as f64 / hours;
    }
    decomposition
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_node_churn() {
        let decomposition = ChurnDecomposition {
            closed_by_remote_trim: 10,
            connection_churn_per_hour: 10.0,
            node_churn_per_hour: 0.0,
            ..ChurnDecomposition::default()
        };
        assert!(decomposition.connection_to_node_churn_ratio().is_infinite());
        assert_eq!(decomposition.trimming_fraction(), 1.0);
        assert_eq!(decomposition.total_closes(), 10);
    }

    #[test]
    fn trimming_fraction_ignores_measurement_end() {
        let decomposition = ChurnDecomposition {
            closed_by_local_trim: 30,
            closed_by_remote_trim: 50,
            closed_by_peer_departure: 20,
            closed_by_measurement_end: 500,
            ..ChurnDecomposition::default()
        };
        assert!((decomposition.trimming_fraction() - 0.8).abs() < 1e-9);
        assert_eq!(decomposition.total_closes(), 600);
    }

    #[test]
    fn empty_decomposition_is_safe() {
        let decomposition = ChurnDecomposition::default();
        assert_eq!(decomposition.trimming_fraction(), 0.0);
        assert_eq!(decomposition.total_closes(), 0);
    }
}
