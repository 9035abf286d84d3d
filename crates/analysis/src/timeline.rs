//! Time-series analyses: Fig. 5 and Fig. 6.
//!
//! Fig. 5 plots the number of simultaneous connections over the first 24 h of
//! each measurement period; Fig. 6 plots, for the 14-day run, the total
//! number of PIDs ever seen and the number of PIDs that have been
//! disconnected for more than three days and never returned.

use measurement::MeasurementDataset;
use p2pmodel::PeerId;
use simclock::{SimDuration, SimTime, TimeSeries};
use std::collections::BTreeMap;

/// Fig. 5: the simultaneous-connection count over time, restricted to the
/// first `window` of the measurement (the figure shows 24 h).
pub fn connection_timeline(dataset: &MeasurementDataset, window: SimDuration) -> TimeSeries {
    let limit = (dataset.started_at + window).as_secs_f64();
    dataset
        .snapshots
        .iter()
        .map(|s| (s.at.as_secs_f64(), s.open_connections as f64))
        .filter(|&(t, _)| t <= limit)
        .collect()
}

/// Fig. 6: PID growth and long-disconnected PIDs over time.
#[derive(Debug, Clone, PartialEq)]
pub struct PidGrowth {
    /// `(hours, total PIDs ever seen)` samples.
    pub total_pids: TimeSeries,
    /// `(hours, PIDs disconnected for more than `gone_after` and never seen
    /// again)` samples.
    pub gone_pids: TimeSeries,
    /// The disconnect threshold used (3 days in the paper).
    pub gone_after: SimDuration,
}

impl PidGrowth {
    /// The final number of PIDs ever seen.
    pub fn final_total(&self) -> usize {
        self.total_pids.last_value().unwrap_or(0.0) as usize
    }

    /// The final number of long-gone PIDs.
    pub fn final_gone(&self) -> usize {
        self.gone_pids.last_value().unwrap_or(0.0) as usize
    }
}

/// Computes Fig. 6 from a data set: samples every `step`, counting PIDs first
/// seen up to the sample time and PIDs whose *last* observation lies more
/// than `gone_after` before the sample time.
pub fn pid_growth(
    dataset: &MeasurementDataset,
    step: SimDuration,
    gone_after: SimDuration,
) -> PidGrowth {
    // Collect first-seen and last-seen per peer once.
    let mut first_seen: BTreeMap<PeerId, SimTime> = BTreeMap::new();
    let mut last_seen: BTreeMap<PeerId, SimTime> = BTreeMap::new();
    for (peer, record) in &dataset.peers {
        first_seen.insert(*peer, record.first_seen);
        last_seen.insert(*peer, record.last_seen);
    }
    // Connections refine last-seen: a peer is "present" until its last
    // connection closes.
    for conn in &dataset.connections {
        let entry = last_seen.entry(conn.peer).or_insert(conn.closed_at);
        if conn.closed_at > *entry {
            *entry = conn.closed_at;
        }
        let first = first_seen.entry(conn.peer).or_insert(conn.opened_at);
        if conn.opened_at < *first {
            *first = conn.opened_at;
        }
    }

    let mut firsts: Vec<SimTime> = first_seen.values().copied().collect();
    firsts.sort();
    let mut lasts: Vec<SimTime> = last_seen.values().copied().collect();
    lasts.sort();

    let mut total_pids = TimeSeries::new();
    let mut gone_pids = TimeSeries::new();
    let mut at = dataset.started_at;
    let end = dataset.ended_at;
    let step = if step.is_zero() {
        SimDuration::from_hours(1)
    } else {
        step
    };
    while at <= end {
        let hours = (at - dataset.started_at).as_secs_f64() / 3600.0;
        let seen = firsts.partition_point(|t| *t <= at);
        total_pids.push(hours, seen as f64);
        let gone_cutoff = at - gone_after;
        let gone = if at.saturating_since(dataset.started_at) > gone_after {
            lasts.partition_point(|t| *t < gone_cutoff)
        } else {
            0
        };
        gone_pids.push(hours, gone as f64);
        at += step;
    }
    PidGrowth {
        total_pids,
        gone_pids,
        gone_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::{ConnectionRecord, PeerRecord, SnapshotRecord};
    use p2pmodel::{ConnectionId, Direction, IpAddress, Multiaddr, Transport};

    fn dataset() -> MeasurementDataset {
        let mut ds =
            MeasurementDataset::new("go-ipfs", true, SimTime::ZERO, SimTime::from_days(14));
        // Snapshots: a ramp from 0 to 100 connections over 48 h.
        for hour in 0..48 {
            ds.snapshots.push(SnapshotRecord {
                at: SimTime::from_hours(hour),
                open_connections: (hour * 2) as usize,
                known_pids: (hour * 10) as usize,
                connected_pids: (hour * 2) as usize,
            });
        }
        // Peers: one early peer that disappears, one that stays to the end.
        let mut early = PeerRecord::new(PeerId::derived(1), SimTime::from_hours(1));
        early.last_seen = SimTime::from_hours(2);
        ds.peers.insert(early.peer, early);
        let mut stayer = PeerRecord::new(PeerId::derived(2), SimTime::from_hours(1));
        stayer.last_seen = SimTime::from_days(14);
        ds.peers.insert(stayer.peer, stayer);
        // A late arrival, still recently seen at the end of the run.
        let mut late = PeerRecord::new(PeerId::derived(3), SimTime::from_days(12));
        late.last_seen = SimTime::from_days(13);
        ds.peers.insert(late.peer, late);
        ds.connections.push(ConnectionRecord {
            id: ConnectionId(1),
            peer: PeerId::derived(2),
            direction: Direction::Inbound,
            remote_addr: Multiaddr::new(IpAddress::V4(1), Transport::Tcp, 4001),
            opened_at: SimTime::from_hours(1),
            closed_at: SimTime::from_days(14),
            open_at_end: true,
            close_reason: None,
        });
        ds
    }

    #[test]
    fn connection_timeline_respects_window() {
        let ds = dataset();
        let full = connection_timeline(&ds, SimDuration::from_days(3));
        assert_eq!(full.len(), 48);
        let day = connection_timeline(&ds, SimDuration::from_hours(24));
        assert_eq!(day.len(), 25, "samples at hours 0..=24");
        assert_eq!(day.max_value(), 48.0);
    }

    #[test]
    fn pid_growth_is_monotone_and_counts_gone_peers() {
        let ds = dataset();
        let growth = pid_growth(&ds, SimDuration::from_hours(6), SimDuration::from_days(3));
        // Total PIDs never decrease.
        let mut prev = 0.0;
        for &(_, v) in growth.total_pids.points() {
            assert!(v >= prev);
            prev = v;
        }
        assert_eq!(growth.final_total(), 3);
        // Peer 1 vanished at hour 2, so it counts as gone after day 3+.
        assert_eq!(growth.final_gone(), 1);
        // Early samples report no gone peers.
        assert_eq!(growth.gone_pids.points()[0].1, 0.0);
        // The gone count is always ≤ the total count.
        for (&(_, total), &(_, gone)) in growth
            .total_pids
            .points()
            .iter()
            .zip(growth.gone_pids.points())
        {
            assert!(gone <= total);
        }
    }

    #[test]
    fn zero_step_defaults_to_one_hour() {
        let ds = dataset();
        let growth = pid_growth(&ds, SimDuration::ZERO, SimDuration::from_days(3));
        assert!(growth.total_pids.len() > 300, "14 days of hourly samples");
    }
}
