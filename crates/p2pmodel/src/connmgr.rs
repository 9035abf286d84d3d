//! The libp2p connection manager (LowWater / HighWater trimming).
//!
//! go-ipfs keeps the number of simultaneous connections between two
//! thresholds: once the count exceeds **HighWater**, the least valuable
//! connections are trimmed until only **LowWater** remain; connections
//! younger than a **grace period** and explicitly *protected* connections are
//! spared. The paper varies exactly these two thresholds across its
//! measurement periods (Table I) and attributes the observed connection churn
//! to this mechanism — it is the single most important piece of machinery for
//! reproducing Table II and Fig. 5.
//!
//! The model follows go-libp2p's `BasicConnMgr` semantics: trimming is
//! triggered when the connection count *exceeds* HighWater, candidates inside
//! the grace period or protected are skipped, and the remaining candidates
//! are closed in ascending value order (ties broken by age, oldest first)
//! until the count reaches LowWater.

use crate::connection::ConnectionId;
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;

/// Connection-manager thresholds (the `Swarm.ConnMgr` section of the go-ipfs
/// configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnLimits {
    /// Trim down to this many connections.
    pub low_water: usize,
    /// Start trimming once this many connections is exceeded.
    pub high_water: usize,
    /// Connections younger than this are never trimmed.
    pub grace_period: SimDuration,
}

impl ConnLimits {
    /// The go-ipfs defaults (LowWater 600, HighWater 900, grace period 20 s),
    /// which the paper identifies as the cause of the high connection churn.
    pub const GO_IPFS_DEFAULT: ConnLimits = ConnLimits {
        low_water: 600,
        high_water: 900,
        grace_period: SimDuration::from_secs(20),
    };

    /// Creates limits with the given water marks and the default grace
    /// period.
    ///
    /// # Panics
    ///
    /// Panics if `low_water > high_water`.
    pub fn new(low_water: usize, high_water: usize) -> Self {
        assert!(
            low_water <= high_water,
            "LowWater must not exceed HighWater"
        );
        ConnLimits {
            low_water,
            high_water,
            grace_period: SimDuration::from_secs(20),
        }
    }

    /// Returns a copy with a different grace period.
    pub fn with_grace_period(mut self, grace_period: SimDuration) -> Self {
        self.grace_period = grace_period;
        self
    }
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits::GO_IPFS_DEFAULT
    }
}

/// A tracked connection inside the manager.
#[derive(Debug, Clone)]
struct Tracked {
    opened_at: SimTime,
    value: i32,
    protected: bool,
}

/// The outcome of a trim pass: the connections that should be closed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrimDecision {
    /// Connections to close, least valuable first.
    pub to_close: Vec<ConnectionId>,
}

/// A model of go-libp2p's basic connection manager.
///
/// # Example
///
/// ```
/// use p2pmodel::{ConnLimits, ConnectionId, ConnectionManager};
/// use simclock::{SimDuration, SimTime};
///
/// let limits = ConnLimits::new(2, 3).with_grace_period(SimDuration::ZERO);
/// let mut mgr = ConnectionManager::new(limits);
/// for i in 0..4 {
///     mgr.track(ConnectionId(i), SimTime::from_secs(i));
/// }
/// let trim = mgr.maybe_trim(SimTime::from_secs(100));
/// // 4 connections > HighWater 3, trim down to LowWater 2.
/// assert_eq!(trim.to_close.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ConnectionManager {
    limits: ConnLimits,
    connections: HashMap<ConnectionId, Tracked>,
}

impl ConnectionManager {
    /// Creates a connection manager with the given limits.
    pub fn new(limits: ConnLimits) -> Self {
        ConnectionManager {
            limits,
            connections: HashMap::new(),
        }
    }

    /// Starts tracking a newly opened connection with neutral value.
    pub fn track(&mut self, id: ConnectionId, opened_at: SimTime) {
        self.connections.insert(
            id,
            Tracked {
                opened_at,
                value: 0,
                protected: false,
            },
        );
    }

    /// Stops tracking a connection (it was closed for reasons outside the
    /// manager, e.g. the remote peer left).
    pub fn untrack(&mut self, id: ConnectionId) {
        self.connections.remove(&id);
    }

    /// Adjusts the value of a connection. DHT-relevant peers (close in XOR
    /// space, or actively useful) get positive tags; one-shot query peers get
    /// negative ones. Higher values survive trims longer.
    pub fn tag(&mut self, id: ConnectionId, delta: i32) {
        if let Some(tracked) = self.connections.get_mut(&id) {
            tracked.value += delta;
        }
    }

    /// Protects a connection from ever being trimmed (go-ipfs protects e.g.
    /// bootstrap and actively transferring connections).
    pub fn protect(&mut self, id: ConnectionId) {
        if let Some(tracked) = self.connections.get_mut(&id) {
            tracked.protected = true;
        }
    }

    /// Runs a trim pass if the connection count exceeds HighWater.
    ///
    /// Returns the set of connections to close (already removed from the
    /// manager's tracking); the caller is responsible for actually closing
    /// them and recording the close events.
    pub fn maybe_trim(&mut self, now: SimTime) -> TrimDecision {
        if self.connections.len() <= self.limits.high_water {
            return TrimDecision::default();
        }
        let target = self.limits.low_water;
        let excess = self.connections.len().saturating_sub(target);

        // Candidates: not protected, outside the grace period.
        let mut candidates: Vec<(ConnectionId, i32, SimTime)> = self
            .connections
            .iter()
            .filter(|(_, t)| !t.protected && now.saturating_since(t.opened_at) >= self.limits.grace_period)
            .map(|(id, t)| (*id, t.value, t.opened_at))
            .collect();
        // Least valuable first; among equal values, oldest first. Ties on
        // both are broken by the connection id so the decision is
        // deterministic across runs.
        candidates.sort_by(|a, b| a.1.cmp(&b.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
        candidates.truncate(excess);

        let to_close: Vec<ConnectionId> = candidates.into_iter().map(|(id, _, _)| id).collect();
        for id in &to_close {
            self.connections.remove(id);
        }
        TrimDecision { to_close }
    }
}

#[cfg(test)]
mod tests {
    use super::*;


    fn manager(low: usize, high: usize, grace_secs: u64) -> ConnectionManager {
        ConnectionManager::new(
            ConnLimits::new(low, high).with_grace_period(SimDuration::from_secs(grace_secs)),
        )
    }

    fn fill(mgr: &mut ConnectionManager, n: u64, opened: SimTime) {
        for i in 0..n {
            mgr.track(ConnectionId(i), opened);
        }
    }

    #[test]
    fn default_limits_match_go_ipfs() {
        let limits = ConnLimits::default();
        assert_eq!(limits.low_water, 600);
        assert_eq!(limits.high_water, 900);
        assert_eq!(limits.grace_period, SimDuration::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "LowWater must not exceed HighWater")]
    fn limits_reject_inverted_watermarks() {
        let _ = ConnLimits::new(10, 5);
    }

    #[test]
    fn no_trim_at_or_below_high_water() {
        let mut mgr = manager(2, 5, 0);
        fill(&mut mgr, 5, SimTime::ZERO);
        assert!(mgr.maybe_trim(SimTime::from_secs(100)).to_close.is_empty());
        assert_eq!(mgr.connections.len(), 5);
    }

    #[test]
    fn trims_down_to_low_water() {
        let mut mgr = manager(3, 5, 0);
        fill(&mut mgr, 8, SimTime::ZERO);
        let decision = mgr.maybe_trim(SimTime::from_secs(100));
        assert_eq!(decision.to_close.len(), 5);
        assert_eq!(mgr.connections.len(), 3);
    }

    #[test]
    fn grace_period_spares_young_connections() {
        let mut mgr = manager(1, 3, 60);
        // Old connections.
        for i in 0..3 {
            mgr.track(ConnectionId(i), SimTime::ZERO);
        }
        // Young connections within the grace period.
        for i in 3..6 {
            mgr.track(ConnectionId(i), SimTime::from_secs(580));
        }
        let decision = mgr.maybe_trim(SimTime::from_secs(600));
        // Only the 3 old connections are candidates even though reaching
        // LowWater would require closing 5.
        assert_eq!(decision.to_close.len(), 3);
        for id in &decision.to_close {
            assert!(id.0 < 3, "young connection {id} must not be trimmed");
        }
        assert_eq!(mgr.connections.len(), 3);
    }

    #[test]
    fn protected_connections_are_never_trimmed() {
        let mut mgr = manager(1, 2, 0);
        fill(&mut mgr, 5, SimTime::ZERO);
        mgr.protect(ConnectionId(0));
        mgr.protect(ConnectionId(1));
        let decision = mgr.maybe_trim(SimTime::from_secs(100));
        assert!(!decision.to_close.contains(&ConnectionId(0)));
        assert!(!decision.to_close.contains(&ConnectionId(1)));
    }

    #[test]
    fn lower_valued_connections_are_trimmed_first() {
        let mut mgr = manager(2, 3, 0);
        fill(&mut mgr, 4, SimTime::ZERO);
        mgr.tag(ConnectionId(0), 10);
        mgr.tag(ConnectionId(1), 5);
        mgr.tag(ConnectionId(2), -5);
        // Connection 3 keeps value 0.
        let decision = mgr.maybe_trim(SimTime::from_secs(100));
        assert_eq!(decision.to_close, vec![ConnectionId(2), ConnectionId(3)]);
    }

    #[test]
    fn untrack_and_queries() {
        let mut mgr = manager(1, 10, 0);
        mgr.track(ConnectionId(1), SimTime::ZERO);
        assert_eq!(mgr.connections.len(), 1);
        mgr.untrack(ConnectionId(1));
        assert_eq!(mgr.connections.len(), 0);
        // Tagging or protecting an unknown connection is a no-op.
        mgr.tag(ConnectionId(1), 5);
        mgr.protect(ConnectionId(1));
        assert_eq!(mgr.connections.len(), 0);
    }

    #[test]
    fn trim_is_deterministic() {
        let build = || {
            let mut mgr = manager(2, 4, 0);
            fill(&mut mgr, 10, SimTime::ZERO);
            mgr.maybe_trim(SimTime::from_secs(50))
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn trim_never_goes_below_low_water_or_above_high_water() {
        let mut rng = simclock::SimRng::seed_from(0xc301);
        for _ in 0..128 {
            let n = rng.uniform_u64(0, 200);
            let low = rng.index(50);
            let extra = rng.index(50);
            let high = low + extra;
            let mut mgr = manager(low, high, 0);
            fill(&mut mgr, n, SimTime::ZERO);
            let before = mgr.connections.len();
            let decision = mgr.maybe_trim(SimTime::from_secs(1000));
            let after = mgr.connections.len();
            assert_eq!(before - decision.to_close.len(), after);
            if before > high {
                // All candidates were eligible, so the manager reaches
                // exactly LowWater.
                assert_eq!(after, low);
            } else {
                assert!(decision.to_close.is_empty());
                assert_eq!(after, before);
            }
        }
    }

    #[test]
    fn trimmed_connections_are_no_longer_tracked() {
        let mut rng = simclock::SimRng::seed_from(0xc302);
        for _ in 0..64 {
            let n = rng.uniform_u64(1, 100);
            let mut mgr = manager(0, 0, 0);
            fill(&mut mgr, n, SimTime::ZERO);
            let decision = mgr.maybe_trim(SimTime::from_secs(10));
            for id in &decision.to_close {
                assert!(!mgr.connections.contains_key(id));
            }
        }
    }
}
