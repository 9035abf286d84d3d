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

/// An open connection as the trimming policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedConnection {
    /// The connection.
    pub id: ConnectionId,
    /// When it was opened (younger than the grace period: never trimmed).
    pub opened_at: SimTime,
    /// Its value tag. DHT-relevant peers (close in XOR space, or actively
    /// useful) score higher, one-shot query peers lower; higher values
    /// survive trims longer.
    pub value: i32,
    /// Protected connections are never trimmed (go-ipfs protects e.g.
    /// bootstrap and actively transferring connections).
    pub protected: bool,
}

/// A model of go-libp2p's basic connection manager: the trimming policy.
///
/// The caller keeps its open connections; a trim pass reads them and names
/// the ones to close.
///
/// # Example
///
/// ```
/// use p2pmodel::{ConnLimits, ConnectionId, ConnectionManager, TrackedConnection};
/// use simclock::{SimDuration, SimTime};
///
/// let limits = ConnLimits::new(2, 3).with_grace_period(SimDuration::ZERO);
/// let mut mgr = ConnectionManager::new(limits);
/// let open: Vec<TrackedConnection> = (0..4)
///     .map(|i| TrackedConnection {
///         id: ConnectionId(i),
///         opened_at: SimTime::from_secs(i),
///         value: 0,
///         protected: false,
///     })
///     .collect();
/// let mut to_close = Vec::new();
/// mgr.maybe_trim(
///     SimTime::from_secs(100),
///     open.iter().map(|c| (c.id.0 as u32, *c)),
///     &mut to_close,
/// );
/// // 4 connections > HighWater 3, trim down to LowWater 2, oldest first.
/// assert_eq!(to_close, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct ConnectionManager {
    limits: ConnLimits,
    /// The trim candidates `(value, opened_at, id, handle)` of the last
    /// pass, kept so a pass allocates nothing once the buffer has grown.
    candidates: Vec<(i32, SimTime, ConnectionId, u32)>,
}

impl ConnectionManager {
    /// Creates a connection manager with the given limits.
    pub fn new(limits: ConnLimits) -> Self {
        ConnectionManager {
            limits,
            candidates: Vec::new(),
        }
    }

    /// Runs a trim pass if the connection count exceeds HighWater.
    ///
    /// `open` yields every open connection with a handle the caller picks.
    /// Appends to `to_close` the handles of the connections to close, least
    /// valuable first: ascending value, then oldest first, then by id, so
    /// the decision is deterministic. The caller closes them.
    pub fn maybe_trim(
        &mut self,
        now: SimTime,
        open: impl ExactSizeIterator<Item = (u32, TrackedConnection)>,
        to_close: &mut Vec<u32>,
    ) {
        if open.len() <= self.limits.high_water {
            return;
        }
        let excess = open.len() - self.limits.low_water;
        // Candidates: not protected, outside the grace period.
        let grace = self.limits.grace_period;
        self.candidates.clear();
        self.candidates.extend(
            open.filter(|(_, c)| !c.protected && now.saturating_since(c.opened_at) >= grace)
                .map(|(handle, c)| (c.value, c.opened_at, c.id, handle)),
        );
        self.candidates.sort_unstable();
        to_close.extend(
            self.candidates
                .iter()
                .take(excess)
                .map(|&(.., handle)| handle),
        );
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

    fn conn(id: u64, opened_at: SimTime) -> TrackedConnection {
        TrackedConnection {
            id: ConnectionId(id),
            opened_at,
            value: 0,
            protected: false,
        }
    }

    fn fill(n: u64, opened: SimTime) -> Vec<TrackedConnection> {
        (0..n).map(|i| conn(i, opened)).collect()
    }

    /// One trim pass over `open`, as the caller runs it: the ids to close in
    /// close order, which are then dropped from `open`.
    fn trim(
        mgr: &mut ConnectionManager,
        open: &mut Vec<TrackedConnection>,
        now: SimTime,
    ) -> Vec<ConnectionId> {
        let mut to_close = Vec::new();
        mgr.maybe_trim(
            now,
            open.iter().enumerate().map(|(i, c)| (i as u32, *c)),
            &mut to_close,
        );
        let closed: Vec<ConnectionId> = to_close.iter().map(|&i| open[i as usize].id).collect();
        open.retain(|c| !closed.contains(&c.id));
        closed
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
        let mut open = fill(5, SimTime::ZERO);
        assert!(trim(&mut mgr, &mut open, SimTime::from_secs(100)).is_empty());
        assert_eq!(open.len(), 5);
    }

    #[test]
    fn trims_down_to_low_water() {
        let mut mgr = manager(3, 5, 0);
        let mut open = fill(8, SimTime::ZERO);
        assert_eq!(trim(&mut mgr, &mut open, SimTime::from_secs(100)).len(), 5);
        assert_eq!(open.len(), 3);
    }

    #[test]
    fn grace_period_spares_young_connections() {
        let mut mgr = manager(1, 3, 60);
        // Old connections, then young ones within the grace period.
        let mut open: Vec<TrackedConnection> = (0..3).map(|i| conn(i, SimTime::ZERO)).collect();
        open.extend((3..6).map(|i| conn(i, SimTime::from_secs(580))));
        let closed = trim(&mut mgr, &mut open, SimTime::from_secs(600));
        // Only the 3 old connections are candidates even though reaching
        // LowWater would require closing 5.
        assert_eq!(closed.len(), 3);
        for id in &closed {
            assert!(id.0 < 3, "young connection {id} must not be trimmed");
        }
        assert_eq!(open.len(), 3);
    }

    #[test]
    fn protected_connections_are_never_trimmed() {
        let mut mgr = manager(1, 2, 0);
        let mut open = fill(5, SimTime::ZERO);
        open[0].protected = true;
        open[1].protected = true;
        let closed = trim(&mut mgr, &mut open, SimTime::from_secs(100));
        assert!(!closed.contains(&ConnectionId(0)));
        assert!(!closed.contains(&ConnectionId(1)));
    }

    #[test]
    fn lower_valued_connections_are_trimmed_first() {
        let mut mgr = manager(2, 3, 0);
        let mut open = fill(4, SimTime::ZERO);
        open[0].value = 10;
        open[1].value = 5;
        open[2].value = -5;
        // Connection 3 keeps value 0.
        let closed = trim(&mut mgr, &mut open, SimTime::from_secs(100));
        assert_eq!(closed, vec![ConnectionId(2), ConnectionId(3)]);
    }

    #[test]
    fn equal_values_close_oldest_first_then_by_id() {
        let mut mgr = manager(0, 0, 0);
        let mut open = vec![
            conn(7, SimTime::from_secs(5)),
            conn(9, SimTime::from_secs(1)),
            conn(3, SimTime::from_secs(5)),
            conn(4, SimTime::from_secs(2)),
        ];
        let closed = trim(&mut mgr, &mut open, SimTime::from_secs(100));
        assert_eq!(closed, [9, 4, 3, 7].map(ConnectionId));
    }

    #[test]
    fn trim_is_deterministic() {
        let build = || {
            let mut mgr = manager(2, 4, 0);
            let mut open = fill(10, SimTime::ZERO);
            trim(&mut mgr, &mut open, SimTime::from_secs(50))
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn trim_never_goes_below_low_water_or_above_high_water() {
        let mut rng = simclock::SimRng::seed_from(0xc301);
        let mut mgr = manager(0, 0, 0);
        for _ in 0..128 {
            let n = rng.uniform_u64(0, 200);
            let low = rng.index(50);
            let extra = rng.index(50);
            let high = low + extra;
            // One manager across passes: its reused buffer must not leak
            // one pass's candidates into the next.
            mgr.limits = ConnLimits::new(low, high).with_grace_period(SimDuration::ZERO);
            let mut open = fill(n, SimTime::ZERO);
            let before = open.len();
            let closed = trim(&mut mgr, &mut open, SimTime::from_secs(1000));
            let after = open.len();
            assert_eq!(before - closed.len(), after);
            if before > high {
                // All candidates were eligible, so the pass reaches exactly
                // LowWater.
                assert_eq!(after, low);
            } else {
                assert!(closed.is_empty());
                assert_eq!(after, before);
            }
        }
    }
}
