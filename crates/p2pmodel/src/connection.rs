//! Connection identifiers, directions and close reasons.
//!
//! The passive monitors observe the network through *connections*: every
//! record in Table II is a connection with a direction, an open timestamp and
//! a close timestamp. The simulator additionally tags each close with its
//! ground-truth reason (local trim, remote trim, peer departure), which the
//! real measurement could only infer — this is what lets the reproduction
//! verify the paper's central claim that connection churn is dominated by
//! connection trimming rather than node churn.

use std::fmt;

/// Identifier of a single connection, unique within a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(pub u64);

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn-{}", self.0)
    }
}

/// Direction of a connection relative to the observing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The remote peer dialed us.
    Inbound,
    /// We dialed the remote peer.
    Outbound,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Inbound => f.write_str("inbound"),
            Direction::Outbound => f.write_str("outbound"),
        }
    }
}

/// Why a connection ended (simulation ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloseReason {
    /// The observing node's connection manager trimmed the connection.
    TrimmedLocal,
    /// The remote peer's connection manager trimmed the connection.
    TrimmedRemote,
    /// The remote peer left the network (node churn).
    PeerLeft,
    /// The observing node shut down (end of a measurement period); the paper
    /// counts still-open connections as closed at that moment.
    MeasurementEnd,
}

impl fmt::Display for CloseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CloseReason::TrimmedLocal => "trimmed-local",
            CloseReason::TrimmedRemote => "trimmed-remote",
            CloseReason::PeerLeft => "peer-left",
            CloseReason::MeasurementEnd => "measurement-end",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_impls_are_informative() {
        assert_eq!(ConnectionId(7).to_string(), "conn-7");
        assert_eq!(Direction::Inbound.to_string(), "inbound");
        assert_eq!(Direction::Outbound.to_string(), "outbound");
        assert_eq!(CloseReason::TrimmedLocal.to_string(), "trimmed-local");
        assert_eq!(CloseReason::TrimmedRemote.to_string(), "trimmed-remote");
        assert_eq!(CloseReason::PeerLeft.to_string(), "peer-left");
        assert_eq!(CloseReason::MeasurementEnd.to_string(), "measurement-end");
    }
}
