//! Simulation and observer configuration.

use p2pmodel::{ConnLimits, IpAddress, Multiaddr, PeerId};
use simclock::SimDuration;

/// Whether a node participates in Kademlia DHT routing.
///
/// A DHT-Server answers routing queries and is therefore discoverable and
/// attractive to other peers; a DHT-Client is neither, which is why the
/// paper's P3/P4 client deployment sees far fewer and shorter connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DhtRole {
    /// Participates in DHT routing (`/ipfs/kad/1.0.0` announced).
    Server,
    /// Uses the DHT only as a client.
    Client,
}

impl DhtRole {
    /// Whether this role announces the Kademlia protocol.
    pub fn is_server(self) -> bool {
        matches!(self, DhtRole::Server)
    }
}

impl std::fmt::Display for DhtRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtRole::Server => f.write_str("Server"),
            DhtRole::Client => f.write_str("Client"),
        }
    }
}

/// Configuration of a single passive measurement node inside the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverSpec {
    /// Human-readable name used in logs and reports (e.g. `"go-ipfs"`,
    /// `"hydra-h0"`).
    pub name: String,
    /// The observer's peer ID. Hydra heads pick IDs in distinct key-space
    /// regions to widen their joint horizon.
    pub peer_id: PeerId,
    /// The observer's public address (the paper's VM had a public IPv4).
    pub addr: Multiaddr,
    /// DHT role of the observer.
    pub role: DhtRole,
    /// Connection-manager thresholds (Table I varies these per period).
    pub limits: ConnLimits,
    /// Target number of outbound connections the observer maintains through
    /// DHT routing-table maintenance. Passive nodes dial little; most of
    /// their connections are inbound.
    pub outbound_target: usize,
    /// Interval between maintenance passes (outbound dials + trim check).
    /// go-ipfs runs its connection-manager loop frequently; the paper's
    /// instrumentation refreshes every 30 s.
    pub maintenance_interval: SimDuration,
}

impl ObserverSpec {
    /// Creates an observer with go-ipfs-like defaults for the given role and
    /// limits.
    pub fn new(name: impl Into<String>, peer_id: PeerId, role: DhtRole, limits: ConnLimits) -> Self {
        ObserverSpec {
            name: name.into(),
            peer_id,
            addr: Multiaddr::default_swarm(IpAddress::V4(0x5BCD_0001)),
            role,
            limits,
            outbound_target: 40,
            maintenance_interval: SimDuration::from_secs(30),
        }
    }

    /// Returns a copy with a different public address.
    pub fn with_addr(mut self, addr: Multiaddr) -> Self {
        self.addr = addr;
        self
    }

    /// Returns a copy with a different outbound-connection target.
    pub fn with_outbound_target(mut self, target: usize) -> Self {
        self.outbound_target = target;
        self
    }

    /// Returns a copy with a different maintenance interval.
    pub fn with_maintenance_interval(mut self, interval: SimDuration) -> Self {
        self.maintenance_interval = interval;
        self
    }

    /// Expected steady-state connection count of this observer: HighWater
    /// open connections plus the dials that can arrive before the next trim
    /// pass. The single sizing heuristic behind every per-observer
    /// pre-allocation (engine connection maps, observation tables) — tune
    /// it here, not at the call sites.
    pub(crate) fn expected_connections(&self) -> usize {
        self.limits.high_water + self.limits.high_water / 4 + 16
    }

    /// A columnar observation table pre-sized for one run of this observer:
    /// every open/close pair is two rows, so one full turn-over of the
    /// connection table is reserved up front. The engine gives each
    /// observer one when it builds a run.
    pub(crate) fn presized_table(&self) -> crate::obs::ObservationTable {
        let mut table = crate::obs::ObservationTable::new();
        table.reserve(self.expected_connections() * 4);
        table
    }
}

/// Global configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Seed for every stochastic decision in the run.
    pub seed: u64,
    /// Total simulated duration (the paper's periods run 1 d – 3 d, the
    /// extension run 14 d).
    pub duration: SimDuration,
    /// The passive measurement nodes to deploy.
    pub observers: Vec<ObserverSpec>,
}

impl NetworkConfig {
    /// Creates a configuration with a single observer.
    #[cfg(test)]
    pub(crate) fn single_observer(
        seed: u64,
        duration: SimDuration,
        observer: ObserverSpec,
    ) -> Self {
        NetworkConfig {
            seed,
            duration,
            observers: vec![observer],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_display_and_predicates() {
        assert!(DhtRole::Server.is_server());
        assert!(!DhtRole::Client.is_server());
        assert_eq!(DhtRole::Server.to_string(), "Server");
        assert_eq!(DhtRole::Client.to_string(), "Client");
    }

    #[test]
    fn observer_spec_builders() {
        let spec = ObserverSpec::new("go-ipfs", PeerId::derived(1), DhtRole::Server, ConnLimits::new(600, 900))
            .with_outbound_target(10)
            .with_maintenance_interval(SimDuration::from_secs(60));
        assert_eq!(spec.outbound_target, 10);
        assert_eq!(spec.maintenance_interval, SimDuration::from_secs(60));
        assert_eq!(spec.limits.low_water, 600);
        assert_eq!(spec.name, "go-ipfs");
    }
}
