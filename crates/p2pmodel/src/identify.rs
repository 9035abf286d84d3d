//! The identify exchange.
//!
//! When two libp2p peers connect they exchange an *identify* payload carrying
//! the agent version, the announced protocols and the peer's listen
//! addresses. Everything the paper's passive measurement knows about a remote
//! peer beyond its PID comes from this payload, and most of Section IV-B is
//! about how this metadata changes over time.

use crate::agent::AgentVersion;
use crate::multiaddr::Multiaddr;
use crate::protocol::ProtocolSet;

/// The identify payload announced by a peer.
///
/// # Example
///
/// ```
/// use p2pmodel::{AgentVersion, IdentifyInfo, ProtocolSet};
///
/// let info = IdentifyInfo::new(
///     AgentVersion::parse("go-ipfs/0.11.0/"),
///     ProtocolSet::go_ipfs_dht_server(),
///     Vec::new(),
/// );
/// assert!(info.is_dht_server());
/// assert!(info.agent.is_go_ipfs());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IdentifyInfo {
    /// The agent version string (Fig. 3 groups peers by this).
    pub agent: AgentVersion,
    /// The announced protocols (Fig. 4; kad implies DHT-Server).
    pub protocols: ProtocolSet,
    /// The listen addresses the peer announces.
    pub listen_addrs: Vec<Multiaddr>,
}

impl IdentifyInfo {
    /// Creates an identify payload.
    pub fn new(agent: AgentVersion, protocols: ProtocolSet, listen_addrs: Vec<Multiaddr>) -> Self {
        IdentifyInfo {
            agent,
            protocols,
            listen_addrs,
        }
    }

    /// An empty payload for peers that never completed an identify exchange;
    /// the paper reports 3 059 such PIDs ("missing" agent).
    pub(crate) fn unknown() -> Self {
        IdentifyInfo {
            agent: AgentVersion::Missing,
            protocols: ProtocolSet::new(),
            listen_addrs: Vec::new(),
        }
    }

    /// Whether the peer announces the Kademlia protocol (DHT-Server role).
    pub fn is_dht_server(&self) -> bool {
        self.protocols.is_dht_server()
    }

    /// Whether any metadata was obtained at all.
    pub fn is_known(&self) -> bool {
        !self.agent.is_missing() || !self.protocols.is_empty() || !self.listen_addrs.is_empty()
    }

    /// Lists the differences between two identify payloads as human-readable
    /// field labels (`"agent"`, `"protocols"`, `"addrs"`). Used by the
    /// monitors to decide which metadata-change records to emit.
    pub fn changed_fields(&self, newer: &IdentifyInfo) -> Vec<&'static str> {
        let mut fields = Vec::new();
        if self.agent != newer.agent {
            fields.push("agent");
        }
        if self.protocols != newer.protocols {
            fields.push("protocols");
        }
        if self.listen_addrs != newer.listen_addrs {
            fields.push("addrs");
        }
        fields
    }
}

impl Default for IdentifyInfo {
    fn default() -> Self {
        IdentifyInfo::unknown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiaddr::{IpAddress, Transport};

    fn addr(n: u32) -> Multiaddr {
        Multiaddr::new(IpAddress::V4(n), Transport::Tcp, 4001)
    }

    #[test]
    fn unknown_payload_is_not_known() {
        let info = IdentifyInfo::unknown();
        assert!(!info.is_known());
        assert!(!info.is_dht_server());
        assert_eq!(IdentifyInfo::default(), info);
    }

    #[test]
    fn dht_server_detection_follows_protocols() {
        let server = IdentifyInfo::new(
            AgentVersion::parse("go-ipfs/0.11.0/"),
            ProtocolSet::go_ipfs_dht_server(),
            vec![addr(1)],
        );
        assert!(server.is_dht_server());
        assert!(server.is_known());

        let client = IdentifyInfo::new(
            AgentVersion::parse("go-ipfs/0.11.0/"),
            ProtocolSet::go_ipfs_dht_client(),
            vec![addr(1)],
        );
        assert!(!client.is_dht_server());
    }

    #[test]
    fn changed_fields_reports_each_dimension() {
        let base = IdentifyInfo::new(
            AgentVersion::parse("go-ipfs/0.10.0/abc"),
            ProtocolSet::go_ipfs_dht_server(),
            vec![addr(1)],
        );
        assert!(base.changed_fields(&base).is_empty());

        let mut upgraded = base.clone();
        upgraded.agent = AgentVersion::parse("go-ipfs/0.11.0/def");
        assert_eq!(base.changed_fields(&upgraded), vec!["agent"]);

        let mut demoted = base.clone();
        demoted.protocols = ProtocolSet::go_ipfs_dht_client();
        assert_eq!(base.changed_fields(&demoted), vec!["protocols"]);

        let mut moved = base.clone();
        moved.listen_addrs = vec![addr(2)];
        assert_eq!(base.changed_fields(&moved), vec!["addrs"]);

        let mut all = base.clone();
        all.agent = AgentVersion::parse("go-ipfs/0.12.0/x");
        all.protocols = ProtocolSet::go_ipfs_dht_client();
        all.listen_addrs = vec![addr(3)];
        assert_eq!(base.changed_fields(&all), vec!["agent", "protocols", "addrs"]);
    }

    #[test]
    fn known_when_only_addresses_present() {
        let info = IdentifyInfo::new(AgentVersion::Missing, ProtocolSet::new(), vec![addr(9)]);
        assert!(info.is_known());
    }
}
