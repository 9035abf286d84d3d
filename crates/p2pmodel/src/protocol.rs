//! Protocol identifiers and protocol sets.
//!
//! Peers announce the protocols they speak as part of the identify exchange.
//! The paper uses this information to classify peers (a peer announcing
//! `/ipfs/kad/1.0.0` is a DHT-Server), to find anomalies (go-ipfs agents that
//! do not support Bitswap but do support the storm botnet's `sbptp`
//! protocol), and to count role switches (peers adding/removing the kad or
//! autonat announcement). Fig. 4 is a histogram over these identifiers.

use std::collections::BTreeSet;
use std::fmt;

/// A protocol identifier string such as `/ipfs/kad/1.0.0`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProtocolId(String);

impl ProtocolId {
    /// Creates a protocol identifier from a string.
    pub fn new(id: impl Into<String>) -> Self {
        ProtocolId(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ProtocolId {
    fn from(s: &str) -> Self {
        ProtocolId::new(s)
    }
}

impl From<String> for ProtocolId {
    fn from(s: String) -> Self {
        ProtocolId::new(s)
    }
}

impl AsRef<str> for ProtocolId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Well-known protocol identifier strings observed in the paper (Fig. 4).
pub mod well_known {
    /// Kademlia DHT (announcing it makes a peer a DHT-Server).
    pub const KAD: &str = "/ipfs/kad/1.0.0";
    /// LAN-scoped Kademlia DHT.
    pub(crate) const LAN_KAD: &str = "/ipfs/lan/kad/1.0.0";
    /// Identify.
    pub(crate) const ID: &str = "/ipfs/id/1.0.0";
    /// Identify push.
    pub(crate) const ID_PUSH: &str = "/ipfs/id/push/1.0.0";
    /// Ping.
    pub const PING: &str = "/ipfs/ping/1.0.0";
    /// Bitswap (unversioned legacy id).
    pub(crate) const BITSWAP: &str = "/ipfs/bitswap";
    /// Bitswap 1.0.0.
    pub(crate) const BITSWAP_1_0: &str = "/ipfs/bitswap/1.0.0";
    /// Bitswap 1.1.0.
    pub(crate) const BITSWAP_1_1: &str = "/ipfs/bitswap/1.1.0";
    /// Bitswap 1.2.0.
    pub const BITSWAP_1_2: &str = "/ipfs/bitswap/1.2.0";
    /// Gossipsub 1.0.
    pub(crate) const MESHSUB_1_0: &str = "/meshsub/1.0.0";
    /// Gossipsub 1.1.
    pub(crate) const MESHSUB_1_1: &str = "/meshsub/1.1.0";
    /// Floodsub.
    pub(crate) const FLOODSUB: &str = "/floodsub/1.0.0";
    /// AutoNAT (announcement flaps in the paper's observations).
    pub const AUTONAT: &str = "/libp2p/autonat/1.0.0";
    /// Circuit relay v1.
    pub(crate) const RELAY_V1: &str = "/libp2p/circuit/relay/0.1.0";
    /// The storm botnet's protocol, also announced by suspicious go-ipfs
    /// v0.8.0 agents that hide their Bitswap support.
    pub const SBPTP: &str = "/sbptp/1.0.0";
    /// storm file-sharing protocol, v1.
    pub const SFST_1: &str = "/sfst/1.0.0";
    /// storm file-sharing protocol, v2.
    pub(crate) const SFST_2: &str = "/sfst/2.0.0";
}

/// The set of protocols a peer announces.
///
/// # Example
///
/// ```
/// use p2pmodel::ProtocolSet;
///
/// let server = ProtocolSet::go_ipfs_dht_server();
/// assert!(server.is_dht_server());
/// assert!(server.supports_bitswap());
///
/// let client = ProtocolSet::go_ipfs_dht_client();
/// assert!(!client.is_dht_server());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ProtocolSet {
    protocols: BTreeSet<ProtocolId>,
}

impl ProtocolSet {
    /// Creates an empty protocol set.
    pub fn new() -> Self {
        ProtocolSet::default()
    }

    /// The baseline protocols every go-ipfs client announces.
    pub(crate) fn go_ipfs_base() -> Self {
        use well_known::*;
        [
            ID, ID_PUSH, PING, BITSWAP, BITSWAP_1_0, BITSWAP_1_1, BITSWAP_1_2, MESHSUB_1_0,
            MESHSUB_1_1, FLOODSUB, AUTONAT, RELAY_V1,
        ]
        .into_iter()
        .collect()
    }

    /// The protocol set of a go-ipfs DHT-Server (base + kad + lan kad).
    pub fn go_ipfs_dht_server() -> Self {
        let mut set = Self::go_ipfs_base();
        set.insert(well_known::KAD);
        set.insert(well_known::LAN_KAD);
        set
    }

    /// The protocol set of a go-ipfs DHT-Client (base, no kad announcement).
    pub fn go_ipfs_dht_client() -> Self {
        Self::go_ipfs_base()
    }

    /// The minimal protocol set of a hydra-booster head: DHT routing without
    /// Bitswap or pubsub.
    pub fn hydra_head() -> Self {
        use well_known::*;
        [ID, PING, KAD].into_iter().collect()
    }

    /// The protocol set of a typical DHT crawler: identify + kad queries only.
    pub fn crawler() -> Self {
        use well_known::*;
        [ID, PING, KAD].into_iter().collect()
    }

    /// The protocol set of a storm (IPStorm botnet) node: identify, kad and
    /// the storm-specific protocols, no Bitswap.
    pub fn storm_node() -> Self {
        use well_known::*;
        [ID, PING, KAD, SBPTP, SFST_1, SFST_2].into_iter().collect()
    }

    /// The anomalous go-ipfs v0.8.0 profile reported in the paper: claims to
    /// be go-ipfs but announces `sbptp` instead of Bitswap.
    pub fn disguised_storm() -> Self {
        use well_known::*;
        [ID, ID_PUSH, PING, KAD, MESHSUB_1_0, AUTONAT, RELAY_V1, SBPTP]
            .into_iter()
            .collect()
    }

    /// Number of announced protocols.
    pub fn len(&self) -> usize {
        self.protocols.len()
    }

    /// Whether the set is empty (no protocol information exchanged).
    pub fn is_empty(&self) -> bool {
        self.protocols.is_empty()
    }

    /// Adds a protocol; returns whether it was newly inserted.
    pub fn insert(&mut self, protocol: impl Into<ProtocolId>) -> bool {
        self.protocols.insert(protocol.into())
    }

    /// Removes a protocol; returns whether it was present.
    pub fn remove(&mut self, protocol: &str) -> bool {
        self.protocols.remove(&ProtocolId::new(protocol))
    }

    /// Whether the given protocol is announced.
    pub(crate) fn contains(&self, protocol: &str) -> bool {
        self.protocols.contains(&ProtocolId::new(protocol))
    }

    /// Whether the peer announces the IPFS Kademlia protocol, i.e. acts as a
    /// DHT-Server.
    pub fn is_dht_server(&self) -> bool {
        self.contains(well_known::KAD)
    }

    /// Whether any Bitswap variant is announced.
    pub fn supports_bitswap(&self) -> bool {
        use well_known::*;
        self.contains(BITSWAP)
            || self.contains(BITSWAP_1_0)
            || self.contains(BITSWAP_1_1)
            || self.contains(BITSWAP_1_2)
    }

    /// Whether AutoNAT is announced.
    pub fn supports_autonat(&self) -> bool {
        self.contains(well_known::AUTONAT)
    }

    /// Whether any storm-specific protocol is announced.
    pub fn has_storm_markers(&self) -> bool {
        use well_known::*;
        self.contains(SBPTP) || self.contains(SFST_1) || self.contains(SFST_2)
    }

    /// Iterates over the announced protocols in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &ProtocolId> {
        self.protocols.iter()
    }
}

impl<P: Into<ProtocolId>> FromIterator<P> for ProtocolSet {
    fn from_iter<I: IntoIterator<Item = P>>(iter: I) -> Self {
        ProtocolSet {
            protocols: iter.into_iter().map(Into::into).collect(),
        }
    }
}

impl<P: Into<ProtocolId>> Extend<P> for ProtocolSet {
    fn extend<I: IntoIterator<Item = P>>(&mut self, iter: I) {
        self.protocols.extend(iter.into_iter().map(Into::into));
    }
}

#[cfg(test)]
mod tests {
    use super::*;


    #[test]
    fn go_ipfs_profiles_have_expected_roles() {
        let server = ProtocolSet::go_ipfs_dht_server();
        assert!(server.is_dht_server());
        assert!(server.supports_bitswap());
        assert!(server.supports_autonat());
        assert!(!server.has_storm_markers());

        let client = ProtocolSet::go_ipfs_dht_client();
        assert!(!client.is_dht_server());
        assert!(client.supports_bitswap());
    }

    #[test]
    fn hydra_and_crawler_are_dht_servers_without_bitswap() {
        for set in [ProtocolSet::hydra_head(), ProtocolSet::crawler()] {
            assert!(set.is_dht_server());
            assert!(!set.supports_bitswap());
        }
    }

    #[test]
    fn storm_profiles_carry_markers() {
        assert!(ProtocolSet::storm_node().has_storm_markers());
        let disguised = ProtocolSet::disguised_storm();
        assert!(disguised.has_storm_markers());
        assert!(!disguised.supports_bitswap(), "the paper's anomaly: go-ipfs without bitswap");
        assert!(disguised.is_dht_server());
    }

    #[test]
    fn insert_remove_contains() {
        let mut set = ProtocolSet::new();
        assert!(set.is_empty());
        assert!(set.insert(well_known::KAD));
        assert!(!set.insert(well_known::KAD));
        assert!(set.contains(well_known::KAD));
        assert_eq!(set.len(), 1);
        assert!(set.remove(well_known::KAD));
        assert!(!set.remove(well_known::KAD));
        assert!(!set.is_dht_server());
    }

    #[test]
    fn protocol_id_conversions() {
        let a: ProtocolId = "/ipfs/kad/1.0.0".into();
        let b = ProtocolId::new(String::from("/ipfs/kad/1.0.0"));
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "/ipfs/kad/1.0.0");
        assert_eq!(a.as_ref(), "/ipfs/kad/1.0.0");
        assert_eq!(a.to_string(), "/ipfs/kad/1.0.0");
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let set = ProtocolSet::go_ipfs_dht_server();
        let listed: Vec<&ProtocolId> = set.iter().collect();
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
    }

    /// Generates a random protocol-id-like string over `[a-z/0-9.]`.
    fn random_protocol(rng: &mut simclock::SimRng) -> String {
        const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz/0123456789.";
        let len = rng.uniform_u64(1, 21) as usize;
        (0..len)
            .map(|_| CHARSET[rng.index(CHARSET.len())] as char)
            .collect()
    }

    fn random_protocol_set(rng: &mut simclock::SimRng, max: usize) -> Vec<String> {
        let count = rng.index(max + 1);
        (0..count).map(|_| random_protocol(rng)).collect()
    }

    #[test]
    fn toggling_kad_toggles_server_role() {
        let mut rng = simclock::SimRng::seed_from(0x9208);
        for _ in 0..128 {
            let protocols = random_protocol_set(&mut rng, 9);
            let mut set: ProtocolSet = protocols.iter().map(String::as_str).collect();
            set.remove(well_known::KAD);
            assert!(!set.is_dht_server());
            set.insert(well_known::KAD);
            assert!(set.is_dht_server());
        }
    }
}
