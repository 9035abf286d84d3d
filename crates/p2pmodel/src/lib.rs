//! libp2p / IPFS protocol substrate.
//!
//! The paper's measurement clients observe peers of the public IPFS network
//! through libp2p abstractions: peer IDs, multiaddresses, identify payloads
//! (agent version + supported protocols), the Kademlia DHT and the connection
//! manager whose LowWater/HighWater trimming turns out to dominate the
//! observed churn. This crate models each of those abstractions closely
//! enough that the paper's analyses run unchanged on simulated observations:
//!
//! * [`PeerId`] and [`kademlia`] — 256-bit identifiers with the XOR metric,
//!   k-buckets and routing tables.
//! * [`Multiaddr`] — simplified `/ip4/…/tcp/…` style addresses with the IP
//!   grouping operations Section V-A of the paper relies on.
//! * [`AgentVersion`] — structured go-ipfs agent strings with the
//!   upgrade/downgrade/change classification of Table III.
//! * [`ProtocolSet`] — supported protocol lists (Fig. 4) including DHT-server
//!   detection via `/ipfs/kad/1.0.0`.
//! * [`IdentifyInfo`] — the identify payload exchanged on connection.
//! * [`ConnectionManager`] — LowWater/HighWater trimming with grace period,
//!   the mechanism behind Table II and Fig. 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod connection;
pub mod connmgr;
pub mod identify;
pub mod kademlia;
pub mod lookup;
pub mod multiaddr;
pub mod peer_id;
pub mod protocol;

pub use agent::{AgentVersion, VersionChange, VersionFlavor};
pub use connection::{CloseReason, ConnectionId, Direction};
pub use connmgr::{ConnLimits, ConnectionManager, TrackedConnection};
pub use identify::IdentifyInfo;
pub use kademlia::{Distance, RoutingTable};
pub use lookup::IterativeLookup;
pub use multiaddr::{IpAddress, Multiaddr, Transport};
pub use peer_id::PeerId;
pub use protocol::{ProtocolId, ProtocolSet};
