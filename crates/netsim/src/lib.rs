//! Discrete-event simulator of an IPFS/libp2p overlay, seen from the vantage
//! point of one or more passive measurement nodes.
//!
//! The paper deploys instrumented go-ipfs and hydra-booster nodes in the
//! *live* IPFS network. This crate replaces the live network with a
//! simulation that reproduces exactly the observables such a node has access
//! to:
//!
//! * inbound and outbound **connections**, opened and closed with
//!   ground-truth reasons (local trim, remote trim, peer departure),
//! * **identify exchanges** carrying agent version, protocols and addresses,
//! * **metadata changes** pushed by connected peers (version upgrades, DHT
//!   role switches, autonat flapping),
//! * peers **discovered without a connection** through DHT routing traffic.
//!
//! The behaviour of the remote side — session churn, dialing, how long a
//! remote peer keeps a connection before trimming it — is driven by
//! per-peer [`RemotePeerSpec`]s supplied by the `population` crate; the
//! observing node's own connection manager is simulated faithfully with
//! [`p2pmodel::ConnectionManager`].
//!
//! Output is an [`ObserverLog`] per observer (everything the measurement
//! client could have recorded) plus a [`GroundTruth`] log of what actually
//! happened in the network, which the analysis crate uses for validation and
//! which the active-crawler baseline crawls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod config;
pub mod dht;
pub mod engine;
pub mod events;
pub mod mailbox;
pub mod obs;
pub mod spec;

pub use archive::{decode_output, encode_output, ArchiveError, ArchiveFile, ArchiveWriter};
pub use config::{DhtRole, NetworkConfig, ObserverSpec};
pub use dht::{dht_log_from_ground_truth, DhtConduct, DhtEvent, DhtLog, DhtReplay, DhtTracker, DhtView};
pub use engine::{Network, SimulationOutput};
pub use events::{GroundTruth, GroundTruthCursor, GroundTruthEvent, ObserverLog};
pub use mailbox::{run_full_protocol, FullProtocolConfig, FullProtocolRun, MailboxStats, PhaseTimes};
pub use obs::{IdentifyRegistry, ObservationKind, ObservationTable, ShardMap};
pub use spec::{
    DialBehavior, MetadataChange, PopulationAction, PopulationEvent, RemotePeerSpec,
    ScheduledChange, SessionPattern,
};
