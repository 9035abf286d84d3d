//! Remote-peer behaviour specifications.
//!
//! The simulator does not model the full overlay graph; it models the part a
//! passive measurement node can see — the edges incident to the observers —
//! and drives the remote side of those edges with per-peer behaviour
//! parameters. The `population` crate generates one [`RemotePeerSpec`] per
//! peer, calibrated so the aggregate matches the composition the paper
//! reports (agents, protocols, churn classes, hydra co-location, …).

use std::sync::Arc;

use crate::dht::DhtConduct;
use p2pmodel::{AgentVersion, IdentifyInfo, Multiaddr, PeerId, ProtocolId, ProtocolSet};
use simclock::{SimDuration, SimRng, SimTime};

/// When, and for how long, a peer is online.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionPattern {
    /// Online for the entire simulation (the stable core: long-running
    /// servers, hydra heads, infrastructure nodes).
    AlwaysOn,
    /// Alternating online/offline sessions. Session and gap lengths are
    /// drawn from log-normal distributions with the given medians (seconds)
    /// and shape `sigma`.
    Intermittent {
        /// Median online-session length in seconds.
        online_median_secs: f64,
        /// Median offline-gap length in seconds.
        offline_median_secs: f64,
        /// Log-normal shape parameter for both distributions.
        sigma: f64,
        /// Offset of the first session start from the simulation start, in
        /// seconds (peers do not all join at once).
        initial_delay_secs: f64,
    },
    /// Joins exactly once and leaves for good (the paper's "one-time users").
    OneShot {
        /// Arrival time offset from the simulation start, in seconds.
        arrival_secs: f64,
        /// How long the peer stays, in seconds.
        stay_secs: f64,
    },
}

impl SessionPattern {
    /// The first session of the pattern: `(start, optional end)` relative to
    /// the simulation start. `None` means the session lasts to the end of the
    /// run.
    pub(crate) fn first_session(&self, rng: &mut SimRng) -> (SimTime, Option<SimTime>) {
        match self {
            SessionPattern::AlwaysOn => (SimTime::ZERO, None),
            SessionPattern::Intermittent {
                online_median_secs,
                sigma,
                initial_delay_secs,
                ..
            } => {
                let start = SimTime::ZERO + SimDuration::from_secs_f64(*initial_delay_secs);
                let len = rng.log_normal(*online_median_secs, *sigma);
                (start, Some(start + SimDuration::from_secs_f64(len)))
            }
            SessionPattern::OneShot {
                arrival_secs,
                stay_secs,
            } => {
                let start = SimTime::ZERO + SimDuration::from_secs_f64(*arrival_secs);
                (start, Some(start + SimDuration::from_secs_f64(*stay_secs)))
            }
        }
    }

    /// The next session after a session that ended at `ended_at`, if the
    /// pattern rejoins: `(start, optional end)`.
    pub(crate) fn next_session(
        &self,
        ended_at: SimTime,
        rng: &mut SimRng,
    ) -> Option<(SimTime, Option<SimTime>)> {
        match self {
            SessionPattern::AlwaysOn | SessionPattern::OneShot { .. } => None,
            SessionPattern::Intermittent {
                online_median_secs,
                offline_median_secs,
                sigma,
                ..
            } => {
                let gap = rng.log_normal(*offline_median_secs, *sigma).max(1.0);
                let start = ended_at + SimDuration::from_secs_f64(gap);
                let len = rng.log_normal(*online_median_secs, *sigma).max(1.0);
                Some((start, Some(start + SimDuration::from_secs_f64(len))))
            }
        }
    }
}

/// How a remote peer behaves towards an observer: whether and how often it
/// dials, and how long it keeps a connection before trimming it.
#[derive(Debug, Clone, PartialEq)]
pub struct DialBehavior {
    /// Probability that the peer ever dials a DHT-Server observer during a
    /// session. DHT-Servers are discoverable via routing, so this is high
    /// for most archetypes.
    pub dial_server_prob: f64,
    /// Probability that the peer ever dials a DHT-Client observer during a
    /// session (it can only learn about it from an earlier outbound contact,
    /// so this is much lower).
    pub dial_client_prob: f64,
    /// Median delay (seconds) between coming online / losing a connection and
    /// (re)dialing the observer.
    pub redial_median_secs: f64,
    /// Log-normal shape for the redial delay.
    pub redial_sigma: f64,
    /// Whether the peer re-establishes the connection after it is closed
    /// (crawlers and one-time users do not).
    pub reconnect: bool,
    /// Median time (seconds) the *remote* side keeps the connection open
    /// before its own connection manager trims it, when the observer is a
    /// DHT-Server.
    pub hold_server_median_secs: f64,
    /// Same, when the observer is a DHT-Client (clients are prime trimming
    /// candidates, so this is shorter).
    pub hold_client_median_secs: f64,
    /// Log-normal shape for the hold time. Large values produce the heavy
    /// tail of connections that survive for days.
    pub hold_sigma: f64,
    /// Probability that the identify exchange completes on a given
    /// connection (peers with `Missing` metadata in the paper never
    /// completed one).
    pub identify_prob: f64,
    /// Value tag the observer's connection manager assigns to connections
    /// with this peer (DHT-relevant peers score higher and survive local
    /// trims longer).
    pub observer_value: i32,
}

impl DialBehavior {
    /// A neutral default: dials servers eagerly, reconnects, holds
    /// connections for a couple of minutes.
    pub fn default_peer() -> Self {
        DialBehavior {
            dial_server_prob: 0.9,
            dial_client_prob: 0.02,
            redial_median_secs: 60.0,
            redial_sigma: 1.0,
            reconnect: true,
            hold_server_median_secs: 90.0,
            hold_client_median_secs: 60.0,
            hold_sigma: 1.2,
            identify_prob: 0.97,
            observer_value: 0,
        }
    }

    /// Samples the hold time of a new connection given the observer role.
    pub(crate) fn sample_hold(&self, observer_is_server: bool, rng: &mut SimRng) -> SimDuration {
        let median = if observer_is_server {
            self.hold_server_median_secs
        } else {
            self.hold_client_median_secs
        };
        SimDuration::from_secs_f64(rng.log_normal(median, self.hold_sigma).max(1.0))
    }

    /// Samples the delay before the peer (re)dials an observer.
    pub(crate) fn sample_redial_delay(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.log_normal(self.redial_median_secs, self.redial_sigma).max(1.0))
    }

    /// Whether the peer dials an observer with the given role at all.
    pub(crate) fn dials(&self, observer_is_server: bool, rng: &mut SimRng) -> bool {
        let p = if observer_is_server {
            self.dial_server_prob
        } else {
            self.dial_client_prob
        };
        rng.chance(p)
    }
}

/// A change to a remote peer's announced metadata, applied at a scheduled
/// time (version upgrades/downgrades, DHT role switches, autonat flapping).
#[derive(Debug, Clone, PartialEq)]
pub enum MetadataChange {
    /// Replace the agent version string.
    SetAgent(AgentVersion),
    /// Announce an additional protocol.
    AddProtocol(String),
    /// Stop announcing a protocol.
    RemoveProtocol(String),
    /// Replace the entire protocol set.
    SetProtocols(ProtocolSet),
}

impl MetadataChange {
    /// Applies the change to an identify payload in place.
    ///
    /// The engine's build applies each peer's whole chain up front, in
    /// schedule order, to intern every payload version the peer will ever
    /// announce; the metadata events then carry only the interned ids.
    pub(crate) fn apply(&self, identify: &mut IdentifyInfo) {
        match self {
            MetadataChange::SetAgent(agent) => identify.agent = agent.clone(),
            MetadataChange::AddProtocol(p) => {
                identify.protocols.insert(ProtocolId::new(p.clone()));
            }
            MetadataChange::RemoveProtocol(p) => {
                identify.protocols.remove(p);
            }
            MetadataChange::SetProtocols(protocols) => identify.protocols = protocols.clone(),
        }
    }
}

/// A metadata change scheduled for a specific simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledChange {
    /// When the change takes effect.
    pub at: SimTime,
    /// What changes.
    pub change: MetadataChange,
}

/// A scripted mutation of the peer population, applied mid-run.
///
/// Churn scenarios (diurnal waves, flash crowds, PID-rotation floods, …) are
/// expressed as streams of these actions layered on top of a base
/// population; the engine injects them through its event queue, so they
/// interleave deterministically with the ordinary session/dial/trim events.
#[derive(Debug, Clone, PartialEq)]
pub enum PopulationAction {
    /// New peers join the network. Their session patterns and scheduled
    /// metadata changes are interpreted *relative to the injection time*
    /// (an `arrival_secs` of 0 means "online at the moment of the batch").
    Join(Vec<RemotePeerSpec>),
    /// The named peers leave permanently: they are forced offline and their
    /// session patterns never rejoin. Unknown PIDs are ignored.
    Leave(Vec<PeerId>),
    /// An operator cycles its identity: the `retire`d PIDs leave permanently
    /// and the `join` replacements enter in the same instant (the paper's
    /// rotating-PID operator behind a single IP).
    Rotate {
        /// PIDs retired by the rotation.
        retire: Vec<PeerId>,
        /// Replacement peers joining in the same instant.
        join: Vec<RemotePeerSpec>,
    },
}

/// A [`PopulationAction`] scheduled for a specific simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationEvent {
    /// When the action is applied.
    pub at: SimTime,
    /// The population mutation.
    pub action: PopulationAction,
}

/// Everything the simulator needs to know about one remote peer.
///
/// The identify payload is shared, not owned: populations draw it from a
/// handful of distinct payloads, so specs with equal payloads should hold
/// clones of one [`Arc`]. The engine's build interns each distinct
/// allocation once and reads the payload of every later spec that shares it
/// by pointer, not by content.
#[derive(Debug, Clone, PartialEq)]
pub struct RemotePeerSpec {
    /// The peer's identifier.
    pub peer_id: PeerId,
    /// The address the peer connects from / announces (its IP is what
    /// Section V-A groups by).
    pub addr: Multiaddr,
    /// The initial identify payload, shared with every spec that announces
    /// the same one.
    pub identify: Arc<IdentifyInfo>,
    /// Online/offline pattern.
    pub session: SessionPattern,
    /// Dialing and holding behaviour towards the observers.
    pub behavior: DialBehavior,
    /// Scheduled metadata changes (must be sorted by time).
    pub changes: Vec<ScheduledChange>,
    /// Probability that an observer learns about this peer through DHT
    /// routing traffic alone (a Peerstore entry without any connection —
    /// the paper saw ~3.6 k such PIDs).
    pub gossip_visibility: f64,
    /// DHT-protocol conduct (routing-table admission and lookup replies).
    /// Non-honest peers are also excluded from the observers' outbound
    /// maintenance-dial pool: adversarial DHT daemons squat the key space
    /// but do not accept swarm connections, which is what keeps the passive
    /// monitor view byte-identical under DHT-level attacks.
    pub dht_conduct: DhtConduct,
}

impl RemotePeerSpec {
    /// Creates a spec with the given identity and identify payload, default
    /// behaviour, an always-on session and no scheduled changes. Pass an
    /// `Arc` to share the payload with other specs, or an owned
    /// [`IdentifyInfo`] for a payload of its own.
    pub fn new(peer_id: PeerId, addr: Multiaddr, identify: impl Into<Arc<IdentifyInfo>>) -> Self {
        RemotePeerSpec {
            peer_id,
            addr,
            identify: identify.into(),
            session: SessionPattern::AlwaysOn,
            behavior: DialBehavior::default_peer(),
            changes: Vec::new(),
            gossip_visibility: 0.0,
            dht_conduct: DhtConduct::Honest,
        }
    }

    /// Returns a copy with the given session pattern.
    pub fn with_session(mut self, session: SessionPattern) -> Self {
        self.session = session;
        self
    }

    /// Returns a copy with the given dial behaviour.
    pub fn with_behavior(mut self, behavior: DialBehavior) -> Self {
        self.behavior = behavior;
        self
    }

    /// Returns a copy with the given scheduled metadata changes (sorted by
    /// time internally).
    pub fn with_changes(mut self, mut changes: Vec<ScheduledChange>) -> Self {
        changes.sort_by_key(|c| c.at);
        self.changes = changes;
        self
    }

    /// Returns a copy with the given gossip visibility.
    pub fn with_gossip_visibility(mut self, p: f64) -> Self {
        self.gossip_visibility = p;
        self
    }

    /// Returns a copy with the given DHT conduct.
    pub fn with_dht_conduct(mut self, conduct: DhtConduct) -> Self {
        self.dht_conduct = conduct;
        self
    }

    /// Whether the peer initially announces the DHT-Server role.
    pub fn is_dht_server(&self) -> bool {
        self.identify.is_dht_server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmodel::{IpAddress, Transport};

    fn spec() -> RemotePeerSpec {
        RemotePeerSpec::new(
            PeerId::derived(1),
            Multiaddr::new(IpAddress::V4(1), Transport::Tcp, 4001),
            IdentifyInfo::new(
                AgentVersion::parse("go-ipfs/0.11.0/"),
                ProtocolSet::go_ipfs_dht_server(),
                Vec::new(),
            ),
        )
    }

    #[test]
    fn always_on_session_spans_whole_run() {
        let mut rng = SimRng::seed_from(1);
        let (start, end) = SessionPattern::AlwaysOn.first_session(&mut rng);
        assert_eq!(start, SimTime::ZERO);
        assert_eq!(end, None);
        assert!(SessionPattern::AlwaysOn.next_session(SimTime::from_secs(10), &mut rng).is_none());
    }

    #[test]
    fn one_shot_session_never_returns() {
        let mut rng = SimRng::seed_from(1);
        let pattern = SessionPattern::OneShot {
            arrival_secs: 100.0,
            stay_secs: 600.0,
        };
        let (start, end) = pattern.first_session(&mut rng);
        assert_eq!(start, SimTime::from_secs(100));
        assert_eq!(end, Some(SimTime::from_secs(700)));
        assert!(pattern.next_session(SimTime::from_secs(700), &mut rng).is_none());
    }

    #[test]
    fn intermittent_sessions_alternate_and_move_forward() {
        let mut rng = SimRng::seed_from(2);
        let pattern = SessionPattern::Intermittent {
            online_median_secs: 3600.0,
            offline_median_secs: 1800.0,
            sigma: 0.5,
            initial_delay_secs: 60.0,
        };
        let (start, end) = pattern.first_session(&mut rng);
        assert_eq!(start, SimTime::from_secs(60));
        let end = end.expect("intermittent sessions end");
        assert!(end > start);
        let (next_start, next_end) = pattern.next_session(end, &mut rng).expect("rejoins");
        assert!(next_start > end);
        assert!(next_end.unwrap() > next_start);
    }

    #[test]
    fn dial_behavior_sampling_respects_role() {
        let mut rng = SimRng::seed_from(3);
        let behavior = DialBehavior {
            dial_server_prob: 1.0,
            dial_client_prob: 0.0,
            ..DialBehavior::default_peer()
        };
        assert!(behavior.dials(true, &mut rng));
        assert!(!behavior.dials(false, &mut rng));
        // Hold times are at least one second and depend on the role medians.
        let hold = behavior.sample_hold(true, &mut rng);
        assert!(hold >= SimDuration::from_secs(1));
        let redial = behavior.sample_redial_delay(&mut rng);
        assert!(redial >= SimDuration::from_secs(1));
    }

    #[test]
    fn spec_builders_sort_changes() {
        let s = spec()
            .with_gossip_visibility(0.5)
            .with_changes(vec![
                ScheduledChange {
                    at: SimTime::from_secs(200),
                    change: MetadataChange::RemoveProtocol("/ipfs/kad/1.0.0".into()),
                },
                ScheduledChange {
                    at: SimTime::from_secs(100),
                    change: MetadataChange::AddProtocol("/ipfs/kad/1.0.0".into()),
                },
            ])
            .with_session(SessionPattern::OneShot {
                arrival_secs: 0.0,
                stay_secs: 10.0,
            })
            .with_behavior(DialBehavior::default_peer());
        assert_eq!(s.changes[0].at, SimTime::from_secs(100));
        assert_eq!(s.changes[1].at, SimTime::from_secs(200));
        assert!(s.is_dht_server());
        assert_eq!(s.gossip_visibility, 0.5);
    }
}
