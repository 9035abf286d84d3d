//! Behavioural archetypes.
//!
//! Every simulated peer belongs to one archetype that determines its session
//! pattern (how long it stays online), its dialing behaviour towards the
//! measurement nodes, its protocol profile, and how its connections are
//! valued by the observers' connection managers. The archetype mix is chosen
//! in [`crate::builder`] so that the aggregate reproduces the connection
//! classes of Table IV and the agent/protocol composition of Fig. 3/4.

use netsim::{DialBehavior, SessionPattern};
use p2pmodel::ProtocolSet;
use simclock::SimRng;

/// The behavioural archetype of a simulated peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// Long-running DHT-Server infrastructure (gateways, pinning services).
    /// Online for the whole run, keeps connections for a long time unless the
    /// *observer* trims them — the "heavy" DHT-Server slice of Table IV.
    StableServer,
    /// Long-running DHT-Client node (the paper's "core user base"): online
    /// essentially all the time, but as a client it is a preferred trimming
    /// victim of other peers, so its connections are shorter.
    CoreClient,
    /// A regular desktop-style peer that is online for a few hours at a time
    /// and returns after a break — mostly "normal" class.
    RegularServer,
    /// Same session behaviour as [`Archetype::RegularServer`] but running as
    /// a DHT-Client.
    RegularClient,
    /// A peer with many short sessions and frequent reconnections
    /// (experimental, faulty or aggressively restarted nodes) — the "light"
    /// class, which in the paper is dominated by DHT-Servers.
    LightChurner,
    /// Joins once, stays briefly (< 2 h) and never returns — the "one-time"
    /// class and the largest single group in Table IV.
    OneTimeUser,
    /// An active DHT crawler (nebula, ipfs-crawler): opens many very short
    /// connections, never keeps them.
    Crawler,
    /// A hydra-booster head: always-on DHT-Server co-located with other heads
    /// on a small set of IP addresses.
    HydraHead,
    /// An IPStorm botnet node announcing the `sbptp`/`sfst` protocols under a
    /// `storm` agent string.
    StormNode,
    /// A storm node disguising itself as go-ipfs v0.8.0: go-ipfs agent string
    /// but `sbptp` instead of Bitswap (the anomaly highlighted in IV-B).
    DisguisedStorm,
    /// A peer that never completes an identify exchange (the ~3 000 PIDs with
    /// a "missing" agent in the paper).
    SilentPeer,
    /// The single go-ethereum agent the paper stumbled over.
    EthereumNode,
}

impl Archetype {
    /// All archetypes, in a stable order (useful for reports and tests).
    pub const ALL: [Archetype; 12] = [
        Archetype::StableServer,
        Archetype::CoreClient,
        Archetype::RegularServer,
        Archetype::RegularClient,
        Archetype::LightChurner,
        Archetype::OneTimeUser,
        Archetype::Crawler,
        Archetype::HydraHead,
        Archetype::StormNode,
        Archetype::DisguisedStorm,
        Archetype::SilentPeer,
        Archetype::EthereumNode,
    ];

    /// Whether peers of this archetype announce the Kademlia protocol
    /// (DHT-Server role) by default.
    pub(crate) fn is_dht_server(self) -> bool {
        match self {
            Archetype::StableServer
            | Archetype::RegularServer
            | Archetype::Crawler
            | Archetype::HydraHead
            | Archetype::StormNode
            | Archetype::DisguisedStorm => true,
            Archetype::CoreClient
            | Archetype::RegularClient
            | Archetype::OneTimeUser
            | Archetype::LightChurner
            | Archetype::SilentPeer
            | Archetype::EthereumNode => false,
        }
    }

    /// The protocol profile announced by peers of this archetype.
    ///
    /// `LightChurner` and `OneTimeUser` peers are ordinary go-ipfs nodes, a
    /// fraction of which runs as DHT-Server; the builder flips their profile
    /// accordingly via `server_override`.
    pub(crate) fn protocols(self, server_override: bool) -> ProtocolSet {
        match self {
            Archetype::StableServer | Archetype::RegularServer => ProtocolSet::go_ipfs_dht_server(),
            Archetype::CoreClient | Archetype::RegularClient => ProtocolSet::go_ipfs_dht_client(),
            Archetype::LightChurner | Archetype::OneTimeUser | Archetype::EthereumNode => {
                if server_override {
                    ProtocolSet::go_ipfs_dht_server()
                } else {
                    ProtocolSet::go_ipfs_dht_client()
                }
            }
            Archetype::Crawler => ProtocolSet::crawler(),
            Archetype::HydraHead => ProtocolSet::hydra_head(),
            Archetype::StormNode => ProtocolSet::storm_node(),
            Archetype::DisguisedStorm => ProtocolSet::disguised_storm(),
            Archetype::SilentPeer => ProtocolSet::new(),
        }
    }

    /// Samples a session pattern for a peer of this archetype.
    ///
    /// `run_secs` is the total scheduled run length; one-time users arrive
    /// uniformly over the run, recurring peers start with a random offset so
    /// the network does not "boot" all at once.
    pub(crate) fn session(self, run_secs: f64, rng: &mut SimRng) -> SessionPattern {
        match self {
            Archetype::StableServer
            | Archetype::CoreClient
            | Archetype::HydraHead
            | Archetype::Crawler
            | Archetype::EthereumNode => SessionPattern::AlwaysOn,
            Archetype::StormNode => SessionPattern::Intermittent {
                online_median_secs: 12.0 * 3600.0,
                offline_median_secs: 2.0 * 3600.0,
                sigma: 0.8,
                initial_delay_secs: rng.unit() * 3600.0,
            },
            Archetype::RegularServer | Archetype::RegularClient => SessionPattern::Intermittent {
                online_median_secs: 6.0 * 3600.0,
                offline_median_secs: 4.0 * 3600.0,
                sigma: 0.9,
                initial_delay_secs: rng.unit() * 4.0 * 3600.0,
            },
            Archetype::LightChurner | Archetype::DisguisedStorm => SessionPattern::Intermittent {
                online_median_secs: 35.0 * 60.0,
                offline_median_secs: 90.0 * 60.0,
                sigma: 1.0,
                initial_delay_secs: rng.unit() * 2.0 * 3600.0,
            },
            Archetype::SilentPeer => SessionPattern::Intermittent {
                online_median_secs: 30.0 * 60.0,
                offline_median_secs: 5.0 * 3600.0,
                sigma: 1.0,
                initial_delay_secs: rng.unit() * run_secs * 0.5,
            },
            Archetype::OneTimeUser => {
                // Arrivals spread uniformly over the run; stays are short
                // (well under the 2 h one-time threshold of Table IV).
                let arrival = rng.unit() * (run_secs * 0.98);
                let stay = (rng.log_normal(20.0 * 60.0, 0.8)).min(110.0 * 60.0);
                SessionPattern::OneShot {
                    arrival_secs: arrival,
                    stay_secs: stay.max(60.0),
                }
            }
        }
    }

    /// The dialing/holding behaviour of peers of this archetype towards the
    /// measurement nodes.
    pub(crate) fn behavior(self, rng: &mut SimRng) -> DialBehavior {
        match self {
            Archetype::StableServer | Archetype::HydraHead => DialBehavior {
                dial_server_prob: 0.97,
                dial_client_prob: 0.05,
                redial_median_secs: 300.0,
                redial_sigma: 1.0,
                reconnect: true,
                // Infrastructure keeps connections for many hours; mostly the
                // observer (or the end of the run) cuts them.
                hold_server_median_secs: 40.0 * 3600.0,
                hold_client_median_secs: 2.0 * 3600.0,
                hold_sigma: 1.0,
                identify_prob: 0.995,
                observer_value: 20,
            },
            Archetype::CoreClient => DialBehavior {
                dial_server_prob: 0.95,
                dial_client_prob: 0.03,
                redial_median_secs: 400.0,
                redial_sigma: 1.0,
                reconnect: true,
                hold_server_median_secs: 20.0 * 3600.0,
                hold_client_median_secs: 1.5 * 3600.0,
                hold_sigma: 1.1,
                identify_prob: 0.99,
                observer_value: 5,
            },
            Archetype::RegularServer | Archetype::RegularClient => DialBehavior {
                dial_server_prob: 0.92,
                dial_client_prob: 0.03,
                redial_median_secs: 240.0 + rng.unit() * 120.0,
                redial_sigma: 1.1,
                reconnect: true,
                hold_server_median_secs: 45.0 * 60.0,
                hold_client_median_secs: 8.0 * 60.0,
                hold_sigma: 1.4,
                identify_prob: 0.98,
                observer_value: if self == Archetype::RegularServer { 5 } else { 0 },
            },
            Archetype::LightChurner => DialBehavior {
                dial_server_prob: 0.9,
                dial_client_prob: 0.05,
                redial_median_secs: 120.0,
                redial_sigma: 1.2,
                reconnect: true,
                hold_server_median_secs: 100.0,
                hold_client_median_secs: 70.0,
                hold_sigma: 1.0,
                identify_prob: 0.96,
                observer_value: 0,
            },
            Archetype::OneTimeUser => DialBehavior {
                dial_server_prob: 0.85,
                dial_client_prob: 0.015,
                redial_median_secs: 180.0,
                redial_sigma: 0.8,
                reconnect: false,
                hold_server_median_secs: 180.0,
                hold_client_median_secs: 90.0,
                hold_sigma: 1.0,
                identify_prob: 0.94,
                observer_value: -5,
            },
            Archetype::Crawler => DialBehavior {
                dial_server_prob: 1.0,
                dial_client_prob: 0.0,
                // Crawlers revisit the node on every crawl round.
                redial_median_secs: 2.0 * 3600.0,
                redial_sigma: 0.6,
                reconnect: true,
                hold_server_median_secs: 15.0,
                hold_client_median_secs: 15.0,
                hold_sigma: 0.4,
                identify_prob: 0.99,
                observer_value: -10,
            },
            Archetype::StormNode | Archetype::DisguisedStorm => DialBehavior {
                dial_server_prob: 0.9,
                dial_client_prob: 0.02,
                redial_median_secs: 150.0,
                redial_sigma: 1.0,
                reconnect: true,
                hold_server_median_secs: 8.0 * 60.0,
                hold_client_median_secs: 3.0 * 60.0,
                hold_sigma: 1.2,
                identify_prob: 0.97,
                observer_value: 0,
            },
            Archetype::SilentPeer => DialBehavior {
                dial_server_prob: 0.6,
                dial_client_prob: 0.01,
                redial_median_secs: 300.0,
                redial_sigma: 1.0,
                reconnect: false,
                hold_server_median_secs: 60.0,
                hold_client_median_secs: 45.0,
                hold_sigma: 0.8,
                // The defining property: identify never completes.
                identify_prob: 0.0,
                observer_value: -5,
            },
            Archetype::EthereumNode => DialBehavior {
                dial_server_prob: 0.8,
                dial_client_prob: 0.0,
                redial_median_secs: 600.0,
                redial_sigma: 0.8,
                reconnect: true,
                hold_server_median_secs: 30.0 * 60.0,
                hold_client_median_secs: 10.0 * 60.0,
                hold_sigma: 1.0,
                identify_prob: 1.0,
                observer_value: 0,
            },
        }
    }

    /// Probability that an observer learns about a peer of this archetype
    /// through routing gossip alone (without a connection).
    pub(crate) fn gossip_visibility(self) -> f64 {
        match self {
            Archetype::StableServer | Archetype::RegularServer | Archetype::HydraHead => 0.10,
            Archetype::StormNode | Archetype::DisguisedStorm => 0.05,
            Archetype::SilentPeer => 0.30,
            _ => 0.02,
        }
    }

    /// A human-readable label used in reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Archetype::StableServer => "stable-server",
            Archetype::CoreClient => "core-client",
            Archetype::RegularServer => "regular-server",
            Archetype::RegularClient => "regular-client",
            Archetype::LightChurner => "light-churner",
            Archetype::OneTimeUser => "one-time-user",
            Archetype::Crawler => "crawler",
            Archetype::HydraHead => "hydra-head",
            Archetype::StormNode => "storm-node",
            Archetype::DisguisedStorm => "disguised-storm",
            Archetype::SilentPeer => "silent-peer",
            Archetype::EthereumNode => "ethereum-node",
        }
    }
}

impl std::fmt::Display for Archetype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_list_is_complete_and_distinct() {
        let mut labels: Vec<&str> = Archetype::ALL.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Archetype::ALL.len());
    }

    #[test]
    fn dht_roles_match_protocol_profiles() {
        for archetype in Archetype::ALL {
            let protocols = archetype.protocols(archetype.is_dht_server());
            if archetype == Archetype::SilentPeer {
                assert!(protocols.is_empty());
                continue;
            }
            assert_eq!(
                protocols.is_dht_server(),
                archetype.is_dht_server(),
                "protocol profile of {archetype} must match its role"
            );
        }
    }

    #[test]
    fn server_override_flips_ordinary_peers() {
        assert!(Archetype::OneTimeUser.protocols(true).is_dht_server());
        assert!(!Archetype::OneTimeUser.protocols(false).is_dht_server());
        assert!(Archetype::LightChurner.protocols(true).is_dht_server());
    }

    #[test]
    fn disguised_storm_is_the_papers_anomaly() {
        let p = Archetype::DisguisedStorm.protocols(true);
        assert!(p.has_storm_markers());
        assert!(!p.supports_bitswap());
    }

    #[test]
    fn one_time_users_stay_under_two_hours() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..200 {
            match Archetype::OneTimeUser.session(72.0 * 3600.0, &mut rng) {
                SessionPattern::OneShot { stay_secs, arrival_secs } => {
                    assert!(stay_secs < 2.0 * 3600.0, "stay {stay_secs} exceeds 2 h");
                    assert!(arrival_secs <= 72.0 * 3600.0);
                }
                other => panic!("one-time users must be one-shot, got {other:?}"),
            }
        }
    }

    #[test]
    fn silent_peers_never_identify() {
        let mut rng = SimRng::seed_from(2);
        assert_eq!(Archetype::SilentPeer.behavior(&mut rng).identify_prob, 0.0);
    }

    #[test]
    fn crawlers_hold_connections_briefly_and_never_reconnect_fast() {
        let mut rng = SimRng::seed_from(3);
        let b = Archetype::Crawler.behavior(&mut rng);
        assert!(b.hold_server_median_secs < 60.0);
        assert!(b.redial_median_secs > 600.0);
        assert!(b.dial_server_prob >= 0.99);
        assert_eq!(b.dial_client_prob, 0.0);
    }

    #[test]
    fn stable_peers_hold_far_longer_than_light_ones() {
        let mut rng = SimRng::seed_from(4);
        let stable = Archetype::StableServer.behavior(&mut rng);
        let light = Archetype::LightChurner.behavior(&mut rng);
        assert!(stable.hold_server_median_secs > 100.0 * light.hold_server_median_secs);
        // And connections to a DHT-Client observer are held for less time
        // than to a DHT-Server observer across every archetype.
        for archetype in Archetype::ALL {
            let b = archetype.behavior(&mut rng);
            assert!(b.hold_client_median_secs <= b.hold_server_median_secs);
            assert!(b.dial_client_prob <= b.dial_server_prob);
        }
    }

    #[test]
    fn gossip_visibility_is_a_probability() {
        for archetype in Archetype::ALL {
            let p = archetype.gossip_visibility();
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Archetype::HydraHead.to_string(), "hydra-head");
        assert_eq!(format!("{}", Archetype::OneTimeUser), "one-time-user");
    }
}
