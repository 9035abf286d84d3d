//! The population builder.
//!
//! [`PopulationBuilder`] assembles the full set of [`RemotePeerSpec`]s for a
//! simulation run from a [`PopulationMix`] whose default values are
//! calibrated to the composition the paper reports for its P4 data set
//! (Section IV-B, Table IV and Section V-A). A `scale` factor shrinks the
//! population uniformly so tests and quick experiments stay fast while
//! preserving every proportion.

use crate::agents;
use crate::archetype::Archetype;
use crate::dynamics::{self, DynamicsConfig};
use crate::ip::IpAllocator;
use netsim::RemotePeerSpec;
use p2pmodel::{AgentVersion, IdentifyInfo, PeerId};
use simclock::{SimDuration, SimRng};

/// How many peers of each archetype the population contains.
///
/// The default (`PopulationMix::paper_scale`) reproduces the composition of
/// the paper's three-day P4 data set; `one_time_per_day` scales with the run
/// length because one-time users keep arriving for as long as the measurement
/// runs (Fig. 6 shows the PID count growing continuously).
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationMix {
    /// Always-on DHT-Server infrastructure (the non-hydra part of the
    /// "heavy" server slice).
    pub stable_servers: usize,
    /// Always-on DHT-Client nodes (the "core user base").
    pub core_clients: usize,
    /// Multi-hour recurring DHT-Servers.
    pub regular_servers: usize,
    /// Multi-hour recurring DHT-Clients.
    pub regular_clients: usize,
    /// Short-session, frequently reconnecting peers.
    pub light_churners: usize,
    /// Fraction of light churners that run as DHT-Servers.
    pub light_server_fraction: f64,
    /// One-time users arriving per simulated day.
    pub one_time_per_day: usize,
    /// Fraction of one-time users that run as DHT-Servers.
    pub one_time_server_fraction: f64,
    /// Active DHT crawlers.
    pub crawlers: usize,
    /// Hydra-booster heads (co-located on 11 IP addresses).
    pub hydra_heads: usize,
    /// Storm botnet nodes with a `storm` agent string.
    pub storm_nodes: usize,
    /// Storm nodes disguised as go-ipfs v0.8.0 (announce `sbptp`, hide
    /// Bitswap).
    pub disguised_storm: usize,
    /// Peers that never complete an identify exchange.
    pub silent_peers: usize,
    /// PIDs of the single rotating-PID operator (one IP, identical
    /// metadata, fresh PID per connection).
    pub rotator_pids: usize,
    /// go-ethereum nodes (the paper saw exactly one).
    pub ethereum_nodes: usize,
}

impl PopulationMix {
    /// The composition of the paper's P4 data set (three days, ~65 k PIDs).
    pub(crate) fn paper_scale() -> Self {
        PopulationMix {
            stable_servers: 420,
            core_clients: 9_090,
            regular_servers: 1_420,
            regular_clients: 14_475,
            light_churners: 7_300,
            light_server_fraction: 0.023,
            one_time_per_day: 5_600,
            one_time_server_fraction: 0.32,
            crawlers: 586,
            hydra_heads: 1_028,
            storm_nodes: 1_500,
            disguised_storm: 7_498,
            silent_peers: 3_059,
            rotator_pids: 2_156,
            ethereum_nodes: 1,
        }
    }

    /// Returns a copy with every count multiplied by `factor` (minimum 1 for
    /// categories that are non-zero at paper scale, so rare-but-important
    /// archetypes like the ethereum node survive even tiny scales).
    pub(crate) fn scaled(&self, factor: f64) -> Self {
        let scale = |n: usize| -> usize {
            if n == 0 {
                0
            } else {
                ((n as f64 * factor).round() as usize).max(1)
            }
        };
        PopulationMix {
            stable_servers: scale(self.stable_servers),
            core_clients: scale(self.core_clients),
            regular_servers: scale(self.regular_servers),
            regular_clients: scale(self.regular_clients),
            light_churners: scale(self.light_churners),
            light_server_fraction: self.light_server_fraction,
            one_time_per_day: scale(self.one_time_per_day),
            one_time_server_fraction: self.one_time_server_fraction,
            crawlers: scale(self.crawlers),
            hydra_heads: scale(self.hydra_heads),
            storm_nodes: scale(self.storm_nodes),
            disguised_storm: scale(self.disguised_storm),
            silent_peers: scale(self.silent_peers),
            rotator_pids: scale(self.rotator_pids),
            ethereum_nodes: self.ethereum_nodes,
        }
    }
}

impl Default for PopulationMix {
    fn default() -> Self {
        PopulationMix::paper_scale()
    }
}

/// A generated population: the peer specs for the simulator plus the
/// archetype of every peer (parallel vector), which analyses and tests use as
/// ground truth.
#[derive(Debug, Clone)]
pub struct Population {
    /// Peer specifications, ready to hand to [`netsim::Network::new`].
    pub specs: Vec<RemotePeerSpec>,
    /// The archetype of each peer, parallel to `specs`.
    pub archetypes: Vec<Archetype>,
    /// Ground-truth number of *participants* behind the PIDs: every peer
    /// counts once, except that all rotator PIDs belong to one operator and
    /// hydra heads collapse to their co-located hosts. This is the baseline
    /// Section V's estimators are trying to approach, and what
    /// `analysis::robustness` measures estimator error against.
    pub participants: usize,
}

impl Population {
    /// Number of peers.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Builds populations with a given seed, scale, run length and dynamics
/// configuration.
///
/// # Example
///
/// ```
/// use population::PopulationBuilder;
/// use simclock::SimDuration;
///
/// let population = PopulationBuilder::new(7)
///     .with_scale(0.01)
///     .with_duration(SimDuration::from_hours(24))
///     .build();
/// assert!(population.len() > 100);
/// assert!(population.specs.iter().any(|s| s.is_dht_server()));
/// ```
#[derive(Debug, Clone)]
pub struct PopulationBuilder {
    seed: u64,
    mix: PopulationMix,
    run: SimDuration,
    dynamics: DynamicsConfig,
}

impl PopulationBuilder {
    /// Creates a builder at paper scale for a three-day run.
    pub fn new(seed: u64) -> Self {
        PopulationBuilder {
            seed,
            mix: PopulationMix::paper_scale(),
            run: SimDuration::from_days(3),
            dynamics: DynamicsConfig::default(),
        }
    }

    /// Scales the current mix by `factor`.
    pub fn with_scale(mut self, factor: f64) -> Self {
        self.mix = self.mix.scaled(factor);
        self
    }

    /// Sets the run length the population is generated for (affects one-time
    /// arrivals and the span of metadata-change schedules).
    pub fn with_duration(mut self, run: SimDuration) -> Self {
        self.run = run;
        self
    }

    /// Generates the population.
    pub fn build(&self) -> Population {
        let mut rng = SimRng::seed_from(self.seed);
        let mut ips = IpAllocator::new(&mut rng);
        let mut specs = Vec::new();
        let mut archetypes = Vec::new();
        let mut next_label: u64 = 1;

        let days = (self.run.as_secs_f64() / 86_400.0).max(1.0 / 24.0);
        let one_time_total = (self.mix.one_time_per_day as f64 * days).round() as usize;

        let push = |archetype: Archetype,
                        server_override: bool,
                        rotator: bool,
                        specs: &mut Vec<RemotePeerSpec>,
                        archetypes: &mut Vec<Archetype>,
                        ips: &mut IpAllocator,
                        rng: &mut SimRng,
                        next_label: &mut u64| {
            let peer_id = PeerId::derived(*next_label);
            *next_label += 1;
            let addr = if rotator {
                ips.rotator()
            } else {
                match archetype {
                    Archetype::HydraHead => ips.hydra(),
                    Archetype::OneTimeUser | Archetype::LightChurner if rng.chance(0.10) => {
                        ips.nat_shared()
                    }
                    _ => ips.unique(),
                }
            };
            let agent = if rotator {
                // The rotating operator runs the same software behind every
                // PID — the paper notes the 2 156 PIDs share agent version
                // and protocols.
                AgentVersion::parse("go-ipfs/0.10.0/64b532f")
            } else {
                agents::sample_agent(archetype, rng)
            };
            let protocols = archetype.protocols(server_override);
            let is_server = protocols.is_dht_server();
            let supports_autonat = protocols.supports_autonat();
            let identify = IdentifyInfo::new(agent.clone(), protocols, vec![addr]);
            let changes = if rotator || archetype == Archetype::SilentPeer {
                Vec::new()
            } else {
                dynamics::peer_change_schedule(
                    &agent,
                    is_server,
                    supports_autonat,
                    self.run,
                    &self.dynamics,
                    rng,
                )
            };
            let spec = RemotePeerSpec::new(peer_id, addr, identify)
                .with_session(archetype.session(self.run.as_secs_f64(), rng))
                .with_behavior(archetype.behavior(rng))
                .with_gossip_visibility(archetype.gossip_visibility())
                .with_changes(changes);
            specs.push(spec);
            archetypes.push(archetype);
        };

        let add_many = |archetype: Archetype,
                            count: usize,
                            server_fraction: Option<f64>,
                            rotator: bool,
                            specs: &mut Vec<RemotePeerSpec>,
                            archetypes: &mut Vec<Archetype>,
                            ips: &mut IpAllocator,
                            rng: &mut SimRng,
                            next_label: &mut u64| {
            for _ in 0..count {
                let server_override = match server_fraction {
                    Some(f) => rng.chance(f),
                    None => archetype.is_dht_server(),
                };
                push(
                    archetype,
                    server_override,
                    rotator,
                    specs,
                    archetypes,
                    ips,
                    rng,
                    next_label,
                );
            }
        };

        add_many(Archetype::StableServer, self.mix.stable_servers, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::CoreClient, self.mix.core_clients, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::RegularServer, self.mix.regular_servers, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::RegularClient, self.mix.regular_clients, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::LightChurner, self.mix.light_churners, Some(self.mix.light_server_fraction), false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::OneTimeUser, one_time_total, Some(self.mix.one_time_server_fraction), false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::Crawler, self.mix.crawlers, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::HydraHead, self.mix.hydra_heads, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::StormNode, self.mix.storm_nodes, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::DisguisedStorm, self.mix.disguised_storm, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::SilentPeer, self.mix.silent_peers, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        // Rotating-PID operator: modelled as one-time users sharing one IP
        // and identical metadata.
        add_many(Archetype::OneTimeUser, self.mix.rotator_pids, Some(0.0), true, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);
        add_many(Archetype::EthereumNode, self.mix.ethereum_nodes, None, false, &mut specs, &mut archetypes, &mut ips, &mut rng, &mut next_label);

        // Ground-truth participants: rotator PIDs collapse to one operator,
        // hydra heads to their co-located hosts (blocks of
        // HYDRA_HEADS_PER_IP on at most 11 addresses).
        let hydra_hosts = if self.mix.hydra_heads == 0 {
            0
        } else {
            self.mix
                .hydra_heads
                .div_ceil(IpAllocator::HYDRA_HEADS_PER_IP)
                .min(11)
        };
        let participants = specs.len() - self.mix.hydra_heads + hydra_hosts
            - self.mix.rotator_pids
            + usize::from(self.mix.rotator_pids > 0);

        Population {
            specs,
            archetypes,
            participants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small_population() -> Population {
        PopulationBuilder::new(42)
            .with_scale(0.02)
            .with_duration(SimDuration::from_hours(24))
            .build()
    }

    #[test]
    fn scaled_mix_preserves_categories() {
        let mix = PopulationMix::paper_scale().scaled(0.01);
        assert!(mix.hydra_heads >= 10);
        assert!(mix.ethereum_nodes == 1, "singletons must survive scaling");
        assert!(mix.stable_servers >= 4);
    }

    #[test]
    fn paper_scale_totals_are_in_the_right_ballpark() {
        let total = PopulationBuilder::new(42).build().len();
        assert!((60_000..72_000).contains(&total), "P4 saw ~65 853 PIDs, builder yields {total}");
    }

    #[test]
    fn build_produces_parallel_vectors_and_unique_ids() {
        let population = small_population();
        assert_eq!(population.specs.len(), population.archetypes.len());
        let mut ids: Vec<PeerId> = population.specs.iter().map(|s| s.peer_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), population.specs.len(), "peer IDs must be unique");
    }

    #[test]
    fn archetype_counts_follow_the_mix() {
        let population = small_population();
        let mix = PopulationMix::paper_scale().scaled(0.02);
        let count_of = |a| population.archetypes.iter().filter(|x| **x == a).count();
        assert_eq!(count_of(Archetype::HydraHead), mix.hydra_heads);
        assert_eq!(count_of(Archetype::Crawler), mix.crawlers);
        assert_eq!(count_of(Archetype::DisguisedStorm), mix.disguised_storm);
        assert_eq!(count_of(Archetype::EthereumNode), 1);
        // One-time users = per-day count (1 day run) + rotator PIDs.
        assert_eq!(
            count_of(Archetype::OneTimeUser),
            mix.one_time_per_day + mix.rotator_pids
        );
    }

    #[test]
    fn dht_server_fraction_matches_paper_ratio() {
        let population = small_population();
        let servers = population
            .specs
            .iter()
            .filter(|s| s.is_dht_server())
            .count();
        let fraction = servers as f64 / population.len() as f64;
        // The paper: 18 845 kad-announcing PIDs out of 65 853 ≈ 0.29.
        assert!(
            (0.18..0.42).contains(&fraction),
            "DHT-Server fraction {fraction} far from the paper's ~0.29"
        );
    }

    #[test]
    fn hydra_heads_share_few_ips_and_identical_agent() {
        let population = small_population();
        let mut hydra_ips: Vec<_> = population
            .specs
            .iter()
            .zip(&population.archetypes)
            .filter(|(_, a)| **a == Archetype::HydraHead)
            .map(|(s, _)| s.addr.ip())
            .collect();
        let heads = hydra_ips.len();
        hydra_ips.sort();
        hydra_ips.dedup();
        assert!(hydra_ips.len() <= 11);
        assert!(heads > hydra_ips.len(), "heads must be co-located");
    }

    #[test]
    fn rotator_pids_share_one_ip_and_metadata() {
        let population = PopulationBuilder::new(1)
            .with_scale(0.05)
            .with_duration(SimDuration::from_hours(24))
            .build();
        // Rotator PIDs are the one-time users on a shared IP with the fixed
        // agent string; group addresses by IP and find the biggest group.
        let mut by_ip: BTreeMap<_, Vec<&RemotePeerSpec>> = BTreeMap::new();
        for spec in &population.specs {
            by_ip.entry(spec.addr.ip()).or_default().push(spec);
        }
        let largest = by_ip.values().max_by_key(|v| v.len()).unwrap();
        let expected = PopulationMix::paper_scale().scaled(0.05).rotator_pids;
        assert!(largest.len() >= expected, "rotator group should be the largest IP group");
        let agents: std::collections::BTreeSet<String> = largest
            .iter()
            .filter(|s| s.identify.agent.is_go_ipfs())
            .map(|s| s.identify.agent.to_string())
            .collect();
        assert!(agents.len() <= 2, "rotator PIDs share their agent string");
    }

    #[test]
    fn silent_peers_have_no_changes_and_no_identify() {
        let population = small_population();
        for (spec, archetype) in population.specs.iter().zip(&population.archetypes) {
            if *archetype == Archetype::SilentPeer {
                assert!(spec.changes.is_empty());
                assert_eq!(spec.behavior.identify_prob, 0.0);
                assert!(spec.identify.protocols.is_empty());
            }
        }
    }

    #[test]
    fn participants_collapse_rotators_and_hydra_hosts() {
        let population = small_population();
        let mix = PopulationMix::paper_scale().scaled(0.02);
        let hydra_hosts = mix.hydra_heads.div_ceil(IpAllocator::HYDRA_HEADS_PER_IP).min(11);
        let expected = population.len() - mix.hydra_heads + hydra_hosts - mix.rotator_pids + 1;
        assert_eq!(population.participants, expected);
        assert!(population.participants < population.len());
        // At paper scale the collapse removes ~2 155 rotator PIDs and
        // ~1 017 hydra heads.
        let full = PopulationBuilder::new(1).build();
        assert!(full.len() - full.participants > 3_000);
    }

    #[test]
    fn build_is_deterministic() {
        let a = PopulationBuilder::new(9).with_scale(0.01).build();
        let b = PopulationBuilder::new(9).with_scale(0.01).build();
        assert_eq!(a.specs, b.specs);
        let c = PopulationBuilder::new(10).with_scale(0.01).build();
        assert_ne!(a.specs, c.specs);
    }

    #[test]
    fn some_peers_have_metadata_change_schedules() {
        let population = PopulationBuilder::new(3)
            .with_scale(0.05)
            .with_duration(SimDuration::from_days(3))
            .build();
        let with_changes = population.specs.iter().filter(|s| !s.changes.is_empty()).count();
        let fraction = with_changes as f64 / population.len() as f64;
        assert!(fraction > 0.02, "expected some flapping/upgrading peers, got {fraction}");
        assert!(fraction < 0.30, "metadata churn should stay the exception, got {fraction}");
    }
}
