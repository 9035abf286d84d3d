//! Adversarial and dynamic churn scenarios.
//!
//! The paper validates its estimators only against the benign churn of the
//! P0–P4 measurement periods. This module opens the scenario axis: each
//! [`ChurnScenario`] is a parameterised churn regime compiled into a
//! deterministic stream of [`netsim::PopulationEvent`]s (join / leave /
//! rotate batches) layered onto a base measurement period:
//!
//! * [`ChurnScenario::DiurnalWave`] — a cohort of day-cycle users whose
//!   sessions stay synchronised to a diurnal rhythm,
//! * [`ChurnScenario::FlashCrowd`] — a sudden burst of short-lived one-time
//!   users mid-run (a popular CID, a product launch),
//! * [`ChurnScenario::MassExit`] — a large slice of the base population
//!   leaves at once and never returns (a cloud-region outage, a client-bug
//!   exodus),
//! * [`ChurnScenario::PidRotationFlood`] — one operator cycling fresh PIDs
//!   from a single IP, as the paper observed for the 2 156-PID rotator,
//! * [`ChurnScenario::NatChurn`] — waves of distinct users arriving behind
//!   a handful of shared NAT addresses (the §V-A grouping's worst case).
//!
//! Beyond churn, three regimes attack the **DHT routing layer** itself
//! ([`ChurnScenario::adversaries`]). Their peers are silent towards the
//! passive monitors — they never dial, never gossip, never complete an
//! identify — so the passive measurement is byte-identical to the baseline
//! while the active crawler's view degrades:
//!
//! * [`ChurnScenario::SybilFlood`] — one operator spreads Sybil identities
//!   over the key space; their routing tables answer with nothing but
//!   fellow Sybils ([`netsim::DhtConduct::Sybil`]),
//! * [`ChurnScenario::Eclipse`] — Sybils crowd the key-space neighbourhoods
//!   of victim DHT-Servers so re-joining victims find their closest
//!   neighbours unwilling to reference them,
//! * [`ChurnScenario::TablePoison`] — peers pad every `FIND_NODE` reply
//!   with fabricated PIDs ([`netsim::DhtConduct::Poison`]) whose dial
//!   timeouts eat the crawler's time budget.
//!
//! Every stream is a pure function of `(scenario, seed, scale, duration)` —
//! scenario runs inherit the determinism contract of the rest of the stack.
//! `analysis::robustness` quantifies what each regime does to the §V-A and
//! §V-B network-size estimators, and its crawl-disagreement report
//! quantifies what the adversarial regimes do to the crawler baseline.

use crate::archetype::Archetype;
use crate::builder::Population;
use crate::dynamics;
use netsim::{
    DhtConduct, DialBehavior, PopulationAction, PopulationEvent, RemotePeerSpec, SessionPattern,
};
use p2pmodel::{AgentVersion, IdentifyInfo, IpAddress, Multiaddr, PeerId, Transport};
use simclock::rng::fnv1a;
use simclock::{SimDuration, SimRng, SimTime};

/// Label space for scenario-injected PIDs, far above anything the
/// [`crate::PopulationBuilder`] hands out (sequential labels from 1).
const INJECTED_LABEL_BASE: u64 = 0x5CE0_0000_0000;

/// A parameterised churn regime layered onto a base measurement period.
///
/// Counts are expressed at paper scale (~65 k PIDs over three days) and are
/// multiplied by the scenario's population scale when the event stream is
/// compiled, exactly like [`crate::PopulationMix`] counts.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnScenario {
    /// The unmodified measurement period — no extra events.
    Baseline,
    /// A cohort of users on a synchronised day/night cycle.
    DiurnalWave {
        /// Cohort size at paper scale.
        users: usize,
        /// Hours per day the cohort is online.
        daylight_hours: f64,
        /// Hours over which the cohort's first appearance ramps in.
        ramp_hours: f64,
    },
    /// A sudden burst of short-lived one-time users.
    FlashCrowd {
        /// Burst size at paper scale.
        users: usize,
        /// When the burst hits, as a fraction of the run length.
        at_fraction: f64,
        /// Median stay of a crowd member, in seconds.
        stay_median_secs: f64,
        /// Seconds over which the burst arrives.
        ramp_secs: f64,
    },
    /// A slice of the base population leaves permanently.
    MassExit {
        /// Fraction of the base population that leaves.
        fraction: f64,
        /// When the exit happens, as a fraction of the run length.
        at_fraction: f64,
    },
    /// One operator cycling fresh PIDs from a single IP address.
    PidRotationFlood {
        /// Number of identity rotations at paper scale.
        rotations: usize,
        /// When the operator appears, as a fraction of the run length.
        start_fraction: f64,
    },
    /// Distinct users arriving behind a handful of shared NAT addresses.
    NatChurn {
        /// Number of NATed users at paper scale.
        users: usize,
        /// Number of shared addresses they hide behind.
        shared_ips: usize,
        /// Number of arrival waves spread over the run.
        waves: usize,
    },
    /// One operator spreading Sybil identities evenly over the key space.
    ///
    /// The Sybils run as DHT-Servers but their routing tables admit only
    /// fellow Sybils, so every crawler query routed into the flood dead-ends.
    SybilFlood {
        /// Number of Sybil identities at paper scale.
        sybils: usize,
        /// The Sybils are spread over `2^prefix_bits` key-space prefixes.
        prefix_bits: u32,
        /// When the flood joins, as a fraction of the run length.
        at_fraction: f64,
    },
    /// Sybils crowding the key-space neighbourhoods of victim DHT-Servers.
    ///
    /// Each victim gets a squad of Sybils sharing its 16-bit key prefix;
    /// when a victim churns back online its closest neighbours are Sybils
    /// that refuse to reference it, pushing it out of the crawler's reach.
    Eclipse {
        /// Number of victim servers at paper scale.
        victims: usize,
        /// Sybils placed next to each victim.
        sybils_per_victim: usize,
        /// When the squads join, as a fraction of the run length.
        at_fraction: f64,
    },
    /// Peers that answer `FIND_NODE` with fabricated routing entries.
    ///
    /// Every fabricated PID costs the crawler a dial timeout, draining its
    /// crawl time budget.
    TablePoison {
        /// Number of poisoning peers at paper scale.
        poisoners: usize,
        /// Fabricated entries appended to each reply.
        junk_per_reply: usize,
        /// When the poisoners join, as a fraction of the run length.
        at_fraction: f64,
    },
}

impl ChurnScenario {
    /// The diurnal-wave regime with default knobs.
    pub fn diurnal() -> Self {
        ChurnScenario::DiurnalWave {
            users: 9_000,
            daylight_hours: 11.0,
            ramp_hours: 3.0,
        }
    }

    /// The flash-crowd regime with default knobs.
    pub fn flash_crowd() -> Self {
        ChurnScenario::FlashCrowd {
            users: 12_000,
            at_fraction: 0.33,
            stay_median_secs: 600.0,
            ramp_secs: 300.0,
        }
    }

    /// The mass-exit regime with default knobs.
    pub fn mass_exit() -> Self {
        ChurnScenario::MassExit {
            fraction: 0.4,
            at_fraction: 0.5,
        }
    }

    /// The PID-rotation-flood regime with default knobs.
    pub fn pid_rotation_flood() -> Self {
        ChurnScenario::PidRotationFlood {
            rotations: 2_500,
            start_fraction: 0.15,
        }
    }

    /// The NAT-churn regime with default knobs.
    pub fn nat_churn() -> Self {
        ChurnScenario::NatChurn {
            users: 6_000,
            shared_ips: 6,
            waves: 12,
        }
    }

    /// The Sybil-flood attack with default knobs.
    pub(crate) fn sybil_flood() -> Self {
        ChurnScenario::SybilFlood {
            sybils: 6_000,
            prefix_bits: 8,
            at_fraction: 0.15,
        }
    }

    /// The eclipse attack with default knobs.
    pub fn eclipse() -> Self {
        ChurnScenario::Eclipse {
            victims: 2_000,
            sybils_per_victim: 20,
            at_fraction: 0.2,
        }
    }

    /// The routing-table-poisoning attack with default knobs.
    pub fn table_poison() -> Self {
        ChurnScenario::TablePoison {
            poisoners: 2_000,
            junk_per_reply: 8,
            at_fraction: 0.1,
        }
    }

    /// Every scenario (baseline first), each with its default knobs.
    pub fn all() -> Vec<ChurnScenario> {
        let mut scenarios = vec![ChurnScenario::Baseline];
        scenarios.extend(ChurnScenario::regimes());
        scenarios
    }

    /// The five non-baseline churn regimes with default knobs, in label
    /// order. The DHT-level attacks ([`Self::adversaries`]) are kept out of
    /// this list so estimator calibration sweeps stay purely churn-driven.
    pub(crate) fn regimes() -> Vec<ChurnScenario> {
        vec![
            ChurnScenario::diurnal(),
            ChurnScenario::flash_crowd(),
            ChurnScenario::mass_exit(),
            ChurnScenario::pid_rotation_flood(),
            ChurnScenario::nat_churn(),
        ]
    }

    /// The DHT-level adversaries with default knobs, in label order.
    pub fn adversaries() -> Vec<ChurnScenario> {
        vec![
            ChurnScenario::sybil_flood(),
            ChurnScenario::eclipse(),
            ChurnScenario::table_poison(),
        ]
    }

    /// The stable label used in reports, JSON exports and seed derivation.
    pub fn label(&self) -> &'static str {
        match self {
            ChurnScenario::Baseline => "baseline",
            ChurnScenario::DiurnalWave { .. } => "diurnal",
            ChurnScenario::FlashCrowd { .. } => "flashcrowd",
            ChurnScenario::MassExit { .. } => "massexit",
            ChurnScenario::PidRotationFlood { .. } => "pidflood",
            ChurnScenario::NatChurn { .. } => "natchurn",
            ChurnScenario::SybilFlood { .. } => "sybil",
            ChurnScenario::Eclipse { .. } => "eclipse",
            ChurnScenario::TablePoison { .. } => "poison",
        }
    }

    /// Parses a scenario (with default knobs) from its label,
    /// case-insensitively.
    pub fn from_label(label: &str) -> Option<ChurnScenario> {
        match label.to_ascii_lowercase().as_str() {
            "baseline" => Some(ChurnScenario::Baseline),
            "diurnal" => Some(ChurnScenario::diurnal()),
            "flashcrowd" => Some(ChurnScenario::flash_crowd()),
            "massexit" => Some(ChurnScenario::mass_exit()),
            "pidflood" => Some(ChurnScenario::pid_rotation_flood()),
            "natchurn" => Some(ChurnScenario::nat_churn()),
            "sybil" => Some(ChurnScenario::sybil_flood()),
            "eclipse" => Some(ChurnScenario::eclipse()),
            "poison" => Some(ChurnScenario::table_poison()),
            _ => None,
        }
    }

    /// Number of PIDs the scenario injects at the given population scale.
    pub fn pids_added(&self, scale: f64) -> usize {
        match self {
            ChurnScenario::Baseline | ChurnScenario::MassExit { .. } => 0,
            ChurnScenario::DiurnalWave { users, .. }
            | ChurnScenario::FlashCrowd { users, .. }
            | ChurnScenario::NatChurn { users, .. } => scaled_count(*users, scale),
            ChurnScenario::PidRotationFlood { rotations, .. } => {
                scaled_count(*rotations, scale).max(6)
            }
            ChurnScenario::SybilFlood { sybils, .. } => scaled_count(*sybils, scale),
            ChurnScenario::Eclipse {
                victims,
                sybils_per_victim,
                ..
            } => scaled_count(*victims, scale) * (*sybils_per_victim).max(1),
            ChurnScenario::TablePoison { poisoners, .. } => scaled_count(*poisoners, scale),
        }
    }

    /// Number of ground-truth *participants* the scenario adds: NATed and
    /// flash-crowd users are each real participants, while the whole
    /// rotation flood — like each DHT-level attack — is a single operator.
    pub(crate) fn participants_added(&self, scale: f64) -> usize {
        match self {
            ChurnScenario::Baseline | ChurnScenario::MassExit { .. } => 0,
            ChurnScenario::PidRotationFlood { .. }
            | ChurnScenario::SybilFlood { .. }
            | ChurnScenario::Eclipse { .. }
            | ChurnScenario::TablePoison { .. } => 1,
            _ => self.pids_added(scale),
        }
    }

    /// Compiles the scenario into a deterministic, time-sorted event stream
    /// for a run of the given seed, scale and duration over `base`.
    ///
    /// The stream is a pure function of the arguments: the same inputs
    /// always produce the same events, independent of thread count or
    /// anything else in the environment.
    pub(crate) fn events(
        &self,
        seed: u64,
        scale: f64,
        duration: SimDuration,
        base: &Population,
    ) -> Vec<PopulationEvent> {
        let mut rng = SimRng::seed_from(seed ^ fnv1a(self.label()) ^ 0x5ce0_a11b);
        let mut events = match self {
            ChurnScenario::Baseline => Vec::new(),
            ChurnScenario::DiurnalWave {
                users,
                daylight_hours,
                ramp_hours,
            } => diurnal_events(
                scaled_count(*users, scale),
                *daylight_hours,
                *ramp_hours,
                &mut rng,
            ),
            ChurnScenario::FlashCrowd {
                users,
                at_fraction,
                stay_median_secs,
                ramp_secs,
            } => flash_crowd_events(
                scaled_count(*users, scale),
                *at_fraction,
                *stay_median_secs,
                *ramp_secs,
                duration,
                &mut rng,
            ),
            ChurnScenario::MassExit {
                fraction,
                at_fraction,
            } => mass_exit_events(*fraction, *at_fraction, duration, base, &mut rng),
            ChurnScenario::PidRotationFlood {
                rotations,
                start_fraction,
            } => rotation_flood_events(
                scaled_count(*rotations, scale).max(6),
                *start_fraction,
                duration,
                &mut rng,
            ),
            ChurnScenario::NatChurn {
                users,
                shared_ips,
                waves,
            } => nat_churn_events(
                scaled_count(*users, scale),
                (*shared_ips).max(1),
                (*waves).max(1),
                duration,
                &mut rng,
            ),
            ChurnScenario::SybilFlood {
                sybils,
                prefix_bits,
                at_fraction,
            } => sybil_flood_events(
                scaled_count(*sybils, scale),
                (*prefix_bits).min(16),
                *at_fraction,
                duration,
                &mut rng,
            ),
            ChurnScenario::Eclipse {
                victims,
                sybils_per_victim,
                at_fraction,
            } => eclipse_events(
                scaled_count(*victims, scale),
                (*sybils_per_victim).max(1),
                *at_fraction,
                duration,
                base,
                &mut rng,
            ),
            ChurnScenario::TablePoison {
                poisoners,
                junk_per_reply,
                at_fraction,
            } => table_poison_events(
                scaled_count(*poisoners, scale),
                *junk_per_reply,
                *at_fraction,
                duration,
                &mut rng,
            ),
        };
        events.sort_by_key(|e| e.at);
        events
    }
}

impl std::fmt::Display for ChurnScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Scales a paper-scale count like [`crate::PopulationMix::scaled`] does:
/// non-zero categories survive even tiny scales.
fn scaled_count(count: usize, scale: f64) -> usize {
    if count == 0 {
        0
    } else {
        ((count as f64 * scale).round() as usize).max(1)
    }
}

/// Builds one injected peer of the given archetype with a fresh PID.
///
/// `label` must be unique within the scenario; `addr` decides the §V-A
/// grouping behaviour. Session and behaviour are sampled from the archetype
/// unless the caller overrides the session.
fn injected_peer(
    label: u64,
    archetype: Archetype,
    addr: Multiaddr,
    session: Option<SessionPattern>,
    run_secs: f64,
    rng: &mut SimRng,
) -> RemotePeerSpec {
    let server = archetype.is_dht_server();
    let agent = crate::agents::sample_agent(archetype, rng);
    let identify = IdentifyInfo::new(agent, archetype.protocols(server), vec![addr]);
    let mut spec = RemotePeerSpec::new(PeerId::derived(INJECTED_LABEL_BASE + label), addr, identify)
        .with_behavior(archetype.behavior(rng))
        .with_gossip_visibility(archetype.gossip_visibility());
    spec = match session {
        Some(session) => spec.with_session(session),
        None => spec.with_session(archetype.session(run_secs, rng)),
    };
    spec
}

fn diurnal_events(count: usize, daylight_hours: f64, ramp_hours: f64, rng: &mut SimRng) -> Vec<PopulationEvent> {
    let cohort: Vec<RemotePeerSpec> = (0..count as u64)
        .map(|i| {
            // Mostly ordinary clients; a small server slice keeps the wave
            // visible to the crawler baseline too.
            let archetype = if rng.chance(0.1) {
                Archetype::RegularServer
            } else {
                Archetype::RegularClient
            };
            let addr = Multiaddr::new(IpAddress::random_v4(rng), Transport::Tcp, 4001);
            let session = dynamics::diurnal_session(daylight_hours, ramp_hours, rng);
            injected_peer(i, archetype, addr, Some(session), 0.0, rng)
        })
        .collect();
    vec![PopulationEvent {
        at: SimTime::ZERO,
        action: PopulationAction::Join(cohort),
    }]
}

fn flash_crowd_events(
    count: usize,
    at_fraction: f64,
    stay_median_secs: f64,
    ramp_secs: f64,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Vec<PopulationEvent> {
    let at = SimTime::ZERO
        + SimDuration::from_secs_f64(duration.as_secs_f64() * at_fraction.clamp(0.0, 0.95));
    let crowd: Vec<RemotePeerSpec> = (0..count as u64)
        .map(|i| {
            let addr = Multiaddr::new(IpAddress::random_v4(rng), Transport::Tcp, 4001);
            let session = SessionPattern::OneShot {
                arrival_secs: rng.unit() * ramp_secs.max(1.0),
                stay_secs: rng.log_normal(stay_median_secs, 0.6).clamp(60.0, 6_600.0),
            };
            injected_peer(i, Archetype::OneTimeUser, addr, Some(session), 0.0, rng)
        })
        .collect();
    vec![PopulationEvent {
        at,
        action: PopulationAction::Join(crowd),
    }]
}

fn mass_exit_events(
    fraction: f64,
    at_fraction: f64,
    duration: SimDuration,
    base: &Population,
    rng: &mut SimRng,
) -> Vec<PopulationEvent> {
    let victims = (base.len() as f64 * fraction.clamp(0.0, 1.0)).round() as usize;
    if victims == 0 {
        return Vec::new();
    }
    let mut indices = rng.sample_indices(base.len(), victims.min(base.len()));
    indices.sort_unstable();
    let leavers: Vec<PeerId> = indices
        .into_iter()
        .map(|idx| base.specs[idx].peer_id)
        .collect();
    let at = SimTime::ZERO
        + SimDuration::from_secs_f64(duration.as_secs_f64() * at_fraction.clamp(0.0, 0.99));
    vec![PopulationEvent {
        at,
        action: PopulationAction::Leave(leavers),
    }]
}

fn rotation_flood_events(
    rotations: usize,
    start_fraction: f64,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Vec<PopulationEvent> {
    let start = SimTime::ZERO
        + SimDuration::from_secs_f64(duration.as_secs_f64() * start_fraction.clamp(0.0, 0.9));
    let end = SimTime::ZERO + duration;
    let times = dynamics::rotation_times(start, end, rotations, rng);
    // The operator runs the same software behind every identity; the §V-A
    // grouping collapses the flood because every PID shares this address.
    let operator_ip = IpAddress::random_v4(rng);
    let operator_agent = AgentVersion::parse("go-ipfs/0.12.0/f100d42");
    let mut previous: Option<PeerId> = None;
    times
        .into_iter()
        .enumerate()
        .map(|(k, at)| {
            let addr = Multiaddr::new(operator_ip, Transport::Tcp, 4001 + (k % 2000) as u16);
            let identify = IdentifyInfo::new(
                operator_agent.clone(),
                Archetype::OneTimeUser.protocols(false),
                vec![addr],
            );
            let mut behavior = Archetype::OneTimeUser.behavior(rng);
            behavior.reconnect = true;
            let spec = RemotePeerSpec::new(
                PeerId::derived(INJECTED_LABEL_BASE + k as u64),
                addr,
                identify,
            )
            .with_session(SessionPattern::AlwaysOn)
            .with_behavior(behavior);
            let fresh = spec.peer_id;
            let action = match previous.replace(fresh) {
                None => PopulationAction::Join(vec![spec]),
                Some(old) => PopulationAction::Rotate {
                    retire: vec![old],
                    join: vec![spec],
                },
            };
            PopulationEvent { at, action }
        })
        .collect()
}

fn nat_churn_events(
    count: usize,
    shared_ips: usize,
    waves: usize,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Vec<PopulationEvent> {
    let pool: Vec<IpAddress> = (0..shared_ips).map(|_| IpAddress::random_v4(rng)).collect();
    let waves = waves.min(count.max(1));
    let mut label = 0u64;
    (0..waves)
        .map(|wave| {
            // Waves spread over the middle 90 % of the run.
            let frac = 0.05 + 0.9 * wave as f64 / waves as f64;
            let at = SimTime::ZERO + SimDuration::from_secs_f64(duration.as_secs_f64() * frac);
            let wave_size = count / waves + usize::from(wave < count % waves);
            let users: Vec<RemotePeerSpec> = (0..wave_size)
                .map(|_| {
                    let ip = *rng.choose(&pool);
                    let port = 1024 + rng.jitter(0, 60_000) as u16;
                    let addr = Multiaddr::new(ip, Transport::Tcp, port);
                    let spec = injected_peer(label, Archetype::LightChurner, addr, None, duration.as_secs_f64(), rng);
                    label += 1;
                    spec
                })
                .collect();
            PopulationEvent {
                at,
                action: PopulationAction::Join(users),
            }
        })
        .filter(|event| !matches!(&event.action, PopulationAction::Join(users) if users.is_empty()))
        .collect()
}

/// Builds one adversarial DHT-Server identity.
///
/// The spec is **silent towards the passive monitors**: it never dials an
/// observer, never completes an identify, and is invisible to gossip — so an
/// adversarial run's passive observations are byte-identical to the
/// baseline's. The engine also keeps non-honest peers out of the observers'
/// maintenance-dial pool (the daemons squat key space but refuse swarm
/// connections), so the only layer the attack touches is the DHT routing
/// state the active crawler walks.
fn adversarial_spec(pid: PeerId, conduct: DhtConduct, rng: &mut SimRng) -> RemotePeerSpec {
    let addr = Multiaddr::new(IpAddress::random_v4(rng), Transport::Tcp, 4001);
    let identify = IdentifyInfo::new(
        AgentVersion::parse("go-ipfs/0.12.0/sybil"),
        Archetype::RegularServer.protocols(true),
        vec![addr],
    );
    let mut behavior = DialBehavior::default_peer();
    behavior.dial_server_prob = 0.0;
    behavior.dial_client_prob = 0.0;
    behavior.identify_prob = 0.0;
    behavior.reconnect = false;
    RemotePeerSpec::new(pid, addr, identify)
        .with_session(SessionPattern::AlwaysOn)
        .with_behavior(behavior)
        .with_gossip_visibility(0.0)
        .with_dht_conduct(conduct)
}

fn sybil_flood_events(
    sybils: usize,
    prefix_bits: u32,
    at_fraction: f64,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Vec<PopulationEvent> {
    // Round-robin over the prefixes: the flood covers the key space evenly,
    // like hydra heads do — except these heads answer with only each other.
    let flood: Vec<RemotePeerSpec> = (0..sybils)
        .map(|i| {
            let prefix = (i % (1usize << prefix_bits)) as u16;
            let pid = PeerId::with_prefix(prefix, prefix_bits, rng);
            adversarial_spec(pid, DhtConduct::Sybil { cluster: 1 }, rng)
        })
        .collect();
    let at = SimTime::ZERO
        + SimDuration::from_secs_f64(duration.as_secs_f64() * at_fraction.clamp(0.0, 0.95));
    vec![PopulationEvent {
        at,
        action: PopulationAction::Join(flood),
    }]
}

fn eclipse_events(
    victims: usize,
    sybils_per_victim: usize,
    at_fraction: f64,
    duration: SimDuration,
    base: &Population,
    rng: &mut SimRng,
) -> Vec<PopulationEvent> {
    // Anchor each squad on a real DHT-Server from the base population; when
    // the base has fewer servers than victims the squads cycle through the
    // eligible ones, and a serverless base still gets fictional anchors so
    // the event stream's size stays a pure function of the knobs.
    let eligible: Vec<PeerId> = base
        .specs
        .iter()
        .filter(|s| s.is_dht_server())
        .map(|s| s.peer_id)
        .collect();
    let mut squads = Vec::with_capacity(victims * sybils_per_victim);
    for v in 0..victims {
        let anchor = if eligible.is_empty() {
            PeerId::derived(INJECTED_LABEL_BASE + 0xEC11_0000 + v as u64)
        } else {
            eligible[v % eligible.len()]
        };
        let bytes = anchor.as_bytes();
        let prefix = u16::from_be_bytes([bytes[0], bytes[1]]);
        for _ in 0..sybils_per_victim {
            let pid = PeerId::with_prefix(prefix, 16, rng);
            squads.push(adversarial_spec(pid, DhtConduct::Sybil { cluster: 2 }, rng));
        }
    }
    let at = SimTime::ZERO
        + SimDuration::from_secs_f64(duration.as_secs_f64() * at_fraction.clamp(0.0, 0.95));
    vec![PopulationEvent {
        at,
        action: PopulationAction::Join(squads),
    }]
}

fn table_poison_events(
    poisoners: usize,
    junk_per_reply: usize,
    at_fraction: f64,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Vec<PopulationEvent> {
    let conduct = DhtConduct::Poison { junk_per_reply };
    let peers: Vec<RemotePeerSpec> = (0..poisoners as u64)
        .map(|i| {
            let pid = PeerId::derived(INJECTED_LABEL_BASE + 0xBAD0_0000 + i);
            adversarial_spec(pid, conduct, rng)
        })
        .collect();
    let at = SimTime::ZERO
        + SimDuration::from_secs_f64(duration.as_secs_f64() * at_fraction.clamp(0.0, 0.95));
    vec![PopulationEvent {
        at,
        action: PopulationAction::Join(peers),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PopulationBuilder;

    fn base() -> Population {
        PopulationBuilder::new(5)
            .with_scale(0.01)
            .with_duration(SimDuration::from_days(1))
            .build()
    }

    #[test]
    fn labels_roundtrip_and_are_distinct() {
        let mut all = ChurnScenario::all();
        assert_eq!(all.len(), 6, "adversaries stay out of the default sweep");
        all.extend(ChurnScenario::adversaries());
        assert_eq!(all.len(), 9);
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 9, "labels must be distinct");
        for scenario in &all {
            assert_eq!(
                ChurnScenario::from_label(scenario.label()).as_ref(),
                Some(scenario),
                "label {} must roundtrip",
                scenario.label()
            );
        }
        assert_eq!(ChurnScenario::from_label("FLASHCROWD"), Some(ChurnScenario::flash_crowd()));
        assert_eq!(ChurnScenario::from_label("nope"), None);
        assert_eq!(ChurnScenario::flash_crowd().to_string(), "flashcrowd");
    }

    #[test]
    fn baseline_compiles_to_no_events() {
        let events = ChurnScenario::Baseline.events(1, 0.01, SimDuration::from_days(1), &base());
        assert!(events.is_empty());
        assert_eq!(ChurnScenario::Baseline.pids_added(1.0), 0);
        assert_eq!(ChurnScenario::Baseline.participants_added(1.0), 0);
    }

    #[test]
    fn event_streams_are_deterministic_and_sorted() {
        let population = base();
        let mut scenarios = ChurnScenario::all();
        scenarios.extend(ChurnScenario::adversaries());
        for scenario in scenarios {
            let a = scenario.events(7, 0.01, SimDuration::from_days(1), &population);
            let b = scenario.events(7, 0.01, SimDuration::from_days(1), &population);
            assert_eq!(a, b, "{scenario} stream must be deterministic");
            for pair in a.windows(2) {
                assert!(pair[0].at <= pair[1].at, "{scenario} stream must be sorted");
            }
            let end = SimTime::ZERO + SimDuration::from_days(1);
            assert!(a.iter().all(|e| e.at < end), "{scenario} events inside the run");
            if scenario != ChurnScenario::Baseline {
                assert!(!a.is_empty(), "{scenario} must produce events");
            }
        }
    }

    #[test]
    fn different_seeds_produce_different_streams() {
        let population = base();
        let a = ChurnScenario::flash_crowd().events(1, 0.01, SimDuration::from_days(1), &population);
        let b = ChurnScenario::flash_crowd().events(2, 0.01, SimDuration::from_days(1), &population);
        assert_ne!(a, b);
    }

    #[test]
    fn joined_pid_counts_match_pids_added() {
        let population = base();
        let mut scenarios = ChurnScenario::all();
        scenarios.extend(ChurnScenario::adversaries());
        for scenario in scenarios {
            let events = scenario.events(3, 0.01, SimDuration::from_days(1), &population);
            let joined: usize = events
                .iter()
                .map(|e| match &e.action {
                    PopulationAction::Join(specs) => specs.len(),
                    PopulationAction::Rotate { join, .. } => join.len(),
                    PopulationAction::Leave(_) => 0,
                })
                .sum();
            assert_eq!(joined, scenario.pids_added(0.01), "{scenario}");
            assert!(scenario.participants_added(0.01) <= scenario.pids_added(0.01));
        }
    }

    #[test]
    fn rotation_flood_is_one_operator_on_one_ip() {
        let events = ChurnScenario::pid_rotation_flood().events(9, 0.01, SimDuration::from_days(1), &base());
        assert_eq!(ChurnScenario::pid_rotation_flood().participants_added(0.01), 1);
        let mut ips = std::collections::BTreeSet::new();
        let mut retired = std::collections::BTreeSet::new();
        let mut joined = std::collections::BTreeSet::new();
        for event in &events {
            match &event.action {
                PopulationAction::Join(specs) | PopulationAction::Rotate { join: specs, .. } => {
                    for spec in specs {
                        ips.insert(spec.addr.ip());
                        assert!(joined.insert(spec.peer_id), "PIDs must be fresh");
                        assert!(!retired.contains(&spec.peer_id), "retired PIDs must not rejoin");
                    }
                }
                PopulationAction::Leave(_) => panic!("the flood never uses plain leaves"),
            }
            if let PopulationAction::Rotate { retire, .. } = &event.action {
                for pid in retire {
                    assert!(joined.contains(pid), "rotations retire previously joined PIDs");
                    retired.insert(*pid);
                }
            }
        }
        assert_eq!(ips.len(), 1, "the operator sits on a single IP");
    }

    #[test]
    fn mass_exit_targets_existing_pids_only() {
        let population = base();
        let events = ChurnScenario::mass_exit().events(11, 0.01, SimDuration::from_days(1), &population);
        assert_eq!(events.len(), 1);
        let PopulationAction::Leave(victims) = &events[0].action else {
            panic!("mass exit is a leave batch");
        };
        let known: std::collections::BTreeSet<PeerId> =
            population.specs.iter().map(|s| s.peer_id).collect();
        assert!(victims.iter().all(|pid| known.contains(pid)));
        let expected = (population.len() as f64 * 0.4).round() as usize;
        assert_eq!(victims.len(), expected);
    }

    #[test]
    fn nat_churn_hides_many_users_behind_few_ips() {
        let events = ChurnScenario::nat_churn().events(13, 0.02, SimDuration::from_days(1), &base());
        let mut ips = std::collections::BTreeSet::new();
        let mut users = 0;
        for event in &events {
            let PopulationAction::Join(specs) = &event.action else {
                panic!("NAT churn only joins");
            };
            for spec in specs {
                ips.insert(spec.addr.ip());
                users += 1;
            }
        }
        assert!(ips.len() <= 6);
        assert_eq!(users, ChurnScenario::nat_churn().pids_added(0.02));
        assert!(users > 10 * ips.len(), "users ({users}) must vastly outnumber IPs ({})", ips.len());
    }

    #[test]
    fn adversaries_are_silent_dht_servers() {
        // The attacks must live entirely in the DHT layer: every injected
        // peer is a DHT-Server with a non-honest conduct that never dials,
        // never completes an identify and is invisible to gossip — the
        // passive monitors' view stays byte-identical to the baseline.
        let population = base();
        for scenario in ChurnScenario::adversaries() {
            let events = scenario.events(3, 0.01, SimDuration::from_days(1), &population);
            assert_eq!(events.len(), 1, "{scenario} joins in one batch");
            let PopulationAction::Join(specs) = &events[0].action else {
                panic!("{scenario} must be a join batch");
            };
            assert!(!specs.is_empty());
            for spec in specs {
                assert!(spec.is_dht_server(), "{scenario} peers squat the DHT");
                assert!(!spec.dht_conduct.is_honest());
                assert_eq!(spec.session, SessionPattern::AlwaysOn);
                assert_eq!(spec.behavior.dial_server_prob, 0.0);
                assert_eq!(spec.behavior.dial_client_prob, 0.0);
                assert_eq!(spec.behavior.identify_prob, 0.0);
                assert_eq!(spec.gossip_visibility, 0.0);
            }
        }
        // The eclipse squads actually sit next to their victims: each Sybil
        // shares a 16-bit prefix with some base-population DHT-Server.
        let servers: std::collections::BTreeSet<u16> = population
            .specs
            .iter()
            .filter(|s| s.is_dht_server())
            .map(|s| u16::from_be_bytes([s.peer_id.as_bytes()[0], s.peer_id.as_bytes()[1]]))
            .collect();
        let events = ChurnScenario::eclipse().events(3, 0.01, SimDuration::from_days(1), &population);
        let PopulationAction::Join(squads) = &events[0].action else {
            panic!("eclipse must join");
        };
        for sybil in squads {
            let prefix = u16::from_be_bytes([sybil.peer_id.as_bytes()[0], sybil.peer_id.as_bytes()[1]]);
            assert!(servers.contains(&prefix), "sybil must share a victim's prefix");
        }
    }

    #[test]
    fn injected_pids_never_collide_with_the_base_population() {
        let population = PopulationBuilder::new(5).with_scale(1.0).build();
        let known: std::collections::BTreeSet<PeerId> =
            population.specs.iter().map(|s| s.peer_id).collect();
        let mut scenarios = ChurnScenario::regimes();
        scenarios.extend(ChurnScenario::adversaries());
        for scenario in scenarios {
            for event in scenario.events(5, 0.05, SimDuration::from_days(3), &population) {
                if let PopulationAction::Join(specs) | PopulationAction::Rotate { join: specs, .. } =
                    &event.action
                {
                    for spec in specs {
                        assert!(!known.contains(&spec.peer_id), "{scenario} PID collides");
                    }
                }
            }
        }
    }
}
