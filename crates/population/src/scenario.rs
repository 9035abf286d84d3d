//! The measurement periods of Table I.
//!
//! The paper runs five short measurements (P0–P4) with different
//! LowWater/HighWater settings and observer roles, plus a 14-day extension
//! run used for Fig. 6. [`MeasurementPeriod`] encodes those configurations;
//! [`Scenario`] combines a period with a seed and a population scale and
//! produces everything needed to run the simulation.

use crate::builder::{Population, PopulationBuilder};
use crate::scenarios::ChurnScenario;
use netsim::{DhtRole, NetworkConfig, ObserverSpec, PopulationEvent};
use p2pmodel::{ConnLimits, IpAddress, Multiaddr, PeerId};
use simclock::{SimDuration, SimRng};

/// The measurement periods of Table I (plus the 14-day run of Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasurementPeriod {
    /// 2021-12-03 – 2021-12-06: go-ipfs DHT-Server at the 600/900 defaults
    /// and a 3-head hydra at 1.2k/1.8k.
    P0,
    /// 2021-12-09 – 2021-12-10: go-ipfs DHT-Server and 2 hydra heads at
    /// 2k/4k.
    P1,
    /// 2021-12-13 – 2021-12-14: go-ipfs DHT-Server and 2 hydra heads at
    /// 18k/20k.
    P2,
    /// 2022-02-16 – 2022-02-17: go-ipfs DHT-*Client* at 18k/20k, no hydra.
    P3,
    /// 2021-12-10 – 2021-12-13: go-ipfs DHT-Server at 18k/20k, no hydra
    /// (the data set used for Table III, IV, Fig. 3, 4, 7 and Section V).
    P4,
    /// 2022-03-29 – 2022-04-12: the ~14-day run behind Fig. 6.
    Extended,
}

impl MeasurementPeriod {
    /// All periods in paper order.
    pub const ALL: [MeasurementPeriod; 6] = [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
        MeasurementPeriod::P4,
        MeasurementPeriod::Extended,
    ];

    /// The measurement duration.
    pub fn duration(self) -> SimDuration {
        match self {
            MeasurementPeriod::P0 => SimDuration::from_days(3),
            MeasurementPeriod::P1 | MeasurementPeriod::P2 | MeasurementPeriod::P3 => {
                SimDuration::from_days(1)
            }
            MeasurementPeriod::P4 => SimDuration::from_days(3),
            MeasurementPeriod::Extended => SimDuration::from_days(14),
        }
    }

    /// The go-ipfs observer's role and connection-manager limits, if a
    /// go-ipfs observer is deployed in this period.
    pub fn go_ipfs(self) -> Option<(DhtRole, ConnLimits)> {
        match self {
            MeasurementPeriod::P0 => Some((DhtRole::Server, ConnLimits::new(600, 900))),
            MeasurementPeriod::P1 => Some((DhtRole::Server, ConnLimits::new(2_000, 4_000))),
            MeasurementPeriod::P2 => Some((DhtRole::Server, ConnLimits::new(18_000, 20_000))),
            MeasurementPeriod::P3 => Some((DhtRole::Client, ConnLimits::new(18_000, 20_000))),
            MeasurementPeriod::P4 => Some((DhtRole::Server, ConnLimits::new(18_000, 20_000))),
            MeasurementPeriod::Extended => Some((DhtRole::Server, ConnLimits::new(18_000, 20_000))),
        }
    }

    /// Number of hydra heads deployed, with their limits.
    pub fn hydra(self) -> Option<(usize, ConnLimits)> {
        match self {
            MeasurementPeriod::P0 => Some((3, ConnLimits::new(1_200, 1_800))),
            MeasurementPeriod::P1 => Some((2, ConnLimits::new(2_000, 4_000))),
            MeasurementPeriod::P2 => Some((2, ConnLimits::new(18_000, 20_000))),
            MeasurementPeriod::P3 | MeasurementPeriod::P4 | MeasurementPeriod::Extended => None,
        }
    }

    /// Parses a period from its report label (`"P0"` … `"P4"`, `"P14d"`),
    /// case-insensitively and accepting `"Extended"` for the 14-day run.
    ///
    /// # Example
    ///
    /// ```
    /// use population::MeasurementPeriod;
    ///
    /// assert_eq!(MeasurementPeriod::from_label("P2"), Some(MeasurementPeriod::P2));
    /// assert_eq!(MeasurementPeriod::from_label("p14d"), Some(MeasurementPeriod::Extended));
    /// assert_eq!(MeasurementPeriod::from_label("P9"), None);
    /// ```
    pub fn from_label(label: &str) -> Option<MeasurementPeriod> {
        match label.to_ascii_lowercase().as_str() {
            "p0" => Some(MeasurementPeriod::P0),
            "p1" => Some(MeasurementPeriod::P1),
            "p2" => Some(MeasurementPeriod::P2),
            "p3" => Some(MeasurementPeriod::P3),
            "p4" => Some(MeasurementPeriod::P4),
            "p14d" | "extended" => Some(MeasurementPeriod::Extended),
            _ => None,
        }
    }

    /// The period label used in reports ("P 0", "P 1", …).
    pub fn label(self) -> &'static str {
        match self {
            MeasurementPeriod::P0 => "P0",
            MeasurementPeriod::P1 => "P1",
            MeasurementPeriod::P2 => "P2",
            MeasurementPeriod::P3 => "P3",
            MeasurementPeriod::P4 => "P4",
            MeasurementPeriod::Extended => "P14d",
        }
    }
}

impl std::fmt::Display for MeasurementPeriod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A runnable scenario: a measurement period, a seed, a population scale and
/// an optional churn regime layered on top.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which measurement period to reproduce.
    pub period: MeasurementPeriod,
    /// Seed for population generation and simulation.
    pub seed: u64,
    /// Population scale relative to the paper's network (1.0 ≈ 65 k PIDs
    /// over three days; experiments typically use 0.05–0.2).
    pub scale: f64,
    /// The churn regime layered onto the period
    /// ([`ChurnScenario::Baseline`] reproduces the paper's benign churn).
    pub churn: ChurnScenario,
    /// Number of primary-client vantage points deployed (≥ 1). The paper
    /// runs one go-ipfs observer; additional vantages are clones of its
    /// configuration under fresh identities (`"vantage-v1"`, …) spread over
    /// the DHT key space, the capture occasions of the capture–recapture
    /// network-size estimators. `1` reproduces the paper's layout exactly.
    pub vantages: usize,
}

impl Scenario {
    /// Creates a scenario for the given period with a default seed, a
    /// laptop-friendly scale of 0.05, baseline churn and a single vantage
    /// point.
    pub fn new(period: MeasurementPeriod) -> Self {
        Scenario {
            period,
            seed: 0x1975_2022,
            scale: 0.05,
            churn: ChurnScenario::Baseline,
            vantages: 1,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different population scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Returns a copy with the given churn regime layered on top.
    pub fn with_churn(mut self, churn: ChurnScenario) -> Self {
        self.churn = churn;
        self
    }

    /// Returns a copy deploying `vantages` primary-client vantage points
    /// (clamped to at least one). With more than one, the extra observers
    /// appear in [`Self::observers`] after the period's paper layout.
    pub fn with_vantage_points(mut self, vantages: usize) -> Self {
        self.vantages = vantages.max(1);
        self
    }

    /// Builds the observer specifications for this period. When the
    /// population is scaled down, the connection-manager water marks are
    /// scaled down proportionally so the trimming regime stays comparable
    /// (600/900 against 65 k peers behaves like 30/45 against 3 k peers).
    pub fn observers(&self) -> Vec<ObserverSpec> {
        let mut rng = SimRng::seed_from(self.seed ^ 0xb5ef);
        let mut observers = Vec::new();
        let scale_limits = |limits: ConnLimits| -> ConnLimits {
            if self.scale >= 1.0 {
                limits
            } else {
                let low = ((limits.low_water as f64 * self.scale).round() as usize).max(5);
                let high = ((limits.high_water as f64 * self.scale).round() as usize).max(low + 5);
                ConnLimits::new(low, high).with_grace_period(limits.grace_period)
            }
        };
        if let Some((role, limits)) = self.period.go_ipfs() {
            let spec = ObserverSpec::new(
                "go-ipfs",
                PeerId::derived(0xA0_0000 ^ self.seed),
                role,
                scale_limits(limits),
            )
            .with_addr(Multiaddr::default_swarm(IpAddress::V4(0x5BCD_0001)))
            .with_outbound_target(((40.0 * self.scale.max(0.02)).round() as usize).max(4));
            observers.push(spec);
        }
        if let Some((heads, limits)) = self.period.hydra() {
            for head in 0..heads {
                // Hydra heads spread their identities over the key space.
                let peer_id = PeerId::with_prefix(head as u16, 3, &mut rng);
                let spec = ObserverSpec::new(
                    format!("hydra-h{head}"),
                    peer_id,
                    DhtRole::Server,
                    scale_limits(limits),
                )
                .with_addr(Multiaddr::new(
                    IpAddress::V4(0x5BCD_0002),
                    p2pmodel::Transport::Tcp,
                    3001 + head as u16,
                ))
                .with_outbound_target(((60.0 * self.scale.max(0.02)).round() as usize).max(6))
                .with_maintenance_interval(SimDuration::from_secs(60));
                observers.push(spec);
            }
        }
        // Extra vantage points: clones of the period's primary (go-ipfs)
        // configuration under fresh identities, spread over the DHT key
        // space like hydra heads, each on its own public address. The RNG
        // draws happen *after* the hydra draws, so a multi-vantage scenario
        // leaves the paper-layout observers byte-identical — and a
        // single-vantage scenario draws nothing at all, which is what makes
        // the 1-vantage differential test exact.
        if self.vantages > 1 {
            if let Some(primary) = observers.first().cloned() {
                for vantage in 1..self.vantages {
                    let peer_id = PeerId::with_prefix((vantage % 16) as u16, 4, &mut rng);
                    let spec = ObserverSpec {
                        name: format!("vantage-v{vantage}"),
                        peer_id,
                        ..primary.clone()
                    }
                    .with_addr(Multiaddr::new(
                        IpAddress::V4(0x5BCD_0100 + vantage as u32),
                        p2pmodel::Transport::Tcp,
                        4001,
                    ));
                    observers.push(spec);
                }
            }
        }
        observers
    }

    /// Builds the network configuration (observers + duration + seed).
    pub(crate) fn network_config(&self) -> NetworkConfig {
        NetworkConfig {
            seed: self.seed,
            duration: self.period.duration(),
            observers: self.observers(),
        }
    }

    /// Builds the population for this scenario.
    pub(crate) fn population(&self) -> Population {
        PopulationBuilder::new(self.seed.wrapping_add(1))
            .with_scale(self.scale)
            .with_duration(self.period.duration())
            .build()
    }

    /// Compiles the scenario's churn regime into its population-event
    /// stream over the given base population.
    pub(crate) fn population_events(&self, population: &Population) -> Vec<PopulationEvent> {
        self.churn
            .events(self.seed, self.scale, self.period.duration(), population)
    }

    /// Builds everything needed to run the scenario.
    pub fn build(&self) -> ScenarioRun {
        let population = self.population();
        let events = self.population_events(&population);
        let ground_truth_participants =
            population.participants + self.churn.participants_added(self.scale);
        ScenarioRun {
            scenario: self.clone(),
            config: self.network_config(),
            population,
            events,
            ground_truth_participants,
        }
    }
}

/// A fully materialised scenario: configuration, population and the churn
/// regime's event stream.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The scenario this run was built from.
    pub scenario: Scenario,
    /// The network configuration (observers, duration, seed).
    pub config: NetworkConfig,
    /// The generated population.
    pub population: Population,
    /// Mid-run population mutations compiled from the churn regime
    /// (empty for [`ChurnScenario::Baseline`]).
    pub events: Vec<PopulationEvent>,
    /// Ground-truth participant count (base population collapsed to
    /// operators, plus the regime's injected participants).
    pub ground_truth_participants: usize,
}

impl ScenarioRun {
    /// Runs the simulation and returns its output.
    pub fn simulate(self) -> netsim::SimulationOutput {
        netsim::Network::new(self.config, self.population.specs)
            .with_population_events(self.events)
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_table_matches_table_one() {
        assert_eq!(MeasurementPeriod::P0.duration(), SimDuration::from_days(3));
        assert_eq!(MeasurementPeriod::P2.duration(), SimDuration::from_days(1));
        assert_eq!(MeasurementPeriod::Extended.duration(), SimDuration::from_days(14));

        let (role, limits) = MeasurementPeriod::P0.go_ipfs().unwrap();
        assert_eq!(role, DhtRole::Server);
        assert_eq!((limits.low_water, limits.high_water), (600, 900));

        let (role, limits) = MeasurementPeriod::P3.go_ipfs().unwrap();
        assert_eq!(role, DhtRole::Client);
        assert_eq!((limits.low_water, limits.high_water), (18_000, 20_000));

        assert_eq!(MeasurementPeriod::P0.hydra().unwrap().0, 3);
        assert_eq!(MeasurementPeriod::P1.hydra().unwrap().0, 2);
        assert!(MeasurementPeriod::P4.hydra().is_none());
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = MeasurementPeriod::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["P0", "P1", "P2", "P3", "P4", "P14d"]);
        assert_eq!(MeasurementPeriod::P2.to_string(), "P2");
    }

    #[test]
    fn observers_match_period_layout() {
        let p0 = Scenario::new(MeasurementPeriod::P0).observers();
        assert_eq!(p0.len(), 4, "P0 runs go-ipfs plus three hydra heads");
        assert_eq!(p0[0].name, "go-ipfs");
        assert!(p0[1..].iter().all(|o| o.name.starts_with("hydra-h")));

        let p4 = Scenario::new(MeasurementPeriod::P4).observers();
        assert_eq!(p4.len(), 1);
        assert!(p4[0].role.is_server());

        let p3 = Scenario::new(MeasurementPeriod::P3).observers();
        assert_eq!(p3.len(), 1);
        assert!(!p3[0].role.is_server());
    }

    #[test]
    fn scaled_scenarios_scale_watermarks_proportionally() {
        let small = Scenario::new(MeasurementPeriod::P0).with_scale(0.05).observers();
        let limits = small[0].limits;
        assert_eq!(limits.low_water, 30);
        assert_eq!(limits.high_water, 45);
        let full = Scenario::new(MeasurementPeriod::P0).with_scale(1.0).observers();
        assert_eq!(full[0].limits.low_water, 600);
    }

    #[test]
    fn hydra_heads_occupy_distinct_keyspace_regions() {
        let observers = Scenario::new(MeasurementPeriod::P0).observers();
        let heads: Vec<PeerId> = observers[1..].iter().map(|o| o.peer_id).collect();
        assert_eq!(heads.len(), 3);
        // The first 3 bits differ between any two heads.
        for i in 0..heads.len() {
            for j in (i + 1)..heads.len() {
                let cpl = heads[i].bucket_index(&heads[j]).unwrap_or(256);
                assert!(cpl < 3, "heads {i} and {j} share too long a prefix");
            }
        }
    }

    #[test]
    fn vantage_points_clone_the_primary_under_fresh_identities() {
        let base = Scenario::new(MeasurementPeriod::P4).with_scale(0.005);
        let multi = base.clone().with_vantage_points(3).observers();
        assert_eq!(multi.len(), 3);
        assert_eq!(multi[0].name, "go-ipfs");
        assert_eq!(multi[1].name, "vantage-v1");
        assert_eq!(multi[2].name, "vantage-v2");
        for vantage in &multi[1..] {
            // Same monitor configuration (equal catchability), own identity.
            assert_eq!(vantage.role, multi[0].role);
            assert_eq!(vantage.limits, multi[0].limits);
            assert_eq!(vantage.outbound_target, multi[0].outbound_target);
            assert_ne!(vantage.peer_id, multi[0].peer_id);
            assert_ne!(vantage.addr, multi[0].addr);
        }
        assert_ne!(multi[1].peer_id, multi[2].peer_id);
        assert_ne!(multi[1].addr, multi[2].addr);

        // One vantage is the paper layout, byte for byte.
        let single = base.clone().with_vantage_points(1).observers();
        assert_eq!(single, base.observers());
        // Hydra periods keep their heads unchanged when vantages are added.
        let p1 = Scenario::new(MeasurementPeriod::P1);
        let p1_multi = p1.clone().with_vantage_points(2).observers();
        assert_eq!(&p1_multi[..3], &p1.observers()[..]);
        assert_eq!(p1_multi[3].name, "vantage-v1");
        // The clamp keeps degenerate requests runnable.
        assert_eq!(p1.clone().with_vantage_points(0).vantages, 1);
    }

    #[test]
    fn churn_scenarios_attach_event_streams_and_participants() {
        let baseline = Scenario::new(MeasurementPeriod::P4).with_scale(0.004).build();
        assert!(baseline.events.is_empty());
        assert_eq!(baseline.ground_truth_participants, baseline.population.participants);

        let flood = Scenario::new(MeasurementPeriod::P4)
            .with_scale(0.004)
            .with_churn(ChurnScenario::pid_rotation_flood())
            .build();
        assert!(!flood.events.is_empty());
        assert_eq!(
            flood.ground_truth_participants,
            flood.population.participants + 1,
            "the whole rotation flood is one operator"
        );
        // Same seed and scale → same base population as the baseline run.
        assert_eq!(flood.population.specs, baseline.population.specs);
        // And the scenario run actually simulates end to end.
        let output = flood.simulate();
        assert!(output.ground_truth.population_size() > baseline.population.len());
    }

    #[test]
    fn build_produces_runnable_configuration() {
        let run = Scenario::new(MeasurementPeriod::P1)
            .with_scale(0.003)
            .with_seed(5)
            .build();
        assert_eq!(run.config.observers.len(), 3);
        assert!(!run.population.is_empty());
        assert_eq!(run.config.duration, SimDuration::from_days(1));
        // And the simulation actually runs end to end at this tiny scale.
        let output = run.simulate();
        assert_eq!(output.logs.len(), 3);
        assert!(output.logs.iter().any(|l| !l.is_empty()));
    }
}
