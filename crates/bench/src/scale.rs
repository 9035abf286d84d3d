//! The scale harness behind `repro scale` and the benchmark's
//! `fullproto-1m` workload.
//!
//! It samples one coherent population of `peers` remote peers (one global
//! sampling stream, so the population is the same for every shard count)
//! and runs it through the sharded engine (`netsim::mailbox`) on `shards`
//! lock-step shards and `threads` worker threads. The report holds the
//! engine's counters (epochs, mailbox traffic, events, observations and the
//! trace checksum) and its wall-clock throughput.
//!
//! Determinism: the deterministic part of a [`TrueProtocolReport`] is
//! byte-identical at any `threads` value, and its trace fields at any shard
//! count; CI pins this with `repro scale ... --threads 1` vs `--threads 8`.

use std::sync::Arc;

use crate::round2;
use jsonio::Json;
use netsim::{
    run_full_protocol, DhtRole, FullProtocolConfig, MailboxStats, ObserverSpec, PhaseTimes,
    RemotePeerSpec,
};
use p2pmodel::{
    AgentVersion, ConnLimits, IdentifyInfo, IpAddress, Multiaddr, PeerId, ProtocolSet,
};
use simclock::{SimDuration, SimRng};

/// Seed-domain separator of the true-protocol population stream.
const TRUE_PROTOCOL_POPULATION_DOMAIN: u64 = 0x0b5e_7a71_0000_0002;

/// Configuration of a true-protocol campaign: one coherent population run
/// through the cross-shard mailbox engine (`netsim::mailbox`), where the
/// shards exchange dial/gossip/identify events.
#[derive(Debug, Clone, PartialEq)]
pub struct TrueProtocolConfig {
    /// Total population, partitioned across engine shards by ownership.
    pub peers: usize,
    /// Number of lock-step engine shards.
    pub shards: usize,
    /// Worker threads for the epochs (does not affect results).
    pub threads: usize,
    /// Simulated duration of the campaign.
    pub duration: SimDuration,
    /// Epoch length = uniform cross-entity latency.
    pub epoch: SimDuration,
    /// Seed for population sampling and every per-entity RNG stream.
    pub seed: u64,
    /// Number of passive observers (round-robined across shards).
    pub observers: usize,
}

impl Default for TrueProtocolConfig {
    fn default() -> Self {
        TrueProtocolConfig {
            peers: 1_000_000,
            shards: 64,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            duration: SimDuration::from_mins(10),
            epoch: SimDuration::from_secs(60),
            seed: 0x5ca1_e000,
            observers: 4,
        }
    }
}

/// Builds the campaign's full population in global index order.
///
/// One global sampling stream, *not* shard-stratified: the population must
/// be identical for every shard count, or shard-count invariance of the
/// trace would be meaningless. Every peer announces one of 8 identify
/// payloads (4 agents × the server and client protocol sets), built once
/// and shared, so sampling allocates nothing per peer.
pub fn true_protocol_population(cfg: &TrueProtocolConfig) -> Vec<RemotePeerSpec> {
    use netsim::{DialBehavior, SessionPattern};
    let mut rng = SimRng::seed_from(cfg.seed ^ TRUE_PROTOCOL_POPULATION_DOMAIN);
    let agents = [
        "go-ipfs/0.11.0/",
        "go-ipfs/0.10.0/abc",
        "go-ipfs/0.8.0/",
        "hydra-booster/0.7.4",
    ];
    // `payloads[agent][server]`.
    let payloads: Vec<[Arc<IdentifyInfo>; 2]> = agents
        .iter()
        .map(|agent| {
            [ProtocolSet::go_ipfs_dht_client(), ProtocolSet::go_ipfs_dht_server()].map(|protocols| {
                Arc::new(IdentifyInfo::new(AgentVersion::parse(agent), protocols, Vec::new()))
            })
        })
        .collect();
    let duration_secs = cfg.duration.as_secs_f64();
    (0..cfg.peers)
        .map(|i| {
            let server = rng.chance(0.7);
            let identify = Arc::clone(&payloads[rng.index(agents.len())][usize::from(server)]);
            let addr = Multiaddr::default_swarm(IpAddress::random_v4(&mut rng));
            let session = match rng.index(10) {
                0..=1 => SessionPattern::AlwaysOn,
                2..=6 => SessionPattern::Intermittent {
                    online_median_secs: duration_secs * 0.4,
                    offline_median_secs: duration_secs * 0.3,
                    sigma: 0.8,
                    initial_delay_secs: rng.unit() * duration_secs * 0.5,
                },
                _ => SessionPattern::OneShot {
                    arrival_secs: rng.unit() * duration_secs * 0.8,
                    stay_secs: duration_secs * 0.2,
                },
            };
            // Every peer shares the *same* few observers, so per-session
            // dial odds of a few percent already produce hundreds of
            // thousands of connections per observer at 10 M peers.
            let behavior = DialBehavior {
                dial_server_prob: 0.05,
                dial_client_prob: 0.002,
                redial_median_secs: duration_secs * 0.06,
                redial_sigma: 0.8,
                reconnect: true,
                hold_server_median_secs: duration_secs * 0.08,
                hold_client_median_secs: duration_secs * 0.04,
                hold_sigma: 1.0,
                identify_prob: 0.9,
                observer_value: 0,
            };
            RemotePeerSpec::new(PeerId::derived(i as u64), addr, identify)
                .with_session(session)
                .with_behavior(behavior)
                .with_gossip_visibility(0.01)
        })
        .collect()
}

/// The campaign's observer fleet: one go-ipfs-like head plus hydra-style
/// heads, paper-period connection limits, round-robined across shards by
/// the engine.
pub fn true_protocol_observers(cfg: &TrueProtocolConfig) -> Vec<ObserverSpec> {
    (0..cfg.observers.max(1))
        .map(|o| {
            if o == 0 {
                ObserverSpec::new(
                    "go-ipfs",
                    PeerId::derived(u64::MAX - 16),
                    DhtRole::Server,
                    ConnLimits::new(600, 900),
                )
            } else {
                ObserverSpec::new(
                    format!("hydra-h{}", o - 1),
                    PeerId::derived(u64::MAX - 16 + o as u64),
                    DhtRole::Server,
                    ConnLimits::new(700, 900),
                )
            }
        })
        .collect()
}

/// Result of a true-protocol campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TrueProtocolReport {
    /// The configuration the campaign used.
    pub config: TrueProtocolConfig,
    /// Engine counters (epochs, mailbox traffic, checksum).
    pub stats: MailboxStats,
    /// Wall-clock seconds of the engine run (excludes population sampling).
    /// Non-deterministic; excluded from [`Self::deterministic_json`].
    pub wall_secs: f64,
    /// Wall-clock time of each engine phase. Non-deterministic; printed in
    /// [`Self::summary`] only.
    pub phases: PhaseTimes,
}

impl TrueProtocolReport {
    /// Simulator events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.stats.sim_events as f64 / self.wall_secs
    }

    /// The deterministic part of the report — byte-identical across
    /// `--threads` values at a fixed shard count. Across shard counts the
    /// *trace* fields (`observations`, `checksum`) are invariant too, while
    /// the engine-internal counters (`sim_events`, `mailbox_events`,
    /// `cross_shard_events`) scale with the partition: broadcasts fan out
    /// once per observer-hosting shard.
    pub fn deterministic_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("peers", self.config.peers as u64);
        obj.insert("shards", self.config.shards as u64);
        obj.insert("observers", self.config.observers as u64);
        obj.insert("duration_secs", self.config.duration.as_millis() / 1000);
        obj.insert("epoch_secs", self.config.epoch.as_millis() / 1000);
        obj.insert("seed", self.config.seed);
        obj.insert("epochs", self.stats.epochs);
        obj.insert("mailbox_events", self.stats.mailbox_events);
        obj.insert("cross_shard_events", self.stats.cross_shard_events);
        obj.insert("sim_events", self.stats.sim_events);
        obj.insert("observations", self.stats.observations);
        obj.insert("checksum", format!("{:016x}", self.stats.checksum));
        obj
    }

    /// The full report including timing, merged into `BENCH_scale.json` as
    /// the `true_protocol_<peers>` row.
    pub fn full_json(&self) -> Json {
        let mut obj = self.deterministic_json();
        obj.insert("wall_secs", round2(self.wall_secs));
        obj.insert("events_per_sec", round2(self.events_per_sec()));
        obj.insert("threads", self.config.threads as u64);
        obj
    }

    /// Human-readable one-screen summary (stderr of `repro scale`).
    pub fn summary(&self) -> String {
        let p = &self.phases;
        format!(
            "true-protocol: peers {} | shards {} | epochs {} | cross-shard events {} | \
             {} sim events | {} observations | {:.0} events/sec | checksum {:016x} | \
             phases build {:.2}s init {:.2}s epochs {:.2}s exchange {:.2}s assemble {:.2}s",
            self.config.peers,
            self.config.shards,
            self.stats.epochs,
            self.stats.cross_shard_events,
            self.stats.sim_events,
            self.stats.observations,
            self.events_per_sec(),
            self.stats.checksum,
            p.build.as_secs_f64(),
            p.init.as_secs_f64(),
            p.epochs.as_secs_f64(),
            p.exchange.as_secs_f64(),
            p.assemble.as_secs_f64()
        )
    }
}

/// Runs a true-protocol campaign: samples the global population, runs it
/// through the cross-shard mailbox engine and reports the counters. The
/// timer starts after population sampling, so `events_per_sec` measures the
/// engine, not the sampler.
pub fn run_true_protocol(cfg: &TrueProtocolConfig) -> TrueProtocolReport {
    let population = true_protocol_population(cfg);
    let engine_cfg = FullProtocolConfig::new(cfg.seed, cfg.duration, true_protocol_observers(cfg))
        .with_epoch(cfg.epoch)
        .with_shards(cfg.shards)
        .with_threads(cfg.threads);
    let started = std::time::Instant::now();
    let run = run_full_protocol(&engine_cfg, population);
    let wall_secs = started.elapsed().as_secs_f64();
    TrueProtocolReport {
        config: cfg.clone(),
        stats: run.stats,
        wall_secs,
        phases: run.phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_protocol_smoke_is_shard_and_thread_invariant() {
        let base = TrueProtocolConfig {
            peers: 800,
            shards: 1,
            threads: 1,
            duration: SimDuration::from_mins(5),
            ..TrueProtocolConfig::default()
        };
        let one = run_true_protocol(&base);
        assert!(one.stats.sim_events > 0);
        assert!(one.stats.observations > 0);
        let sharded = run_true_protocol(&TrueProtocolConfig {
            shards: 4,
            threads: 4,
            ..base.clone()
        });
        assert!(sharded.stats.cross_shard_events > 0);
        // The trace itself (rows recorded, checksum) must be identical;
        // engine-internal counters (events processed, mailbox traffic) scale
        // with the partition because broadcasts fan out per hosting shard.
        assert_eq!(one.stats.observations, sharded.stats.observations);
        assert_eq!(one.stats.checksum, sharded.stats.checksum);
        let threaded = run_true_protocol(&TrueProtocolConfig {
            shards: 4,
            threads: 1,
            ..base
        });
        assert_eq!(
            threaded.deterministic_json().to_string_compact(),
            sharded.deterministic_json().to_string_compact(),
            "thread count leaked into the deterministic report"
        );
    }
}
