//! The million-peer scale harness behind `repro scale` and `benches/scale.rs`.
//!
//! The ROADMAP north star is million-peer campaigns at hardware speed; the
//! columnar observation pipeline (netsim's `ObservationTable` +
//! `IdentifyRegistry`) exists to make that possible. This harness proves it:
//!
//! * it runs a synthetic campaign of `peers` remote peers, split into
//!   `shards` independent simulations (each shard is one engine run with its
//!   own derived seed), executed on `threads` worker threads;
//! * it reports **events/sec** (wall-clock engine + ingest throughput) and a
//!   **bytes-per-event** peak-RSS proxy for the columnar store;
//! * it measures the same population through the *compat path* — fully
//!   materialised `ObservedEvent` values, the representation the engine used
//!   before the refactor — at a reduced population, and reports the ratio.
//!
//! Determinism: shard seeds are derived from `(seed, shard)` with SplitMix64
//! and results are aggregated in shard order, so the deterministic part of a
//! [`ScaleReport`] is byte-identical at any `threads` value — CI pins this
//! with `repro scale ... --threads 1` vs `--threads N`.

use crate::round2;
use jsonio::Json;
use netsim::obs::identify_heap_bytes;
use netsim::{
    run_full_protocol, DhtRole, FullProtocolConfig, MailboxStats, Network, NetworkConfig,
    ObservationKind, ObserverSpec, RemotePeerSpec, SimulationOutput,
};
use p2pmodel::{
    AgentVersion, ConnLimits, IdentifyInfo, IpAddress, Multiaddr, PeerId, ProtocolSet,
};
use simclock::rng::splitmix64;
use simclock::{SimDuration, SimRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration of one scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Total synthetic population across all shards.
    pub peers: usize,
    /// Number of independent simulation shards the population is split into.
    pub shards: usize,
    /// Worker threads executing the shards (does not affect results).
    pub threads: usize,
    /// Simulated duration of every shard.
    pub duration: SimDuration,
    /// Base seed; shard seeds derive from it with SplitMix64.
    pub seed: u64,
    /// Population size of the compat-path comparison run (kept small: the
    /// enum representation is exactly what the harness exists to retire).
    pub compat_peers: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            peers: 1_000_000,
            shards: 64,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            duration: SimDuration::from_mins(10),
            seed: 0x5ca1_e000,
            compat_peers: 20_000,
        }
    }
}

impl ScaleConfig {
    /// The shard seed for shard `shard`.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        let mut state = self.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(shard as u64 + 1);
        splitmix64(&mut state)
    }

    /// Peers assigned to shard `shard` (the remainder goes to the first
    /// shards).
    pub fn shard_population(&self, shard: usize) -> usize {
        let base = self.peers / self.shards;
        let extra = usize::from(shard < self.peers % self.shards);
        base + extra
    }
}

/// Deterministic result of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Shard index.
    pub shard: usize,
    /// Peers simulated in this shard.
    pub peers: usize,
    /// Events recorded, by kind: opened / closed / identify / discovered.
    pub events: [u64; 4],
    /// Resident bytes of the shard's observation table (capacity proxy).
    pub table_bytes: usize,
    /// Resident bytes of the shard's interning registry.
    pub registry_bytes: usize,
    /// Order-sensitive FNV checksum over the table columns.
    pub checksum: u64,
}

impl ShardResult {
    /// Total events of the shard.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }
}

/// Aggregate result of a scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// The configuration the run used.
    pub config: ScaleConfig,
    /// Per-shard results, in shard order.
    pub shards: Vec<ShardResult>,
    /// Combined checksum over all shard checksums, in shard order.
    pub checksum: u64,
    /// Total observed events across shards.
    pub total_events: u64,
    /// Columnar bytes per event across all shards (tables + registries).
    pub columnar_bytes_per_event: f64,
    /// Compat-path comparison at `compat_peers` population.
    pub compat: CompatComparison,
    /// Wall-clock seconds of the sharded run (simulation + column writes).
    /// Non-deterministic; excluded from [`Self::deterministic_json`].
    pub wall_secs: f64,
}

/// Bytes-per-event comparison between the columnar store and the enum
/// representation, measured on the same simulated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CompatComparison {
    /// Population of the comparison run.
    pub peers: usize,
    /// Events in the comparison trace.
    pub events: u64,
    /// Columnar bytes per event (table + registry, capacity proxy).
    pub columnar_bytes_per_event: f64,
    /// Enum bytes per event: `size_of::<ObservedEvent>()` per event plus the
    /// deep identify-payload clone every identify event used to carry.
    pub enum_bytes_per_event: f64,
}

impl CompatComparison {
    /// How many times smaller the columnar representation is.
    pub fn ratio(&self) -> f64 {
        if self.columnar_bytes_per_event <= 0.0 {
            return 0.0;
        }
        self.enum_bytes_per_event / self.columnar_bytes_per_event
    }
}

impl ScaleReport {
    /// Events per wall-clock second of the sharded run.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.total_events as f64 / self.wall_secs
    }

    /// The deterministic part of the report: everything except wall-clock
    /// timing. Byte-identical across `--threads` values — the CI smoke job
    /// compares exactly this.
    pub fn deterministic_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("peers", self.config.peers as u64);
        obj.insert("shards", self.config.shards as u64);
        obj.insert("duration_secs", self.config.duration.as_millis() / 1000);
        obj.insert("seed", self.config.seed);
        obj.insert("total_events", self.total_events);
        obj.insert("checksum", format!("{:016x}", self.checksum));
        obj.insert(
            "columnar_bytes_per_event",
            round2(self.columnar_bytes_per_event),
        );
        let mut compat = Json::object();
        compat.insert("peers", self.compat.peers as u64);
        compat.insert("events", self.compat.events);
        compat.insert(
            "columnar_bytes_per_event",
            round2(self.compat.columnar_bytes_per_event),
        );
        compat.insert(
            "enum_bytes_per_event",
            round2(self.compat.enum_bytes_per_event),
        );
        compat.insert("ratio", round2(self.compat.ratio()));
        obj.insert("compat", compat);
        // Rolled-up shard summary: min/max/total events plus the combined
        // checksum. A 64-shard campaign used to dump 64 per-shard rows here;
        // the rollup keeps the file O(1) while still pinning determinism
        // (any shard diverging changes the combined checksum).
        let events_min = self
            .shards
            .iter()
            .map(ShardResult::total_events)
            .min()
            .unwrap_or(0);
        let events_max = self
            .shards
            .iter()
            .map(ShardResult::total_events)
            .max()
            .unwrap_or(0);
        let mut rollup = Json::object();
        rollup.insert("shards", self.shards.len() as u64);
        rollup.insert("events_min", events_min);
        rollup.insert("events_max", events_max);
        rollup.insert("events_total", self.total_events);
        rollup.insert("checksum", format!("{:016x}", self.checksum));
        obj.insert("shard_summary", rollup);
        obj
    }

    /// The full report including timing, for `BENCH_scale.json`.
    pub fn full_json(&self) -> Json {
        let mut obj = self.deterministic_json();
        obj.insert("wall_secs", round2(self.wall_secs));
        obj.insert("events_per_sec", round2(self.events_per_sec()));
        obj.insert("threads", self.config.threads as u64);
        obj
    }

    /// Human-readable one-screen summary (stderr of `repro scale`).
    pub fn summary(&self) -> String {
        format!(
            "peers {} | shards {} | events {} | {:.0} events/sec | columnar {:.1} B/event | \
             compat@{}: enum {:.1} B/event vs columnar {:.1} B/event = {:.1}x",
            self.config.peers,
            self.config.shards,
            self.total_events,
            self.events_per_sec(),
            self.columnar_bytes_per_event,
            self.compat.peers,
            self.compat.enum_bytes_per_event,
            self.compat.columnar_bytes_per_event,
            self.compat.ratio()
        )
    }
}

/// Builds the synthetic population of one shard: a paper-shaped mix of
/// always-on servers, intermittent peers and one-shot visitors, with a small
/// number of distinct identify payloads so the registry stays dense.
pub fn synthetic_population(cfg: &ScaleConfig, shard: usize) -> Vec<RemotePeerSpec> {
    use netsim::{DialBehavior, SessionPattern};
    let count = cfg.shard_population(shard);
    let mut rng = SimRng::seed_from(cfg.shard_seed(shard) ^ POPULATION_SEED_DOMAIN);
    let agents = [
        "go-ipfs/0.11.0/",
        "go-ipfs/0.10.0/abc",
        "go-ipfs/0.8.0/",
        "hydra-booster/0.7.4",
    ];
    let duration_secs = cfg.duration.as_secs_f64();
    (0..count)
        .map(|i| {
            // Globally unique PID label: shard-stratified.
            let label = (shard as u64) << 40 | i as u64;
            let server = rng.chance(0.7);
            let protocols = if server {
                ProtocolSet::go_ipfs_dht_server()
            } else {
                ProtocolSet::go_ipfs_dht_client()
            };
            let agent = AgentVersion::parse(agents[rng.index(agents.len())]);
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
            // Churn-heavy, as the paper observes: connections are held for a
            // small fraction of the run and re-dialed quickly, so events
            // dwarf peers (the regime the columnar store is built for).
            let behavior = DialBehavior {
                dial_server_prob: 0.8,
                dial_client_prob: 0.01,
                redial_median_secs: duration_secs * 0.06,
                redial_sigma: 0.8,
                reconnect: true,
                hold_server_median_secs: duration_secs * 0.08,
                hold_client_median_secs: duration_secs * 0.04,
                hold_sigma: 1.0,
                identify_prob: 0.97,
                observer_value: 0,
            };
            RemotePeerSpec::new(
                PeerId::derived(label),
                addr,
                IdentifyInfo::new(agent, protocols, Vec::new()),
            )
            .with_session(session)
            .with_behavior(behavior)
            .with_gossip_visibility(0.02)
        })
        .collect()
}

/// Seed-domain separator: keeps population sampling decorrelated from the
/// engine's own RNG stream, which also starts from the shard seed.
const POPULATION_SEED_DOMAIN: u64 = 0x0b5e_7a71_0000_0001;

fn shard_observer(population: usize) -> ObserverSpec {
    let low = (population / 8).max(64);
    ObserverSpec::new(
        "scale-observer",
        PeerId::derived(u64::MAX - 1),
        DhtRole::Server,
        ConnLimits::new(low, low * 2),
    )
}

fn shard_network(cfg: &ScaleConfig, shard: usize) -> Network {
    let population = synthetic_population(cfg, shard);
    let config = NetworkConfig::single_observer(
        cfg.shard_seed(shard),
        cfg.duration,
        shard_observer(population.len()),
    );
    // The scale harness measures raw observation throughput; synthesising a
    // million routing tables is not part of that budget.
    Network::new(config, population).with_dht_tracking(false)
}

/// Runs one shard and extracts its deterministic result.
pub fn run_shard(cfg: &ScaleConfig, shard: usize) -> ShardResult {
    let output = shard_network(cfg, shard).run();
    let log = &output.logs[0];
    let table = log.table();
    let mut events = [0u64; 4];
    for kind in table.kinds() {
        let bucket = match kind {
            ObservationKind::OpenedInbound | ObservationKind::OpenedOutbound => 0,
            ObservationKind::Closed => 1,
            ObservationKind::Identify => 2,
            ObservationKind::Discovered => 3,
        };
        events[bucket] += 1;
    }
    ShardResult {
        shard,
        peers: cfg.shard_population(shard),
        events,
        table_bytes: table.approx_bytes(),
        registry_bytes: log.registry().approx_bytes(),
        checksum: table.checksum(),
    }
}

/// Measures the compat (enum) representation against the columnar store on
/// one identical trace of `cfg.compat_peers` peers.
///
/// The enum side is *materialised*, not modelled: the trace is collected
/// into an actual `Vec<ObservedEvent>` (the exact value the engine used to
/// buffer per observer) and its resident bytes are the vector's capacity
/// plus the heap owned by each materialised identify payload.
pub fn run_compat_comparison(cfg: &ScaleConfig) -> CompatComparison {
    use std::mem::size_of;
    let compat_cfg = ScaleConfig {
        peers: cfg.compat_peers,
        shards: 1,
        ..cfg.clone()
    };
    let output: SimulationOutput = shard_network(&compat_cfg, 0).run();
    let log = &output.logs[0];
    let table = log.table();
    let registry = log.registry();

    let columnar_bytes = table.approx_bytes() + registry.approx_bytes();

    // The representation the refactor retired: one tagged ObservedEvent per
    // row, every identify row carrying a deep clone of its payload.
    let materialised: Vec<netsim::ObservedEvent> = log.events().collect();
    let mut enum_bytes = materialised.capacity() * size_of::<netsim::ObservedEvent>();
    for event in &materialised {
        if let netsim::ObservedEvent::IdentifyReceived { info, .. } = event {
            enum_bytes += identify_heap_bytes(info);
        }
    }

    let events = table.len() as u64;
    let per_event = |bytes: usize| {
        if events == 0 {
            0.0
        } else {
            bytes as f64 / events as f64
        }
    };
    CompatComparison {
        peers: cfg.compat_peers,
        events,
        columnar_bytes_per_event: per_event(columnar_bytes),
        enum_bytes_per_event: per_event(enum_bytes),
    }
}

/// Runs the full scale campaign: all shards on `threads` workers, then the
/// compat comparison. `progress` is invoked from worker threads as shards
/// finish (out of order; the report is always in shard order).
pub fn run_scale_with_progress(
    cfg: &ScaleConfig,
    progress: impl Fn(&ShardResult) + Sync,
) -> ScaleReport {
    let started = std::time::Instant::now();
    let threads = cfg.threads.clamp(1, cfg.shards.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ShardResult>>> = Mutex::new(vec![None; cfg.shards]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let shard = cursor.fetch_add(1, Ordering::Relaxed);
                if shard >= cfg.shards {
                    break;
                }
                let result = run_shard(cfg, shard);
                progress(&result);
                slots.lock().expect("scale shard lock")[shard] = Some(result);
            });
        }
    });
    let shards: Vec<ShardResult> = slots
        .into_inner()
        .expect("scale shard lock")
        .into_iter()
        .map(|slot| slot.expect("every shard completes"))
        .collect();
    let wall_secs = started.elapsed().as_secs_f64();

    let total_events: u64 = shards.iter().map(ShardResult::total_events).sum();
    let total_bytes: usize = shards
        .iter()
        .map(|s| s.table_bytes + s.registry_bytes)
        .sum();
    let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
    for shard in &shards {
        checksum ^= shard.checksum;
        checksum = checksum.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let compat = run_compat_comparison(cfg);
    ScaleReport {
        config: cfg.clone(),
        shards,
        checksum,
        total_events,
        columnar_bytes_per_event: if total_events == 0 {
            0.0
        } else {
            total_bytes as f64 / total_events as f64
        },
        compat,
        wall_secs,
    }
}

/// Runs the full scale campaign without progress reporting.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    run_scale_with_progress(cfg, |_| {})
}

/// A small default configuration for smoke tests and benches (a few thousand
/// peers, seconds of wall time).
pub fn smoke_config() -> ScaleConfig {
    ScaleConfig {
        peers: 4_000,
        shards: 4,
        threads: 2,
        duration: SimDuration::from_mins(10),
        compat_peers: 2_000,
        ..ScaleConfig::default()
    }
}

/// Seed-domain separator of the true-protocol population stream.
const TRUE_PROTOCOL_POPULATION_DOMAIN: u64 = 0x0b5e_7a71_0000_0002;

/// Configuration of a true-protocol campaign: one coherent population run
/// through the cross-shard mailbox engine (`netsim::mailbox`), where the
/// shards exchange dial/gossip/identify events instead of simulating
/// independent sub-networks.
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
            peers: 10_000_000,
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

/// A small true-protocol configuration for smoke tests and CI.
pub fn true_protocol_smoke_config() -> TrueProtocolConfig {
    TrueProtocolConfig {
        peers: 20_000,
        shards: 4,
        threads: 2,
        ..TrueProtocolConfig::default()
    }
}

/// Builds the campaign's full population in global index order.
///
/// One global sampling stream, *not* shard-stratified: the population must
/// be identical for every shard count, or shard-count invariance of the
/// trace would be meaningless.
pub fn true_protocol_population(cfg: &TrueProtocolConfig) -> Vec<RemotePeerSpec> {
    use netsim::{DialBehavior, SessionPattern};
    let mut rng = SimRng::seed_from(cfg.seed ^ TRUE_PROTOCOL_POPULATION_DOMAIN);
    let agents = [
        "go-ipfs/0.11.0/",
        "go-ipfs/0.10.0/abc",
        "go-ipfs/0.8.0/",
        "hydra-booster/0.7.4",
    ];
    let duration_secs = cfg.duration.as_secs_f64();
    (0..cfg.peers)
        .map(|i| {
            let server = rng.chance(0.7);
            let protocols = if server {
                ProtocolSet::go_ipfs_dht_server()
            } else {
                ProtocolSet::go_ipfs_dht_client()
            };
            let agent = AgentVersion::parse(agents[rng.index(agents.len())]);
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
            // Dial probabilities are scaled down from the per-shard harness:
            // here every peer shares the *same* few observers, so per-session
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
            RemotePeerSpec::new(
                PeerId::derived(i as u64),
                addr,
                IdentifyInfo::new(agent, protocols, Vec::new()),
            )
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
    /// the `true_protocol` row.
    pub fn full_json(&self) -> Json {
        let mut obj = self.deterministic_json();
        obj.insert("wall_secs", round2(self.wall_secs));
        obj.insert("events_per_sec", round2(self.events_per_sec()));
        obj.insert("threads", self.config.threads as u64);
        obj
    }

    /// Human-readable one-screen summary (stderr of `repro scale`).
    pub fn summary(&self) -> String {
        format!(
            "true-protocol: peers {} | shards {} | epochs {} | cross-shard events {} | \
             {} sim events | {} observations | {:.0} events/sec | checksum {:016x}",
            self.config.peers,
            self.config.shards,
            self.stats.epochs,
            self.stats.cross_shard_events,
            self.stats.sim_events,
            self.stats.observations,
            self.events_per_sec(),
            self.stats.checksum
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_population_distributes_remainder() {
        let cfg = ScaleConfig {
            peers: 10,
            shards: 3,
            ..smoke_config()
        };
        let sizes: Vec<usize> = (0..3).map(|s| cfg.shard_population(s)).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let cfg = smoke_config();
        assert_ne!(cfg.shard_seed(0), cfg.shard_seed(1));
        assert_eq!(cfg.shard_seed(0), cfg.shard_seed(0));
    }

    #[test]
    fn scale_run_is_deterministic_across_thread_counts() {
        let mut cfg = ScaleConfig {
            peers: 600,
            shards: 3,
            threads: 1,
            compat_peers: 300,
            ..smoke_config()
        };
        let serial = run_scale(&cfg);
        cfg.threads = 3;
        let parallel = run_scale(&cfg);
        assert_eq!(
            serial.deterministic_json().to_string_compact(),
            parallel.deterministic_json().to_string_compact()
        );
        assert!(serial.total_events > 0);
    }

    #[test]
    fn deterministic_json_rolls_up_shards() {
        let cfg = ScaleConfig {
            peers: 400,
            shards: 4,
            threads: 1,
            compat_peers: 200,
            ..smoke_config()
        };
        let report = run_scale(&cfg);
        let json = report.deterministic_json();
        assert!(json.get("shard_results").is_none(), "per-shard dump must be gone");
        let rollup = json.get("shard_summary").expect("rollup present");
        assert_eq!(rollup.u64_field("shards").unwrap(), 4);
        let min = rollup.u64_field("events_min").unwrap();
        let max = rollup.u64_field("events_max").unwrap();
        let total = rollup.u64_field("events_total").unwrap();
        assert!(min <= max && max <= total);
        assert_eq!(total, report.total_events);
        assert_eq!(
            rollup.str_field("checksum").unwrap(),
            format!("{:016x}", report.checksum)
        );
    }

    #[test]
    fn true_protocol_smoke_is_shard_and_thread_invariant() {
        let base = TrueProtocolConfig {
            peers: 800,
            shards: 1,
            threads: 1,
            duration: SimDuration::from_mins(5),
            ..true_protocol_smoke_config()
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

    #[test]
    fn columnar_representation_beats_enum_by_5x() {
        let cfg = ScaleConfig {
            peers: 2_000,
            shards: 2,
            threads: 2,
            compat_peers: 2_000,
            ..smoke_config()
        };
        let report = run_scale(&cfg);
        assert!(
            report.compat.ratio() >= 5.0,
            "columnar must be ≥5x smaller per event, got {:.2}x \
             (enum {:.1} B/event, columnar {:.1} B/event)",
            report.compat.ratio(),
            report.compat.enum_bytes_per_event,
            report.compat.columnar_bytes_per_event
        );
    }
}
