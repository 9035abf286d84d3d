//! `fullproto-1m`: one million peers through the cross-shard engine.
//!
//! Set-up samples the population (`bench::scale::true_protocol_population`).
//! A round runs it through `netsim::run_full_protocol` on 64 shards for 10
//! epochs, once on one thread and once on two. About three quarters of the
//! events cross shards, so mailbox traffic and the epoch barrier dominate;
//! no monitor or analysis runs.

use crate::harness::{Checks, Outcome, Workload};
use crate::trace::{Trace, SEGMENT};
use bench::scale::{true_protocol_observers, true_protocol_population, TrueProtocolConfig};
use netsim::{run_full_protocol, FullProtocolConfig, MailboxStats, RemotePeerSpec};
use simclock::SimDuration;

/// Size of the campaign.
pub struct FullProto {
    /// Peers in the population.
    pub peers: usize,
    /// Engine shards.
    pub shards: usize,
}

/// The benchmarked size: 1M peers, 64 shards (about 11M events a run).
pub const FULL: FullProto = FullProto {
    peers: 1_000_000,
    shards: 64,
};

/// The configuration, and the sampled population until an engine run
/// consumes it.
pub struct Input {
    config: TrueProtocolConfig,
    population: Option<Vec<RemotePeerSpec>>,
}

impl Workload for FullProto {
    type Input = Input;

    fn setup(&self, seed: u64, trace: &mut Trace) -> Input {
        let config = TrueProtocolConfig {
            peers: self.peers,
            shards: self.shards,
            threads: 1,
            duration: SimDuration::from_mins(10),
            epoch: SimDuration::from_secs(60),
            seed,
            observers: 4,
        };
        let population = trace.span("population.sample", || true_protocol_population(&config));
        Input {
            config,
            population: Some(population),
        }
    }

    fn round(&self, input: &mut Input, trace: &mut Trace, checks: &mut Checks) -> Outcome {
        let cfg = input.config.clone();
        let mut stats: Vec<MailboxStats> = Vec::with_capacity(2);
        for (threads, layer) in [(1, "netsim.mailbox.run.t1"), (2, "netsim.mailbox.run.t2")] {
            let engine =
                FullProtocolConfig::new(cfg.seed, cfg.duration, true_protocol_observers(&cfg))
                    .with_epoch(cfg.epoch)
                    .with_shards(cfg.shards)
                    .with_threads(threads);
            // The engine consumes the population. Sampling it again (rather
            // than keeping a copy) holds one population in memory, not two;
            // it happens outside the timed segment, as does dropping the
            // output.
            let population = input
                .population
                .take()
                .unwrap_or_else(|| true_protocol_population(&cfg));
            let segment = trace.begin(SEGMENT);
            let span = trace.begin(layer);
            let run = run_full_protocol(&engine, population);
            let s = run.stats;
            trace.count(&span, "sim_events", s.sim_events as f64);
            trace.count(&span, "mailbox_events", s.mailbox_events as f64);
            trace.count(&span, "cross_shard_events", s.cross_shard_events as f64);
            trace.count(&span, "epochs", s.epochs as f64);
            trace.count(&span, "observations", s.observations as f64);
            trace.end(span);
            trace.end(segment);
            drop(run);
            stats.push(s);
        }
        let (one, two) = (stats[0], stats[1]);
        checks.check(one.checksum == two.checksum, || {
            format!(
                "trace checksum {:016x} on 1 thread, {:016x} on 2",
                one.checksum, two.checksum
            )
        });
        checks.check(one.observations == two.observations, || {
            format!(
                "{} observations on 1 thread, {} on 2",
                one.observations, two.observations
            )
        });
        Outcome {
            events: one.sim_events + two.sim_events,
            busy: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_passes_its_checks() {
        crate::tests::assert_passes(&FullProto {
            peers: 4_000,
            shards: 4,
        });
    }
}
