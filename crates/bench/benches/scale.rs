//! Benchmarks of the observation pipeline on the `repro scale` population:
//! raw engine throughput into counting sinks and into columnar tables, and
//! the columnar monitor ingest of the resulting log.

use bench::scale::{
    true_protocol_observers, true_protocol_population, true_protocol_smoke_config,
    TrueProtocolConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
use measurement::GoIpfsMonitor;
use netsim::{CountingSink, Network, NetworkConfig};
use std::hint::black_box;

fn network(cfg: &TrueProtocolConfig) -> Network {
    let config =
        NetworkConfig::multi_observer(cfg.seed, cfg.duration, true_protocol_observers(cfg));
    Network::new(config, true_protocol_population(cfg)).with_dht_tracking(false)
}

fn config() -> TrueProtocolConfig {
    TrueProtocolConfig {
        peers: 10_000,
        shards: 1,
        threads: 1,
        ..true_protocol_smoke_config()
    }
}

fn bench_engine_throughput(c: &mut Criterion) {
    let cfg = config();
    c.bench_function("scale/engine_counting_sink_10k_peers", |b| {
        b.iter(|| {
            let sinks = vec![CountingSink::default(); cfg.observers];
            let run = network(&cfg).run_with_sinks(sinks);
            black_box(run.sinks.iter().map(CountingSink::total).sum::<u64>())
        })
    });
    c.bench_function("scale/engine_columnar_table_10k_peers", |b| {
        b.iter(|| {
            let output = network(&cfg).run();
            black_box(output.logs[0].len())
        })
    });
}

fn bench_columnar_ingest(c: &mut Criterion) {
    let output = network(&config()).run();
    c.bench_function("scale/goipfs_ingest_columnar_10k_peers", |b| {
        b.iter(|| black_box(GoIpfsMonitor::new().ingest(&output.logs[0]).pid_count()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_throughput, bench_columnar_ingest
}
criterion_main!(benches);
