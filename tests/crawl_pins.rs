//! Pins of the active crawler's output (`measurement::ActiveCrawler`).
//!
//! `dht_log_pins` holds the routing-table histories the crawler replays;
//! these pins hold what the crawler makes of them: an FNV-1a fingerprint of
//! every field of every `CrawlSnapshot` of a crawl series and of its
//! `CrawlSummary`, for the cells of `dht_log_pins` (P0–P4 at scale 0.003,
//! seed 17, under every churn regime and every DHT-level attack) plus the
//! 14-day period, whose series holds 43 crawls, and P4 at the benchmark's
//! scale 0.01 baseline and under each attack. A snapshot's `queries` and
//! `elapsed_ms` follow the order in which the crawl probes peers, so a change
//! to the probe order moves them even where the counts of peers found stay.

use measurement::{ActiveCrawler, CrawlSnapshot, CrawlSummary};
use netsim::Network;
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::rng::{fnv1a_step, FNV_OFFSET};
use simclock::SimTime;

const PERIODS: [MeasurementPeriod; 5] = [
    MeasurementPeriod::P0,
    MeasurementPeriod::P1,
    MeasurementPeriod::P2,
    MeasurementPeriod::P3,
    MeasurementPeriod::P4,
];

/// The regimes, by label: every scenario of `ChurnScenario::all()` plus the
/// three DHT-level attacks.
fn regimes() -> Vec<ChurnScenario> {
    let mut regimes = ChurnScenario::all();
    regimes.extend(ChurnScenario::adversaries());
    regimes
}

/// `(period, scale, regime, crawl series)` fingerprints, recorded before
/// the crawler moved from `PeerId` sets to slot vectors.
const PINS: &[(&str, f64, &str, u64)] = &[
    ("P0", 0.003, "baseline", 0x0af603e4b893fd50),
    ("P0", 0.003, "diurnal", 0x69b93a460b1eb9cd),
    ("P0", 0.003, "flashcrowd", 0x0af603e4b893fd50),
    ("P0", 0.003, "massexit", 0xe4ab400384253c35),
    ("P0", 0.003, "pidflood", 0x0697e546217f65e8),
    ("P0", 0.003, "natchurn", 0x9b02f4e6ec669b94),
    ("P0", 0.003, "sybil", 0xcac79d5de4b3f838),
    ("P0", 0.003, "eclipse", 0xc2bdf636994ea859),
    ("P0", 0.003, "poison", 0xff78bf5e3767942e),
    ("P1", 0.003, "baseline", 0x22f16114d2757257),
    ("P1", 0.003, "diurnal", 0xad9a63a89a804064),
    ("P1", 0.003, "flashcrowd", 0xd821382385840276),
    ("P1", 0.003, "massexit", 0x7708a287641b7ffb),
    ("P1", 0.003, "pidflood", 0xd821382385840276),
    ("P1", 0.003, "natchurn", 0x22f16114d2757257),
    ("P1", 0.003, "sybil", 0x9c92c8bdee792fac),
    ("P1", 0.003, "eclipse", 0x987c70febaef9bfd),
    ("P1", 0.003, "poison", 0x0b9bdb925122fcbc),
    ("P2", 0.003, "baseline", 0x22f16114d2757257),
    ("P2", 0.003, "diurnal", 0xcaa46e516557ed1a),
    ("P2", 0.003, "flashcrowd", 0x22f16114d2757257),
    ("P2", 0.003, "massexit", 0x7708a287641b7ffb),
    ("P2", 0.003, "pidflood", 0x22f16114d2757257),
    ("P2", 0.003, "natchurn", 0xd821382385840276),
    ("P2", 0.003, "sybil", 0x7996c7caf36222a5),
    ("P2", 0.003, "eclipse", 0x101105f09ca9909d),
    ("P2", 0.003, "poison", 0x0b9bdb925122fcbc),
    ("P3", 0.003, "baseline", 0x9546f91e13785169),
    ("P3", 0.003, "diurnal", 0xd0bcbfe0b1fb541a),
    ("P3", 0.003, "flashcrowd", 0x9546f91e13785169),
    ("P3", 0.003, "massexit", 0xf2ddec66734d3363),
    ("P3", 0.003, "pidflood", 0x9546f91e13785169),
    ("P3", 0.003, "natchurn", 0x9546f91e13785169),
    ("P3", 0.003, "sybil", 0x7a117b521df11f64),
    ("P3", 0.003, "eclipse", 0x26571e61e1c5ebf6),
    ("P3", 0.003, "poison", 0x20a6732bb945c178),
    ("P4", 0.003, "baseline", 0x51552b0cfe1d54a1),
    ("P4", 0.003, "diurnal", 0x003199c4011cb67f),
    ("P4", 0.003, "flashcrowd", 0x51552b0cfe1d54a1),
    ("P4", 0.003, "massexit", 0x1d15998fdbb29f89),
    ("P4", 0.003, "pidflood", 0x51552b0cfe1d54a1),
    ("P4", 0.003, "natchurn", 0x51552b0cfe1d54a1),
    ("P4", 0.003, "sybil", 0x542fc3eeeb946553),
    ("P4", 0.003, "eclipse", 0x7705a7aa8f6dff24),
    ("P4", 0.003, "poison", 0xb4a0643c9bd8daa1),
    ("P14d", 0.003, "baseline", 0x69b496a2f80ab986),
    ("P4", 0.01, "baseline", 0x3a99f26ddca8f23f),
    ("P4", 0.01, "sybil", 0xf4a084f567c02d0b),
    ("P4", 0.01, "eclipse", 0xda1321a22de819ba),
    ("P4", 0.01, "poison", 0x16a45468ed27cca1),
];

/// FNV-1a over the fields of a crawl series.
struct Fingerprint(u64);

impl Fingerprint {
    fn word(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = fnv1a_step(self.0, b.into());
        }
    }
}

fn fingerprint(snapshots: &[CrawlSnapshot], summary: &CrawlSummary) -> u64 {
    let mut f = Fingerprint(FNV_OFFSET);
    f.word(snapshots.len() as u64);
    for s in snapshots {
        f.word(s.at.as_millis());
        f.word(s.servers_found as u64);
        f.word(s.servers_online as u64);
        f.word(s.adversarial_found as u64);
        f.word(s.lookups as u64);
        f.word(s.queries as u64);
        f.word(s.elapsed_ms);
        f.word(s.truncated.into());
    }
    f.word(summary.crawls as u64);
    f.word(summary.min_servers as u64);
    f.word(summary.max_servers as u64);
    f.word(summary.distinct_servers as u64);
    f.word(summary.total_lookups as u64);
    f.word(summary.total_queries as u64);
    f.word(summary.mean_recall.to_bits());
    f.0
}

/// The fingerprint of one cell's crawl series, crawled as a campaign does:
/// once every interval from time zero to the end of the period.
fn cell(period: MeasurementPeriod, scale: f64, churn: ChurnScenario) -> u64 {
    let run = Scenario::new(period)
        .with_scale(scale)
        .with_seed(17)
        .with_churn(churn)
        .build();
    let duration = run.config.duration;
    let output = Network::new(run.config, run.population.specs)
        .with_population_events(run.events)
        .run();
    let (snapshots, summary) = ActiveCrawler::new().crawl_summary(
        &output.dht,
        &output.ground_truth,
        SimTime::ZERO,
        SimTime::ZERO + duration,
    );
    fingerprint(&snapshots, &summary)
}

#[test]
fn crawl_series_match_their_pins() {
    let mut cells: Vec<(MeasurementPeriod, f64, ChurnScenario)> = PERIODS
        .into_iter()
        .flat_map(|period| {
            regimes()
                .into_iter()
                .map(move |churn| (period, 0.003, churn))
        })
        .collect();
    cells.push((MeasurementPeriod::Extended, 0.003, ChurnScenario::Baseline));
    // The benchmark's scale, where poisoned crawls run out of budget.
    let mut at_scale = vec![ChurnScenario::Baseline];
    at_scale.extend(ChurnScenario::adversaries());
    cells.extend(
        at_scale
            .into_iter()
            .map(|churn| (MeasurementPeriod::P4, 0.01, churn)),
    );
    let actual: Vec<(&str, f64, &str, u64)> = cells
        .into_iter()
        .map(|(period, scale, churn)| {
            let label = churn.label();
            (period.label(), scale, label, cell(period, scale, churn))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(p, s, r, c)| format!("    (\"{p}\", {s}, \"{r}\", 0x{c:016x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        PINS.len(),
        "cells changed; fingerprints now:\n{table}"
    );
    for (got, pin) in actual.iter().zip(PINS.iter()) {
        assert_eq!(
            got, pin,
            "crawl series of {} at scale {} under {} moved; fingerprints now:\n{table}",
            got.0, got.1, got.2
        );
    }
}
