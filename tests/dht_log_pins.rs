//! Pins of the routing-table history (`netsim::DhtLog`).
//!
//! The differential suites hold the engine's logs only against each other
//! (direct driver vs lock-step driver), and both sides run the same
//! post-pass, so a change to the post-pass moves both at once. These pins
//! hold the logs themselves: an FNV-1a fingerprint of each log's bucket
//! size, bootstrap list, conduct table and events, for P0–P4 at scale 0.003
//! under every churn regime and every DHT-level attack. Each cell pins two
//! logs: the one `Network::run` builds from the run's ground truth and its
//! observers' contacts, and the one `dht_log_from_ground_truth` builds from
//! the same ground truth and bootstrap list (no contacts, every peer honest).

use netsim::{dht_log_from_ground_truth, DhtConduct, DhtEvent, DhtLog, Network};
use p2pmodel::PeerId;
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::rng::{fnv1a_step, FNV_OFFSET};

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

/// `(period, regime, engine log, ground-truth log)` fingerprints, recorded
/// before the post-pass moved from `PeerId` maps to registry slots.
const PINS: &[(&str, &str, u64, u64)] = &[
    ("P0", "baseline", 0x6496cdd606478f30, 0x5120cc20ad5fc4bb),
    ("P0", "diurnal", 0xd64c9fcdfe3a83b4, 0xadb849264a70c47f),
    ("P0", "flashcrowd", 0x6d7536b6058e8b43, 0x5120cc20ad5fc4bb),
    ("P0", "massexit", 0x9b08101076e4566d, 0x9b6b218f3205c838),
    ("P0", "pidflood", 0xb39165956c88a51a, 0x5120cc20ad5fc4bb),
    ("P0", "natchurn", 0x44c5d395857deda2, 0x5120cc20ad5fc4bb),
    ("P0", "sybil", 0xf49a2be79ba1a4cf, 0x83cc507ed51cddf2),
    ("P0", "eclipse", 0xf7a277c55ee8a693, 0xc5fcc27070825bd2),
    ("P0", "poison", 0x56a65dd2a20c5222, 0x61df606ec3244f6e),
    ("P1", "baseline", 0x6252173c45a021e0, 0xc11f4435f350047a),
    ("P1", "diurnal", 0x31c8b0c737389f00, 0x7cae738e3d9332fe),
    ("P1", "flashcrowd", 0xa67b62228abc14b5, 0xc11f4435f350047a),
    ("P1", "massexit", 0xdc3c3673e17d3b71, 0xe24b37b0769251bb),
    ("P1", "pidflood", 0x2c5aaffb4b86005a, 0xc11f4435f350047a),
    ("P1", "natchurn", 0xace714cee0bcf8dd, 0xc11f4435f350047a),
    ("P1", "sybil", 0x30d604a6f019a4d0, 0xc8c9a545868e95fb),
    ("P1", "eclipse", 0xd9adaab3a8dc3f3a, 0x66d66e2816397b3a),
    ("P1", "poison", 0x5acf2af65b7cd31d, 0x85fc671b87695a11),
    ("P2", "baseline", 0x93ea440473f1c353, 0xc11f4435f350047a),
    ("P2", "diurnal", 0x3329b4c308352b4c, 0x7cae738e3d9332fe),
    ("P2", "flashcrowd", 0xa5d617c77beffb09, 0xc11f4435f350047a),
    ("P2", "massexit", 0x926c1bbcd8110b28, 0xe24b37b0769251bb),
    ("P2", "pidflood", 0xe883e0b80b6afc7b, 0xc11f4435f350047a),
    ("P2", "natchurn", 0xe907d1eb20424438, 0xc11f4435f350047a),
    ("P2", "sybil", 0x72db47555f1c75c7, 0xc8c9a545868e95fb),
    ("P2", "eclipse", 0x7791074716ed7355, 0x66d66e2816397b3a),
    ("P2", "poison", 0x83409fc57386c096, 0x85fc671b87695a11),
    ("P3", "baseline", 0xe1a3121b6a1104a2, 0xe1a3121b6a1104a2),
    ("P3", "diurnal", 0x9efa98e5174e6b69, 0x9efa98e5174e6b69),
    ("P3", "flashcrowd", 0xe1a3121b6a1104a2, 0xe1a3121b6a1104a2),
    ("P3", "massexit", 0x808d1296cadfcc5c, 0x808d1296cadfcc5c),
    ("P3", "pidflood", 0xe1a3121b6a1104a2, 0xe1a3121b6a1104a2),
    ("P3", "natchurn", 0xe1a3121b6a1104a2, 0xe1a3121b6a1104a2),
    ("P3", "sybil", 0xd6df320fc70d050d, 0xd8896adf3307c8cd),
    ("P3", "eclipse", 0x5e7749119b0af3f2, 0x42dd613743585bee),
    ("P3", "poison", 0x3771fa04adaf912f, 0x041c708374903a6d),
    ("P4", "baseline", 0x92fa36ac6e5f0a13, 0xbc4795a3e1be5261),
    ("P4", "diurnal", 0xc82d86adf49002ba, 0xf1244b4b65535a67),
    ("P4", "flashcrowd", 0xb8fd96099e5de7ac, 0xbc4795a3e1be5261),
    ("P4", "massexit", 0xa8961ba5b22def94, 0xba57f8c78eeae83d),
    ("P4", "pidflood", 0x26a60f17be01f1de, 0xbc4795a3e1be5261),
    ("P4", "natchurn", 0xe13eb7d6ece4fb2b, 0xbc4795a3e1be5261),
    ("P4", "sybil", 0x3b2224449b70fcdf, 0x95eaf0238d94de34),
    ("P4", "eclipse", 0xb912f58add9480e4, 0xe7e3972c99af45a3),
    ("P4", "poison", 0x7bc41ca03b332e6f, 0x7f5c05e1e847dd84),
];

/// FNV-1a over the bytes of a log.
struct Fingerprint(u64);

impl Fingerprint {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fnv1a_step(self.0, b.into());
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn peer(&mut self, peer: &PeerId) {
        self.bytes(peer.as_bytes());
    }
}

/// The fingerprint reads every slot through `log.peers`, so it covers the
/// `PeerId`s a log names, not how it numbers them.
fn fingerprint(log: &DhtLog) -> u64 {
    let peer = |slot: u32| &log.peers[slot as usize];
    let mut f = Fingerprint(FNV_OFFSET);
    f.word(log.k as u64);
    f.word(log.bootstrap.len() as u64);
    for &slot in &log.bootstrap {
        f.peer(peer(slot));
    }
    f.word(log.conduct.len() as u64);
    for &(slot, conduct) in &log.conduct {
        f.peer(peer(slot));
        match conduct {
            DhtConduct::Honest => f.word(0),
            DhtConduct::Sybil { cluster } => {
                f.word(1);
                f.word(cluster.into());
            }
            DhtConduct::Poison { junk_per_reply } => {
                f.word(2);
                f.word(junk_per_reply as u64);
            }
        }
    }
    f.word(log.events.len() as u64);
    for event in &log.events {
        let (tag, at, a, b) = match *event {
            DhtEvent::Up { at, server } => (0, at, server, None),
            DhtEvent::Down { at, server } => (1, at, server, None),
            DhtEvent::Admit { at, owner, entry } => (2, at, owner, Some(entry)),
            DhtEvent::Evict { at, owner, entry } => (3, at, owner, Some(entry)),
        };
        f.word(tag);
        f.word(at.as_millis());
        f.peer(peer(a));
        if let Some(b) = b {
            f.peer(peer(b));
        }
    }
    f.0
}

/// The two fingerprints of one cell.
fn cell(period: MeasurementPeriod, churn: ChurnScenario) -> (u64, u64) {
    let run = Scenario::new(period)
        .with_scale(0.003)
        .with_seed(17)
        .with_churn(churn)
        .build();
    let output = Network::new(run.config, run.population.specs)
        .with_population_events(run.events)
        .run();
    let log = &output.dht;
    let bootstrap: Vec<PeerId> = log
        .bootstrap
        .iter()
        .map(|&slot| log.peers[slot as usize])
        .collect();
    let replayed = dht_log_from_ground_truth(&output.ground_truth, &bootstrap);
    (fingerprint(&output.dht), fingerprint(&replayed))
}

#[test]
fn routing_table_histories_match_their_pins() {
    let mut actual = Vec::new();
    for period in PERIODS {
        for churn in regimes() {
            let label = churn.label();
            let (engine, replayed) = cell(period, churn);
            actual.push((period.label(), label, engine, replayed));
        }
    }
    let table: String = actual
        .iter()
        .map(|(p, r, e, g)| format!("    (\"{p}\", \"{r}\", 0x{e:016x}, 0x{g:016x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        PINS.len(),
        "cells changed; fingerprints now:\n{table}"
    );
    for (got, pin) in actual.iter().zip(PINS.iter()) {
        assert_eq!(
            got, pin,
            "routing-table history of {}/{} moved; fingerprints now:\n{table}",
            got.0, got.1
        );
    }
}
