//! Statistical equivalence guard for the simulation engine.
//!
//! `tests/golden/classic_engine_metrics.json` holds the paper metrics of a
//! fixed seed set as the single-queue engine that predates the sharded one
//! produced them: Table II (sum, average and median per client, inbound and
//! outbound), Fig. 2 (passive PIDs and the crawler's distinct/min/max
//! servers), Fig. 5 (max simultaneous connections), §V (`by_pids`,
//! `by_ip_groups`) and the robustness rows of P4 under the flash crowd and
//! the PID-rotation flood.
//!
//! The test reruns the same seeds on the current engine and requires, for
//! every metric, that the two cross-seed means differ by no more than the
//! sum of their CI95 half-widths (`1.96 · stddev / √n`, the sweep's
//! convention). Exact trace identity is the job of the golden fixtures;
//! this guard catches a change of *distribution*.
//!
//! The fixture is a record of a deleted engine and is never re-blessed: a
//! metric outside its band is a finding about the engine, not about the
//! fixture. `UPDATE_GOLDEN=1` rewrites it from the engine under test and
//! exists only to record it in the first place.

use ipfs_passive_measurement::prelude::*;
use jsonio::Json;
use measurement::sweep::MetricSummary;
use std::path::PathBuf;

/// Population scale of every campaign in the guard.
const SCALE: f64 = 0.004;

/// The seeds the fixture records, one campaign set per seed.
const SEEDS: [u64; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

/// Worker threads for the campaign grid (the results do not depend on it).
const THREADS: usize = 2;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/classic_engine_metrics.json")
}

/// The campaigns of one seed: P0–P4 baseline, then P4 under the two
/// regimes whose robustness rows the guard covers.
fn campaigns(seed: u64) -> Vec<(String, Scenario)> {
    let mut cells: Vec<(String, Scenario)> = MeasurementPeriod::ALL
        .iter()
        .filter(|&&period| period != MeasurementPeriod::Extended)
        .map(|&period| {
            (
                period.label().to_string(),
                Scenario::new(period).with_scale(SCALE).with_seed(seed),
            )
        })
        .collect();
    for churn in [ChurnScenario::flash_crowd(), ChurnScenario::pid_rotation_flood()] {
        cells.push((
            format!("P4/{}", churn.label()),
            Scenario::new(MeasurementPeriod::P4)
                .with_scale(SCALE)
                .with_seed(seed)
                .with_churn(churn),
        ));
    }
    cells
}

/// Every guarded metric of one campaign, as `(name, value)` pairs.
fn metrics(label: &str, campaign: &MeasurementCampaign, out: &mut Vec<(String, f64)>) {
    let mut push = |name: String, value: f64| out.push((format!("{label}/{name}"), value));
    if label.contains('/') {
        // A churn-regime cell: only its robustness row is guarded.
        let row = scenario_robustness(campaign);
        push("robustness.observed_pids".into(), row.observed_pids as f64);
        push("robustness.by_pids.err".into(), row.by_pids.signed_rel_error);
        push("robustness.by_ip_groups.err".into(), row.by_ip_groups.signed_rel_error);
        push("robustness.core.err".into(), row.core_lower_bound.signed_rel_error);
        return;
    }
    for dataset in campaign.passive_datasets() {
        let client = &dataset.client;
        let stats = connection_stats(dataset);
        let dirs = direction_stats(dataset);
        push(format!("{client}/table2.all_sum"), stats.all_sum as f64);
        push(format!("{client}/table2.all_avg_s"), stats.all_avg_secs);
        push(format!("{client}/table2.all_median_s"), stats.all_median_secs);
        push(format!("{client}/table2.peer_sum"), stats.peer_sum as f64);
        push(format!("{client}/table2.peer_avg_s"), stats.peer_avg_secs);
        push(format!("{client}/table2.peer_median_s"), stats.peer_median_secs);
        push(format!("{client}/table2.inbound"), dirs.inbound as f64);
        push(format!("{client}/table2.outbound"), dirs.outbound as f64);
        let timeline = connection_timeline(dataset, SimDuration::from_hours(24));
        push(format!("{client}/fig5.max_simultaneous"), timeline.max_value());
    }
    let horizon = horizon_comparison(campaign);
    for entry in &horizon.passive {
        push(format!("{}/fig2.pids", entry.client), entry.total_pids as f64);
        push(format!("{}/fig2.server_pids", entry.client), entry.dht_server_pids as f64);
    }
    push("fig2.crawler.distinct".into(), horizon.crawler.distinct_servers as f64);
    push("fig2.crawler.min".into(), horizon.crawler.min_servers as f64);
    push("fig2.crawler.max".into(), horizon.crawler.max_servers as f64);
    if campaign.scenario.period == MeasurementPeriod::P4 {
        let estimate = network_size_estimate(campaign.primary());
        push("sec5.by_pids".into(), estimate.by_pids as f64);
        push("sec5.by_ip_groups".into(), estimate.by_ip_groups as f64);
    }
}

/// Runs every campaign of every seed on the current engine and returns one
/// value list per metric, in seed order.
fn measure() -> Vec<(String, Vec<f64>)> {
    let cells: Vec<(u64, String, Scenario)> = SEEDS
        .iter()
        .flat_map(|&seed| {
            campaigns(seed)
                .into_iter()
                .map(move |(label, scenario)| (seed, label, scenario))
        })
        .collect();
    let mut per_cell: Vec<Vec<(String, f64)>> = vec![Vec::new(); cells.len()];
    std::thread::scope(|scope| {
        let chunks: Vec<_> = per_cell.chunks_mut(cells.len().div_ceil(THREADS)).collect();
        for (t, chunk) in chunks.into_iter().enumerate() {
            let cells = &cells;
            scope.spawn(move || {
                let first = t * cells.len().div_ceil(THREADS);
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let (_, label, scenario) = &cells[first + i];
                    metrics(label, &run_scenario(scenario.clone()), slot);
                }
            });
        }
    });
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for cell in per_cell {
        for (name, value) in cell {
            match series.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(value),
                None => series.push((name, vec![value])),
            }
        }
    }
    series
}

fn render(series: &[(String, Vec<f64>)]) -> String {
    let mut metrics = Json::object();
    for (name, values) in series {
        metrics.insert(name.as_str(), values.clone());
    }
    let mut root = Json::object();
    root.insert("scale", SCALE);
    root.insert("seeds", SEEDS.iter().map(|&s| s as usize).collect::<Vec<usize>>());
    root.insert("metrics", metrics);
    let mut text = root.to_string_pretty();
    text.push('\n');
    text
}

fn parse(text: &str) -> Vec<(String, Vec<f64>)> {
    let root = Json::parse(text).expect("fixture is valid JSON");
    let metrics = root.field("metrics").expect("fixture has metrics");
    metrics
        .as_object()
        .expect("metrics is an object")
        .iter()
        .map(|(name, values)| {
            let values = values
                .as_array()
                .expect("one array per metric")
                .iter()
                .map(|v| v.as_f64().expect("numeric metric"))
                .collect();
            (name.clone(), values)
        })
        .collect()
}

#[test]
fn engine_metrics_agree_with_the_classic_engine_record() {
    let current = measure();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, render(&current)).unwrap();
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    let recorded = parse(&text);
    let names = |s: &[(String, Vec<f64>)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&recorded), names(&current), "the guarded metric set changed");
    let mut outside = Vec::new();
    for ((name, old), (_, new)) in recorded.iter().zip(&current) {
        assert_eq!(old.len(), SEEDS.len(), "{name}: one value per seed");
        let (a, b) = (MetricSummary::from_values(old), MetricSummary::from_values(new));
        if (a.mean - b.mean).abs() > a.ci95 + b.ci95 {
            outside.push(format!(
                "{name}: classic {:.4}±{:.4} vs current {:.4}±{:.4}",
                a.mean, a.ci95, b.mean, b.ci95
            ));
        }
    }
    assert!(
        outside.is_empty(),
        "{} of {} metrics left the cross-seed CI95 band:\n{}",
        outside.len(),
        recorded.len(),
        outside.join("\n")
    );
}
