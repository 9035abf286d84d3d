//! Golden time-series regression tests for the streaming subsystem.
//!
//! Mirrors `golden_scenarios` / `golden_vantage`: P4 at SCALE = 0.005 under
//! the flash-crowd and PID-rotation-flood regimes, each observer's log
//! folded by the streaming monitor with 6 h tumbling windows, must
//! reproduce the committed fixtures in `tests/golden/` *byte-identically*,
//! at any thread count. Each fixture holds the full `repro stream` surface
//! — cumulative estimates plus the per-window time series — so any drift
//! in the simulator, the log replay, the window algebra or the streaming
//! estimators fails loudly here.
//!
//! If a change intentionally alters simulation traces, regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test golden_stream` and review the diff
//! like any other code change.

use ipfs_passive_measurement::prelude::*;
use jsonio::Json;
use std::path::PathBuf;

mod common;
use common::{SCALE, SEED};

const WINDOW: SimDuration = SimDuration::from_hours(6);

/// The regimes the fixtures pin (same pair as the scenario and vantage
/// fixtures).
fn pinned_scenarios() -> Vec<ChurnScenario> {
    vec![ChurnScenario::flash_crowd(), ChurnScenario::pid_rotation_flood()]
}

fn golden_path(scenario: &ChurnScenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("stream_p4_s{SCALE}_{}.json", scenario.label()))
}

fn golden_string(campaign: &StreamingCampaign) -> String {
    let report = stream_report(std::slice::from_ref(campaign));
    let mut text = report.to_json_string_pretty();
    text.push('\n');
    text
}

#[test]
fn p4_stream_reports_reproduce_the_committed_fixtures_at_any_thread_count() {
    let scenarios = pinned_scenarios();
    let serial = run_stream_suite(MeasurementPeriod::P4, SCALE, SEED, 1, WINDOW, &scenarios, 1);
    let parallel = run_stream_suite(MeasurementPeriod::P4, SCALE, SEED, 1, WINDOW, &scenarios, 2);
    for ((scenario, a), b) in scenarios.iter().zip(&serial).zip(&parallel) {
        let rendered = golden_string(a);
        assert_eq!(
            rendered,
            golden_string(b),
            "{scenario}: 1-thread and 2-thread runs must be byte-identical"
        );
        let path = golden_path(scenario);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_stream",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            committed,
            "{scenario}: output drifted from {}; if intentional, regenerate with UPDATE_GOLDEN=1",
            path.display()
        );
    }
}

#[test]
fn fixtures_are_valid_json_with_the_documented_schema() {
    for scenario in pinned_scenarios() {
        let path = golden_path(&scenario);
        let Ok(text) = std::fs::read_to_string(&path) else {
            // The reproduction test reports the actionable error.
            continue;
        };
        let json = Json::parse(&text).expect("fixture parses");
        let analyses = json.array_field("analyses").expect("analyses array");
        assert_eq!(analyses.len(), 1);
        let analysis = &analyses[0];
        assert_eq!(analysis.str_field("scenario").unwrap(), scenario.label());
        assert_eq!(analysis.str_field("period").unwrap(), "P4");
        assert_eq!(analysis.u64_field("window_secs").unwrap(), WINDOW.as_secs());
        assert!(analysis.field("connection_stats").is_ok());
        assert!(analysis.field("direction_stats").is_ok());
        assert!(analysis.field("ip_grouping").is_ok());
        assert!(analysis.field("netsize").is_ok());
        let classes = analysis.array_field("classification").unwrap();
        assert_eq!(classes.len(), 4, "Table IV has four classes");
        // P4 runs 3 days at 6 h panes → 12 tiled panes plus the end flush.
        let windows = analysis.array_field("windows").unwrap();
        assert_eq!(windows.len(), 13);
        for (i, window) in windows.iter().enumerate() {
            assert_eq!(window.u64_field("index").unwrap() as usize, i);
            assert!(window.u64_field("closed").is_ok());
            assert!(window.u64_field("known_pids").is_ok());
        }
        // Single-vantage fixtures have no capture rows.
        assert!(analysis.array_field("capture").unwrap().is_empty());
    }
}
