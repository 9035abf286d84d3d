//! Differential tests for the streaming single-pass analysis engine.
//!
//! The acceptance bar of the streaming subsystem: for **every** measurement
//! period P0–P4 under **every** churn regime, the streaming estimator's
//! final cumulative window must be *byte-identical* to the batch estimators
//! (`analysis::{churn,netsize,vantage}`) computed on the materialised data
//! set of the same campaign — same bits in every float, same `Debug`
//! rendering. Each cell is simulated once; its output is folded by
//! `stream_output` and handed to `campaign_from_output`, so both pipelines
//! read the logs of one simulation and any divergence is an estimator bug,
//! not a seed artefact.
//!
//! Also pinned here: a streaming campaign's summaries equal a replay of a
//! second simulation's output and match `run_scenario`'s datasets, the
//! streaming capture–recapture rows equal the batch vantage analysis, and
//! the `repro stream` report is byte-identical at 1 and 8 threads.

use ipfs_passive_measurement::prelude::*;
use measurement::{campaign_from_output, stream_output, DurationMode};

mod common;
use common::{SCALE, SEED};

/// Window width the differential campaigns use (any width must work; the
/// cumulative result is window-independent by construction).
const WINDOW: SimDuration = SimDuration::from_hours(6);

fn periods() -> [MeasurementPeriod; 5] {
    [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
        MeasurementPeriod::P4,
    ]
}

/// Asserts that every cumulative streaming estimate equals its batch
/// counterpart on the matching data set — as values and as bytes.
fn assert_stream_matches_batch(
    stream: &StreamSummary,
    dataset: &MeasurementDataset,
    context: &str,
) {
    assert_eq!(stream.observer, dataset.client, "{context}");

    let batch_conn = connection_stats(dataset);
    let stream_conn = analysis::stream_connection_stats(stream);
    assert_eq!(stream_conn, batch_conn, "{context}: Table II stats");
    assert_eq!(
        format!("{stream_conn:?}"),
        format!("{batch_conn:?}"),
        "{context}: Table II stats must render byte-identically"
    );

    let batch_dirs = direction_stats(dataset);
    let stream_dirs = analysis::stream_direction_stats(stream);
    assert_eq!(stream_dirs, batch_dirs, "{context}: direction stats");
    assert_eq!(
        format!("{stream_dirs:?}"),
        format!("{batch_dirs:?}"),
        "{context}: direction stats must render byte-identically"
    );

    let batch_grouping = ip_grouping(dataset);
    let stream_grouping = analysis::stream_ip_grouping(stream);
    assert_eq!(stream_grouping, batch_grouping, "{context}: §V-A grouping");

    let batch_classes = classify_peers(dataset);
    let stream_classes = analysis::stream_classify_peers(stream);
    assert_eq!(stream_classes, batch_classes, "{context}: Table IV classes");

    let batch_netsize = network_size_estimate(dataset);
    let stream_netsize = analysis::stream_network_size(stream);
    assert_eq!(stream_netsize, batch_netsize, "{context}: §V estimate");
    assert_eq!(
        format!("{stream_netsize:?}"),
        format!("{batch_netsize:?}"),
        "{context}: §V estimate must render byte-identically"
    );
}

/// The stream of `observer`.
fn stream<'a>(streams: &'a [StreamSummary], observer: &str) -> &'a StreamSummary {
    streams
        .iter()
        .find(|s| s.observer == observer)
        .unwrap_or_else(|| panic!("no stream for {observer}"))
}

/// Asserts that every passive dataset of `batch` has a stream that matches
/// it, and that there is no other stream.
fn assert_streams_match_campaign(
    streams: &[StreamSummary],
    batch: &MeasurementCampaign,
    label: &str,
) {
    // Every deployed observer: the go-ipfs primary and each hydra head
    // (P0–P2 deploy up to three).
    let datasets = batch.passive_datasets();
    for dataset in &datasets {
        let context = format!("{label}/{}", dataset.client);
        assert_stream_matches_batch(stream(streams, &dataset.client), dataset, &context);
    }
    assert_eq!(
        streams.len(),
        datasets.len(),
        "{label}: one stream per passive monitor"
    );
}

#[test]
fn streaming_matches_batch_on_every_period_and_churn_regime() {
    for period in periods() {
        for churn in ChurnScenario::all() {
            let label = format!("{period}/{}", churn.label());
            let run = Scenario::new(period)
                .with_scale(SCALE)
                .with_seed(SEED)
                .with_churn(churn)
                .build();
            let scenario = run.scenario.clone();
            let (participants, duration) = (run.ground_truth_participants, run.config.duration);
            let output = run.simulate();
            let streams = stream_output(&output, WINDOW, DurationMode::Exact);
            let batch = campaign_from_output(scenario, participants, duration, output);
            assert_streams_match_campaign(&streams, &batch, &label);
        }
    }
}

#[test]
fn streaming_campaigns_match_a_replay_and_the_batch_runner() {
    for churn in [ChurnScenario::Baseline, ChurnScenario::flash_crowd()] {
        let scenario = Scenario::new(MeasurementPeriod::P1)
            .with_scale(SCALE)
            .with_seed(SEED)
            .with_churn(churn.clone());
        let streaming = run_streaming_campaign(scenario.clone(), WINDOW);
        // Folding a second simulation's output must give exactly the
        // campaign's summaries, window panes, gauges and peak accounting
        // inputs included.
        let replayed = stream_output(&scenario.build().simulate(), WINDOW, DurationMode::Exact);
        assert_eq!(
            replayed,
            streaming.streams,
            "{}: the campaign and a replay must agree exactly",
            churn.label()
        );
        // And the campaign matches the classic runner on a third simulation.
        let classic = run_scenario(scenario);
        assert_eq!(streaming.scenario, classic.scenario);
        assert_eq!(streaming.truth_pids, classic.ground_truth.population_size());
        assert_streams_match_campaign(&streaming.streams, &classic, churn.label());
    }
}

#[test]
fn streaming_capture_rows_equal_the_batch_vantage_analysis() {
    for churn in [ChurnScenario::Baseline, ChurnScenario::pid_rotation_flood()] {
        let scenario = Scenario::new(MeasurementPeriod::P4)
            .with_scale(0.004)
            .with_seed(SEED)
            .with_churn(churn.clone())
            .with_vantage_points(3);
        let streaming = run_streaming_campaign(scenario.clone(), WINDOW);
        let batch = run_vantage_campaign(scenario);
        let batch_rows = analyze_vantages(&batch).rows;
        let stream_rows =
            analysis::stream_capture_rows(&streaming.vantage_streams(), streaming.truth_pids);
        assert_eq!(
            stream_rows,
            batch_rows,
            "{}: capture–recapture accumulation rows",
            churn.label()
        );
        assert_eq!(
            format!("{stream_rows:?}"),
            format!("{batch_rows:?}"),
            "{}: rows must render byte-identically",
            churn.label()
        );
    }
}

#[test]
fn stream_report_is_identical_at_1_and_8_threads() {
    let scenarios = vec![
        ChurnScenario::Baseline,
        ChurnScenario::flash_crowd(),
        ChurnScenario::pid_rotation_flood(),
    ];
    let serial = run_stream_suite(MeasurementPeriod::P1, 0.003, SEED, 1, WINDOW, &scenarios, 1);
    let parallel = run_stream_suite(MeasurementPeriod::P1, 0.003, SEED, 1, WINDOW, &scenarios, 8);
    let a = analysis::stream_report(&serial);
    let b = analysis::stream_report(&parallel);
    assert_eq!(
        a.to_json_string_pretty(),
        b.to_json_string_pretty(),
        "repro stream stdout must not depend on --threads"
    );
}
