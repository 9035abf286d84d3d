//! Differential tests for the streaming single-pass analysis engine.
//!
//! The acceptance bar of the streaming subsystem: for **every** measurement
//! period P0–P4 under **every** churn regime, the streaming estimator's
//! final cumulative window must be *byte-identical* to the batch estimators
//! (`analysis::{churn,netsize,vantage}`) computed on the materialised data
//! set of the same campaign — same bits in every float, same `Debug`
//! rendering. Both pipelines read the logs of one simulation, so any
//! divergence is an estimator bug, not a seed artefact.
//!
//! Also pinned here: a streaming campaign's summaries equal a replay of a
//! second simulation's logs and its batch side equals `run_scenario`, the
//! streaming capture–recapture rows equal the batch vantage analysis, and
//! the `repro stream` report is byte-identical at 1 and 8 threads.

use ipfs_passive_measurement::prelude::*;
use measurement::stream::StreamConfig;
use measurement::{StreamSummary, StreamingMonitor};

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

#[test]
fn streaming_matches_batch_on_every_period_and_churn_regime() {
    for period in periods() {
        for churn in ChurnScenario::all() {
            let label = format!("{period}/{}", churn.label());
            let campaign = run_streaming_campaign(
                Scenario::new(period)
                    .with_scale(SCALE)
                    .with_seed(SEED)
                    .with_churn(churn),
                WINDOW,
            );
            // Every deployed observer: the go-ipfs primary and each hydra
            // head (P0–P2 deploy up to three).
            if let Some(go_ipfs) = &campaign.batch.go_ipfs {
                let stream = campaign.stream("go-ipfs").expect("go-ipfs stream");
                assert_stream_matches_batch(stream, go_ipfs, &format!("{label}/go-ipfs"));
            }
            for head in &campaign.batch.hydra_heads {
                let stream = campaign.stream(&head.client).expect("hydra stream");
                assert_stream_matches_batch(stream, head, &format!("{label}/{}", head.client));
            }
            assert_eq!(
                campaign.streams.len(),
                campaign.batch.passive_datasets().len(),
                "{label}: one stream per passive monitor"
            );
        }
    }
}

#[test]
fn streaming_campaigns_match_a_replay_and_the_batch_runner() {
    // Replaying a second simulation's logs must give exactly the campaign's
    // summaries, window panes, gauges and peak accounting inputs included.
    for churn in [ChurnScenario::Baseline, ChurnScenario::flash_crowd()] {
        let scenario = Scenario::new(MeasurementPeriod::P1)
            .with_scale(SCALE)
            .with_seed(SEED)
            .with_churn(churn.clone());
        let streaming = run_streaming_campaign(scenario.clone(), WINDOW);
        let classic = run_scenario(scenario.clone());
        // Re-simulate to get the raw logs (run_scenario consumes them).
        let output = scenario.build().simulate();
        for stream in &streaming.streams {
            let log = output.log(&stream.observer).expect("observer log");
            let config = StreamConfig::for_observer(
                &stream.observer,
                log.dht_server,
                log.duration(),
                WINDOW,
            );
            let replayed = StreamingMonitor::new(config).ingest_log(log);
            assert_eq!(
                &replayed, stream,
                "{}/{}: the campaign and a replay must agree exactly",
                churn.label(),
                stream.observer
            );
        }
        // And the campaign's batch side matches the classic runner.
        assert_eq!(
            streaming.batch.primary().to_json_string(),
            classic.primary().to_json_string()
        );
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
        let stream_rows = analysis::stream_capture_rows(
            &streaming.vantage_streams(),
            streaming.batch.ground_truth.population_size(),
        );
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
