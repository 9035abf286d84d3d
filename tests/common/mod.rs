//! Shared harness for the cross-crate integration tests.
//!
//! Each integration-test binary includes this module via `mod common;`. The
//! harness pins the scale/seed every suite uses and caches campaigns per
//! `(period, scenario)` so that tests sharing a configuration (six of the
//! end-to-end tests run P4) pay for one simulation, not one each.

#![allow(dead_code)] // not every test binary uses every helper

use ipfs_passive_measurement::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The population scale every integration suite runs at (P4 at this scale is
/// also the configuration the golden fixtures pin).
pub const SCALE: f64 = 0.005;

/// The seed every integration suite runs with.
pub const SEED: u64 = 2022;

fn cache() -> &'static Mutex<HashMap<(String, String), MeasurementCampaign>> {
    static CACHE: OnceLock<Mutex<HashMap<(String, String), MeasurementCampaign>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Runs (or returns the cached result of) one measurement period at the
/// shared [`SCALE`]/[`SEED`] under the given churn regime. The cache keys on
/// the regime's full knobs, not just its label, so same-variant scenarios
/// with different parameters never alias.
pub fn scenario_campaign(period: MeasurementPeriod, churn: ChurnScenario) -> MeasurementCampaign {
    let key = (period.label().to_string(), format!("{churn:?}"));
    let mut cache = cache().lock().expect("campaign cache lock");
    cache
        .entry(key)
        .or_insert_with(|| {
            run_scenario(
                Scenario::new(period)
                    .with_scale(SCALE)
                    .with_seed(SEED)
                    .with_churn(churn),
            )
        })
        .clone()
}

/// Runs (or returns the cached result of) one measurement period at the
/// shared [`SCALE`]/[`SEED`] with baseline churn.
pub fn campaign(period: MeasurementPeriod) -> MeasurementCampaign {
    scenario_campaign(period, ChurnScenario::Baseline)
}

/// Streams `feed` into a fresh serve tenant, `batch_rows` rows per event
/// frame, and after every event batch checks the tenant's live
/// `network_size` reply against the answer over
/// `monitor.clone().finish(&registry)` of a monitor fed the same rows — the
/// clone-and-finish path that live queries replaced. At the batches
/// `summary_at` selects (counted from 0), the `summary` reply is checked
/// the same way.
pub fn assert_live_answers_match_finished_clones(
    feed: &bench::serve::ServeFeed,
    batch_rows: usize,
    summary_at: impl Fn(usize) -> bool,
) {
    use jsonio::Json;
    use measurement::serve::{
        config_to_json, Frame, ServeOptions, ServeState, FRAME_EVENTS, FRAME_REGISTRY,
    };
    use measurement::{StreamView, StreamingMonitor};
    use netsim::archive::{decode_event_block, encode_event_block, encode_registry_delta};

    let control = |state: &mut ServeState, fields: &[(&str, Json)]| {
        let mut doc = Json::object();
        for (key, value) in fields {
            doc.insert(*key, value.clone());
        }
        let reply = state
            .handle_frame(&Frame::control(&doc))
            .expect("control frames are always answered")
            .control_json()
            .expect("daemon replies are JSON");
        assert_eq!(
            reply.bool_field("ok"),
            Ok(true),
            "{}: {reply:?}",
            feed.tenant
        );
        reply
    };
    let tenant = || Json::from(feed.tenant.as_str());
    let mut state = ServeState::new(analysis::serve_answerer(), ServeOptions::default());
    control(
        &mut state,
        &[
            ("op", "hello".into()),
            ("tenant", tenant()),
            ("config", config_to_json(&feed.config)),
        ],
    );
    state.handle_frame(&Frame::tenant_block(
        FRAME_REGISTRY,
        &feed.tenant,
        &encode_registry_delta(&feed.registry, 0, 0, 0),
    ));

    let mut reference = StreamingMonitor::new(feed.config.clone());
    let mut from = 0;
    for batch in 0.. {
        if from >= feed.table.len() {
            break;
        }
        let to = (from + batch_rows).min(feed.table.len());
        let block = encode_event_block(&feed.table, from, to);
        state.handle_frame(&Frame::tenant_block(FRAME_EVENTS, &feed.tenant, &block));
        reference.ingest_table(&decode_event_block(&block).expect("own block decodes"));
        from = to;

        let finished = reference.clone().finish(&feed.registry);
        let kinds: &[&str] = if summary_at(batch) {
            &["network_size", "summary"]
        } else {
            &["network_size"]
        };
        for &kind in kinds {
            let mut query = Json::object();
            query.insert("kind", kind);
            let expected = analysis::answer_stream_query(StreamView::Finished(&finished), &query)
                .expect("reference query answers");
            let reply = control(
                &mut state,
                &[
                    ("op", "query".into()),
                    ("tenant", tenant()),
                    ("query", query),
                ],
            );
            assert_eq!(
                reply
                    .field("answer")
                    .expect("query answer")
                    .to_string_compact(),
                expected.to_string_compact(),
                "{}: live {kind} answer after {to} rows",
                feed.tenant
            );
        }
    }
}
