//! Differential tests for the multi-tenant monitor daemon.
//!
//! The acceptance bar of the serve subsystem: for **every** measurement
//! period P0–P4 under **every** churn regime, ingesting the campaign's
//! observation feeds through the daemon protocol (registry deltas + columnar
//! event batches through `ServeState::handle_frame`) must be equivalent to
//! the uninterrupted in-process pipeline:
//!
//! * the `finish` answers equal the reference answers computed directly on
//!   a `StreamingMonitor` byte-for-byte,
//! * after every event batch of a feed cut into about a dozen, the live
//!   `network_size` answer equals the answer over a finished clone of a
//!   monitor fed the same rows, and so does the live `summary` answer at
//!   seeded batches,
//! * killing the daemon after *any* ingested frame (seeded positions per
//!   cell), restoring from the checkpoint and resuming via the `status`
//!   handshake converges to a byte-identical daemon state — the same
//!   checkpoint bytes and the same answers as a daemon that never died,
//! * the real transport loop (`serve_connection` over a `UnixStream` pair)
//!   produces the same bytes as the in-process reference.
//!
//! Feeds are simulated once per (period, regime) cell and shared between
//! tests through a process-local cache, mirroring `tests/common`.

use bench::serve::{campaign_feeds, drive_feeds, reference_answers, DriveOptions, ServeFeed};
use ipfs_passive_measurement::prelude::*;
use jsonio::Json;
use measurement::serve::{
    config_to_json, Frame, ServeOptions, ServeState, FRAME_EVENTS, FRAME_REGISTRY,
};
use netsim::archive::{encode_event_block, encode_registry_delta};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

mod common;
use common::{assert_live_answers_match_finished_clones, SCALE, SEED};

/// Window width of the serve campaigns (any width must work).
const WINDOW: SimDuration = SimDuration::from_hours(6);

/// Event rows per batch frame — deliberately not a divisor of typical feed
/// lengths so the final batch is ragged.
const BATCH_ROWS: usize = 384;

fn periods() -> [MeasurementPeriod; 5] {
    [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
        MeasurementPeriod::P4,
    ]
}

type FeedCache = Mutex<HashMap<(String, String), Arc<Vec<ServeFeed>>>>;

fn feed_cache() -> &'static FeedCache {
    static CACHE: OnceLock<FeedCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Simulates (or returns the cached) observation feeds of one cell.
fn cell_feeds(period: MeasurementPeriod, churn: &ChurnScenario) -> Arc<Vec<ServeFeed>> {
    let key = (period.label().to_string(), format!("{churn:?}"));
    let mut cache = feed_cache().lock().expect("feed cache lock");
    Arc::clone(cache.entry(key).or_insert_with(|| {
        Arc::new(campaign_feeds(
            period,
            SCALE,
            SEED,
            WINDOW,
            std::slice::from_ref(churn),
        ))
    }))
}

fn answerer() -> measurement::QueryAnswerer {
    analysis::serve_answerer()
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

fn control(state: &mut ServeState, doc: &Json) -> Json {
    state
        .handle_frame(&Frame::control(doc))
        .expect("control frames are always answered")
        .control_json()
        .expect("daemon replies are JSON")
}

fn hello(state: &mut ServeState, feed: &ServeFeed) {
    let mut doc = Json::object();
    doc.insert("op", "hello");
    doc.insert("tenant", feed.tenant.as_str());
    doc.insert("config", config_to_json(&feed.config));
    let reply = control(state, &doc);
    assert_eq!(reply.bool_field("ok"), Ok(true), "hello {}", feed.tenant);
}

/// Streams one feed into the state, stopping after `frames` tenant frames
/// (`None` = everything). Returns the number of frames sent.
fn ingest(
    state: &mut ServeState,
    feed: &ServeFeed,
    frames: Option<usize>,
) -> usize {
    let mut sent = 0;
    if frames == Some(0) {
        return 0;
    }
    state.handle_frame(&Frame::tenant_block(
        FRAME_REGISTRY,
        &feed.tenant,
        &encode_registry_delta(&feed.registry, 0, 0, 0),
    ));
    sent += 1;
    let mut from = 0;
    while from < feed.table.len() {
        if frames.is_some_and(|max| sent >= max) {
            return sent;
        }
        let to = (from + BATCH_ROWS).min(feed.table.len());
        state.handle_frame(&Frame::tenant_block(
            FRAME_EVENTS,
            &feed.tenant,
            &encode_event_block(&feed.table, from, to),
        ));
        from = to;
        sent += 1;
    }
    sent
}

/// Total tenant frames a feed produces (registry delta + event batches).
fn frame_count(feed: &ServeFeed) -> usize {
    1 + feed.table.len().div_ceil(BATCH_ROWS)
}

/// Collects every tenant's `finish` answer as the deterministic answers
/// document the drive client prints.
fn finish_all(state: &mut ServeState, feeds: &[ServeFeed]) -> Json {
    let mut answers = Json::array();
    for feed in feeds {
        let mut doc = Json::object();
        doc.insert("op", "finish");
        doc.insert("tenant", feed.tenant.as_str());
        let reply = control(state, &doc);
        assert_eq!(reply.bool_field("ok"), Ok(true), "finish {}", feed.tenant);
        let mut row = Json::object();
        row.insert("tenant", feed.tenant.as_str());
        row.insert(
            "answer",
            reply.field("answer").expect("finish answer").clone(),
        );
        answers.push(row);
    }
    let mut out = Json::object();
    out.insert("tenants", answers);
    out
}

#[test]
fn daemon_answers_equal_reference_on_every_period_and_churn_regime() {
    for period in periods() {
        for churn in ChurnScenario::all() {
            let label = format!("{period}/{}", churn.label());
            let feeds = cell_feeds(period, &churn);
            let expected = reference_answers(&feeds);

            let mut state = ServeState::new(answerer(), ServeOptions::default());
            for feed in feeds.iter() {
                hello(&mut state, feed);
                ingest(&mut state, feed, None);
            }
            let answers = finish_all(&mut state, &feeds);
            assert_eq!(
                answers.to_string_compact(),
                expected.to_string_compact(),
                "{label}: daemon answers must equal the in-process reference"
            );
            assert_eq!(state.tenant_count(), 0, "{label}: finish clears tenants");
        }
    }
}

#[test]
fn live_answers_equal_finished_clones_on_every_period_and_churn_regime() {
    for (cell, period) in periods().into_iter().enumerate() {
        for churn in ChurnScenario::all() {
            let mut rng = SEED ^ ((cell as u64) << 32) ^ churn.label().len() as u64;
            for feed in cell_feeds(period, &churn).iter() {
                // Each reference answer finishes a clone of the whole
                // monitor, so the feed is cut into about a dozen batches.
                let batch_rows = feed.table.len().div_ceil(12).max(BATCH_ROWS);
                let batches = feed.table.len().div_ceil(batch_rows).max(1);
                let summary_at = [lcg(&mut rng), lcg(&mut rng)].map(|r| r as usize % batches);
                assert_live_answers_match_finished_clones(feed, batch_rows, |batch| {
                    summary_at.contains(&batch)
                });
            }
        }
    }
}

#[test]
fn kill_and_restore_is_byte_identical_on_every_period_and_churn_regime() {
    for (cell, period) in periods().into_iter().enumerate() {
        for churn in ChurnScenario::all() {
            let label = format!("{period}/{}", churn.label());
            let feeds = cell_feeds(period, &churn);

            // The daemon that never dies.
            let mut uninterrupted = ServeState::new(answerer(), ServeOptions::default());
            for feed in feeds.iter() {
                hello(&mut uninterrupted, feed);
                ingest(&mut uninterrupted, feed, None);
            }
            let reference_state = uninterrupted.checkpoint_bytes();
            let reference_doc = finish_all(&mut uninterrupted, &feeds);

            let total: usize = feeds.iter().map(frame_count).sum();
            let mut rng = SEED ^ ((cell as u64) << 32) ^ churn.label().len() as u64;
            for _ in 0..2 {
                let cut = (lcg(&mut rng) as usize) % (total + 1);

                // Phase 1: the daemon ingests `cut` frames, checkpoints, dies.
                let mut first = ServeState::new(answerer(), ServeOptions::default());
                let mut remaining = cut;
                for feed in feeds.iter() {
                    hello(&mut first, feed);
                    remaining -= ingest(&mut first, feed, Some(remaining.min(frame_count(feed))));
                }
                let checkpoint = first.checkpoint_bytes();
                drop(first);

                // Phase 2: restore, then resume exactly like the driver —
                // `status` tells where each tenant stopped.
                let mut second =
                    ServeState::restore(&checkpoint, answerer(), ServeOptions::default())
                        .unwrap_or_else(|e| panic!("{label}: checkpoint restores: {e}"));
                for feed in feeds.iter() {
                    let mut doc = Json::object();
                    doc.insert("op", "status");
                    doc.insert("tenant", feed.tenant.as_str());
                    let status = control(&mut second, &doc);
                    assert_eq!(status.bool_field("ok"), Ok(true), "{label}: status");
                    let cursor = |key: &str| -> usize {
                        status.u64_field(key).expect("status cursor") as usize
                    };
                    second.handle_frame(&Frame::tenant_block(
                        FRAME_REGISTRY,
                        &feed.tenant,
                        &encode_registry_delta(
                            &feed.registry,
                            cursor("peers"),
                            cursor("addrs"),
                            cursor("infos"),
                        ),
                    ));
                    let mut from = cursor("events");
                    while from < feed.table.len() {
                        let to = (from + BATCH_ROWS).min(feed.table.len());
                        second.handle_frame(&Frame::tenant_block(
                            FRAME_EVENTS,
                            &feed.tenant,
                            &encode_event_block(&feed.table, from, to),
                        ));
                        from = to;
                    }
                }
                assert_eq!(
                    second.checkpoint_bytes(),
                    reference_state,
                    "{label}: cut at frame {cut}: resumed state must be byte-identical"
                );
                assert_eq!(
                    finish_all(&mut second, &feeds).to_string_compact(),
                    reference_doc.to_string_compact(),
                    "{label}: cut at frame {cut}: resumed answers must be byte-identical"
                );
            }
        }
    }
}

#[cfg(unix)]
#[test]
fn transport_loop_matches_reference_bytes() {
    use std::os::unix::net::UnixStream;

    let feeds = cell_feeds(MeasurementPeriod::P0, &ChurnScenario::Baseline);
    let expected = reference_answers(&feeds);

    let state = Arc::new(Mutex::new(ServeState::new(answerer(), ServeOptions::default())));
    let (mut client, mut server) = UnixStream::pair().expect("socketpair");
    let server_state = Arc::clone(&state);
    let server_thread = std::thread::spawn(move || {
        measurement::serve_connection(&server_state, &mut server).expect("serve loop")
    });
    let answers = drive_feeds(
        &mut client,
        &feeds,
        &DriveOptions {
            batch_rows: BATCH_ROWS,
            resume: false,
            max_batches: None,
            shutdown: false,
        },
    )
    .expect("drive succeeds");
    drop(client);
    server_thread.join().expect("server thread");

    assert_eq!(
        answers.to_string_compact(),
        expected.to_string_compact(),
        "socket transport must carry the same bytes as the in-process path"
    );
}
