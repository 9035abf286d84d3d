//! Property tests for the multi-tenant monitor daemon (`measurement::serve`).
//!
//! Covered here, without running simulations (the campaign-backed equalities
//! live in `serve_differential`):
//!
//! * frame-codec roundtrips and rejection of truncated / oversized / empty
//!   frames,
//! * registry-delta streaming including the empty-suffix resume delta whose
//!   base cursors exceed the payload size (a regression: `ByteReader::len`'s
//!   corruption guard must not fire on cursors),
//! * the control-protocol state machine: tenant lifecycle, poisoning on
//!   corrupt binary frames, on forged rows the monitor cannot ingest or
//!   resolve and on rows outside the tenant's measurement, query answering
//!   through the injected answerer,
//! * configs a monitor cannot fold in bounded time (a 1 ms window or gauge
//!   tick over a long measurement, an end before the start, an overflowing
//!   end) are refused at `hello` and in a forged checkpoint,
//! * live answers equal the answers over a finished clone of the tenant's
//!   monitor, after every batch, in both duration modes and with and
//!   without retained window states,
//! * seeded checkpoint/restore fuzz on synthetic feeds — checkpoint after
//!   any frame, restore, continue, and the final state is byte-identical to
//!   the uninterrupted daemon's checkpoint,
//! * corrupted checkpoints (truncation, bit flips) are rejected, never
//!   half-restored,
//! * the real transport loop: a client thread drives feeds over a
//!   `UnixStream` pair against `serve_connection` and gets the same answers
//!   as the in-process reference.

use bench::serve::{
    drive_feeds, reference_answers, synthetic_feed, DriveOptions, ServeFeed,
};
use jsonio::Json;
use measurement::serve::{
    config_from_json, config_to_json, read_frame, write_frame, Frame, ServeOptions, ServeState,
    FRAME_EVENTS, FRAME_REGISTRY, MAX_FRAME_LEN,
};
use measurement::{DurationMode, StreamConfig, StreamingMonitor};
use netsim::archive::{
    apply_registry_delta, encode_event_block, encode_registry_delta, ArchiveError, ArchiveWriter,
    ByteWriter, GLOBAL_OWNER,
};
use netsim::obs::NO_CONN;
use netsim::{IdentifyRegistry, ObservationKind, ObservationTable};
use simclock::{SimDuration, SimTime};

mod common;

fn answerer() -> measurement::QueryAnswerer {
    analysis::serve_answerer()
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

// ---- frame codec -----------------------------------------------------------

#[test]
fn frames_roundtrip_through_the_wire_format() {
    let mut doc = Json::object();
    doc.insert("op", "ping");
    doc.insert("n", 7u64);
    let frames = [
        Frame::control(&doc),
        Frame::tenant_block(FRAME_EVENTS, "tenant/a", &[1, 2, 3]),
        Frame::tenant_block(FRAME_REGISTRY, "", &[]),
    ];
    let mut wire = Vec::new();
    for frame in &frames {
        write_frame(&mut wire, frame).expect("write to Vec");
    }
    let mut reader = &wire[..];
    for frame in &frames {
        let read = read_frame(&mut reader).expect("read back").expect("frame present");
        assert_eq!(read.kind, frame.kind);
        assert_eq!(read.payload, frame.payload);
    }
    assert!(read_frame(&mut reader).expect("clean EOF").is_none());
}

#[test]
fn truncated_and_oversized_frames_are_rejected() {
    let mut doc = Json::object();
    doc.insert("op", "ping");
    let mut wire = Vec::new();
    write_frame(&mut wire, &Frame::control(&doc)).expect("write to Vec");
    // Every strict prefix must fail loudly, not parse as a shorter frame.
    for cut in 1..wire.len() {
        let mut reader = &wire[..cut];
        assert!(
            read_frame(&mut reader).is_err(),
            "prefix of {cut} bytes must be a truncation error"
        );
    }
    // A length word past the cap must be rejected before any allocation.
    let oversize = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
    assert!(read_frame(&mut &oversize[..]).is_err());
    // A zero-length body cannot even hold the kind byte.
    let empty = 0u32.to_le_bytes();
    assert!(read_frame(&mut &empty[..]).is_err());
}

// ---- registry deltas -------------------------------------------------------

#[test]
fn empty_resume_delta_applies_despite_large_base_cursors() {
    let feed = synthetic_feed(0, 11, 120);
    let mut mirror = IdentifyRegistry::new();
    apply_registry_delta(
        &mut mirror,
        &encode_registry_delta(&feed.registry, 0, 0, 0),
    )
    .expect("full delta applies");
    // The resume path re-sends a delta whose base cursors equal the full
    // counts: the payload is a handful of varint bytes while the cursors are
    // in the hundreds. `ByteReader::len`'s corruption guard must not fire.
    let empty = encode_registry_delta(
        &feed.registry,
        feed.registry.peer_count(),
        feed.registry.addr_count(),
        feed.registry.identify_count(),
    );
    apply_registry_delta(&mut mirror, &empty).expect("empty suffix delta applies");
    assert_eq!(mirror.peer_count(), feed.registry.peer_count());
}

// ---- control protocol ------------------------------------------------------

fn control(state: &mut ServeState, doc: &Json) -> Json {
    state
        .handle_frame(&Frame::control(doc))
        .expect("control frames are always answered")
        .control_json()
        .expect("daemon replies are JSON")
}

fn op(state: &mut ServeState, fields: &[(&str, Json)]) -> Json {
    let mut doc = Json::object();
    for (key, value) in fields {
        doc.insert(*key, value.clone());
    }
    control(state, &doc)
}

fn hello(state: &mut ServeState, feed: &ServeFeed) -> Json {
    op(
        state,
        &[
            ("op", Json::from("hello")),
            ("tenant", Json::from(feed.tenant.as_str())),
            ("config", config_to_json(&feed.config)),
        ],
    )
}

/// Streams one feed's registry delta + event batches into the state,
/// stopping after `frames` tenant frames (`None` = everything).
fn ingest(state: &mut ServeState, feed: &ServeFeed, batch_rows: usize, frames: Option<usize>) {
    let mut sent = 0;
    let mut push = |state: &mut ServeState, frame: Frame| -> bool {
        if frames.is_some_and(|max| sent >= max) {
            return false;
        }
        assert!(
            state.handle_frame(&frame).is_none(),
            "binary frames are never answered"
        );
        sent += 1;
        true
    };
    if !push(
        state,
        Frame::tenant_block(
            FRAME_REGISTRY,
            &feed.tenant,
            &encode_registry_delta(&feed.registry, 0, 0, 0),
        ),
    ) {
        return;
    }
    let mut from = 0;
    while from < feed.table.len() {
        let to = (from + batch_rows).min(feed.table.len());
        if !push(
            state,
            Frame::tenant_block(
                FRAME_EVENTS,
                &feed.tenant,
                &encode_event_block(&feed.table, from, to),
            ),
        ) {
            return;
        }
        from = to;
    }
}

#[test]
fn tenant_lifecycle_hello_status_query_finish() {
    let feed = synthetic_feed(1, 7, 150);
    let mut state = ServeState::new(answerer(), ServeOptions::default());

    let reply = hello(&mut state, &feed);
    assert_eq!(reply.bool_field("ok"), Ok(true));
    assert_eq!(state.tenant_count(), 1);

    // A duplicate hello must be rejected, not silently reset the monitor.
    let reply = hello(&mut state, &feed);
    assert_eq!(reply.bool_field("ok"), Ok(false));

    ingest(&mut state, &feed, 32, None);
    let status = op(
        &mut state,
        &[("op", Json::from("status")), ("tenant", Json::from(feed.tenant.as_str()))],
    );
    assert_eq!(status.u64_field("events"), Ok(feed.table.len() as u64));
    assert_eq!(
        status.u64_field("peers"),
        Ok(feed.registry.peer_count() as u64)
    );

    // Live query against the still-open tenant.
    let mut query = Json::object();
    query.insert("kind", "network_size");
    let reply = op(
        &mut state,
        &[
            ("op", Json::from("query")),
            ("tenant", Json::from(feed.tenant.as_str())),
            ("query", query),
        ],
    );
    assert_eq!(reply.bool_field("ok"), Ok(true));
    assert!(reply.field("answer").is_ok());

    let reply = op(
        &mut state,
        &[("op", Json::from("finish")), ("tenant", Json::from(feed.tenant.as_str()))],
    );
    assert_eq!(reply.bool_field("ok"), Ok(true));
    assert_eq!(state.tenant_count(), 0, "finish removes the tenant");

    // Unknown tenants fail cleanly for every tenant-addressed op.
    for opname in ["status", "query", "finish"] {
        let reply = op(
            &mut state,
            &[("op", Json::from(opname)), ("tenant", Json::from("ghost"))],
        );
        assert_eq!(reply.bool_field("ok"), Ok(false), "{opname} on ghost tenant");
    }
}

/// Event blocks a tenant fed `feed`'s registry must refuse: a bit-flipped
/// block that fails to decode, and single forged rows that decode but that
/// the monitor cannot ingest or whose ids the registry does not hold.
fn hostile_event_blocks(feed: &ServeFeed) -> Vec<(&'static str, Vec<u8>)> {
    let mut flipped = encode_event_block(&feed.table, 0, 40);
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let forged = |kind, slot, conn, payload| {
        let row = ObservationTable::from_columns(
            vec![SimTime::from_secs(1)],
            vec![kind],
            vec![slot],
            vec![conn],
            vec![payload],
        );
        encode_event_block(&row, 0, 1)
    };
    let peers = feed.registry.peer_count() as u32;
    let addrs = feed.registry.addr_count() as u32;
    let infos = feed.registry.identify_count() as u32;
    use ObservationKind::{Closed, Discovered, Identify, OpenedInbound, OpenedOutbound};
    vec![
        ("bit-flipped block", flipped),
        ("close payload 9", forged(Closed, 0, 5, 9)),
        (
            "open row without a connection id",
            forged(OpenedInbound, 0, NO_CONN, 0),
        ),
        (
            "close row without a connection id",
            forged(Closed, 0, NO_CONN, 2),
        ),
        ("unknown peer slot", forged(OpenedOutbound, peers, 5, 0)),
        ("unknown open address", forged(OpenedInbound, 0, 5, addrs)),
        (
            "unknown identify payload",
            forged(Identify, 0, NO_CONN, infos),
        ),
        (
            "unknown discovered address",
            forged(Discovered, 0, NO_CONN, addrs),
        ),
    ]
}

fn query(state: &mut ServeState, tenant: &str, kind: &str) -> Json {
    let mut query = Json::object();
    query.insert("kind", kind);
    op(
        state,
        &[
            ("op", Json::from("query")),
            ("tenant", Json::from(tenant)),
            ("query", query),
        ],
    )
}

#[test]
fn corrupt_event_frame_poisons_the_tenant() {
    let victim = synthetic_feed(2, 13, 100);
    let bystander = synthetic_feed(3, 13, 100);
    for (what, block) in hostile_event_blocks(&victim) {
        let mut state = ServeState::new(answerer(), ServeOptions::default());
        for feed in [&victim, &bystander] {
            assert_eq!(hello(&mut state, feed).bool_field("ok"), Ok(true), "{what}");
        }
        assert!(state
            .handle_frame(&Frame::tenant_block(
                FRAME_REGISTRY,
                &victim.tenant,
                &encode_registry_delta(&victim.registry, 0, 0, 0),
            ))
            .is_none());

        // A hostile event block must poison the tenant: queries against it
        // fail, and status carries the poison message...
        state.handle_frame(&Frame::tenant_block(FRAME_EVENTS, &victim.tenant, &block));
        for kind in ["network_size", "summary"] {
            let reply = query(&mut state, &victim.tenant, kind);
            assert_eq!(
                reply.bool_field("ok"),
                Ok(false),
                "{what}: {kind} on a poisoned tenant"
            );
        }
        let status = op(
            &mut state,
            &[
                ("op", Json::from("status")),
                ("tenant", Json::from(victim.tenant.as_str())),
            ],
        );
        assert!(
            status.str_field("poisoned").is_ok(),
            "{what}: status must carry the poison message: {status:?}"
        );

        // ...later (valid) frames are dropped...
        state.handle_frame(&Frame::tenant_block(
            FRAME_EVENTS,
            &victim.tenant,
            &encode_event_block(&victim.table, 0, 40),
        ));
        let status = op(
            &mut state,
            &[
                ("op", Json::from("status")),
                ("tenant", Json::from(victim.tenant.as_str())),
            ],
        );
        assert_eq!(
            status.u64_field("events"),
            Ok(0),
            "{what}: frames after poison are dropped"
        );

        // ...the other tenant ingests and answers as usual...
        ingest(&mut state, &bystander, 32, None);
        let reply = query(&mut state, &bystander.tenant, "network_size");
        assert_eq!(
            reply.bool_field("ok"),
            Ok(true),
            "{what}: the other tenant still answers"
        );

        // ...and finish reports the poison but still clears the slot.
        let reply = op(
            &mut state,
            &[
                ("op", Json::from("finish")),
                ("tenant", Json::from(victim.tenant.as_str())),
            ],
        );
        assert_eq!(reply.bool_field("ok"), Ok(false), "{what}");
        assert_eq!(state.tenant_count(), 1, "{what}");
    }
}

/// Finishes every feed's tenant and collects the answers in
/// [`reference_answers`]' shape.
fn finish_all(state: &mut ServeState, feeds: &[ServeFeed]) -> Json {
    let mut answers = Json::array();
    for feed in feeds {
        let reply = op(
            state,
            &[
                ("op", Json::from("finish")),
                ("tenant", Json::from(feed.tenant.as_str())),
            ],
        );
        assert_eq!(
            reply.bool_field("ok"),
            Ok(true),
            "{}: {reply:?}",
            feed.tenant
        );
        let mut row = Json::object();
        row.insert("tenant", feed.tenant.as_str());
        row.insert(
            "answer",
            reply.field("answer").expect("finish answers").clone(),
        );
        answers.push(row);
    }
    let mut out = Json::object();
    out.insert("tenants", answers);
    out
}

/// Configs whose monitor could not fold a row in bounded time, each with
/// what makes it so. Over the first two, one row at 20 s or at 10⁹ ms
/// would step through a 1 ms pane or gauge tick at a time.
fn unbounded_configs() -> Vec<(&'static str, StreamConfig)> {
    let day = StreamConfig::go_ipfs(
        "probe",
        true,
        SimTime::ZERO,
        SimTime::from_hours(24),
        SimDuration::from_hours(6),
    );
    let mut one_ms_window = day.clone();
    one_ms_window.window = SimDuration::from_millis(1);
    let mut one_ms_ticks = day.clone();
    one_ms_ticks.snapshot_interval = SimDuration::from_millis(1);
    one_ms_ticks.ended_at = SimTime::from_millis(2_000_000_000);
    one_ms_ticks.window = SimDuration::from_hours(24 * 30);
    let mut backwards = day.clone();
    backwards.started_at = SimTime::from_hours(25);
    let mut overflowing = day;
    overflowing.ended_at = SimTime::from_millis(u64::MAX - 1);
    overflowing.window = SimDuration::from_millis(u64::MAX / 2);
    vec![
        ("window_ms 1", one_ms_window),
        ("snapshot_interval_ms 1", one_ms_ticks),
        ("ended_at before started_at", backwards),
        ("window overflowing past ended_at", overflowing),
    ]
}

#[test]
fn unbounded_configs_are_refused_at_hello() {
    let bystander = synthetic_feed(5, 17, 120);
    let mut state = ServeState::new(answerer(), ServeOptions::default());
    assert_eq!(hello(&mut state, &bystander).bool_field("ok"), Ok(true));
    for (what, config) in unbounded_configs() {
        let reply = op(
            &mut state,
            &[
                ("op", Json::from("hello")),
                ("tenant", Json::from("probe")),
                ("config", config_to_json(&config)),
            ],
        );
        assert_eq!(reply.bool_field("ok"), Ok(false), "{what} was accepted");
        assert!(
            reply
                .str_field("error")
                .is_ok_and(|e| e.starts_with("bad stream config")),
            "{what}: {reply:?}"
        );
        assert_eq!(state.tenant_count(), 1, "{what} created a tenant");
    }
    // The longest configs the repo builds pass: P14d at 1 h windows, with
    // go-ipfs' 30 s and hydra's 1 min gauge ticks.
    let fortnight = SimDuration::from_days(14);
    for observer in ["go-ipfs", "hydra-h1"] {
        let config =
            StreamConfig::for_observer(observer, true, fortnight, SimDuration::from_hours(1));
        assert_eq!(config_from_json(&config_to_json(&config)), Ok(config));
    }
    ingest(&mut state, &bystander, 32, None);
    assert_eq!(
        finish_all(&mut state, std::slice::from_ref(&bystander)).to_string_compact(),
        reference_answers(std::slice::from_ref(&bystander)).to_string_compact()
    );
}

/// A checkpoint of one tenant, `forged`, whose monitor block is `snapshot`,
/// in the layout `ServeState::checkpoint_bytes` writes: a meta block (kind
/// 32) with the version, frame counter and tenant directory, then the
/// tenant's monitor (33) and registry (34) blocks.
fn forged_checkpoint(snapshot: &[u8]) -> Vec<u8> {
    let mut meta = ByteWriter::new();
    meta.put_u8(1);
    meta.put_uvarint(0);
    meta.put_uvarint(1);
    meta.put_str("forged");
    meta.put_u8(0);
    let mut writer = ArchiveWriter::new();
    writer.push_block(32, GLOBAL_OWNER, &meta.into_bytes());
    writer.push_block(33, 0, snapshot);
    writer.push_block(
        34,
        0,
        &encode_registry_delta(&IdentifyRegistry::new(), 0, 0, 0),
    );
    writer.finish()
}

#[test]
fn unbounded_configs_in_a_forged_checkpoint_are_malformed() {
    // The forgery is exact: over a config the daemon accepts it equals the
    // daemon's own checkpoint and restores.
    let bounded = synthetic_feed(0, 3, 10).config;
    let mut state = ServeState::new(answerer(), ServeOptions::default());
    let reply = op(
        &mut state,
        &[
            ("op", Json::from("hello")),
            ("tenant", Json::from("forged")),
            ("config", config_to_json(&bounded)),
        ],
    );
    assert_eq!(reply.bool_field("ok"), Ok(true));
    let genuine = forged_checkpoint(&StreamingMonitor::new(bounded).state_snapshot());
    assert_eq!(genuine, state.checkpoint_bytes());
    assert!(ServeState::restore(&genuine, answerer(), ServeOptions::default()).is_ok());

    for (what, config) in unbounded_configs() {
        let snapshot = StreamingMonitor::new(config).state_snapshot();
        for restored in [
            StreamingMonitor::restore(&snapshot).map(|_| ()),
            ServeState::restore(
                &forged_checkpoint(&snapshot),
                answerer(),
                ServeOptions::default(),
            )
            .map(|_| ()),
        ] {
            match restored {
                Err(ArchiveError::Malformed { context }) => {
                    assert!(context.contains("stream config"), "{what}: {context}")
                }
                other => panic!("{what}: expected Malformed, got {other:?}"),
            }
        }
    }
}

#[test]
fn out_of_window_rows_poison_only_their_tenant() {
    let bystanders: Vec<ServeFeed> = (0..2).map(|i| synthetic_feed(i, 61, 150)).collect();
    let mut victim = synthetic_feed(2, 61, 150);
    victim.config.started_at = SimTime::from_millis(500);
    let (start, end) = (victim.config.started_at, victim.config.ended_at);
    let at_slot_zero = |at: SimTime| {
        let mut row = ObservationTable::new();
        row.peer_discovered(at, 0, 0);
        encode_event_block(&row, 0, 1)
    };
    for (what, at) in [
        (
            "a row before started_at",
            start - SimDuration::from_millis(1),
        ),
        ("a row after ended_at", end + SimDuration::from_millis(1)),
        (
            "a row a day after ended_at",
            end + SimDuration::from_days(1),
        ),
    ] {
        let mut state = ServeState::new(answerer(), ServeOptions::default());
        for feed in bystanders.iter().chain([&victim]) {
            assert_eq!(hello(&mut state, feed).bool_field("ok"), Ok(true), "{what}");
        }
        // The registry frame and two event frames (64 rows) of one
        // bystander; the registry and 32 rows of the victim.
        ingest(&mut state, &bystanders[0], 32, Some(3));
        ingest(&mut state, &victim, 32, Some(2));
        state.handle_frame(&Frame::tenant_block(
            FRAME_EVENTS,
            &victim.tenant,
            &at_slot_zero(at),
        ));

        let status = op(
            &mut state,
            &[
                ("op", Json::from("status")),
                ("tenant", Json::from(victim.tenant.as_str())),
            ],
        );
        assert_eq!(
            status.u64_field("events"),
            Ok(32),
            "{what}: the row was ingested"
        );
        assert!(
            status
                .str_field("poisoned")
                .is_ok_and(|p| p.contains("outside the measurement")),
            "{what}: {status:?}"
        );
        assert_eq!(
            query(&mut state, &victim.tenant, "network_size").bool_field("ok"),
            Ok(false)
        );

        // The other tenants ingest the rest of their feeds and answer
        // exactly as the in-process reference does.
        let first = &bystanders[0];
        for from in (64..first.table.len()).step_by(32) {
            let to = (from + 32).min(first.table.len());
            let block = encode_event_block(&first.table, from, to);
            state.handle_frame(&Frame::tenant_block(FRAME_EVENTS, &first.tenant, &block));
        }
        ingest(&mut state, &bystanders[1], 32, None);
        assert_eq!(
            finish_all(&mut state, &bystanders).to_string_compact(),
            reference_answers(&bystanders).to_string_compact(),
            "{what}"
        );
        assert_eq!(state.tenant_count(), 1, "{what}: only the victim is left");
    }
}

#[test]
fn live_answers_equal_finished_clones_in_every_monitor_mode() {
    for mode in [DurationMode::Exact, DurationMode::LogBucketed] {
        for retained in [usize::MAX, 0] {
            for index in 0..3 {
                let mut feed = synthetic_feed(index, 31, 240);
                feed.config = feed
                    .config
                    .with_duration_mode(mode)
                    .with_retained_panes(retained);
                common::assert_live_answers_match_finished_clones(&feed, 16, |_| true);
            }
        }
    }
}

#[test]
fn stream_config_json_roundtrips() {
    let configs = [
        StreamConfig::go_ipfs(
            "primary",
            true,
            simclock::SimTime::ZERO,
            simclock::SimTime::from_hours(48),
            SimDuration::from_hours(6),
        ),
        StreamConfig::hydra(
            "hydra-h1",
            simclock::SimTime::from_secs(30),
            simclock::SimTime::from_hours(2),
            SimDuration::from_mins(15),
        )
        .with_retained_panes(0),
        StreamConfig::go_ipfs(
            "bucketed",
            false,
            simclock::SimTime::ZERO,
            simclock::SimTime::from_hours(1),
            SimDuration::from_mins(5),
        )
        .with_duration_mode(DurationMode::LogBucketed)
        .with_retained_panes(3),
    ];
    for config in &configs {
        let json = config_to_json(config);
        let back = config_from_json(&json).expect("config roundtrips");
        assert_eq!(&back, config, "{json:?}");
    }
}

// ---- checkpoint / restore fuzz --------------------------------------------

/// Total tenant frames a feed produces at the given batch size.
fn frame_count(feed: &ServeFeed, batch_rows: usize) -> usize {
    1 + feed.table.len().div_ceil(batch_rows)
}

#[test]
fn seeded_checkpoint_positions_restore_byte_identically() {
    let feeds: Vec<ServeFeed> = (0..4).map(|i| synthetic_feed(i, 2022, 180)).collect();
    let batch_rows = 25;

    // The uninterrupted daemon: hello + full ingest for every feed.
    let mut uninterrupted = ServeState::new(answerer(), ServeOptions::default());
    for feed in &feeds {
        assert_eq!(hello(&mut uninterrupted, feed).bool_field("ok"), Ok(true));
        ingest(&mut uninterrupted, feed, batch_rows, None);
    }
    let reference = uninterrupted.checkpoint_bytes();

    let total: usize = feeds.iter().map(|f| frame_count(f, batch_rows)).sum();
    let mut rng = 0x5eed_2022u64;
    for _ in 0..12 {
        let cut = (lcg(&mut rng) as usize) % (total + 1);
        // Phase 1: ingest the first `cut` frames, then checkpoint.
        let mut first = ServeState::new(answerer(), ServeOptions::default());
        let mut remaining = cut;
        for feed in &feeds {
            assert_eq!(hello(&mut first, feed).bool_field("ok"), Ok(true));
            let frames = frame_count(feed, batch_rows).min(remaining);
            ingest(&mut first, feed, batch_rows, Some(frames));
            remaining -= frames;
        }
        let checkpoint = first.checkpoint_bytes();

        // Phase 2: restore and continue exactly like the resuming driver —
        // ask `status` where each tenant stopped, then replay the rest.
        let mut second = ServeState::restore(&checkpoint, answerer(), ServeOptions::default())
            .expect("own checkpoint restores");
        for feed in &feeds {
            let status = op(
                &mut second,
                &[("op", Json::from("status")), ("tenant", Json::from(feed.tenant.as_str()))],
            );
            let events = status.u64_field("events").expect("status events") as usize;
            let peers = status.u64_field("peers").expect("status peers") as usize;
            let addrs = status.u64_field("addrs").expect("status addrs") as usize;
            let infos = status.u64_field("infos").expect("status infos") as usize;
            assert!(state_frame(&mut second, feed, peers, addrs, infos).is_none());
            let mut from = events;
            while from < feed.table.len() {
                let to = (from + batch_rows).min(feed.table.len());
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
            reference,
            "cut at frame {cut}: resumed daemon state must be byte-identical"
        );
    }
}

fn state_frame(
    state: &mut ServeState,
    feed: &ServeFeed,
    peers: usize,
    addrs: usize,
    infos: usize,
) -> Option<Frame> {
    state.handle_frame(&Frame::tenant_block(
        FRAME_REGISTRY,
        &feed.tenant,
        &encode_registry_delta(&feed.registry, peers, addrs, infos),
    ))
}

#[test]
fn monitor_snapshot_at_every_event_continues_byte_identically() {
    // The finer-grained variant directly on one monitor: snapshot after
    // every single event, restore, continue, and the resumed monitor is
    // indistinguishable from the uninterrupted one — equal as a value,
    // byte-identical as a canonical state snapshot, and its finished
    // summary renders byte-identically. (The monitor's own Debug output is
    // not compared: it exposes HashMap iteration order, which legitimately
    // differs between construction histories of equal states.)
    let feed = synthetic_feed(3, 77, 90);
    let mut uninterrupted = StreamingMonitor::new(feed.config.clone());
    uninterrupted.ingest_table(&feed.table);
    let expected_state = uninterrupted.state_snapshot();
    let expected_summary = format!("{:?}", uninterrupted.clone().finish(&feed.registry));

    for cut in 0..=feed.table.len() {
        let mut head = StreamingMonitor::new(feed.config.clone());
        if cut > 0 {
            head.ingest_table(
                &netsim::archive::decode_event_block(&encode_event_block(&feed.table, 0, cut))
                    .expect("prefix block decodes"),
            );
        }
        let mut tail =
            StreamingMonitor::restore(&head.state_snapshot()).expect("snapshot restores");
        if cut < feed.table.len() {
            tail.ingest_table(
                &netsim::archive::decode_event_block(&encode_event_block(
                    &feed.table,
                    cut,
                    feed.table.len(),
                ))
                .expect("suffix block decodes"),
            );
        }
        assert_eq!(
            tail, uninterrupted,
            "snapshot at event {cut} must continue to an equal monitor"
        );
        assert_eq!(
            tail.state_snapshot(),
            expected_state,
            "snapshot at event {cut} must continue byte-identically"
        );
        assert_eq!(
            format!("{:?}", tail.finish(&feed.registry)),
            expected_summary,
            "snapshot at event {cut} must finish to a byte-identical summary"
        );
    }
}

#[test]
fn corrupted_checkpoints_are_rejected() {
    let feed = synthetic_feed(4, 5, 80);
    let mut state = ServeState::new(answerer(), ServeOptions::default());
    assert_eq!(hello(&mut state, &feed).bool_field("ok"), Ok(true));
    ingest(&mut state, &feed, 32, None);
    let checkpoint = state.checkpoint_bytes();

    for cut in [0, 1, checkpoint.len() / 2, checkpoint.len() - 1] {
        assert!(
            ServeState::restore(&checkpoint[..cut], answerer(), ServeOptions::default()).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
    let mut rng = 0xdead_beefu64;
    for _ in 0..16 {
        let mut flipped = checkpoint.clone();
        let at = (lcg(&mut rng) as usize) % flipped.len();
        flipped[at] ^= 1 << (lcg(&mut rng) % 8);
        // A flip must either be caught (the overwhelmingly common case —
        // every block is checksummed) or restore to the same state; it must
        // never silently half-restore. The checksum makes detection total
        // except for flips in dead padding, of which the container has none.
        assert!(
            ServeState::restore(&flipped, answerer(), ServeOptions::default()).is_err(),
            "bit flip at byte {at} must be rejected"
        );
    }
}

#[test]
fn checkpoint_files_restore_to_an_equal_state_and_leave_no_temp_file() {
    let dir = std::env::temp_dir().join(format!("serve-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the temp dir");
    let path = dir.join("state.ck");
    let options = || ServeOptions { checkpoint_path: Some(path.clone()), checkpoint_every: Some(3) };
    let feed = synthetic_feed(6, 11, 120);
    let mut state = ServeState::new(answerer(), options());
    assert_eq!(hello(&mut state, &feed).bool_field("ok"), Ok(true));
    // Event frames 3 and 6 write checkpoints on their own; the explicit
    // write captures the final state.
    ingest(&mut state, &feed, 16, None);
    let written = state.write_checkpoint().expect("write the checkpoint");

    let bytes = std::fs::read(&path).expect("the checkpoint file exists");
    assert_eq!(bytes.len() as u64, written);
    assert_eq!(bytes, state.checkpoint_bytes());
    let restored = ServeState::restore(&bytes, answerer(), options()).expect("restore");
    assert_eq!(restored.checkpoint_bytes(), state.checkpoint_bytes());
    assert_eq!(restored.events_ingested(), state.events_ingested());
    let left: Vec<_> = std::fs::read_dir(&dir).expect("list the temp dir").flatten().collect();
    assert_eq!(left.len(), 1, "only the checkpoint remains, no .tmp: {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove the temp dir");
}

// ---- transport loop --------------------------------------------------------

#[cfg(unix)]
#[test]
fn unix_stream_drive_matches_reference() {
    use std::os::unix::net::UnixStream;
    use std::sync::{Arc, Mutex};

    let feeds: Vec<ServeFeed> = (0..3).map(|i| synthetic_feed(i, 404, 130)).collect();
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
            batch_rows: 17,
            resume: false,
            max_batches: None,
            shutdown: false,
        },
    )
    .expect("drive succeeds");
    drop(client); // clean EOF ends the serve loop
    server_thread.join().expect("server thread");

    assert_eq!(
        answers.to_string_compact(),
        expected.to_string_compact(),
        "daemon answers must equal the in-process reference byte-for-byte"
    );
    assert_eq!(state.lock().expect("state lock").tenant_count(), 0);
}
