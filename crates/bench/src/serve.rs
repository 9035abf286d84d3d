//! Load driver and bench harness for the `repro serve` daemon.
//!
//! Three pieces, all deterministic:
//!
//! * **Feeds** — [`campaign_feeds`] turns simulated campaigns into per-
//!   observer feeds (one tenant per scenario × observer), and
//!   [`synthetic_feed`] generates cheap seeded feeds for the N=1000
//!   concurrency bench without running N simulations.
//! * **Driver** — [`drive_feeds`] speaks the serve protocol over any
//!   duplex stream (the CI smoke job points it at the daemon's Unix
//!   socket): hello, resume handshake via `status`, registry delta, event
//!   batches, then `finish` answers. [`reference_answers`] computes the
//!   same answers in-process through the identical code path
//!   (`StreamingMonitor` + `analysis::answer_stream_query`), so the two
//!   outputs must match byte-for-byte.
//! * **Bench** — [`run_serve_bench`] hosts N concurrent tenant feeds
//!   in-process (round-robin batch interleave, exactly what N pipelined
//!   connections serialising on the daemon's state lock execute) and
//!   reports sustained ingest events/sec, query-latency percentiles and
//!   checkpoint costs for `BENCH_serve.json`.

use analysis::{answer_stream_query, serve_answerer};
use jsonio::Json;
use measurement::serve::{
    read_frame, write_frame, Frame, ServeOptions, ServeState, FRAME_EVENTS, FRAME_REGISTRY,
};
use measurement::{StreamConfig, StreamingMonitor};
use netsim::archive::{encode_event_block, encode_registry_delta, fnv1a};
use netsim::{IdentifyRegistry, ObservationSink, ObservationTable};
use p2pmodel::{
    AgentVersion, CloseReason, ConnectionId, Direction, IdentifyInfo, IpAddress, Multiaddr,
    PeerId, ProtocolSet, Transport,
};
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::Instant;

/// One tenant feed: everything a client needs to stream a campaign into
/// the daemon and everything the reference path needs to reproduce the
/// answer locally.
pub struct ServeFeed {
    /// Tenant name (`<scenario>/<observer>` for campaign feeds).
    pub tenant: String,
    /// The monitor configuration sent with `hello`.
    pub config: StreamConfig,
    /// The registry resolving the table's dense ids.
    pub registry: IdentifyRegistry,
    /// The chronological event rows of the feed.
    pub table: ObservationTable,
}

/// Builds one feed per scenario × observer by running the campaigns through
/// the simulation engine — the exact observation rows the batch pipeline
/// sees, cut into serve-protocol batches by the driver.
pub fn campaign_feeds(
    period: MeasurementPeriod,
    scale: f64,
    seed: u64,
    window: SimDuration,
    scenarios: &[ChurnScenario],
) -> Vec<ServeFeed> {
    let mut feeds = Vec::new();
    for churn in scenarios {
        let label = churn.label().to_string();
        let run = Scenario::new(period)
            .with_scale(scale)
            .with_seed(seed)
            .with_churn(churn.clone())
            .build();
        let duration = run.config.duration;
        let output = netsim::Network::new(run.config, run.population.specs)
            .with_population_events(run.events)
            .run();
        for log in &output.logs {
            feeds.push(ServeFeed {
                tenant: format!("{label}/{}", log.observer),
                config: StreamConfig::for_observer(
                    &log.observer,
                    log.dht_server,
                    duration,
                    window,
                ),
                registry: log.registry().clone(),
                table: log.table().clone(),
            });
        }
    }
    feeds
}

/// Generates one cheap deterministic feed (seeded LCG): a few dozen peers
/// opening, identifying and closing connections on a jittered cadence —
/// enough state churn to exercise every monitor code path without a
/// simulation per tenant.
pub fn synthetic_feed(index: usize, seed: u64, events: usize) -> ServeFeed {
    let mut state = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index as u64 + 1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let peers = 24usize;
    let mut registry = IdentifyRegistry::new();
    let mut addr_ids = Vec::with_capacity(peers);
    for p in 0..peers {
        registry.register_peer(PeerId::derived((index as u64) << 24 | p as u64));
        addr_ids.push(registry.intern_addr(Multiaddr::new(
            IpAddress::V4((index as u32) << 8 | p as u32),
            if p % 2 == 0 { Transport::Tcp } else { Transport::Quic },
            4001,
        )));
    }
    let info_server = registry.intern_identify(&IdentifyInfo::new(
        AgentVersion::parse("go-ipfs/0.11.0/serve-bench"),
        ProtocolSet::go_ipfs_dht_server(),
        vec![],
    ));

    let mut table = ObservationTable::new();
    let mut open: VecDeque<(u64, u32)> = VecDeque::new();
    let mut next_conn = 0u64;
    let mut t_ms = 0u64;
    while table.len() < events {
        t_ms += 1_000 + next() % 29_000;
        let at = SimTime::from_millis(t_ms);
        let roll = next() % 10;
        if roll < 4 || open.is_empty() {
            let slot = (next() % peers as u64) as u32;
            let direction = if next() % 2 == 0 {
                Direction::Inbound
            } else {
                Direction::Outbound
            };
            table.connection_opened(
                at,
                ConnectionId(next_conn),
                slot,
                direction,
                addr_ids[slot as usize],
            );
            open.push_back((next_conn, slot));
            next_conn += 1;
        } else if roll < 7 {
            let (conn, slot) = open.pop_front().expect("open queue checked non-empty");
            table.connection_closed(at, ConnectionId(conn), slot, CloseReason::PeerLeft);
        } else if roll < 9 {
            let &(_, slot) = open.front().expect("open queue checked non-empty");
            table.identify_received(at, slot, info_server);
        } else {
            let slot = (next() % peers as u64) as u32;
            table.peer_discovered(at, slot, addr_ids[slot as usize]);
        }
    }
    let ended = SimTime::from_millis(t_ms + 60_000);
    ServeFeed {
        tenant: format!("synth-{index}"),
        config: StreamConfig::go_ipfs(
            format!("synth-{index}"),
            true,
            SimTime::ZERO,
            ended,
            SimDuration::from_mins(15),
        ),
        registry,
        table,
    }
}

/// Options for one [`drive_feeds`] pass.
pub struct DriveOptions {
    /// Rows per event batch.
    pub batch_rows: usize,
    /// Tolerate existing tenants and skip already-ingested events (the
    /// post-crash resume handshake via `status`).
    pub resume: bool,
    /// Send at most this many event batches per tenant and stop (no
    /// `finish`, no answers) — the CI kill-mid-ingest leg.
    pub max_batches: Option<usize>,
    /// Send a `shutdown` op after driving every feed.
    pub shutdown: bool,
}

fn drive_err(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn roundtrip<S: Read + Write>(stream: &mut S, doc: &Json) -> io::Result<Json> {
    write_frame(stream, &Frame::control(doc))?;
    stream.flush()?;
    let reply = read_frame(stream)?
        .ok_or_else(|| drive_err("daemon closed the connection mid-conversation"))?;
    reply.control_json().map_err(drive_err)
}

fn expect_ok(reply: &Json) -> io::Result<()> {
    if reply.bool_field("ok").map_err(|e| drive_err(e.to_string()))? {
        Ok(())
    } else {
        Err(drive_err(
            reply.str_field("error").unwrap_or("unlabelled daemon error"),
        ))
    }
}

/// The `hello` control document that opens a feed's tenant.
fn hello(feed: &ServeFeed) -> Json {
    let mut hello = Json::object();
    hello.insert("op", "hello");
    hello.insert("tenant", feed.tenant.as_str());
    hello.insert("config", measurement::serve::config_to_json(&feed.config));
    hello
}

/// The feed's events from row `from` on, as frames of `batch_rows` rows.
fn event_frames(
    feed: &ServeFeed,
    from: usize,
    batch_rows: usize,
) -> impl Iterator<Item = Frame> + '_ {
    (from..feed.table.len()).step_by(batch_rows).map(move |at| {
        let block = encode_event_block(&feed.table, at, (at + batch_rows).min(feed.table.len()));
        Frame::tenant_block(FRAME_EVENTS, &feed.tenant, &block)
    })
}

/// Streams every feed into the daemon over `stream` and returns the
/// deterministic answers document (`{"tenants": [{tenant, answer}...]}`),
/// or an empty-answer document when `max_batches` cut ingest short.
pub fn drive_feeds<S: Read + Write>(
    stream: &mut S,
    feeds: &[ServeFeed],
    options: &DriveOptions,
) -> io::Result<Json> {
    let mut answers = Json::array();
    for feed in feeds {
        let reply = roundtrip(stream, &hello(feed))?;
        let fresh = reply.bool_field("ok").map_err(|e| drive_err(e.to_string()))?;
        if !fresh && !options.resume {
            return Err(drive_err(
                reply.str_field("error").unwrap_or("hello rejected"),
            ));
        }

        let mut status = Json::object();
        status.insert("op", "status");
        status.insert("tenant", feed.tenant.as_str());
        let status = roundtrip(stream, &status)?;
        expect_ok(&status)?;
        let skip = |key: &str| -> io::Result<usize> {
            usize::try_from(status.u64_field(key).map_err(|e| drive_err(e.to_string()))?)
                .map_err(|_| drive_err("status cursor out of range"))
        };
        let (events_done, peers, addrs, infos) = if fresh {
            (0, 0, 0, 0)
        } else {
            (skip("events")?, skip("peers")?, skip("addrs")?, skip("infos")?)
        };

        let delta = encode_registry_delta(&feed.registry, peers, addrs, infos);
        write_frame(
            stream,
            &Frame::tenant_block(FRAME_REGISTRY, &feed.tenant, &delta),
        )?;
        let batches = options.max_batches.unwrap_or(usize::MAX);
        for frame in event_frames(feed, events_done, options.batch_rows).take(batches) {
            write_frame(stream, &frame)?;
        }
        stream.flush()?;
        if options.max_batches.is_some() {
            continue;
        }

        let mut finish = Json::object();
        finish.insert("op", "finish");
        finish.insert("tenant", feed.tenant.as_str());
        let reply = roundtrip(stream, &finish)?;
        expect_ok(&reply)?;
        let mut row = Json::object();
        row.insert("tenant", feed.tenant.as_str());
        row.insert(
            "answer",
            reply.field("answer").map_err(|e| drive_err(e.to_string()))?.clone(),
        );
        answers.push(row);
    }
    if options.shutdown {
        let mut doc = Json::object();
        doc.insert("op", "shutdown");
        expect_ok(&roundtrip(stream, &doc)?)?;
    }
    let mut out = Json::object();
    out.insert("tenants", answers);
    Ok(out)
}

/// Computes the answers [`drive_feeds`] would get, entirely in-process:
/// ingest every feed into a fresh monitor, finalise, and answer the same
/// default `summary` query through the same `analysis` code — the
/// byte-identity oracle for the daemon path.
pub fn reference_answers(feeds: &[ServeFeed]) -> Json {
    let query = {
        let mut q = Json::object();
        q.insert("kind", "summary");
        q
    };
    let mut answers = Json::array();
    for feed in feeds {
        let mut monitor = StreamingMonitor::new(feed.config.clone());
        monitor.ingest_table(&feed.table);
        let summary = monitor.finish(&feed.registry);
        let answer = answer_stream_query(&summary, &query)
            .expect("reference summary query cannot fail");
        let mut row = Json::object();
        row.insert("tenant", feed.tenant.as_str());
        row.insert("answer", answer);
        answers.push(row);
    }
    let mut out = Json::object();
    out.insert("tenants", answers);
    out
}

/// Configuration of the in-process concurrency bench.
pub struct ServeBenchConfig {
    /// Concurrent tenant feeds.
    pub tenants: usize,
    /// Events per tenant feed.
    pub events_per_tenant: usize,
    /// Rows per event batch.
    pub batch_rows: usize,
    /// Live queries to time (round-robin over tenants).
    pub queries: usize,
    /// Base seed of the synthetic feeds.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            tenants: 1000,
            events_per_tenant: 240,
            batch_rows: 48,
            queries: 1000,
            seed: 2022,
        }
    }
}

/// Results of one [`run_serve_bench`] pass.
pub struct ServeBenchReport {
    /// Concurrent tenant feeds hosted.
    pub tenants: usize,
    /// Total events ingested.
    pub total_events: u64,
    /// Wall-clock seconds of the interleaved ingest phase.
    pub ingest_secs: f64,
    /// Sustained ingest rate over the interleaved phase.
    pub events_per_sec: f64,
    /// Timed live queries.
    pub queries: usize,
    /// Median query latency (microseconds).
    pub query_p50_us: f64,
    /// 99th-percentile query latency (microseconds).
    pub query_p99_us: f64,
    /// Worst observed query latency (microseconds).
    pub query_max_us: f64,
    /// Size of a full checkpoint of all tenants (bytes).
    pub checkpoint_bytes: u64,
    /// Seconds to serialise that checkpoint.
    pub checkpoint_secs: f64,
    /// Seconds to restore the daemon state from it.
    pub restore_secs: f64,
    /// FNV-1a checksum over every query answer (determinism witness).
    pub answers_fnv: u64,
}

impl ServeBenchReport {
    /// One-line summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "serve bench: {} tenants, {} events at {:.0} events/s; \
             query p50 {:.0} us, p99 {:.0} us; checkpoint {} B in {:.3} s, restore {:.3} s",
            self.tenants,
            self.total_events,
            self.events_per_sec,
            self.query_p50_us,
            self.query_p99_us,
            self.checkpoint_bytes,
            self.checkpoint_secs,
            self.restore_secs
        )
    }

    /// The deterministic fields only — safe for byte-compared stdout.
    pub fn deterministic_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("tenants", self.tenants);
        obj.insert("total_events", self.total_events);
        obj.insert("queries", self.queries);
        obj.insert("checkpoint_bytes", self.checkpoint_bytes);
        obj.insert("answers_fnv", self.answers_fnv);
        obj
    }

    /// The full report including timing, for `BENCH_serve.json`.
    pub fn full_json(&self) -> Json {
        let mut obj = self.deterministic_json();
        obj.insert("ingest_secs", self.ingest_secs);
        obj.insert("events_per_sec", self.events_per_sec);
        obj.insert("query_p50_us", self.query_p50_us);
        obj.insert("query_p99_us", self.query_p99_us);
        obj.insert("query_max_us", self.query_max_us);
        obj.insert("checkpoint_secs", self.checkpoint_secs);
        obj.insert("restore_secs", self.restore_secs);
        obj
    }
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// Runs the concurrency bench: N synthetic tenant feeds interleaved
/// batch-by-batch through one [`ServeState`] (the serialisation a daemon
/// with N pipelined connections performs), then a timed query storm, then
/// checkpoint + restore.
pub fn run_serve_bench(
    cfg: &ServeBenchConfig,
    mut progress: impl FnMut(usize, usize),
) -> ServeBenchReport {
    let feeds: Vec<ServeFeed> = (0..cfg.tenants)
        .map(|i| synthetic_feed(i, cfg.seed, cfg.events_per_tenant))
        .collect();
    let mut state = ServeState::new(serve_answerer(), ServeOptions::default());
    for feed in &feeds {
        let reply = state
            .handle_frame(&Frame::control(&hello(feed)))
            .expect("control frames are answered");
        assert!(
            reply
                .control_json()
                .expect("daemon reply parses")
                .bool_field("ok")
                .unwrap_or(false),
            "hello rejected for {}",
            feed.tenant
        );
        state.handle_frame(&Frame::tenant_block(
            FRAME_REGISTRY,
            &feed.tenant,
            &encode_registry_delta(&feed.registry, 0, 0, 0),
        ));
    }

    // Interleaved ingest: round-robin one batch per tenant per round, so
    // all N feeds stay concurrently live for the whole phase.
    let batches: Vec<Vec<Frame>> =
        feeds.iter().map(|feed| event_frames(feed, 0, cfg.batch_rows).collect()).collect();
    let rounds = batches.iter().map(Vec::len).max().unwrap_or(0);
    let ingest_started = Instant::now();
    for round in 0..rounds {
        for frames in &batches {
            if let Some(frame) = frames.get(round) {
                state.handle_frame(frame);
            }
        }
        progress(round + 1, rounds);
    }
    let ingest_secs = ingest_started.elapsed().as_secs_f64();
    let total_events = state.events_ingested();

    // Query storm: network-size answers round-robin over the live tenants.
    let mut latencies_us = Vec::with_capacity(cfg.queries);
    let mut answers_fnv = 0xcbf2_9ce4_8422_2325u64;
    for q in 0..cfg.queries {
        let feed = &feeds[q % feeds.len()];
        let mut query = Json::object();
        query.insert("op", "query");
        query.insert("tenant", feed.tenant.as_str());
        let mut body = Json::object();
        body.insert("kind", "network_size");
        query.insert("query", body);
        let frame = Frame::control(&query);
        let started = Instant::now();
        let reply = state.handle_frame(&frame).expect("queries are answered");
        latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
        let doc = reply.control_json().expect("daemon reply parses");
        assert!(
            doc.bool_field("ok").unwrap_or(false),
            "query failed: {doc:?}"
        );
        answers_fnv = answers_fnv.rotate_left(17) ^ fnv1a(doc.to_string_compact().as_bytes());
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));

    let checkpoint_started = Instant::now();
    let checkpoint = state.checkpoint_bytes();
    let checkpoint_secs = checkpoint_started.elapsed().as_secs_f64();
    let restore_started = Instant::now();
    let restored = ServeState::restore(&checkpoint, serve_answerer(), ServeOptions::default())
        .expect("own checkpoint restores");
    let restore_secs = restore_started.elapsed().as_secs_f64();
    assert_eq!(restored.events_ingested(), total_events);

    ServeBenchReport {
        tenants: cfg.tenants,
        total_events,
        ingest_secs,
        events_per_sec: if ingest_secs > 0.0 {
            total_events as f64 / ingest_secs
        } else {
            0.0
        },
        queries: latencies_us.len(),
        query_p50_us: percentile(&latencies_us, 0.50),
        query_p99_us: percentile(&latencies_us, 0.99),
        query_max_us: percentile(&latencies_us, 1.0),
        checkpoint_bytes: checkpoint.len() as u64,
        checkpoint_secs,
        restore_secs,
        answers_fnv,
    }
}
