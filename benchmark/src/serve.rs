//! `serve-mixed`: streaming ingest and live queries in one loop.
//!
//! One closed-loop client drives one `ServeState` behind a `Mutex`, locked
//! per frame as `serve_connection` does. Set-up builds the tenants — many
//! *wide* synthetic feeds and a few *deep* campaign feeds — and encodes the
//! whole conversation with `write_frame`: hellos, registries, event batches
//! round-robin over the tenants, and `network_size` queries spread evenly
//! over the stream. A round replays the bytes into a fresh state, then
//! checkpoints, restores, and finishes every tenant on both states. A query
//! clones and finalises its tenant's monitor, so its cost grows with the
//! tenant's state: late deep queries cost tens of wide ones, and a change
//! that helps one tenant shape at the other's expense shows in the split.

use crate::harness::{Checks, Outcome, Workload};
use crate::trace::{Trace, SEGMENT};
use bench::serve::{campaign_feeds, reference_answers, synthetic_feed, ServeFeed};
use jsonio::Json;
use measurement::serve::{
    read_frame, write_frame, Frame, ServeOptions, ServeState, FRAME_EVENTS, FRAME_REGISTRY,
};
use netsim::archive::{encode_event_block, encode_registry_delta};
use population::{ChurnScenario, MeasurementPeriod};
use simclock::SimDuration;
use std::sync::Mutex;
use std::time::Instant;

/// Shape of the tenant mix.
pub struct ServeMixed {
    /// Synthetic tenants.
    pub wide_tenants: usize,
    /// Events per synthetic tenant.
    pub wide_events: usize,
    /// Population scale of the campaign tenants (P4, one per churn regime).
    pub deep_scale: f64,
    /// Rows per event frame.
    pub batch_rows: usize,
    /// Queries to synthetic tenants.
    pub wide_queries: usize,
    /// Queries to campaign tenants.
    pub deep_queries: usize,
}

/// The benchmarked mix: 1000 wide tenants of 1000 events, 6 deep tenants
/// of about 100k events, 3000 wide and 1000 deep queries.
pub const FULL: ServeMixed = ServeMixed {
    wide_tenants: 1000,
    wide_events: 1000,
    deep_scale: 0.01,
    batch_rows: 256,
    wide_queries: 3000,
    deep_queries: 1000,
};

/// Frames per segment of a replay: about 40 ms of the stream, so a round
/// has some fifty pieces.
const CHUNK_FRAMES: usize = 256;

/// What each frame on the wire is, so the replay knows which layer it
/// calls without parsing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tag {
    Hello,
    Registry,
    Events(usize),
    Query { deep: bool },
    Finish,
}

impl Tag {
    fn layer(self) -> &'static str {
        match self {
            Tag::Hello => "measurement.serve.hello",
            Tag::Registry => "measurement.serve.registry",
            Tag::Events(_) => "measurement.serve.ingest",
            Tag::Query { .. } => "measurement.serve.query",
            Tag::Finish => "measurement.serve.finish",
        }
    }
}

/// The encoded conversation and the expected answers.
pub struct Input {
    stream: Vec<u8>,
    stream_tags: Vec<Tag>,
    finish: Vec<u8>,
    tenants: usize,
    reference: String,
}

fn control(fields: &[(&str, Json)]) -> Frame {
    let mut doc = Json::object();
    for (key, value) in fields {
        doc.insert(*key, value.clone());
    }
    Frame::control(&doc)
}

fn push(wire: &mut Vec<u8>, tags: &mut Vec<Tag>, frame: &Frame, tag: Tag) {
    write_frame(wire, frame).expect("writing to a Vec cannot fail");
    tags.push(tag);
}

impl ServeMixed {
    /// Encodes hellos and registries, then event frames round-robin over
    /// the tenants with the queries spread evenly between them.
    fn encode(&self, feeds: &[ServeFeed], deep_first: usize) -> (Vec<u8>, Vec<Tag>) {
        let (mut wire, mut tags) = (Vec::new(), Vec::new());
        for feed in feeds {
            let config = measurement::serve::config_to_json(&feed.config);
            let hello = [
                ("op", "hello".into()),
                ("tenant", feed.tenant.as_str().into()),
                ("config", config),
            ];
            push(&mut wire, &mut tags, &control(&hello), Tag::Hello);
            let delta = encode_registry_delta(&feed.registry, 0, 0, 0);
            push(
                &mut wire,
                &mut tags,
                &Frame::tenant_block(FRAME_REGISTRY, &feed.tenant, &delta),
                Tag::Registry,
            );
        }
        let mut batches = Vec::new();
        let rounds = feeds
            .iter()
            .map(|f| f.table.len().div_ceil(self.batch_rows))
            .max()
            .unwrap_or(0);
        for round in 0..rounds {
            for (index, feed) in feeds.iter().enumerate() {
                let from = round * self.batch_rows;
                if from < feed.table.len() {
                    batches.push((index, from, (from + self.batch_rows).min(feed.table.len())));
                }
            }
        }
        let queries = self.wide_queries + self.deep_queries;
        let (mut wide_sent, mut deep_sent) = (0, 0);
        for (k, &(index, from, to)) in batches.iter().enumerate() {
            let feed = &feeds[index];
            let block = encode_event_block(&feed.table, from, to);
            push(
                &mut wire,
                &mut tags,
                &Frame::tenant_block(FRAME_EVENTS, &feed.tenant, &block),
                Tag::Events(to - from),
            );
            while wide_sent + deep_sent < (k + 1) * queries / batches.len() {
                // Deep queries are spread evenly among the wide ones.
                let deep =
                    (deep_sent + 1) * queries <= (wide_sent + deep_sent + 1) * self.deep_queries;
                let tenant = if deep {
                    deep_sent += 1;
                    &feeds[deep_first + (deep_sent - 1) % (feeds.len() - deep_first)].tenant
                } else {
                    wide_sent += 1;
                    &feeds[(wide_sent - 1) % deep_first].tenant
                };
                let mut query = Json::object();
                query.insert("kind", "network_size");
                let frame = control(&[
                    ("op", "query".into()),
                    ("tenant", tenant.as_str().into()),
                    ("query", query),
                ]);
                push(&mut wire, &mut tags, &frame, Tag::Query { deep });
            }
        }
        (wire, tags)
    }
}

impl Workload for ServeMixed {
    type Input = Input;

    fn setup(&self, seed: u64, trace: &mut Trace) -> Input {
        let mut feeds: Vec<ServeFeed> = trace.span("setup.synthetic_feeds", || {
            (0..self.wide_tenants)
                .map(|i| synthetic_feed(i, seed, self.wide_events))
                .collect()
        });
        let deep_first = feeds.len();
        feeds.extend(trace.span("setup.campaign_feeds", || {
            campaign_feeds(
                MeasurementPeriod::P4,
                self.deep_scale,
                seed,
                SimDuration::from_hours(6),
                &ChurnScenario::all(),
            )
        }));
        let (stream, stream_tags) = trace.span("setup.encode", || self.encode(&feeds, deep_first));
        let mut finish = Vec::new();
        for feed in &feeds {
            let frame = control(&[
                ("op", "finish".into()),
                ("tenant", feed.tenant.as_str().into()),
            ]);
            write_frame(&mut finish, &frame).expect("writing to a Vec cannot fail");
        }
        let reference = trace.span("setup.reference_answers", || {
            reference_answers(&feeds).to_string_compact()
        });
        Input {
            stream,
            stream_tags,
            finish,
            tenants: feeds.len(),
            reference,
        }
    }

    fn round(&self, input: &mut Input, trace: &mut Trace, checks: &mut Checks) -> Outcome {
        let answerer = analysis::serve_answerer;
        let live = Mutex::new(ServeState::new(answerer(), ServeOptions::default()));
        let finish_tags = vec![Tag::Finish; input.tenants];
        let (mut replies, mut live_answers, mut restored_answers) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut ingest = Ingest::default();

        replay(
            &live,
            &input.stream,
            &input.stream_tags,
            &mut replies,
            trace,
            &mut ingest,
        );
        let segment = trace.begin(SEGMENT);
        let span = trace.begin("measurement.serve.checkpoint");
        let checkpoint = live
            .lock()
            .expect("serve state lock poisoned")
            .checkpoint_bytes();
        trace.count(&span, "bytes", checkpoint.len() as f64);
        trace.end(span);
        trace.end(segment);
        let restored = trace.segment("measurement.serve.restore", || {
            ServeState::restore(&checkpoint, answerer(), ServeOptions::default())
        });
        replay(
            &live,
            &input.finish,
            &finish_tags,
            &mut live_answers,
            trace,
            &mut ingest,
        );
        if let Ok(restored) = restored {
            let restored = Mutex::new(restored);
            replay(
                &restored,
                &input.finish,
                &finish_tags,
                &mut restored_answers,
                trace,
                &mut ingest,
            );
        }

        let mut wire = replies.as_slice();
        while let Ok(Some(reply)) = read_frame(&mut wire) {
            let ok = reply
                .control_json()
                .is_ok_and(|doc| doc.bool_field("ok") == Ok(true));
            checks.check(ok, || {
                format!(
                    "reply is not ok: {:?}",
                    String::from_utf8_lossy(&reply.payload)
                )
            });
        }
        for (state, bytes) in [("live", &live_answers), ("restored", &restored_answers)] {
            checks.check(answers(bytes) == input.reference, || {
                format!("finish answers from the {state} state differ from the reference")
            });
        }
        Outcome {
            events: ingest.rows,
            busy: Some(ingest.secs),
        }
    }
}

/// Event rows ingested and, per chunk of frames, the seconds spent reading
/// and handling their event frames — the `events_per_s` of this workload.
#[derive(Default)]
struct Ingest {
    rows: u64,
    secs: Vec<f64>,
}

/// Feeds pre-encoded frames to a state one at a time, as `serve_connection`
/// does, writing every reply to `replies`. Each `CHUNK_FRAMES` frames are a
/// segment of their own. A query is timed from when its frame is read until
/// its reply is written.
fn replay(
    state: &Mutex<ServeState>,
    mut wire: &[u8],
    tags: &[Tag],
    replies: &mut Vec<u8>,
    trace: &mut Trace,
    ingest: &mut Ingest,
) {
    for chunk in tags.chunks(CHUNK_FRAMES) {
        let segment = trace.begin(SEGMENT);
        let mut ingest_secs = 0.0;
        for &tag in chunk {
            let started = Instant::now();
            let request = match tag {
                Tag::Query { deep: true } => Some(trace.begin("measurement.serve.request.deep")),
                Tag::Query { deep: false } => Some(trace.begin("measurement.serve.request.wide")),
                _ => None,
            };
            let frame = trace.span("measurement.serve.frame_read", || read_frame(&mut wire));
            let frame = frame
                .expect("the wire is in memory")
                .expect("one frame per tag");
            let span = trace.begin(tag.layer());
            let reply = state
                .lock()
                .expect("serve state lock poisoned")
                .handle_frame(&frame);
            if let Tag::Events(rows) = tag {
                trace.count(&span, "rows", rows as f64);
                ingest.rows += rows as u64;
                ingest_secs += started.elapsed().as_secs_f64();
            }
            trace.end(span);
            if let Some(reply) = reply {
                trace
                    .span("measurement.serve.frame_write", || {
                        write_frame(replies, &reply)
                    })
                    .expect("writing to a Vec cannot fail");
            }
            if let Some(request) = request {
                trace.end(request);
            }
        }
        trace.end(segment);
        ingest.secs.push(ingest_secs);
    }
}

/// The `{"tenants": [{tenant, answer}]}` document `reference_answers`
/// builds, from a run of `finish` replies.
fn answers(mut replies: &[u8]) -> String {
    let mut rows = Json::array();
    while let Ok(Some(reply)) = read_frame(&mut replies) {
        let Ok(doc) = reply.control_json() else {
            return String::new();
        };
        let mut row = Json::object();
        row.insert("tenant", doc.get("tenant").cloned().unwrap_or(Json::Null));
        row.insert("answer", doc.get("answer").cloned().unwrap_or(Json::Null));
        rows.push(row);
    }
    let mut out = Json::object();
    out.insert("tenants", rows);
    out.to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_mix_passes_its_checks() {
        crate::tests::assert_passes(&ServeMixed {
            wide_tenants: 20,
            wide_events: 300,
            deep_scale: 0.002,
            batch_rows: 64,
            wide_queries: 30,
            deep_queries: 10,
        });
    }

    #[test]
    fn queries_are_spread_evenly_and_split_as_configured() {
        let mix = ServeMixed {
            wide_tenants: 8,
            wide_events: 200,
            deep_scale: 0.002,
            batch_rows: 50,
            wide_queries: 30,
            deep_queries: 10,
        };
        let mut feeds: Vec<ServeFeed> = (0..mix.wide_tenants)
            .map(|i| synthetic_feed(i, 3, mix.wide_events))
            .collect();
        feeds.push(synthetic_feed(99, 3, 1000));
        let (_, tags) = mix.encode(&feeds, mix.wide_tenants);
        let deep = tags
            .iter()
            .filter(|t| **t == Tag::Query { deep: true })
            .count();
        let wide = tags
            .iter()
            .filter(|t| **t == Tag::Query { deep: false })
            .count();
        assert_eq!((wide, deep), (30, 10));
        // No two deep queries are adjacent in query order.
        let order: Vec<bool> = tags
            .iter()
            .filter_map(|t| match t {
                Tag::Query { deep } => Some(*deep),
                _ => None,
            })
            .collect();
        assert!(order.windows(2).all(|w| !(w[0] && w[1])));
    }
}
