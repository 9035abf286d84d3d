//! The run loop shared by every workload: set up several times, run rounds
//! until the time is spent, check every output, and turn the rounds and
//! spans into metrics.

use crate::metrics::{self, Layers, Metric};
use crate::trace::{self, Span, Trace, SEGMENT};
use std::time::Instant;

/// A run sets up `SETUPS` times before its first round, then again between
/// rounds while set-ups have taken less than `SETUP_SHARE` of the run;
/// `setup_s` is the median. A set-up that takes milliseconds is so repeated
/// throughout the run, and its median does not hang on how fast the host
/// happened to be in the run's first second.
const SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.05;

/// Lowest `trace.coverage` a traced run accepts: layer times that do not
/// add up to the wall time mean a call into a layer is not spanned.
const MIN_COVERAGE: f64 = 0.95;

/// Correctness checks made during a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made (replies inspected count as one each).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What a round reports besides its spans.
pub struct Outcome {
    /// Units of work the round processed (the `events_per_s` numerator).
    pub events: u64,
    /// Seconds of the round's throughput-bound phase, piece by piece and in
    /// the same order every round; `None` means every segment of the round.
    pub busy: Option<Vec<f64>>,
}

/// One benchmark workload.
pub trait Workload {
    /// The inputs generated from the seed.
    type Input;
    /// Generates the inputs (timed as `setup_s`).
    fn setup(&self, seed: u64, trace: &mut Trace) -> Self::Input;
    /// Runs the timed work once, as the same sequence of segments every
    /// round (opened with `trace.begin(SEGMENT)` or `trace.segment`);
    /// checks run outside them.
    fn round(&self, input: &mut Self::Input, trace: &mut Trace, checks: &mut Checks) -> Outcome;
}

struct Round {
    traced: bool,
    spans: std::ops::Range<usize>,
    /// Seconds of each segment.
    segments: Vec<f64>,
    /// Seconds of each piece of the throughput-bound phase.
    busy: Vec<f64>,
    events: u64,
}

impl Round {
    fn wall_secs(&self) -> f64 {
        self.segments.iter().sum()
    }
}

/// `metrics::fastest_pieces` over one kind of piece of some rounds.
fn fastest(rounds: &[&Round], pieces: impl Fn(&Round) -> &[f64]) -> f64 {
    let pieces: Vec<&[f64]> = rounds.iter().map(|r| pieces(r)).collect();
    metrics::fastest_pieces(&pieces)
}

/// The result of one run.
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The layer table of a traced run.
    pub layer_table: Option<String>,
    /// Wall seconds of every round, and whether it was traced.
    pub rounds: Vec<(f64, bool)>,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

/// Runs a workload: set-ups, then rounds until `seconds` have passed since
/// the first began (at least one; two when traced). A traced run alternates
/// traced and untraced rounds, so `trace.overhead` compares rounds of one
/// process. Times are taken with every piece at its fastest over the rounds
/// (`metrics::fastest_pieces`), which also leaves out the cost of a cold
/// first round, so no warm-up round is needed.
pub fn execute<W: Workload>(workload: &W, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut trace = Trace::new();
    let mut checks = Checks::default();
    let mut setup_secs = Vec::new();
    let run_started = Instant::now();
    let set_up = |trace: &mut Trace, setup_secs: &mut Vec<f64>| {
        trace.set_detail(traced);
        let started = Instant::now();
        let segment = trace.begin("setup");
        let input = workload.setup(seed, trace);
        trace.end(segment);
        setup_secs.push(started.elapsed().as_secs_f64());
        input
    };
    let mut input = set_up(&mut trace, &mut setup_secs);
    for _ in 1..SETUPS {
        drop(input);
        input = set_up(&mut trace, &mut setup_secs);
    }

    let started = Instant::now();
    let min_rounds = if traced { 2 } else { 1 };
    let mut rounds: Vec<Round> = Vec::new();
    // Read after the first round, so the peak covers the same work in every
    // run rather than growing with allocator fragmentation over however
    // many rounds fit in `seconds`.
    let mut peak_rss_mb = None;
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        while setup_secs.iter().sum::<f64>() < SETUP_SHARE * run_started.elapsed().as_secs_f64() {
            drop(input);
            input = set_up(&mut trace, &mut setup_secs);
        }
        let traced_round = traced && rounds.len().is_multiple_of(2);
        trace.set_detail(traced_round);
        let first = trace.spans().len();
        let outcome = workload.round(&mut input, &mut trace, &mut checks);
        let spans = first..trace.spans().len();
        let segments: Vec<f64> = trace.spans()[spans.clone()]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .collect();
        rounds.push(Round {
            traced: traced_round,
            spans,
            busy: outcome.busy.unwrap_or_else(|| segments.clone()),
            segments,
            events: outcome.events,
        });
        peak_rss_mb.get_or_insert_with(metrics::peak_rss_mb);
    }
    drop(input);
    // Pieces are compared across rounds one by one, so every round must
    // repeat the same pieces and the same work.
    let first = &rounds[0];
    checks.check(
        rounds.iter().all(|r| {
            r.segments.len() == first.segments.len()
                && r.busy.len() == first.busy.len()
                && r.events == first.events
        }),
        || "rounds differ in their pieces or their work".into(),
    );

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let spans = trace.into_spans();
    let (metrics, layer_table) = if traced {
        let traced_rounds: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let (layers, table, coverage) = layer_report(&spans, &traced_rounds);
        checks.check(coverage >= MIN_COVERAGE, || {
            format!("trace.coverage {coverage:.4} is below {MIN_COVERAGE}")
        });
        let wall = |rs: &[&Round]| fastest(rs, |r| &r.segments);
        let stats = metrics::TraceStats {
            coverage,
            overhead: wall(&traced_rounds) / wall(&untraced) - 1.0,
            spans_per_round: traced_rounds.iter().map(|r| r.spans.len()).sum::<usize>() as f64
                / traced_rounds.len() as f64,
            span_ns: span_cost_ns(),
        };
        (metrics::layer_metrics(&layers, &stats), Some(table))
    } else {
        let busy_secs = fastest(&untraced, |r| &r.busy);
        let values = [
            metrics::median(&setup_secs),
            fastest(&untraced, |r| &r.segments),
            first.events as f64 / busy_secs.max(f64::MIN_POSITIVE),
            peak_rss_mb.expect("at least one round is measured"),
        ];
        let all = metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
        (all, None)
    };
    Report {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        layer_table,
        rounds: rounds.iter().map(|r| (r.wall_secs(), r.traced)).collect(),
        spans,
    }
}

/// The cost of recording one layer span, in ns: with `trace.spans_per_round`
/// it bounds the recorder's share of a traced round, which `trace.overhead`
/// measures only to within the round-to-round noise.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let mut trace = Trace::new();
    trace.set_detail(true);
    let segment = trace.begin(SEGMENT);
    let started = Instant::now();
    for _ in 0..SPANS {
        let span = trace.begin("calibration");
        trace.end(span);
    }
    let secs = started.elapsed().as_secs_f64();
    trace.end(segment);
    secs * 1e9 / f64::from(SPANS)
}

/// Weighs the spans of the set-ups and traced rounds, renders the layer
/// table of the traced rounds and measures their coverage: the share of
/// their wall time that layer spans account for.
fn layer_report<'a>(spans: &'a [Span], traced: &[&Round]) -> (Layers<'a>, String, f64) {
    let roots = trace::roots(spans);
    let setups = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "setup")
        .count() as f64;
    let in_traced = |index: usize| traced.iter().any(|r| r.spans.contains(&index));
    let weight: Vec<f64> = (0..spans.len())
        .map(|i| {
            if spans[roots[i]].name == "setup" {
                1.0 / setups
            } else if in_traced(roots[i]) {
                1.0 / traced.len() as f64
            } else {
                0.0
            }
        })
        .collect();
    let wall: f64 = traced.iter().map(|r| r.wall_secs()).sum();
    let rows = trace::layer_rows(spans, |i| spans[i].parent.is_some() && in_traced(roots[i]));
    let covered: f64 = rows.iter().map(|r| r.self_secs).sum();
    let setup_rows = trace::layer_rows(spans, |i| spans[roots[i]].name == "setup");
    let setup_wall: f64 = setup_rows.iter().map(|r| r.self_secs).sum();
    let table = format!(
        "timed rounds ({} traced, {:.3} s):\n{}\nset-ups ({} traced, {:.3} s):\n{}",
        traced.len(),
        wall,
        trace::layer_table(&rows, wall),
        setups,
        setup_wall,
        trace::layer_table(&setup_rows, setup_wall)
    );
    let self_secs = trace::self_secs(spans);
    (
        Layers::new(spans, self_secs, weight),
        table,
        covered / wall.max(f64::MIN_POSITIVE),
    )
}
