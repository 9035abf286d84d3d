//! Metric names, the statistics over runs, and the result line.

use crate::trace::Span;
use jsonio::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports from an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
];

/// Median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Seconds of a round with every piece at its fastest: the sum, over the
/// pieces, of each piece's least time across the rounds. Every round
/// repeats the same pieces of work in the same order, and contention from
/// other tenants of a shared host only ever slows a piece down, so a slow
/// stretch of the host spoils only the pieces that ran in it, not the whole
/// round. Every round must have the same number of pieces.
pub fn fastest_pieces(rounds: &[&[f64]]) -> f64 {
    let pieces = rounds.first().map_or(0, |round| round.len());
    (0..pieces)
        .map(|k| {
            rounds
                .iter()
                .map(|round| round[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// `a / b`, or 0 when the layer did no work (`b` is 0).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().strip_suffix("kB"))
                    .and_then(|v| v.trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Whether a metric name is well formed: a letter or digit first, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Names are checked for form and uniqueness here, because
/// `Json::insert` appends rather than replaces a repeated key.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut by_name = Json::object();
    for (i, metric) in metrics.iter().enumerate() {
        if !valid_name(metric.name) {
            return Err(format!("malformed metric name {:?}", metric.name));
        }
        if metrics[..i].iter().any(|m| m.name == metric.name) {
            return Err(format!("metric {:?} reported twice", metric.name));
        }
        if !metric.value.is_finite() {
            return Err(format!("metric {:?} is not finite", metric.name));
        }
        let mut value = Json::object();
        value.insert("value", metric.value);
        value.insert("unit", metric.unit);
        by_name.insert(metric.name, value);
    }
    let mut line = Json::object();
    line.insert("correct", correct);
    line.insert("attempted", attempted);
    line.insert("failed", failed);
    line.insert("metrics", by_name);
    Ok(line.to_string_compact())
}

/// Per-layer totals over a traced run. Every span counts with a weight: one
/// over the number of set-ups for spans under a set-up, one over the number
/// of traced rounds for spans under a traced round, zero otherwise — so each
/// layer reads as its cost per set-up plus its cost per round.
pub struct Layers<'a> {
    spans: &'a [Span],
    self_secs: Vec<f64>,
    weight: Vec<f64>,
}

impl<'a> Layers<'a> {
    /// Wraps spans with their self times and weights.
    pub fn new(spans: &'a [Span], self_secs: Vec<f64>, weight: Vec<f64>) -> Layers<'a> {
        Layers {
            spans,
            self_secs,
            weight,
        }
    }

    fn weighted(&self, name: &str) -> Vec<(usize, f64)> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.weight[*i] > 0.0)
            .map(|(i, _)| (i, self.weight[i]))
            .collect()
    }

    /// Self seconds of a layer per set-up plus per round.
    pub fn secs(&self, name: &str) -> f64 {
        self.weighted(name)
            .iter()
            .fold(0.0, |sum, &(i, w)| sum + self.self_secs[i] * w)
    }

    /// A count of a layer per set-up plus per round.
    pub fn count(&self, name: &str, key: &str) -> f64 {
        self.weighted(name)
            .iter()
            .fold(0.0, |sum, &(i, w)| sum + self.spans[i].count(key) * w)
    }

    /// Calls into a layer per set-up plus per round.
    pub fn calls(&self, name: &str) -> f64 {
        self.weighted(name).iter().fold(0.0, |sum, &(_, w)| sum + w)
    }

    /// Durations of every weighted span of a name, ascending.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let mut secs: Vec<f64> = self
            .weighted(name)
            .iter()
            .map(|&(i, _)| self.spans[i].secs())
            .collect();
        secs.sort_by(f64::total_cmp);
        secs
    }
}

/// What the harness measures about the trace itself.
pub struct TraceStats {
    /// Layer self time over wall time in the traced rounds.
    pub coverage: f64,
    /// Traced over untraced rounds, every piece at its fastest, minus 1.
    pub overhead: f64,
    /// Spans recorded per traced round.
    pub spans_per_round: f64,
    /// Cost of recording one span, ns.
    pub span_ns: f64,
}

/// Every per-layer metric, computed from the traced rounds and set-ups.
/// A layer a workload does not use reads 0.
pub fn layer_metrics(layers: &Layers, trace: &TraceStats) -> Vec<Metric> {
    let s = |name: &str| layers.secs(name);
    let c = |name: &str, key: &str| layers.count(name, key);
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };

    let engine_s = s("netsim.engine.run");
    let engine_obs = c("netsim.engine.run", "observations");
    let t1 = "netsim.mailbox.run.t1";
    let t2 = "netsim.mailbox.run.t2";
    let (mailbox_t1_s, mailbox_t2_s) = (s(t1), s(t2));
    let sim_events = c(t1, "sim_events");
    let encode_s = s("netsim.archive.encode");
    let decode_s = s("netsim.archive.decode");
    let encoded_bytes = c("netsim.archive.encode", "bytes");
    let decoded_bytes = c("netsim.archive.decode", "bytes");
    let decoded_events = c("netsim.archive.decode", "events");
    let rows = c("measurement.serve.ingest", "rows");
    let wide = layers.durations("measurement.serve.request.wide");
    let deep = layers.durations("measurement.serve.request.deep");

    vec![
        m("population.build_s", s("population.build"), "s"),
        m("population.sample_s", s("population.sample"), "s"),
        m("netsim.engine.run_s", engine_s, "s"),
        m("netsim.engine.observations", engine_obs, "count"),
        m(
            "netsim.engine.observations_per_s",
            ratio(engine_obs, engine_s),
            "events/s",
        ),
        m("netsim.mailbox.run_s.t1", mailbox_t1_s, "s"),
        m("netsim.mailbox.run_s.t2", mailbox_t2_s, "s"),
        m(
            "netsim.mailbox.events_per_s.t1",
            ratio(sim_events, mailbox_t1_s),
            "events/s",
        ),
        m(
            "netsim.mailbox.events_per_s.t2",
            ratio(c(t2, "sim_events"), mailbox_t2_s),
            "events/s",
        ),
        m("netsim.mailbox.sim_events", sim_events, "count"),
        m(
            "netsim.mailbox.mailbox_events",
            c(t1, "mailbox_events"),
            "count",
        ),
        m(
            "netsim.mailbox.cross_shard_events",
            c(t1, "cross_shard_events"),
            "count",
        ),
        m(
            "netsim.mailbox.cross_shard_share",
            ratio(c(t1, "cross_shard_events"), sim_events),
            "ratio",
        ),
        m("netsim.mailbox.epochs", c(t1, "epochs"), "count"),
        m(
            "netsim.mailbox.observations",
            c(t1, "observations"),
            "count",
        ),
        m(
            "netsim.mailbox.scaling_efficiency",
            ratio(mailbox_t1_s, 2.0 * mailbox_t2_s),
            "ratio",
        ),
        m("netsim.archive.encode_s", encode_s, "s"),
        m("netsim.archive.decode_s", decode_s, "s"),
        m(
            "netsim.archive.write_mb_s",
            ratio(encoded_bytes / 1e6, encode_s),
            "MB/s",
        ),
        m(
            "netsim.archive.read_mb_s",
            ratio(decoded_bytes / 1e6, decode_s),
            "MB/s",
        ),
        m(
            "netsim.archive.bytes_per_event",
            ratio(decoded_bytes, decoded_events),
            "B/event",
        ),
        m(
            "measurement.monitor.goipfs_s",
            s("measurement.monitor.goipfs"),
            "s",
        ),
        m(
            "measurement.monitor.hydra_s",
            s("measurement.monitor.hydra"),
            "s",
        ),
        m("measurement.crawler_s", s("measurement.crawler"), "s"),
        m(
            "measurement.crawler.recall",
            ratio(
                c("measurement.crawler", "servers_found"),
                c("measurement.crawler", "servers_online"),
            ),
            "ratio",
        ),
        m(
            "measurement.serve.frame_read_s",
            s("measurement.serve.frame_read"),
            "s",
        ),
        m(
            "measurement.serve.hello_s",
            s("measurement.serve.hello"),
            "s",
        ),
        m(
            "measurement.serve.registry_s",
            s("measurement.serve.registry"),
            "s",
        ),
        m(
            "measurement.serve.ingest_s",
            s("measurement.serve.ingest"),
            "s",
        ),
        m(
            "measurement.serve.query_s",
            s("measurement.serve.query"),
            "s",
        ),
        m(
            "measurement.serve.finish_s",
            s("measurement.serve.finish"),
            "s",
        ),
        m(
            "measurement.serve.frame_write_s",
            s("measurement.serve.frame_write"),
            "s",
        ),
        m(
            "measurement.serve.checkpoint_s",
            s("measurement.serve.checkpoint"),
            "s",
        ),
        m(
            "measurement.serve.restore_s",
            s("measurement.serve.restore"),
            "s",
        ),
        m(
            "measurement.serve.checkpoint_bytes",
            c("measurement.serve.checkpoint", "bytes"),
            "B",
        ),
        m(
            "measurement.serve.frames",
            layers.calls("measurement.serve.frame_read"),
            "count",
        ),
        m(
            "measurement.serve.rows_per_frame",
            ratio(rows, layers.calls("measurement.serve.ingest")),
            "count",
        ),
        m(
            "measurement.serve.query_wide_p50_us",
            percentile(&wide, 0.50) * 1e6,
            "us",
        ),
        m(
            "measurement.serve.query_wide_p99_us",
            percentile(&wide, 0.99) * 1e6,
            "us",
        ),
        m(
            "measurement.serve.query_deep_p50_ms",
            percentile(&deep, 0.50) * 1e3,
            "ms",
        ),
        m(
            "measurement.serve.query_deep_p99_ms",
            percentile(&deep, 0.99) * 1e3,
            "ms",
        ),
        m("analysis.churn_s", s("analysis.churn"), "s"),
        m("analysis.horizon_s", s("analysis.horizon"), "s"),
        m("analysis.metadata_s", s("analysis.metadata"), "s"),
        m("analysis.growth_s", s("analysis.growth"), "s"),
        m("analysis.netsize_s", s("analysis.netsize"), "s"),
        m("analysis.robustness_s", s("analysis.robustness"), "s"),
        m("analysis.report_s", s("analysis.report"), "s"),
        m("trace.coverage", trace.coverage, "ratio"),
        m("trace.overhead", trace.overhead, "ratio"),
        m("trace.spans_per_round", trace.spans_per_round, "count"),
        m("trace.span_ns", trace.span_ns, "ns"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn fastest_pieces_takes_each_piece_at_its_fastest() {
        // No round is fastest on every piece: 1 + 2 + 3.
        let rounds: [&[f64]; 3] = [&[4.0, 2.0, 3.5], &[1.0, 5.0, 3.0], &[2.0, 2.5, 9.0]];
        assert_eq!(fastest_pieces(&rounds), 6.0);
        assert_eq!(fastest_pieces(&[&[0.5, 0.25]]), 0.75);
        assert_eq!(fastest_pieces(&[]), 0.0);
    }

    #[test]
    fn result_line_rejects_duplicate_and_malformed_names() {
        let ok = Metric {
            name: "wall_s",
            value: 1.5,
            unit: "s",
        };
        let line = result_line(true, 3, 0, std::slice::from_ref(&ok)).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#
        );
        assert!(result_line(true, 1, 0, &[ok.clone(), ok.clone()]).is_err());
        let bad = Metric {
            name: "_x",
            ..ok.clone()
        };
        assert!(result_line(true, 1, 0, &[bad]).is_err());
        let nan = Metric {
            value: f64::NAN,
            ..ok
        };
        assert!(result_line(true, 1, 0, &[nan]).is_err());
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let spans = Vec::new();
        let layers = Layers::new(&spans, Vec::new(), Vec::new());
        let stats = TraceStats {
            coverage: 1.0,
            overhead: 0.0,
            spans_per_round: 1.0,
            span_ns: 1.0,
        };
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(name, _)| *name)
            .chain(layer_metrics(&layers, &stats).iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} listed twice");
        }
    }
}
