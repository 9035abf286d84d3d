//! The span recorder.
//!
//! Every layer is timed from outside: a span opens before a call into one of
//! the layer's public functions and closes when the call returns. Nothing
//! inside the program is instrumented, so the engine's internals (event
//! queue, handlers, mailbox seal/sort/drain, sinks) appear only as the
//! counts the engine returns, attached to the span of the call.
//!
//! A span with no parent is a *segment*: a piece of a round whose time
//! counts towards the round's wall time. Segments are recorded even when
//! tracing is off, because the harness derives `wall_s` from them; the
//! layer spans below a segment are recorded only while detail is on.

use std::time::Instant;

/// Name of the segments a round's timed pieces are recorded under.
pub const SEGMENT: &str = "round";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer (or harness phase) the span times.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Counts the call reported (rows, bytes, events, ...).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The value of a count, 0 if the span did not report it.
    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .fold(0.0, |sum, (_, v)| sum + v)
    }
}

/// Handle of an open span; holds nothing when the span is not recorded.
#[must_use = "a span must be closed with Trace::end"]
pub struct SpanId(Option<usize>);

/// Records spans in memory; they are written out when the run ends.
pub struct Trace {
    origin: Instant,
    detail: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty recorder with detail off.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            detail: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording of layer spans (spans below a segment) on or off.
    pub fn set_detail(&mut self, on: bool) {
        self.detail = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span. Segments are always recorded, layer spans only with
    /// detail on.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.detail && !self.open.is_empty() {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span; spans close in the reverse order they opened.
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            let end_ns = self.now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Attaches a count to a span (no-op for an unrecorded span).
    pub fn count(&mut self, id: &SpanId, key: &'static str, value: f64) {
        if let Some(index) = id.0 {
            self.spans[index].counts.push((key, value));
        }
    }

    /// Runs `f` inside a span of its own.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` inside a span of its own that makes up a whole segment.
    pub fn segment<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let segment = self.begin(SEGMENT);
        let out = self.span(name, f);
        self.end(segment);
        out
    }

    /// Every recorded span, parents before their children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends recording and hands the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span in seconds: its duration minus the part of it
/// its child spans cover. Children never overlap (the recorder is
/// single-threaded and spans nest).
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_ns[parent] = self_ns[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    self_ns.into_iter().map(|ns| ns as f64 / 1e9).collect()
}

/// The segment (parentless ancestor) of every span.
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut roots = Vec::with_capacity(spans.len());
    for (index, span) in spans.iter().enumerate() {
        let root = span.parent.map_or(index, |parent| roots[parent]);
        roots.push(root);
    }
    roots
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Summed self time, seconds.
    pub self_secs: f64,
    /// Spans of this name.
    pub calls: u64,
}

/// Sums self time and calls per span name over the selected spans, largest
/// self time first.
pub fn layer_rows(spans: &[Span], selected: impl Fn(usize) -> bool) -> Vec<LayerRow> {
    let self_times = self_secs(spans);
    let mut rows: Vec<LayerRow> = Vec::new();
    for (index, span) in spans.iter().enumerate().filter(|(i, _)| selected(*i)) {
        match rows.iter_mut().find(|row| row.name == span.name) {
            Some(row) => {
                row.self_secs += self_times[index];
                row.calls += 1;
            }
            None => rows.push(LayerRow {
                name: span.name,
                self_secs: self_times[index],
                calls: 1,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_secs.total_cmp(&a.self_secs));
    rows
}

/// Renders the layer table: name, self seconds, share of `wall_secs`, calls.
pub fn layer_table(rows: &[LayerRow], wall_secs: f64) -> String {
    let mut out = format!(
        "{:<40} {:>12} {:>8} {:>9}\n",
        "layer", "self_s", "share", "calls"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<40} {:>12.6} {:>7.2}% {:>9}\n",
            row.name,
            row.self_secs,
            100.0 * row.self_secs / wall_secs.max(f64::MIN_POSITIVE),
            row.calls
        ));
    }
    out
}

/// The spans as one JSON document, for `--spans FILE`.
pub fn spans_json(spans: &[Span]) -> String {
    let mut list = jsonio::Json::array();
    for span in spans {
        let mut obj = jsonio::Json::object();
        obj.insert("name", span.name);
        obj.insert("start_ns", span.start_ns);
        obj.insert("end_ns", span.end_ns);
        obj.insert(
            "parent",
            span.parent.map_or(jsonio::Json::Null, jsonio::Json::from),
        );
        let mut counts = jsonio::Json::object();
        for &(key, value) in &span.counts {
            counts.insert(key, value);
        }
        obj.insert("counts", counts);
        list.push(obj);
    }
    let mut doc = jsonio::Json::object();
    doc.insert("spans", list);
    doc.to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // segment 0..100 ⊃ a 10..60 ⊃ b 20..30, and c 70..90.
        let spans = vec![
            span("segment", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        let ns: Vec<f64> = self_secs(&spans)
            .iter()
            .map(|s| (s * 1e9).round())
            .collect();
        assert_eq!(ns, vec![30.0, 40.0, 10.0, 20.0]);
        assert_eq!(roots(&spans), vec![0, 0, 0, 0]);
        let rows = layer_rows(&spans, |i| i != 0);
        assert_eq!(
            rows.iter().map(|r| r.name).collect::<Vec<_>>(),
            vec!["a", "c", "b"]
        );
        let covered: f64 = rows.iter().map(|r| r.self_secs).sum();
        assert!((covered * 1e9 - 70.0).abs() < 1e-6);
    }

    #[test]
    fn segments_are_recorded_without_detail_and_layers_only_with_it() {
        let mut trace = Trace::new();
        let seg = trace.begin("segment");
        trace.span("layer", || ());
        trace.end(seg);
        assert_eq!(trace.spans().len(), 1);
        trace.set_detail(true);
        let seg = trace.begin("segment");
        let id = trace.begin("layer");
        trace.count(&id, "rows", 3.0);
        trace.end(id);
        trace.end(seg);
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].count("rows"), 3.0);
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[1].end_ns);
    }
}
