//! Streaming estimators: batch-identical analyses from a single-pass
//! [`StreamSummary`].
//!
//! `measurement::stream` folds a campaign's observations into `O(window +
//! peers)` state while the run is still going; this module turns that state
//! into the *same result types* the batch pipeline produces —
//! [`ConnectionStats`], [`DirectionStats`], [`IpGrouping`],
//! [`PeerClassification`], [`NetworkSizeEstimate`] and the capture–recapture
//! accumulation rows — **byte-identically** (same bits in every float, same
//! `Debug`/JSON rendering; pinned by `tests/stream_differential.rs`).
//!
//! The one non-obvious piece is `hist_summary`: `simclock::Summary` sorts
//! its samples before summing, so a run-length duration multiset carries
//! *exactly* the information the batch mean/median computation consumes —
//! replaying the sorted multiset through the same fold reproduces every bit
//! of `Summary::from_samples` without ever materialising the per-connection
//! records. Per-peer duration sums need no replay at all: a peer has at most
//! one open connection per observer, so the streaming engine accumulates its
//! durations in the same order as the batch per-peer fold.
//!
//! On top of the cumulative estimates, [`stream_report`] renders the
//! per-window [`TimeSeries`] artefacts (connections, active peers, load
//! gauges per pane) that make week-scale campaign evolution — the paper's
//! headline plots — observable without week-scale memory.

use crate::churn::{ConnectionStats, DirectionStats};
use crate::netsize::{
    ConnectionClass, IpGrouping, NetworkSizeEstimate, PeerClassification,
};
use crate::report;
use crate::vantage::{accumulation_rows, VantageCountRow};
use jsonio::Json;
use measurement::{sliding_windows, StreamSummary, StreamView, StreamingCampaign};
use p2pmodel::{IpAddress, PeerId};
use simclock::{Summary, TimeSeries};
use std::collections::{BTreeMap, HashSet};

/// Reconstructs `Summary::from_samples` bit-for-bit from an ascending
/// run-length multiset of millisecond durations.
///
/// The batch pipeline collects every connection's `duration_secs()` into a
/// `Vec<f64>` and hands it to [`Summary::from_samples`], which **sorts**
/// before folding. Sorting erases the collection order, so the multiset is
/// sufficient: this function performs the identical fold (sequential f64
/// additions in ascending order, the same rank interpolation for the
/// percentiles) over the run-length representation.
pub(crate) fn hist_summary(hist: &[(u64, u64)]) -> Summary {
    let count: u64 = hist.iter().map(|&(_, c)| c).sum();
    if count == 0 {
        return Summary::from_samples(&[]);
    }
    let secs = |ms: u64| ms as f64 / 1000.0;
    let mut sum = 0.0f64;
    for &(ms, c) in hist {
        let value = secs(ms);
        for _ in 0..c {
            sum += value;
        }
    }
    let count = count as usize;
    let value_at = |rank: usize| -> f64 {
        let mut remaining = rank;
        for &(ms, c) in hist {
            if remaining < c as usize {
                return secs(ms);
            }
            remaining -= c as usize;
        }
        secs(hist.last().expect("count > 0 implies entries").0)
    };
    // Exactly `percentile_sorted` over the expanded sorted vector.
    let percentile = |q: f64| -> f64 {
        let q = q.clamp(0.0, 1.0);
        if count == 1 {
            return value_at(0);
        }
        let pos = q * (count - 1) as f64;
        let lower = pos.floor() as usize;
        let upper = pos.ceil() as usize;
        if lower == upper {
            value_at(lower)
        } else {
            let frac = pos - lower as f64;
            value_at(lower) * (1.0 - frac) + value_at(upper) * frac
        }
    };
    Summary {
        count,
        sum,
        mean: sum / count as f64,
        median: percentile(0.5),
        min: secs(hist.first().expect("non-empty").0),
        max: secs(hist.last().expect("non-empty").0),
        p90: percentile(0.9),
        p99: percentile(0.99),
    }
}

/// The Table II connection statistics from a streaming summary —
/// byte-identical to `connection_stats` on the matching batch data set.
pub fn stream_connection_stats(summary: &StreamSummary) -> ConnectionStats {
    let all = hist_summary(&summary.combined_dur_hist());
    let peer_averages: Vec<f64> = summary
        .per_peer
        .values()
        .filter(|agg| agg.connections > 0)
        .map(|agg| agg.duration_sum_secs / agg.connections as f64)
        .collect();
    let peer = Summary::from_samples(&peer_averages);
    ConnectionStats {
        client: summary.observer.clone(),
        all_sum: all.count,
        all_avg_secs: all.mean,
        all_median_secs: all.median,
        peer_sum: peer.count,
        peer_avg_secs: peer.mean,
        peer_median_secs: peer.median,
    }
}

/// The inbound/outbound breakdown from a streaming summary — byte-identical
/// to `direction_stats` on the matching batch data set.
pub fn stream_direction_stats(summary: &StreamSummary) -> DirectionStats {
    let trimmed_fraction = if summary.closes_with_reason == 0 {
        None
    } else {
        Some(summary.trimmed_closes as f64 / summary.closes_with_reason as f64)
    };
    DirectionStats {
        inbound: summary.inbound.count as usize,
        outbound: summary.outbound.count as usize,
        inbound_avg_secs: hist_summary(&summary.inbound.dur_hist).mean,
        outbound_avg_secs: hist_summary(&summary.outbound.dur_hist).mean,
        trimmed_fraction,
    }
}

/// The §V-A IP grouping from a streaming summary — byte-identical to
/// `ip_grouping` on the matching batch data set.
pub fn stream_ip_grouping(summary: &StreamSummary) -> IpGrouping {
    let mut groups: BTreeMap<IpAddress, usize> = BTreeMap::new();
    let mut connected = 0usize;
    for agg in summary.per_peer.values() {
        if let Some(ip) = agg.first_ip {
            connected += 1;
            *groups.entry(ip).or_insert(0) += 1;
        }
    }
    let mut sizes: Vec<usize> = groups.values().copied().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    IpGrouping {
        total_pids: summary.pids,
        connected_pids: connected,
        distinct_ips: summary.distinct_connection_ips,
        groups: groups.len(),
        singleton_groups: sizes.iter().filter(|&&s| s == 1).count(),
        unique_ip_pids: sizes.iter().filter(|&&s| s == 1).count(),
        largest_group: sizes.first().copied().unwrap_or(0),
        top_groups: sizes.into_iter().take(10).collect(),
    }
}

/// The Table IV peer classification from a streaming summary —
/// byte-identical to `classify_peers` on the matching batch data set.
pub fn stream_classify_peers(summary: &StreamSummary) -> PeerClassification {
    let mut per_peer: BTreeMap<PeerId, ConnectionClass> = BTreeMap::new();
    let mut totals: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for (peer, agg) in &summary.per_peer {
        if agg.connections == 0 {
            continue;
        }
        let class = ConnectionClass::classify(agg.max_duration, agg.connections as usize);
        per_peer.insert(*peer, class);
        let entry = totals.entry(class.label()).or_insert((0, 0));
        entry.0 += 1;
        if agg.ever_dht_server {
            entry.1 += 1;
        }
    }
    let rows = ConnectionClass::ALL
        .iter()
        .map(|class| {
            let (total, servers) = totals.get(class.label()).copied().unwrap_or((0, 0));
            (class.label().to_string(), total, servers)
        })
        .collect();
    PeerClassification { rows, per_peer }
}

/// The combined §V network-size estimate from a streaming summary —
/// byte-identical to `network_size_estimate` on the matching batch data set.
pub fn stream_network_size(summary: &StreamSummary) -> NetworkSizeEstimate {
    network_size(StreamView::Finished(summary))
}

/// The one §V network-size estimator, over a live or a finished stream: the
/// PID count, the distinct first IPs (the §V-A IP groups), the peers whose
/// longest connection puts them in the core (§V-B) and the maximum of
/// simultaneous connections. One pass over the peers: it resolves no
/// identify payload, keys nothing by `PeerId` and sorts nothing, so a live
/// query costs a pass over the tenant's peers and open connections.
fn network_size(view: StreamView<'_>) -> NetworkSizeEstimate {
    let mut first_ips: HashSet<IpAddress> = HashSet::new();
    let mut core = 0;
    for (first_ip, max_duration) in view.peers() {
        if let Some(ip) = first_ip {
            first_ips.insert(ip);
        }
        if ConnectionClass::in_core(max_duration) {
            core += 1;
        }
    }
    NetworkSizeEstimate {
        by_pids: view.pids(),
        by_ip_groups: first_ips.len(),
        core_lower_bound: core,
        max_simultaneous_connections: view.max_open_connections(),
    }
}

/// Every cumulative estimate of one stream, bundled.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEstimates {
    /// Table II connection statistics.
    pub connections: ConnectionStats,
    /// Inbound/outbound breakdown.
    pub directions: DirectionStats,
    /// §V-A IP grouping.
    pub ip_grouping: IpGrouping,
    /// Table IV classification.
    pub classification: PeerClassification,
    /// Combined §V network-size estimate.
    pub netsize: NetworkSizeEstimate,
}

/// Computes every cumulative estimate of one stream.
pub(crate) fn stream_estimates(summary: &StreamSummary) -> StreamEstimates {
    StreamEstimates {
        connections: stream_connection_stats(summary),
        directions: stream_direction_stats(summary),
        ip_grouping: stream_ip_grouping(summary),
        classification: stream_classify_peers(summary),
        netsize: stream_network_size(summary),
    }
}

/// The capture–recapture accumulation rows over streaming vantage summaries
/// (one capture occasion per stream, in deployment order) — byte-identical
/// to `analyze_vantages(...).rows` on the matching batch vantage campaign,
/// because both feed the same sorted PID sets through
/// [`accumulation_rows`].
pub fn stream_capture_rows(streams: &[&StreamSummary], truth_pids: usize) -> Vec<VantageCountRow> {
    let sets: Vec<Vec<PeerId>> = streams
        .iter()
        .map(|s| s.per_peer.keys().copied().collect())
        .collect();
    accumulation_rows(&sets, truth_pids)
}

/// The per-window time-series artefacts of one stream, in `simclock`'s
/// [`TimeSeries`] shape (x = window start in seconds).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StreamTimeSeries {
    /// Connection records completed per window.
    pub closed_connections: TimeSeries,
    /// Distinct peers active per window.
    pub active_peers: TimeSeries,
    /// Open connections when each window closed (the Fig. 5 gauge).
    pub open_connections: TimeSeries,
    /// PIDs ever seen when each window closed (the Fig. 6 gauge).
    pub known_pids: TimeSeries,
}

/// Extracts the per-window time series of a stream.
pub(crate) fn stream_time_series(summary: &StreamSummary) -> StreamTimeSeries {
    let mut closed = TimeSeries::new();
    let mut active = TimeSeries::new();
    let mut open = TimeSeries::new();
    let mut known = TimeSeries::new();
    for pane in &summary.panes {
        let t = pane.start.as_secs_f64();
        closed.push(t, pane.closed as f64);
        active.push(t, pane.active_peers as f64);
        open.push(t, pane.open_connections as f64);
        known.push(t, pane.known_pids as f64);
    }
    StreamTimeSeries {
        closed_connections: closed,
        active_peers: active,
        open_connections: open,
        known_pids: known,
    }
}

/// The streaming analysis of one campaign: primary-stream estimates, the
/// window series and (for multi-vantage campaigns) the capture–recapture
/// accumulation rows.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAnalysis {
    /// Churn-scenario label of the campaign.
    pub scenario: String,
    /// Measurement-period label.
    pub period: String,
    /// Population scale.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Window width in seconds.
    pub window_secs: u64,
    /// `(observer, pids, connections)` per deployed stream.
    pub observers: Vec<(String, usize, u64)>,
    /// Cumulative estimates of the primary stream.
    pub estimates: StreamEstimates,
    /// The primary stream's window panes (for the report's series).
    pub windows: Vec<WindowRow>,
    /// Capture–recapture accumulation rows over the vantage streams
    /// (empty for single-vantage campaigns).
    pub capture: Vec<VantageCountRow>,
    /// Ground-truth PID population (the capture estimators' target).
    pub truth_pids: usize,
}

/// One rendered window pane of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Pane index.
    pub index: u64,
    /// Pane start in seconds since measurement start.
    pub start_secs: u64,
    /// Connections opened in the pane.
    pub opened: u64,
    /// Connection records completed in the pane.
    pub closed: u64,
    /// Identify payloads received in the pane.
    pub identifies: u64,
    /// Gossip discoveries in the pane.
    pub discoveries: u64,
    /// Distinct peers active in the pane.
    pub active_peers: usize,
    /// Mean recorded duration (seconds) of the pane's completed records.
    pub mean_duration_secs: f64,
    /// Open connections when the pane closed.
    pub open_connections: usize,
    /// PIDs ever seen when the pane closed.
    pub known_pids: usize,
    /// PIDs connected when the pane closed.
    pub connected_pids: usize,
}

/// Analyses one streaming campaign.
pub(crate) fn analyze_stream(campaign: &StreamingCampaign) -> StreamAnalysis {
    let primary = campaign.primary_stream();
    let vantage_streams = campaign.vantage_streams();
    let capture = if vantage_streams.len() >= 2 {
        stream_capture_rows(&vantage_streams, campaign.truth_pids)
    } else {
        Vec::new()
    };
    let windows = stream_window_rows(primary);
    StreamAnalysis {
        scenario: campaign.scenario.churn.label().to_string(),
        period: campaign.scenario.period.label().to_string(),
        scale: campaign.scenario.scale,
        seed: campaign.scenario.seed,
        window_secs: campaign.window.as_secs(),
        observers: campaign
            .streams
            .iter()
            .map(|s| (s.observer.clone(), s.pids, s.connections))
            .collect(),
        estimates: stream_estimates(primary),
        windows,
        capture,
        truth_pids: campaign.truth_pids,
    }
}

/// Renders the primary stream's pane series in the report's row shape.
pub(crate) fn stream_window_rows(summary: &StreamSummary) -> Vec<WindowRow> {
    summary
        .panes
        .iter()
        .map(|w| WindowRow {
            index: w.index,
            start_secs: w.start.as_secs(),
            opened: w.opened,
            closed: w.closed,
            identifies: w.identifies,
            discoveries: w.discoveries,
            active_peers: w.active_peers,
            mean_duration_secs: w.mean_duration_secs(),
            open_connections: w.open_connections,
            known_pids: w.known_pids,
            connected_pids: w.connected_pids,
        })
        .collect()
}

impl StreamAnalysis {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("scenario", self.scenario.as_str());
        obj.insert("period", self.period.as_str());
        obj.insert("scale", self.scale);
        obj.insert("seed", self.seed);
        obj.insert("window_secs", self.window_secs);
        obj.insert("truth_pids", self.truth_pids);
        obj.insert(
            "observers",
            Json::Array(
                self.observers
                    .iter()
                    .map(|(name, pids, connections)| {
                        let mut o = Json::object();
                        o.insert("observer", name.as_str());
                        o.insert("pids", *pids);
                        o.insert("connections", *connections);
                        o
                    })
                    .collect(),
            ),
        );
        insert_estimates(&mut obj, &self.estimates);
        obj.insert(
            "windows",
            Json::Array(self.windows.iter().map(window_row_json).collect()),
        );
        obj.insert(
            "capture",
            Json::Array(self.capture.iter().map(capture_row_json).collect()),
        );
        obj
    }
}

/// Inserts the five estimate sections (`connection_stats`,
/// `direction_stats`, `ip_grouping`, `classification`, `netsize`) into a
/// JSON object — shared between the batch report and the serve daemon's
/// per-summary answers so both render byte-identically.
fn insert_estimates(obj: &mut Json, e: &StreamEstimates) {
    {
        let mut stats = Json::object();
        stats.insert("client", e.connections.client.as_str());
        stats.insert("all_sum", e.connections.all_sum);
        stats.insert("all_avg_secs", e.connections.all_avg_secs);
        stats.insert("all_median_secs", e.connections.all_median_secs);
        stats.insert("peer_sum", e.connections.peer_sum);
        stats.insert("peer_avg_secs", e.connections.peer_avg_secs);
        stats.insert("peer_median_secs", e.connections.peer_median_secs);
        obj.insert("connection_stats", stats);
        let mut dirs = Json::object();
        dirs.insert("inbound", e.directions.inbound);
        dirs.insert("outbound", e.directions.outbound);
        dirs.insert("inbound_avg_secs", e.directions.inbound_avg_secs);
        dirs.insert("outbound_avg_secs", e.directions.outbound_avg_secs);
        dirs.insert(
            "trimmed_fraction",
            e.directions
                .trimmed_fraction
                .map(Json::Float)
                .unwrap_or(Json::Null),
        );
        obj.insert("direction_stats", dirs);
        let g = &e.ip_grouping;
        let mut grouping = Json::object();
        grouping.insert("total_pids", g.total_pids);
        grouping.insert("connected_pids", g.connected_pids);
        grouping.insert("distinct_ips", g.distinct_ips);
        grouping.insert("groups", g.groups);
        grouping.insert("singleton_groups", g.singleton_groups);
        grouping.insert("largest_group", g.largest_group);
        grouping.insert(
            "top_groups",
            Json::Array(g.top_groups.iter().map(|&v| Json::from(v)).collect()),
        );
        obj.insert("ip_grouping", grouping);
        obj.insert(
            "classification",
            Json::Array(
                e.classification
                    .rows
                    .iter()
                    .map(|(label, total, servers)| {
                        let mut row = Json::object();
                        row.insert("class", label.as_str());
                        row.insert("peers", *total);
                        row.insert("dht_servers", *servers);
                        row
                    })
                    .collect(),
            ),
        );
        obj.insert("netsize", netsize_json(&e.netsize));
    }
}

fn netsize_json(n: &NetworkSizeEstimate) -> Json {
    let mut netsize = Json::object();
    netsize.insert("by_pids", n.by_pids);
    netsize.insert("by_ip_groups", n.by_ip_groups);
    netsize.insert("core_lower_bound", n.core_lower_bound);
    netsize.insert(
        "max_simultaneous_connections",
        n.max_simultaneous_connections,
    );
    netsize
}

fn window_row_json(w: &WindowRow) -> Json {
    let mut row = Json::object();
    row.insert("index", w.index);
    row.insert("start_secs", w.start_secs);
    row.insert("opened", w.opened);
    row.insert("closed", w.closed);
    row.insert("identifies", w.identifies);
    row.insert("discoveries", w.discoveries);
    row.insert("active_peers", w.active_peers);
    row.insert("mean_duration_secs", w.mean_duration_secs);
    row.insert("open_connections", w.open_connections);
    row.insert("known_pids", w.known_pids);
    row.insert("connected_pids", w.connected_pids);
    row
}

/// Renders one summary's cumulative surface as JSON: identity, counters,
/// the five estimate sections and the compact pane series — the serve
/// daemon's `summary` answer, byte-identical to the matching sections of
/// the batch [`StreamReport`] because both go through the same estimate
/// and pane-row encoders.
pub(crate) fn stream_summary_json(summary: &StreamSummary) -> Json {
    let mut obj = Json::object();
    obj.insert("observer", summary.observer.as_str());
    obj.insert("dht_server", summary.dht_server);
    obj.insert("window_secs", summary.window.as_secs());
    obj.insert("events", summary.events);
    obj.insert("pids", summary.pids);
    obj.insert("connections", summary.connections);
    obj.insert("max_open_connections", summary.max_open_connections);
    insert_estimates(&mut obj, &stream_estimates(summary));
    obj.insert(
        "windows",
        Json::Array(
            stream_window_rows(summary)
                .iter()
                .map(window_row_json)
                .collect(),
        ),
    );
    obj
}

fn series_json(series: &TimeSeries) -> Json {
    Json::Array(
        series
            .points()
            .iter()
            .map(|&(t, v)| {
                let mut point = Json::array();
                point.push(t);
                point.push(v);
                point
            })
            .collect(),
    )
}

/// Answers one serve-daemon query against a live or a finished stream. The
/// query's `kind` selects the answer shape:
///
/// * `"summary"` (the default) — `stream_summary_json`;
/// * `"network_size"` — just the §V network-size estimate, read from the
///   view in place: a live tenant is neither cloned nor finalised;
/// * `"sliding_windows"` — the [`measurement::sliding_windows`] merges over
///   the summary's retained full window states, `panes` panes wide
///   (default 2): one row per retained pane with the merged counters —
///   only possible while the monitor retains full `WindowState`s
///   (`retained_panes > 0`);
/// * `"time_series"` — the four per-pane series of
///   `stream_time_series` as `[t, value]` pairs.
///
/// Every kind but `network_size` reads a full [`StreamSummary`], which a
/// live view builds by finishing a clone ([`StreamView::summary`]).
pub fn answer_stream_query(view: StreamView<'_>, query: &Json) -> Result<Json, String> {
    let kind = match query.get("kind") {
        None => "summary",
        Some(k) => k
            .as_str()
            .ok_or_else(|| "query kind must be a string".to_string())?,
    };
    match kind {
        "summary" => Ok(stream_summary_json(&view.summary())),
        "network_size" => Ok(netsize_json(&network_size(view))),
        "sliding_windows" => {
            let panes = match query.get("panes") {
                None => 2,
                Some(p) => usize::try_from(
                    p.as_u64()
                        .ok_or_else(|| "query panes must be an integer".to_string())?,
                )
                .map_err(|_| "query panes out of range".to_string())?,
            };
            let panes = panes.max(1);
            let summary = view.summary();
            let snapshots = &summary.recent_windows;
            let merged = sliding_windows(snapshots, panes);
            let mut rows = Json::array();
            for (i, state) in merged.iter().enumerate() {
                let lo = (i + 1).saturating_sub(panes);
                let mut row = Json::object();
                row.insert("index", snapshots[i].index);
                row.insert("start_secs", snapshots[lo].start.as_secs());
                row.insert("end_secs", snapshots[i].end.as_secs());
                row.insert("opened", state.opened);
                row.insert("closed", state.closed);
                row.insert("identifies", state.identifies);
                row.insert("discoveries", state.discoveries);
                row.insert("active_peers", state.active_peers());
                row.insert("mean_duration_secs", state.mean_duration_secs());
                rows.push(row);
            }
            let mut obj = Json::object();
            obj.insert("panes", panes as u64);
            obj.insert("windows", rows);
            Ok(obj)
        }
        "time_series" => {
            let series = stream_time_series(&view.summary());
            let mut obj = Json::object();
            obj.insert("closed_connections", series_json(&series.closed_connections));
            obj.insert("active_peers", series_json(&series.active_peers));
            obj.insert("open_connections", series_json(&series.open_connections));
            obj.insert("known_pids", series_json(&series.known_pids));
            Ok(obj)
        }
        other => Err(format!("unknown query kind {other:?}")),
    }
}

/// The production [`QueryAnswerer`](measurement::QueryAnswerer) for the
/// serve daemon: [`answer_stream_query`] behind the injection point
/// `measurement::serve` exposes.
pub fn serve_answerer() -> measurement::QueryAnswerer {
    std::sync::Arc::new(answer_stream_query)
}

fn capture_row_json(row: &VantageCountRow) -> Json {
    let mut obj = Json::object();
    obj.insert("vantages", row.vantages);
    obj.insert("union_pids", row.union_pids);
    obj.insert("naive_estimate", row.naive.estimate);
    obj.insert("naive_signed_rel_error", row.naive.signed_rel_error);
    let cr = |v: &Option<crate::vantage::CaptureRecapture>| match v {
        Some(v) => {
            let mut o = Json::object();
            o.insert("estimate", v.estimate);
            o.insert("ci95_low", v.ci95_low);
            o.insert("ci95_high", v.ci95_high);
            o
        }
        None => Json::Null,
    };
    obj.insert("lincoln_petersen", cr(&row.lincoln_petersen));
    obj.insert("chao1", cr(&row.chao1));
    obj
}

/// Per-scenario streaming analyses — the deterministic surface of the
/// `repro stream` subcommand and the golden time-series fixtures.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// One analysis per campaign, in input order.
    pub analyses: Vec<StreamAnalysis>,
}

/// Computes the stream report of a campaign suite (one analysis per
/// campaign, preserving input order — typically one per churn regime from
/// `measurement::run_stream_suite`).
pub fn stream_report(campaigns: &[StreamingCampaign]) -> StreamReport {
    StreamReport {
        analyses: campaigns.iter().map(analyze_stream).collect(),
    }
}

impl StreamReport {
    /// Renders the report as a [`Json`] value. Contains nothing
    /// execution-dependent (no timings, no memory sizes), so the same
    /// campaigns yield the same document at any thread count.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert(
            "analyses",
            Json::Array(self.analyses.iter().map(|a| a.to_json()).collect()),
        );
        obj
    }

    /// Serialises to pretty-printed JSON.
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Renders per-scenario cumulative results as an aligned text table.
    pub fn summary_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .analyses
            .iter()
            .map(|a| {
                vec![
                    a.scenario.clone(),
                    a.period.clone(),
                    report::count(a.estimates.netsize.by_pids),
                    report::count(a.estimates.netsize.by_ip_groups),
                    report::count(a.estimates.netsize.core_lower_bound),
                    report::count(a.estimates.connections.all_sum),
                    report::secs(a.estimates.connections.all_avg_secs),
                    a.windows.len().to_string(),
                ]
            })
            .collect();
        report::text_table(
            &[
                "Scenario", "Period", "PIDs", "IP groups", "Core", "Conns", "Avg [s]", "Windows",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measurement::run_streaming_campaign;
    use population::{MeasurementPeriod, Scenario};
    use simclock::{SimDuration, SimRng};

    #[test]
    fn hist_summary_reproduces_summary_from_samples_bit_for_bit() {
        let mut rng = SimRng::seed_from(0x57_12_EA);
        for round in 0..200 {
            let n = rng.index(40) + usize::from(round % 7 != 0);
            let mut ms: Vec<u64> = (0..n)
                .map(|_| {
                    // Mix of colliding small values and spread-out ones.
                    if rng.chance(0.4) {
                        rng.uniform_u64(0, 20) * 30_000
                    } else {
                        rng.uniform_u64(0, 90_000_000)
                    }
                })
                .collect();
            let samples: Vec<f64> = ms.iter().map(|&m| m as f64 / 1000.0).collect();
            let expected = Summary::from_samples(&samples);
            ms.sort_unstable();
            let mut hist: Vec<(u64, u64)> = Vec::new();
            for value in ms {
                match hist.last_mut() {
                    Some((last, count)) if *last == value => *count += 1,
                    _ => hist.push((value, 1)),
                }
            }
            let actual = hist_summary(&hist);
            assert_eq!(actual, expected, "round {round}: summaries must be bit-identical");
            assert_eq!(
                format!("{actual:?}"),
                format!("{expected:?}"),
                "round {round}: debug renderings must be byte-identical"
            );
        }
    }

    #[test]
    fn hist_summary_of_empty_hist_is_the_zero_summary() {
        assert_eq!(hist_summary(&[]), Summary::from_samples(&[]));
    }

    #[test]
    fn stream_report_surfaces_estimates_windows_and_capture() {
        let campaign = run_streaming_campaign(
            Scenario::new(MeasurementPeriod::P4)
                .with_scale(0.003)
                .with_seed(29)
                .with_vantage_points(3),
            SimDuration::from_hours(12),
        );
        let report = stream_report(std::slice::from_ref(&campaign));
        let analysis = &report.analyses[0];
        assert_eq!(analysis.period, "P4");
        assert_eq!(analysis.observers.len(), 3);
        assert_eq!(analysis.capture.len(), 3, "one capture row per vantage count");
        assert!(analysis.capture[2].chao1.is_some());
        assert!(!analysis.windows.is_empty());
        assert!(analysis.estimates.netsize.by_pids > 0);

        let json = Json::parse(&report.to_json_string_pretty()).unwrap();
        let analyses = json.array_field("analyses").unwrap();
        assert_eq!(analyses.len(), 1);
        assert!(analyses[0].field("connection_stats").is_ok());
        assert!(analyses[0].array_field("windows").unwrap().len() >= 6);
        let table = report.summary_table();
        assert!(table.contains("P4"));

        let series = stream_time_series(campaign.primary_stream());
        assert_eq!(series.closed_connections.len(), analysis.windows.len());
        // known_pids gauge is monotone — the Fig. 6 historic view.
        let mut prev = 0.0;
        for &(_, v) in series.known_pids.points() {
            assert!(v >= prev);
            prev = v;
        }
    }
}
