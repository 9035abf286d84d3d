//! The streaming single-pass measurement engine.
//!
//! Every estimator in the `analysis` crate consumes a fully materialised
//! [`MeasurementDataset`](crate::MeasurementDataset) — memory grows with the
//! number of *connections*, which the paper shows dwarfs the number of
//! *peers* by orders of magnitude. Week-scale measurement horizons therefore
//! drown the batch pipeline in connection records it only ever folds once.
//!
//! This module is the incremental alternative: a [`StreamingMonitor`]
//! folds an observer's [`ObservationTable`] in one pass, row by row —
//! a finished log through [`StreamingMonitor::ingest_log`], or the serve
//! daemon's batches through [`StreamingMonitor::ingest_table`] — and
//! maintains
//!
//! * per-peer aggregates (connection count, duration sum/max, first
//!   connected IP, DHT-role history) — `O(peers)`,
//! * a run-length duration multiset per direction — the exact information
//!   the Table II means/medians need, at 8 bytes per connection instead of
//!   a ~100-byte [`ConnectionRecord`](crate::ConnectionRecord), or `O(1)`
//!   when log-bucketed ([`DurationMode::LogBucketed`]),
//! * tumbling-window panes of mergeable [`WindowState`] partial aggregates
//!   — `O(window)`; sliding windows are merges of adjacent panes
//!   ([`sliding_windows`]), and the merge is associative **and**
//!   commutative, so panes computed anywhere (threads, shards, vantages)
//!   combine into the same state (pinned by `tests/stream_properties.rs`).
//!
//! The cumulative result ([`StreamSummary`], finalised by
//! [`StreamingMonitor::finish`]) carries exactly what
//! `analysis::stream` needs to reproduce the batch
//! `connection_stats` / `direction_stats` / `ip_grouping` /
//! `classify_peers` / `network_size_estimate` outputs **byte-identically**
//! (`tests/stream_differential.rs`), including the go-ipfs monitor's 30 s
//! close-time quantisation and the end-of-measurement close of still-open
//! connections.

use crate::monitor::{quantise_up, GoIpfsMonitor, HydraMonitor};
use crate::parallel::run_parallel_ordered;
use netsim::archive::{ArchiveError, ByteReader, ByteWriter};
use netsim::obs::close_reason_from_payload;
use netsim::{IdentifyRegistry, ObservationKind, ObservationTable, ObserverLog, SimulationOutput};
use p2pmodel::{CloseReason, ConnectionId, Direction, IpAddress, PeerId};
use population::{ChurnScenario, MeasurementPeriod, Scenario, ScenarioRun};
use simclock::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// One event folded into a [`WindowState`], keyed by registry peer slot.
///
/// The slot keeps the type registry-independent and 12 bytes small; the
/// cumulative engine resolves slots to [`PeerId`]s only once, at
/// [`StreamingMonitor::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowEvent {
    /// A connection to the peer in `slot` was opened.
    Opened {
        /// Registry slot of the remote peer.
        slot: u32,
    },
    /// A connection record completed, with its recorded duration.
    Closed {
        /// Registry slot of the remote peer.
        slot: u32,
        /// Recorded duration in milliseconds (close-quantisation applied).
        dur_ms: u64,
    },
    /// An identify payload arrived from the peer in `slot`.
    Identify {
        /// Registry slot of the remote peer.
        slot: u32,
    },
    /// The peer in `slot` was discovered through routing gossip.
    Discovered {
        /// Registry slot of the remote peer.
        slot: u32,
    },
}

impl WindowEvent {
    /// The registry slot the event concerns.
    pub(crate) fn slot(&self) -> u32 {
        match self {
            WindowEvent::Opened { slot }
            | WindowEvent::Closed { slot, .. }
            | WindowEvent::Identify { slot }
            | WindowEvent::Discovered { slot } => *slot,
        }
    }
}

/// The mergeable partial aggregate of one window pane.
///
/// `WindowState` forms a commutative monoid under [`WindowState::merge`]
/// with [`WindowState::new`] as the identity — the algebra that makes panes
/// combinable into sliding windows. Both laws are fuzzed in
/// `tests/stream_properties.rs`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowState {
    /// Connections opened in the window.
    pub opened: u64,
    /// Connection records completed in the window.
    pub closed: u64,
    /// Identify payloads received in the window.
    pub identifies: u64,
    /// Gossip discoveries in the window.
    pub discoveries: u64,
    /// Sum of recorded durations (ms) of the window's completed records.
    pub dur_ms_sum: u128,
    /// Run-length duration multiset of the window's completed records.
    pub dur_hist: BTreeMap<u64, u64>,
    /// Events per peer slot (a multiset, so eviction is exact).
    pub peer_events: BTreeMap<u32, u64>,
}

impl WindowState {
    /// The empty window (the monoid identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events folded into the window.
    pub fn event_count(&self) -> u64 {
        self.opened + self.closed + self.identifies + self.discoveries
    }

    /// Number of distinct peers active in the window.
    pub fn active_peers(&self) -> usize {
        self.peer_events.len()
    }

    /// Mean recorded duration (seconds) of the window's completed records
    /// (`0` for a window without completed records).
    pub fn mean_duration_secs(&self) -> f64 {
        if self.closed == 0 {
            0.0
        } else {
            self.dur_ms_sum as f64 / self.closed as f64 / 1000.0
        }
    }

    /// Folds one event into the window.
    pub fn apply(&mut self, event: WindowEvent) {
        match event {
            WindowEvent::Opened { .. } => self.opened += 1,
            WindowEvent::Closed { dur_ms, .. } => {
                self.closed += 1;
                self.dur_ms_sum += dur_ms as u128;
                *self.dur_hist.entry(dur_ms).or_insert(0) += 1;
            }
            WindowEvent::Identify { .. } => self.identifies += 1,
            WindowEvent::Discovered { .. } => self.discoveries += 1,
        }
        *self.peer_events.entry(event.slot()).or_insert(0) += 1;
    }

    /// Merges another partial state into this one (commutative and
    /// associative; the identity is [`WindowState::new`]).
    pub fn merge(&mut self, other: &WindowState) {
        self.opened += other.opened;
        self.closed += other.closed;
        self.identifies += other.identifies;
        self.discoveries += other.discoveries;
        self.dur_ms_sum += other.dur_ms_sum;
        for (&dur, &count) in &other.dur_hist {
            *self.dur_hist.entry(dur).or_insert(0) += count;
        }
        for (&slot, &count) in &other.peer_events {
            *self.peer_events.entry(slot).or_insert(0) += count;
        }
    }

    /// Approximate resident bytes of the state (honest self-accounting for
    /// the memory bench; deterministic, content-based).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.dur_hist.len() * (size_of::<u64>() * 2 + 16)
            + self.peer_events.len() * (size_of::<u32>() + size_of::<u64>() + 16)
    }
}

/// One finalised window pane in compact form: the counters of its partial
/// aggregate plus the cumulative gauges sampled when the pane closed.
///
/// The engine always keeps the **complete** compact series (~130 bytes per
/// pane — the time-series product itself), while the full mergeable
/// [`WindowState`]s are retained only for the most recent
/// [`StreamConfig::retained_panes`] panes: that bound is what keeps the
/// engine's memory `O(window)` instead of `O(campaign)` on week-scale
/// horizons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaneSummary {
    /// Zero-based pane index.
    pub index: u64,
    /// Inclusive pane start.
    pub start: SimTime,
    /// Exclusive pane end (the final pane ends at the measurement end).
    pub end: SimTime,
    /// Connections opened in the pane.
    pub opened: u64,
    /// Connection records completed in the pane.
    pub closed: u64,
    /// Identify payloads received in the pane.
    pub identifies: u64,
    /// Gossip discoveries in the pane.
    pub discoveries: u64,
    /// Sum of recorded durations (ms) of the pane's completed records.
    pub dur_ms_sum: u128,
    /// Distinct peers active in the pane.
    pub active_peers: usize,
    /// Open connections when the pane closed.
    pub open_connections: usize,
    /// Distinct PIDs ever seen when the pane closed (historic view).
    pub known_pids: usize,
    /// Distinct PIDs connected when the pane closed.
    pub connected_pids: usize,
}

impl PaneSummary {
    /// Mean recorded duration (seconds) of the pane's completed records.
    pub fn mean_duration_secs(&self) -> f64 {
        if self.closed == 0 {
            0.0
        } else {
            self.dur_ms_sum as f64 / self.closed as f64 / 1000.0
        }
    }
}

/// One finalised window pane with its full mergeable aggregate — the form
/// sliding-window merges consume. Only the most recent
/// [`StreamConfig::retained_panes`] panes are kept in this form.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Zero-based pane index.
    pub index: u64,
    /// Inclusive pane start.
    pub start: SimTime,
    /// Exclusive pane end (the final pane ends at the measurement end).
    pub end: SimTime,
    /// The pane's mergeable partial aggregate.
    pub state: WindowState,
    /// Open connections when the pane closed.
    pub open_connections: usize,
    /// Distinct PIDs ever seen when the pane closed (historic view).
    pub known_pids: usize,
    /// Distinct PIDs connected when the pane closed.
    pub connected_pids: usize,
}

impl WindowSnapshot {
    /// Approximate resident bytes of the retained pane (see
    /// [`WindowState::approx_bytes`]).
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.state.approx_bytes()
    }

    /// The pane's compact form.
    pub fn summary(&self) -> PaneSummary {
        PaneSummary {
            index: self.index,
            start: self.start,
            end: self.end,
            opened: self.state.opened,
            closed: self.state.closed,
            identifies: self.state.identifies,
            discoveries: self.state.discoveries,
            dur_ms_sum: self.state.dur_ms_sum,
            active_peers: self.state.active_peers(),
            open_connections: self.open_connections,
            known_pids: self.known_pids,
            connected_pids: self.connected_pids,
        }
    }
}

/// Sliding windows of `panes` consecutive panes: element `i` is the merge of
/// panes `i - panes + 1 ..= i` (fewer at the start of the series). One merge
/// per step, no event replay — the pay-off of the [`WindowState`] algebra.
pub fn sliding_windows(snapshots: &[WindowSnapshot], panes: usize) -> Vec<WindowState> {
    let panes = panes.max(1);
    snapshots
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let lo = (i + 1).saturating_sub(panes);
            let mut merged = WindowState::new();
            for snapshot in &snapshots[lo..=i] {
                merged.merge(&snapshot.state);
            }
            merged
        })
        .collect()
}

/// How the cumulative engine stores the connection-duration multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurationMode {
    /// Every recorded duration kept exactly (8 bytes each) — required for
    /// byte-identical equality with the batch estimators.
    Exact,
    /// Durations folded into ~5 %-wide geometric buckets: `O(1)` memory at
    /// any horizon, means/medians approximate to the bucket width. The
    /// long-horizon bench runs this mode to show truly flat memory.
    LogBucketed,
}

/// Geometric bucket edges for [`DurationMode::LogBucketed`]: 0, 1, then
/// ×21/20 (integer arithmetic, so identical on every platform).
fn log_bucket_edges() -> Vec<u64> {
    let mut edges = vec![0u64, 1];
    loop {
        let last = *edges.last().expect("seeded");
        let Some(next) = last.checked_mul(21).map(|v| v / 20) else {
            break;
        };
        let next = next.max(last + 1);
        edges.push(next);
        if next > 100 * 365 * 86_400_000 {
            break; // a century of milliseconds is horizon enough
        }
    }
    edges
}

/// The cumulative duration multiset, exact or log-bucketed.
#[derive(Debug, Clone, PartialEq)]
enum DurationStore {
    Exact(Vec<u64>),
    LogBucketed {
        edges: Arc<Vec<u64>>,
        counts: BTreeMap<u32, u64>,
    },
}

impl DurationStore {
    fn new(mode: DurationMode) -> Self {
        match mode {
            DurationMode::Exact => DurationStore::Exact(Vec::new()),
            DurationMode::LogBucketed => DurationStore::LogBucketed {
                edges: Arc::new(log_bucket_edges()),
                counts: BTreeMap::new(),
            },
        }
    }

    fn push(&mut self, dur_ms: u64) {
        match self {
            DurationStore::Exact(values) => values.push(dur_ms),
            DurationStore::LogBucketed { edges, counts } => {
                let bucket = edges.partition_point(|&e| e <= dur_ms).saturating_sub(1);
                *counts.entry(bucket as u32).or_insert(0) += 1;
            }
        }
    }

    /// The multiset as an ascending run-length histogram. Exact stores sort
    /// once here (the only superlinear step, at finish time); bucketed
    /// stores report each bucket's lower edge.
    fn into_hist(self) -> Vec<(u64, u64)> {
        match self {
            DurationStore::Exact(mut values) => {
                values.sort_unstable();
                let mut hist: Vec<(u64, u64)> = Vec::new();
                for value in values {
                    match hist.last_mut() {
                        Some((last, count)) if *last == value => *count += 1,
                        _ => hist.push((value, 1)),
                    }
                }
                hist
            }
            DurationStore::LogBucketed { edges, counts } => counts
                .into_iter()
                .map(|(bucket, count)| (edges[bucket as usize], count))
                .collect(),
        }
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            DurationStore::Exact(values) => values.len() * size_of::<u64>(),
            DurationStore::LogBucketed { counts, .. } => {
                counts.len() * (size_of::<u32>() + size_of::<u64>() + 16)
            }
        }
    }

    /// Serialises the store contents (the mode lives in the config, so only
    /// the values travel). Exact stores keep insertion order — the restored
    /// store must be indistinguishable from the uninterrupted one.
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            DurationStore::Exact(values) => {
                w.put_uvarint(values.len() as u64);
                for &v in values {
                    w.put_uvarint(v);
                }
            }
            DurationStore::LogBucketed { counts, .. } => {
                w.put_uvarint(counts.len() as u64);
                for (&bucket, &count) in counts {
                    w.put_uvarint(bucket as u64);
                    w.put_uvarint(count);
                }
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>, mode: DurationMode) -> Result<Self, ArchiveError> {
        match mode {
            DurationMode::Exact => {
                let count = r.len("duration store count")?;
                let mut values = Vec::with_capacity(r.capacity_for(count, VARINT_MIN_LEN));
                for _ in 0..count {
                    values.push(r.uvarint("duration value")?);
                }
                Ok(DurationStore::Exact(values))
            }
            DurationMode::LogBucketed => {
                let count = r.len("duration bucket count")?;
                let mut counts = BTreeMap::new();
                for _ in 0..count {
                    let bucket = r.uvarint("duration bucket")?;
                    let bucket = u32::try_from(bucket).map_err(|_| ArchiveError::Malformed {
                        context: format!("duration bucket {bucket} exceeds u32"),
                    })?;
                    counts.insert(bucket, r.uvarint("duration bucket value")?);
                }
                Ok(DurationStore::LogBucketed {
                    edges: Arc::new(log_bucket_edges()),
                    counts,
                })
            }
        }
    }
}

/// Cumulative per-direction aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionAgg {
    /// Completed connection records in this direction.
    pub count: u64,
    /// Ascending run-length histogram of their recorded durations (ms).
    pub dur_hist: Vec<(u64, u64)>,
}

/// Cumulative per-peer aggregate — everything the §V estimators need about
/// one PID, in ~64 bytes instead of its full record + connection list.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerStreamAgg {
    /// Completed connection records of this peer.
    pub connections: u64,
    /// Sum of recorded durations in seconds, accumulated in record order —
    /// the same f64 addition order as the batch per-peer fold, which is what
    /// keeps the Table II "Peer" statistics byte-identical.
    pub duration_sum_secs: f64,
    /// Longest recorded duration.
    pub max_duration: SimDuration,
    /// IP address of the peer's first observed connection, if any.
    pub first_ip: Option<IpAddress>,
    /// Whether the peer ever announced the DHT-Server role.
    pub ever_dht_server: bool,
}

/// The finalised cumulative result of one streaming pass.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Observer name (`"go-ipfs"`, `"hydra-h0"`, `"vantage-v1"`, …).
    pub observer: String,
    /// Whether the observer ran as a DHT-Server.
    pub dht_server: bool,
    /// Start of the measurement.
    pub started_at: SimTime,
    /// End of the measurement.
    pub ended_at: SimTime,
    /// Width of the tumbling window panes.
    pub window: SimDuration,
    /// Duration-store mode of the pass.
    pub duration_mode: DurationMode,
    /// Total events ingested.
    pub events: u64,
    /// Distinct PIDs ever observed (the historic view's `pid_count`).
    pub pids: usize,
    /// Completed connection records (including end-of-measurement closes).
    pub connections: u64,
    /// Inbound aggregate.
    pub inbound: DirectionAgg,
    /// Outbound aggregate.
    pub outbound: DirectionAgg,
    /// Closes that carried a ground-truth reason (event closes).
    pub closes_with_reason: u64,
    /// Closes whose reason was local or remote trimming.
    pub trimmed_closes: u64,
    /// Ascending run-length histogram of the *right-censored* durations:
    /// connections cut off by the measurement horizon rather than ended by
    /// the network — [`CloseReason::MeasurementEnd`] closes (the engine
    /// shuts every open connection at the horizon) plus any connection
    /// still open when the monitor finished, recorded at
    /// `ended_at − opened_at`. A sub-multiset of [`combined_dur_hist`]
    /// (the censored store runs in the same [`DurationMode`] as the
    /// direction stores), so subtracting it yields the uncensored session
    /// durations — the split `analysis::survival` needs for Kaplan–Meier
    /// estimation.
    ///
    /// [`combined_dur_hist`]: StreamSummary::combined_dur_hist
    pub censored_dur_hist: Vec<(u64, u64)>,
    /// Per-peer aggregates, keyed by PID.
    pub per_peer: BTreeMap<PeerId, PeerStreamAgg>,
    /// Distinct IP addresses across all connections.
    pub distinct_connection_ips: usize,
    /// Maximum simultaneously open connections at any snapshot tick.
    pub max_open_connections: usize,
    /// The complete compact pane series, in time order.
    pub panes: Vec<PaneSummary>,
    /// The most recent [`StreamConfig::retained_panes`] panes with their
    /// full mergeable states, in time order.
    pub recent_windows: Vec<WindowSnapshot>,
    /// High-water mark of the engine's resident state bytes over the run
    /// (honest self-accounting; the memory the batch pipeline holds instead
    /// is the full data set — see
    /// `crate::MeasurementDataset::approx_bytes`).
    pub peak_state_bytes: usize,
}

impl StreamSummary {
    /// The combined (inbound + outbound) ascending duration histogram.
    pub fn combined_dur_hist(&self) -> Vec<(u64, u64)> {
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(
            self.inbound.dur_hist.len() + self.outbound.dur_hist.len(),
        );
        let (mut i, mut j) = (0, 0);
        while i < self.inbound.dur_hist.len() || j < self.outbound.dur_hist.len() {
            let next = match (self.inbound.dur_hist.get(i), self.outbound.dur_hist.get(j)) {
                (Some(&(a, ca)), Some(&(b, cb))) => {
                    if a < b {
                        i += 1;
                        (a, ca)
                    } else if b < a {
                        j += 1;
                        (b, cb)
                    } else {
                        i += 1;
                        j += 1;
                        (a, ca + cb)
                    }
                }
                (Some(&(a, ca)), None) => {
                    i += 1;
                    (a, ca)
                }
                (None, Some(&(b, cb))) => {
                    j += 1;
                    (b, cb)
                }
                (None, None) => unreachable!("loop condition"),
            };
            merged.push(next);
        }
        merged
    }
}

/// A borrowed view of one stream, live or finished: what the serve daemon's
/// query answerer reads.
///
/// A live view reads a monitor mid-stream through the registry its ids
/// resolve in, and reports what [`StreamingMonitor::finish`] would: the
/// connections still open count as closed at the measurement end. The PID
/// count, each peer's first IP and longest duration and the maximum-open
/// gauge come straight from the monitor, without cloning or finalising it.
/// Only [`Self::summary`] finalises, on a clone.
#[derive(Debug, Clone, Copy)]
pub enum StreamView<'a> {
    /// A monitor still ingesting, and the registry its ids resolve in.
    Live(&'a StreamingMonitor, &'a IdentifyRegistry),
    /// A finished pass.
    Finished(&'a StreamSummary),
}

impl<'a> StreamView<'a> {
    /// Distinct PIDs ever observed ([`StreamSummary::pids`]).
    pub fn pids(self) -> usize {
        match self {
            StreamView::Live(monitor, _) => monitor.pids(),
            StreamView::Finished(summary) => summary.pids,
        }
    }

    /// Each peer's first connected IP and longest recorded duration
    /// ([`PeerStreamAgg::first_ip`], [`PeerStreamAgg::max_duration`]), in
    /// no particular order.
    pub fn peers(self) -> Box<dyn Iterator<Item = (Option<IpAddress>, SimDuration)> + 'a> {
        match self {
            StreamView::Live(monitor, registry) => {
                Box::new(monitor.peer_aggs().map(move |(_, agg, records)| {
                    (
                        agg.first_addr_id.map(|id| registry.addr(id).ip()),
                        SimDuration::from_millis(records.max_duration_ms),
                    )
                }))
            }
            StreamView::Finished(summary) => Box::new(
                summary
                    .per_peer
                    .values()
                    .map(|agg| (agg.first_ip, agg.max_duration)),
            ),
        }
    }

    /// Maximum simultaneously open connections at any snapshot tick
    /// ([`StreamSummary::max_open_connections`]).
    pub fn max_open_connections(self) -> usize {
        match self {
            StreamView::Live(monitor, _) => monitor.max_open_connections(),
            StreamView::Finished(summary) => summary.max_open_connections,
        }
    }

    /// The finished summary: borrowed from a finished view, or a clone of
    /// the live monitor finished against its registry.
    pub fn summary(self) -> Cow<'a, StreamSummary> {
        match self {
            StreamView::Live(monitor, registry) => Cow::Owned(monitor.clone().finish(registry)),
            StreamView::Finished(summary) => Cow::Borrowed(summary),
        }
    }
}

/// Static configuration of one streaming pass, mirroring the corresponding
/// batch monitor's observation model.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Observer name the summary reports under.
    pub observer: String,
    /// Whether the observer runs as a DHT-Server.
    pub dht_server: bool,
    /// Start of the measurement.
    pub started_at: SimTime,
    /// End of the measurement (must be known up front: still-open
    /// connections are recorded as closed at this instant, exactly like the
    /// batch monitors do).
    pub ended_at: SimTime,
    /// Close-time quantisation (`Some(30 s)` for the polling go-ipfs client,
    /// `None` for hydra's exact event logging).
    pub close_quantisation: Option<SimDuration>,
    /// Cadence of the load-gauge ticks (30 s go-ipfs, 1 min hydra).
    pub snapshot_interval: SimDuration,
    /// Width of the tumbling window panes.
    pub window: SimDuration,
    /// Duration-store mode.
    pub duration_mode: DurationMode,
    /// How many of the most recent panes keep their full mergeable
    /// [`WindowState`] (for sliding-window merges). The complete compact
    /// [`PaneSummary`] series is always kept; bounding the full states is
    /// what makes long-horizon memory `O(window)`. Defaults to
    /// `usize::MAX` (retain everything) — the differential, property and
    /// golden suites read the full series.
    pub retained_panes: usize,
}

impl StreamConfig {
    /// The go-ipfs observation model (§III-A): 30 s refresh, close times
    /// rounded up to the next tick.
    pub fn go_ipfs(
        observer: impl Into<String>,
        dht_server: bool,
        started_at: SimTime,
        ended_at: SimTime,
        window: SimDuration,
    ) -> Self {
        let monitor = GoIpfsMonitor::new();
        StreamConfig {
            observer: observer.into(),
            dht_server,
            started_at,
            ended_at,
            close_quantisation: Some(monitor.snapshot_interval),
            snapshot_interval: monitor.snapshot_interval,
            window,
            duration_mode: DurationMode::Exact,
            retained_panes: usize::MAX,
        }
    }

    /// The hydra observation model (§III-B): exact close times, 1 min peer
    /// refresh.
    pub fn hydra(
        observer: impl Into<String>,
        started_at: SimTime,
        ended_at: SimTime,
        window: SimDuration,
    ) -> Self {
        let monitor = HydraMonitor::new();
        StreamConfig {
            observer: observer.into(),
            dht_server: true,
            started_at,
            ended_at,
            close_quantisation: None,
            snapshot_interval: monitor.update_interval,
            window,
            duration_mode: DurationMode::Exact,
            retained_panes: usize::MAX,
        }
    }

    /// Returns a copy with the given duration-store mode.
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_duration_mode(mut self, mode: DurationMode) -> Self {
        self.duration_mode = mode;
        self
    }

    /// Returns a copy retaining only the `panes` most recent full window
    /// states (the compact pane series always stays complete). `0` keeps no
    /// full states at all — the summary's `recent_windows` comes back empty
    /// and only the compact [`PaneSummary`] series survives.
    #[must_use = "with_* builders return a new value instead of mutating in place"]
    pub fn with_retained_panes(mut self, panes: usize) -> Self {
        self.retained_panes = panes;
        self
    }

    /// The stream configuration matching one observer of a built scenario:
    /// hydra heads use the hydra model, everything else (the go-ipfs primary
    /// and its `vantage-v*` clones) the go-ipfs model.
    pub fn for_observer(
        name: &str,
        dht_server: bool,
        duration: SimDuration,
        window: SimDuration,
    ) -> Self {
        if name.starts_with("hydra-h") {
            StreamConfig::hydra(name, SimTime::ZERO, SimTime::ZERO + duration, window)
        } else {
            StreamConfig::go_ipfs(name, dht_server, SimTime::ZERO, SimTime::ZERO + duration, window)
        }
    }
}

/// Most tumbling-pane boundaries a decoded [`StreamConfig`] may span: 170
/// days of the serve bench's 15-minute panes (P14d at 1 h windows spans
/// 336). A closed pane keeps its compact summary and, by default, its full
/// state: about 4 MB of empty panes at the cap.
const MAX_PANES: u64 = 1 << 14;

/// Most load-gauge ticks a decoded [`StreamConfig`] may span: more than 14
/// days of 1-second ticks (14 days at go-ipfs' 30 s span 40,320).
///
/// A pane close and a tick each cost O(1), so a config at both caps folds
/// one row at its end, which crosses every pane and tick, in 4–8 ms
/// whatever the tenant holds (release build, 2-vCPU x86-64 VM).
const MAX_TICKS: u64 = 1 << 21;

impl StreamConfig {
    /// Checks that a monitor over this config folds any row in
    /// `[started_at, ended_at]` in bounded time: the measurement does not
    /// end before it starts, no pane, gauge tick or quantised close up to
    /// `ended_at` overflows, and the measurement spans at most
    /// [`MAX_PANES`] panes and [`MAX_TICKS`] ticks. Both decoders of
    /// untrusted configs (the serve `hello` op and a checkpoint's monitor
    /// state) run it.
    pub(crate) fn check_bounds(&self) -> Result<(), String> {
        if self.ended_at < self.started_at {
            return Err(format!(
                "ended_at {} ms precedes started_at {} ms",
                self.ended_at.as_millis(),
                self.started_at.as_millis()
            ));
        }
        let span = (self.ended_at - self.started_at).as_millis();
        let quantisation = self.close_quantisation.unwrap_or(SimDuration::ZERO);
        for (name, step, cap) in [
            ("window", self.window, MAX_PANES),
            ("snapshot_interval", self.snapshot_interval, MAX_TICKS),
            ("close_quantisation", quantisation, u64::MAX),
        ] {
            let step = step.as_millis();
            if self.ended_at.as_millis().checked_add(step).is_none() {
                return Err(format!("{name} of {step} ms overflows past ended_at"));
            }
            if step > 0 && span / step > cap {
                return Err(format!(
                    "{name} of {step} ms splits the {span} ms measurement into more than {cap} steps"
                ));
            }
        }
        Ok(())
    }
}

/// A peer's completed connection records, folded in completion order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RecordFold {
    connections: u64,
    duration_sum_secs: f64,
    max_duration_ms: u64,
}

impl RecordFold {
    /// Folds in one record. The f64 sum depends on the order of the calls,
    /// which is why `finish` closes open connections in connection-id order.
    fn push(&mut self, recorded: SimDuration) {
        self.connections += 1;
        self.duration_sum_secs += recorded.as_secs_f64();
        self.max_duration_ms = self.max_duration_ms.max(recorded.as_millis());
    }
}

/// Per-slot cumulative state (id-level; resolved to [`PeerStreamAgg`] at
/// finish).
#[derive(Debug, Clone, Default, PartialEq)]
struct SlotAgg {
    records: RecordFold,
    first_addr_id: Option<u32>,
    identify_ids: Vec<u32>,
}

/// One open connection awaiting its close.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenConn {
    slot: u32,
    direction: Direction,
    opened_at: SimTime,
}

/// Version tag leading every [`StreamingMonitor::state_snapshot`]; bumped on
/// incompatible layout changes so an old daemon never misparses a new
/// checkpoint.
const STATE_SNAPSHOT_VERSION: u8 = 1;

// Minimum encoded lengths of the elements of a state snapshot, at one byte
// per varint. `StreamingMonitor::restore` reserves room for no more
// elements than the bytes remaining can hold at these lengths.
/// A slot aggregate: four varints, an f64 and an option tag.
const SLOT_AGG_MIN_LEN: usize = 13;
/// An open connection: three varints and a direction byte.
const OPEN_CONN_MIN_LEN: usize = 4;
/// A connected-slot refcount entry: two varints.
const CONNECTED_MIN_LEN: usize = 2;
/// A pane summary: eleven varints and a u128.
const PANE_SUMMARY_MIN_LEN: usize = 27;
/// A retained window: six varints and a window state (six varints and a
/// u128).
const WINDOW_SNAPSHOT_MIN_LEN: usize = 28;
/// An address id, an identify id or a duration value: one varint.
const VARINT_MIN_LEN: usize = 1;

fn put_opt_u32(w: &mut ByteWriter, value: Option<u32>) {
    match value {
        Some(v) => {
            w.put_u8(1);
            w.put_uvarint(v as u64);
        }
        None => w.put_u8(0),
    }
}

fn read_opt_u32(
    r: &mut ByteReader<'_>,
    context: &'static str,
) -> Result<Option<u32>, ArchiveError> {
    match r.u8(context)? {
        0 => Ok(None),
        1 => Ok(Some(read_u32(r, context)?)),
        tag => Err(ArchiveError::Malformed {
            context: format!("invalid option tag {tag} in {context}"),
        }),
    }
}

fn read_u32(r: &mut ByteReader<'_>, context: &'static str) -> Result<u32, ArchiveError> {
    let v = r.uvarint(context)?;
    u32::try_from(v).map_err(|_| ArchiveError::Malformed {
        context: format!("{context} value {v} exceeds u32"),
    })
}

fn encode_stream_config(w: &mut ByteWriter, config: &StreamConfig) {
    w.put_str(&config.observer);
    w.put_u8(u8::from(config.dht_server));
    w.put_uvarint(config.started_at.as_millis());
    w.put_uvarint(config.ended_at.as_millis());
    match config.close_quantisation {
        Some(step) => {
            w.put_u8(1);
            w.put_uvarint(step.as_millis());
        }
        None => w.put_u8(0),
    }
    w.put_uvarint(config.snapshot_interval.as_millis());
    w.put_uvarint(config.window.as_millis());
    w.put_u8(match config.duration_mode {
        DurationMode::Exact => 0,
        DurationMode::LogBucketed => 1,
    });
    w.put_uvarint(config.retained_panes as u64);
}

fn decode_stream_config(r: &mut ByteReader<'_>) -> Result<StreamConfig, ArchiveError> {
    let observer = r.str("config observer")?.to_string();
    let dht_server = match r.u8("config role")? {
        0 => false,
        1 => true,
        tag => {
            return Err(ArchiveError::Malformed {
                context: format!("invalid bool byte {tag} in config role"),
            })
        }
    };
    let started_at = SimTime::from_millis(r.uvarint("config start")?);
    let ended_at = SimTime::from_millis(r.uvarint("config end")?);
    let close_quantisation = match r.u8("config quantisation tag")? {
        0 => None,
        1 => Some(SimDuration::from_millis(r.uvarint("config quantisation")?)),
        tag => {
            return Err(ArchiveError::Malformed {
                context: format!("invalid option tag {tag} in config quantisation"),
            })
        }
    };
    let snapshot_interval = SimDuration::from_millis(r.uvarint("config snapshot interval")?);
    let window = SimDuration::from_millis(r.uvarint("config window")?);
    let duration_mode = match r.u8("config duration mode")? {
        0 => DurationMode::Exact,
        1 => DurationMode::LogBucketed,
        tag => {
            return Err(ArchiveError::Malformed {
                context: format!("unknown duration mode tag {tag}"),
            })
        }
    };
    let retained_panes = r.uvarint("config retained panes")? as usize;
    let config = StreamConfig {
        observer,
        dht_server,
        started_at,
        ended_at,
        close_quantisation,
        snapshot_interval,
        window,
        duration_mode,
        retained_panes,
    };
    config
        .check_bounds()
        .map_err(|fault| ArchiveError::Malformed {
            context: format!("stream config: {fault}"),
        })?;
    Ok(config)
}

fn encode_window_state(w: &mut ByteWriter, state: &WindowState) {
    w.put_uvarint(state.opened);
    w.put_uvarint(state.closed);
    w.put_uvarint(state.identifies);
    w.put_uvarint(state.discoveries);
    w.put_u128(state.dur_ms_sum);
    w.put_uvarint(state.dur_hist.len() as u64);
    for (&dur, &count) in &state.dur_hist {
        w.put_uvarint(dur);
        w.put_uvarint(count);
    }
    w.put_uvarint(state.peer_events.len() as u64);
    for (&slot, &count) in &state.peer_events {
        w.put_uvarint(slot as u64);
        w.put_uvarint(count);
    }
}

fn decode_window_state(r: &mut ByteReader<'_>) -> Result<WindowState, ArchiveError> {
    let opened = r.uvarint("window opened")?;
    let closed = r.uvarint("window closed")?;
    let identifies = r.uvarint("window identifies")?;
    let discoveries = r.uvarint("window discoveries")?;
    let dur_ms_sum = r.u128("window duration sum")?;
    let count = r.len("window duration hist count")?;
    let mut dur_hist = BTreeMap::new();
    for _ in 0..count {
        let dur = r.uvarint("window duration")?;
        dur_hist.insert(dur, r.uvarint("window duration count")?);
    }
    let count = r.len("window peer event count")?;
    let mut peer_events = BTreeMap::new();
    for _ in 0..count {
        let slot = read_u32(r, "window peer slot")?;
        peer_events.insert(slot, r.uvarint("window peer event count")?);
    }
    Ok(WindowState {
        opened,
        closed,
        identifies,
        discoveries,
        dur_ms_sum,
        dur_hist,
        peer_events,
    })
}

fn encode_pane_summary(w: &mut ByteWriter, pane: &PaneSummary) {
    w.put_uvarint(pane.index);
    w.put_uvarint(pane.start.as_millis());
    w.put_uvarint(pane.end.as_millis());
    w.put_uvarint(pane.opened);
    w.put_uvarint(pane.closed);
    w.put_uvarint(pane.identifies);
    w.put_uvarint(pane.discoveries);
    w.put_u128(pane.dur_ms_sum);
    w.put_uvarint(pane.active_peers as u64);
    w.put_uvarint(pane.open_connections as u64);
    w.put_uvarint(pane.known_pids as u64);
    w.put_uvarint(pane.connected_pids as u64);
}

fn decode_pane_summary(r: &mut ByteReader<'_>) -> Result<PaneSummary, ArchiveError> {
    Ok(PaneSummary {
        index: r.uvarint("pane index")?,
        start: SimTime::from_millis(r.uvarint("pane start")?),
        end: SimTime::from_millis(r.uvarint("pane end")?),
        opened: r.uvarint("pane opened")?,
        closed: r.uvarint("pane closed")?,
        identifies: r.uvarint("pane identifies")?,
        discoveries: r.uvarint("pane discoveries")?,
        dur_ms_sum: r.u128("pane duration sum")?,
        active_peers: r.uvarint("pane active peers")? as usize,
        open_connections: r.uvarint("pane open connections")? as usize,
        known_pids: r.uvarint("pane known pids")? as usize,
        connected_pids: r.uvarint("pane connected pids")? as usize,
    })
}

fn encode_window_snapshot(w: &mut ByteWriter, snapshot: &WindowSnapshot) {
    w.put_uvarint(snapshot.index);
    w.put_uvarint(snapshot.start.as_millis());
    w.put_uvarint(snapshot.end.as_millis());
    encode_window_state(w, &snapshot.state);
    w.put_uvarint(snapshot.open_connections as u64);
    w.put_uvarint(snapshot.known_pids as u64);
    w.put_uvarint(snapshot.connected_pids as u64);
}

fn decode_window_snapshot(r: &mut ByteReader<'_>) -> Result<WindowSnapshot, ArchiveError> {
    Ok(WindowSnapshot {
        index: r.uvarint("snapshot index")?,
        start: SimTime::from_millis(r.uvarint("snapshot start")?),
        end: SimTime::from_millis(r.uvarint("snapshot end")?),
        state: decode_window_state(r)?,
        open_connections: r.uvarint("snapshot open connections")? as usize,
        known_pids: r.uvarint("snapshot known pids")? as usize,
        connected_pids: r.uvarint("snapshot connected pids")? as usize,
    })
}

/// The incremental single-pass estimator engine.
///
/// Feed it an observer's rows with [`Self::ingest_table`] (in batches, as
/// the serve daemon does) or a finished log with [`Self::ingest_log`]; then
/// call [`Self::finish`] with the run's registry to obtain the
/// [`StreamSummary`]. Rows must arrive in chronological order, as a
/// time-sorted [`ObservationTable`] holds them.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingMonitor {
    config: StreamConfig,
    slots: HashMap<u32, SlotAgg>,
    open: HashMap<u64, OpenConn>,
    conn_addr_ids: HashSet<u32>,
    inbound_count: u64,
    outbound_count: u64,
    inbound_durs: DurationStore,
    outbound_durs: DurationStore,
    censored_durs: DurationStore,
    closes_with_reason: u64,
    trimmed_closes: u64,
    events: u64,
    // Load-gauge machinery (mirrors the batch monitors' snapshot loop).
    next_snapshot: SimTime,
    open_count: usize,
    connected: HashMap<u32, u32>,
    max_open: usize,
    // Window machinery.
    pane_start: SimTime,
    pane_index: u64,
    pane: WindowState,
    panes: Vec<PaneSummary>,
    recent_windows: std::collections::VecDeque<WindowSnapshot>,
    peak_state_bytes: usize,
    // The identify ids held over all slots and the `approx_bytes` of the
    // retained panes: running sums of the two parts of `approx_state_bytes`
    // that would otherwise be a pass over every slot and retained pane at
    // each pane close. Derived state: `restore` recomputes them.
    identify_id_count: usize,
    retained_bytes: usize,
}

impl StreamingMonitor {
    /// Creates a monitor for one observer.
    pub fn new(config: StreamConfig) -> Self {
        let next_snapshot = config.started_at + config.snapshot_interval;
        let pane_start = config.started_at;
        let duration_mode = config.duration_mode;
        StreamingMonitor {
            config,
            slots: HashMap::new(),
            open: HashMap::new(),
            conn_addr_ids: HashSet::new(),
            inbound_count: 0,
            outbound_count: 0,
            inbound_durs: DurationStore::new(duration_mode),
            outbound_durs: DurationStore::new(duration_mode),
            censored_durs: DurationStore::new(duration_mode),
            closes_with_reason: 0,
            trimmed_closes: 0,
            events: 0,
            next_snapshot,
            open_count: 0,
            connected: HashMap::new(),
            max_open: 0,
            pane_start,
            pane_index: 0,
            pane: WindowState::new(),
            panes: Vec::new(),
            recent_windows: std::collections::VecDeque::new(),
            peak_state_bytes: 0,
            identify_id_count: 0,
            retained_bytes: 0,
        }
    }

    /// Approximate resident bytes of the engine state right now
    /// (deterministic, content-based — the quantity whose high-water mark
    /// [`StreamSummary::peak_state_bytes`] reports).
    pub(crate) fn approx_state_bytes(&self) -> usize {
        use std::mem::size_of;
        let map_entry = |key: usize, value: usize| key + value + 16;
        self.slots.len() * map_entry(size_of::<u32>(), size_of::<SlotAgg>())
            + self.identify_id_count * size_of::<u32>()
            + self.open.len() * map_entry(size_of::<u64>(), size_of::<OpenConn>())
            + self.conn_addr_ids.len() * map_entry(size_of::<u32>(), 0)
            + self.inbound_durs.approx_bytes()
            + self.outbound_durs.approx_bytes()
            + self.censored_durs.approx_bytes()
            + self.connected.len() * map_entry(size_of::<u32>(), size_of::<u32>())
            + self.pane.approx_bytes()
            + self.panes.len() * size_of::<PaneSummary>()
            + self.retained_bytes
    }

    fn note_peak(&mut self) {
        let bytes = self.approx_state_bytes();
        if bytes > self.peak_state_bytes {
            self.peak_state_bytes = bytes;
        }
    }

    /// Events ingested so far — the serve daemon's resume cursor: a client
    /// continuing after a restore skips exactly this many rows of its feed.
    pub(crate) fn events_ingested(&self) -> u64 {
        self.events
    }

    /// Serialises the complete engine state — configuration, per-slot
    /// aggregates, the open-connection table, duration stores, gauge and
    /// window machinery — into a self-contained byte string.
    ///
    /// [`Self::restore`] rebuilds a monitor that is indistinguishable from
    /// this one: continuing both with the same events yields byte-identical
    /// [`StreamSummary`]s (pinned by `tests/serve_differential.rs`). That is
    /// the crash-recovery contract of the serve daemon, and it works because
    /// every piece of monitor state is either a plain counter, an exact
    /// multiset, or a [`WindowState`] — a commutative monoid whose panes
    /// serialise value-exactly.
    ///
    /// Hash-map contents are written in sorted key order, so the snapshot of
    /// a given state is deterministic down to the byte.
    pub fn state_snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(STATE_SNAPSHOT_VERSION);
        encode_stream_config(&mut w, &self.config);

        let mut slots: Vec<(&u32, &SlotAgg)> = self.slots.iter().collect();
        slots.sort_by_key(|&(slot, _)| *slot);
        w.put_uvarint(slots.len() as u64);
        for (&slot, agg) in slots {
            w.put_uvarint(slot as u64);
            w.put_uvarint(agg.records.connections);
            w.put_f64(agg.records.duration_sum_secs);
            w.put_uvarint(agg.records.max_duration_ms);
            put_opt_u32(&mut w, agg.first_addr_id);
            w.put_uvarint(agg.identify_ids.len() as u64);
            for &id in &agg.identify_ids {
                w.put_uvarint(id as u64);
            }
        }

        let mut open: Vec<(&u64, &OpenConn)> = self.open.iter().collect();
        open.sort_by_key(|&(conn, _)| *conn);
        w.put_uvarint(open.len() as u64);
        for (&conn, oc) in open {
            w.put_uvarint(conn);
            w.put_uvarint(oc.slot as u64);
            w.put_u8(match oc.direction {
                Direction::Inbound => 0,
                Direction::Outbound => 1,
            });
            w.put_uvarint(oc.opened_at.as_millis());
        }

        let mut addr_ids: Vec<u32> = self.conn_addr_ids.iter().copied().collect();
        addr_ids.sort_unstable();
        w.put_uvarint(addr_ids.len() as u64);
        for id in addr_ids {
            w.put_uvarint(id as u64);
        }

        w.put_uvarint(self.inbound_count);
        w.put_uvarint(self.outbound_count);
        self.inbound_durs.encode(&mut w);
        self.outbound_durs.encode(&mut w);
        self.censored_durs.encode(&mut w);
        w.put_uvarint(self.closes_with_reason);
        w.put_uvarint(self.trimmed_closes);
        w.put_uvarint(self.events);

        w.put_uvarint(self.next_snapshot.as_millis());
        w.put_uvarint(self.open_count as u64);
        let mut connected: Vec<(&u32, &u32)> = self.connected.iter().collect();
        connected.sort_by_key(|&(slot, _)| *slot);
        w.put_uvarint(connected.len() as u64);
        for (&slot, &count) in connected {
            w.put_uvarint(slot as u64);
            w.put_uvarint(count as u64);
        }
        w.put_uvarint(self.max_open as u64);

        w.put_uvarint(self.pane_start.as_millis());
        w.put_uvarint(self.pane_index);
        encode_window_state(&mut w, &self.pane);
        w.put_uvarint(self.panes.len() as u64);
        for pane in &self.panes {
            encode_pane_summary(&mut w, pane);
        }
        w.put_uvarint(self.recent_windows.len() as u64);
        for snapshot in &self.recent_windows {
            encode_window_snapshot(&mut w, snapshot);
        }
        w.put_uvarint(self.peak_state_bytes as u64);
        w.into_bytes()
    }

    /// Rebuilds a monitor from a [`Self::state_snapshot`]. Truncated or
    /// otherwise corrupt snapshots are rejected with a typed
    /// [`ArchiveError`]; they never produce a silently-wrong monitor.
    pub fn restore(bytes: &[u8]) -> Result<StreamingMonitor, ArchiveError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8("state snapshot version")?;
        if version != STATE_SNAPSHOT_VERSION {
            return Err(ArchiveError::Malformed {
                context: format!(
                    "unsupported monitor state version {version} (this build reads {STATE_SNAPSHOT_VERSION})"
                ),
            });
        }
        let config = decode_stream_config(&mut r)?;
        let mode = config.duration_mode;

        let count = r.len("slot aggregate count")?;
        let mut slots = HashMap::with_capacity(r.capacity_for(count, SLOT_AGG_MIN_LEN));
        for _ in 0..count {
            let slot = read_u32(&mut r, "slot id")?;
            let connections = r.uvarint("slot connections")?;
            let duration_sum_secs = r.f64("slot duration sum")?;
            let max_duration_ms = r.uvarint("slot max duration")?;
            let first_addr_id = read_opt_u32(&mut r, "slot first addr")?;
            let id_count = r.len("slot identify count")?;
            let mut identify_ids = Vec::with_capacity(r.capacity_for(id_count, VARINT_MIN_LEN));
            for _ in 0..id_count {
                identify_ids.push(read_u32(&mut r, "slot identify id")?);
            }
            slots.insert(
                slot,
                SlotAgg {
                    records: RecordFold {
                        connections,
                        duration_sum_secs,
                        max_duration_ms,
                    },
                    first_addr_id,
                    identify_ids,
                },
            );
        }

        let count = r.len("open connection count")?;
        let mut open = HashMap::with_capacity(r.capacity_for(count, OPEN_CONN_MIN_LEN));
        for _ in 0..count {
            let conn = r.uvarint("open conn id")?;
            let slot = read_u32(&mut r, "open conn slot")?;
            let direction = match r.u8("open conn direction")? {
                0 => Direction::Inbound,
                1 => Direction::Outbound,
                tag => {
                    return Err(ArchiveError::Malformed {
                        context: format!("unknown direction tag {tag}"),
                    })
                }
            };
            let opened_at = SimTime::from_millis(r.uvarint("open conn time")?);
            // Ingest creates a peer's aggregate when it opens a connection;
            // `finish` folds the end close into that aggregate.
            if !slots.contains_key(&slot) {
                return Err(ArchiveError::Malformed {
                    context: format!(
                        "open connection {conn} names slot {slot}, which has no aggregate"
                    ),
                });
            }
            open.insert(
                conn,
                OpenConn {
                    slot,
                    direction,
                    opened_at,
                },
            );
        }

        let count = r.len("connection addr count")?;
        let mut conn_addr_ids = HashSet::with_capacity(r.capacity_for(count, VARINT_MIN_LEN));
        for _ in 0..count {
            conn_addr_ids.insert(read_u32(&mut r, "connection addr id")?);
        }

        let inbound_count = r.uvarint("inbound count")?;
        let outbound_count = r.uvarint("outbound count")?;
        let inbound_durs = DurationStore::decode(&mut r, mode)?;
        let outbound_durs = DurationStore::decode(&mut r, mode)?;
        let censored_durs = DurationStore::decode(&mut r, mode)?;
        let closes_with_reason = r.uvarint("closes with reason")?;
        let trimmed_closes = r.uvarint("trimmed closes")?;
        let events = r.uvarint("event count")?;

        let next_snapshot = SimTime::from_millis(r.uvarint("next snapshot")?);
        let open_count = r.uvarint("open gauge")? as usize;
        let count = r.len("connected slot count")?;
        let mut connected = HashMap::with_capacity(r.capacity_for(count, CONNECTED_MIN_LEN));
        for _ in 0..count {
            let slot = read_u32(&mut r, "connected slot")?;
            connected.insert(slot, read_u32(&mut r, "connected slot refcount")?);
        }
        let max_open = r.uvarint("max open gauge")? as usize;

        let pane_start = SimTime::from_millis(r.uvarint("pane start")?);
        // Within the measurement, the pane and tick loops stay inside the
        // bounds `check_bounds` put on the config.
        let (start, end) = (config.started_at, config.ended_at);
        if !(start..=end).contains(&pane_start)
            || !(start..=end + config.snapshot_interval).contains(&next_snapshot)
        {
            return Err(ArchiveError::Malformed {
                context: format!(
                    "pane start {} ms or next tick {} ms lies outside the measurement",
                    pane_start.as_millis(),
                    next_snapshot.as_millis()
                ),
            });
        }
        let pane_index = r.uvarint("pane index")?;
        let pane = decode_window_state(&mut r)?;
        let count = r.len("pane summary count")?;
        let mut panes = Vec::with_capacity(r.capacity_for(count, PANE_SUMMARY_MIN_LEN));
        for _ in 0..count {
            panes.push(decode_pane_summary(&mut r)?);
        }
        let count = r.len("retained window count")?;
        let mut recent_windows = std::collections::VecDeque::with_capacity(
            r.capacity_for(count, WINDOW_SNAPSHOT_MIN_LEN),
        );
        for _ in 0..count {
            recent_windows.push_back(decode_window_snapshot(&mut r)?);
        }
        let peak_state_bytes = r.uvarint("peak state bytes")? as usize;
        r.finish("monitor state snapshot")?;
        let identify_id_count = slots.values().map(|s| s.identify_ids.len()).sum();
        let retained_bytes = recent_windows
            .iter()
            .map(WindowSnapshot::approx_bytes)
            .sum();

        Ok(StreamingMonitor {
            config,
            slots,
            open,
            conn_addr_ids,
            inbound_count,
            outbound_count,
            inbound_durs,
            outbound_durs,
            censored_durs,
            closes_with_reason,
            trimmed_closes,
            events,
            next_snapshot,
            open_count,
            connected,
            max_open,
            pane_start,
            pane_index,
            pane,
            panes,
            recent_windows,
            peak_state_bytes,
            identify_id_count,
            retained_bytes,
        })
    }

    /// Advances the load-gauge ticks up to `at` (inclusive), mirroring the
    /// batch monitors' snapshot flush: gauges are sampled *before* the event
    /// at `at` is applied. A zero interval disables the gauge loop entirely
    /// (the same guard [`Self::flush_panes`] applies to a zero window) —
    /// without it, `next_snapshot += 0` would never advance and the first
    /// event would spin forever.
    fn flush_snapshots(&mut self, at: SimTime) {
        if self.config.snapshot_interval.is_zero() {
            return;
        }
        while self.next_snapshot <= at {
            if self.open_count > self.max_open {
                self.max_open = self.open_count;
            }
            self.next_snapshot += self.config.snapshot_interval;
        }
    }

    /// Closes every pane that ends at or before `at`. The gauges of a
    /// closing pane are sampled at flush time — before the event at `at` is
    /// applied, like snapshot ticks.
    fn flush_panes(&mut self, at: SimTime) {
        let width = self.config.window;
        if width.is_zero() {
            return;
        }
        while self.pane_start + width <= at {
            let end = self.pane_start + width;
            self.close_pane(end, (self.open_count, self.connected.len()));
            self.pane_start = end;
        }
    }

    /// Closes the current pane at `end` with the given open-connection and
    /// connected-PID gauges: appends its compact summary, retains its full
    /// state and notes the peak. The oldest full states are dropped until
    /// at most [`StreamConfig::retained_panes`] remain, so `0` keeps none
    /// (the compact [`PaneSummary`] series only).
    fn close_pane(&mut self, end: SimTime, (open_connections, connected_pids): (usize, usize)) {
        let snapshot = WindowSnapshot {
            index: self.pane_index,
            start: self.pane_start,
            end,
            state: std::mem::take(&mut self.pane),
            open_connections,
            known_pids: self.slots.len(),
            connected_pids,
        };
        self.panes.push(snapshot.summary());
        self.retained_bytes += snapshot.approx_bytes();
        self.recent_windows.push_back(snapshot);
        let excess = self
            .recent_windows
            .len()
            .saturating_sub(self.config.retained_panes);
        for evicted in self.recent_windows.drain(..excess) {
            self.retained_bytes -= evicted.approx_bytes();
        }
        self.pane_index += 1;
        self.note_peak();
    }

    fn before_event(&mut self, at: SimTime) {
        self.flush_snapshots(at);
        self.flush_panes(at);
        self.events += 1;
    }

    /// Counts one completed connection record in the direction aggregates
    /// and the current pane. `recorded_dur` is the quantised duration the
    /// batch dataset would carry. An event close also folds the record into
    /// its peer's aggregate; an end close leaves that to
    /// [`Self::peer_aggs`].
    fn count_record(&mut self, slot: u32, direction: Direction, recorded_dur: SimDuration) {
        match direction {
            Direction::Inbound => {
                self.inbound_count += 1;
                self.inbound_durs.push(recorded_dur.as_millis());
            }
            Direction::Outbound => {
                self.outbound_count += 1;
                self.outbound_durs.push(recorded_dur.as_millis());
            }
        }
        self.pane.apply(WindowEvent::Closed {
            slot,
            dur_ms: recorded_dur.as_millis(),
        });
    }

    /// The recorded close time for an observed close at `at` (quantisation
    /// and end-of-measurement cap applied, as in the batch monitors).
    fn recorded_close(&self, at: SimTime) -> SimTime {
        match self.config.close_quantisation {
            Some(step) if !step.is_zero() => {
                quantise_up(at, self.config.started_at, step).min(self.config.ended_at)
            }
            _ => at,
        }
    }

    /// Folds a finished observer log and finalises the summary.
    pub fn ingest_log(mut self, log: &ObserverLog) -> StreamSummary {
        self.ingest_table(log.table());
        self.finish(log.registry())
    }

    /// Folds every row of an [`ObservationTable`] without finalising — the
    /// serve daemon's batch-ingest step. Rows must be in chronological order
    /// and arrive after everything already ingested.
    ///
    /// # Panics
    ///
    /// Panics on an open or close row without a connection id, or a close
    /// row whose payload is no close reason. Rows decoded from untrusted
    /// bytes must pass [`netsim::archive::check_rows`] first, which also
    /// keeps every id the monitor stores resolvable at `finish`.
    pub fn ingest_table(&mut self, table: &ObservationTable) {
        for i in 0..table.len() {
            let at = table.at(i);
            let slot = table.peer_slot_at(i);
            match table.kind_at(i) {
                kind @ (ObservationKind::OpenedInbound | ObservationKind::OpenedOutbound) => {
                    let conn = table.conn_at(i).expect("open rows carry a connection id");
                    let direction = kind.direction().expect("open rows have a direction");
                    self.connection_opened(at, conn, slot, direction, table.payload_at(i));
                }
                ObservationKind::Closed => {
                    let conn = table.conn_at(i).expect("close rows carry a connection id");
                    self.connection_closed(
                        at,
                        conn,
                        slot,
                        close_reason_from_payload(table.payload_at(i)),
                    );
                }
                ObservationKind::Identify => {
                    self.identify_received(at, slot, table.payload_at(i));
                }
                ObservationKind::Discovered => {
                    self.peer_discovered(at, slot, table.payload_at(i));
                }
            }
        }
    }

    /// Checks that every row of `table` lies inside the measurement,
    /// `[started_at, ended_at]`, where [`StreamConfig`]'s bounds hold. The
    /// serve daemon runs it on every event batch before ingesting it.
    pub(crate) fn check_row_times(&self, table: &ObservationTable) -> Result<(), ArchiveError> {
        let (start, end) = (self.config.started_at, self.config.ended_at);
        match table.ats().iter().find(|&&at| at < start || at > end) {
            Some(at) => Err(ArchiveError::Malformed {
                context: format!(
                    "row at {} ms lies outside the measurement [{}, {}] ms",
                    at.as_millis(),
                    start.as_millis(),
                    end.as_millis()
                ),
            }),
            None => Ok(()),
        }
    }

    /// Distinct PIDs observed so far: the [`StreamSummary::pids`] that
    /// [`Self::finish`] reports.
    pub(crate) fn pids(&self) -> usize {
        self.slots.len()
    }

    /// The connections still open, in connection-id order, each with its
    /// duration at the measurement end: the closes [`Self::finish`] applies.
    fn end_closes(&self) -> Vec<(OpenConn, SimDuration)> {
        let mut open: Vec<(u64, OpenConn)> =
            self.open.iter().map(|(&conn, &oc)| (conn, oc)).collect();
        open.sort_unstable_by_key(|&(conn, _)| conn);
        open.into_iter()
            .map(|(_, oc)| (oc, self.config.ended_at.saturating_since(oc.opened_at)))
            .collect()
    }

    /// Every peer's aggregate as [`Self::finish`] reports it, by registry
    /// slot and in no particular order: the end closes fold into their
    /// peers' records in connection-id order, as an overlay over the live
    /// aggregates that leaves the monitor untouched.
    fn peer_aggs(&self) -> impl Iterator<Item = (u32, &SlotAgg, RecordFold)> + '_ {
        let mut closed: HashMap<u32, RecordFold> = HashMap::new();
        for (open, duration) in self.end_closes() {
            // Ingest (and restore) keep an aggregate for every open slot.
            closed
                .entry(open.slot)
                .or_insert(self.slots[&open.slot].records)
                .push(duration);
        }
        self.slots
            .iter()
            .map(move |(&slot, agg)| (slot, agg, closed.get(&slot).copied().unwrap_or(agg.records)))
    }

    /// The maximum-open gauge as [`Self::finish`] reports it: the ticks
    /// still due up to the measurement end sample the current open count.
    pub(crate) fn max_open_connections(&self) -> usize {
        let tick_due =
            !self.config.snapshot_interval.is_zero() && self.next_snapshot <= self.config.ended_at;
        if tick_due {
            self.max_open.max(self.open_count)
        } else {
            self.max_open
        }
    }

    /// Checks that every id the monitor holds resolves in `registry`. Rows
    /// that passed [`netsim::archive::check_rows`] keep this true during
    /// ingest; a restored snapshot must be checked against its registry
    /// before a query resolves its ids.
    pub(crate) fn check_ids(&self, registry: &IdentifyRegistry) -> Result<(), String> {
        let (peers, addrs, infos) = (
            registry.peer_count(),
            registry.addr_count(),
            registry.identify_count(),
        );
        let pane_slots = std::iter::once(&self.pane)
            .chain(self.recent_windows.iter().map(|w| &w.state))
            .flat_map(|state| state.peer_events.keys());
        if let Some(slot) = self
            .slots
            .keys()
            .chain(self.connected.keys())
            .chain(pane_slots)
            .find(|&&slot| slot as usize >= peers)
        {
            return Err(format!(
                "peer slot {slot} is not in the registry ({peers} peers)"
            ));
        }
        if let Some(id) = self
            .slots
            .values()
            .filter_map(|agg| agg.first_addr_id.as_ref())
            .chain(&self.conn_addr_ids)
            .find(|&&id| id as usize >= addrs)
        {
            return Err(format!(
                "address id {id} is not in the registry ({addrs} addresses)"
            ));
        }
        if let Some(id) = self
            .slots
            .values()
            .flat_map(|agg| &agg.identify_ids)
            .find(|&&id| id as usize >= infos)
        {
            return Err(format!(
                "identify id {id} is not in the registry ({infos} payloads)"
            ));
        }
        Ok(())
    }

    /// Finalises the pass: closes still-open connections at the measurement
    /// end (in connection-id order, like the batch monitors), flushes the
    /// remaining panes, and resolves every id through `registry`. The PID
    /// count, the peer aggregates and the maximum-open gauge come from the
    /// same borrowing functions a live [`StreamView`] reads, so a live
    /// answer and a finished one cannot drift apart.
    pub fn finish(mut self, registry: &IdentifyRegistry) -> StreamSummary {
        let ended_at = self.config.ended_at;
        let pids = self.pids();
        let max_open_connections = self.max_open_connections();
        let per_peer: BTreeMap<PeerId, PeerStreamAgg> = self
            .peer_aggs()
            .map(|(slot, agg, records)| {
                let peer = PeerStreamAgg {
                    connections: records.connections,
                    duration_sum_secs: records.duration_sum_secs,
                    max_duration: SimDuration::from_millis(records.max_duration_ms),
                    first_ip: agg.first_addr_id.map(|id| registry.addr(id).ip()),
                    ever_dht_server: agg
                        .identify_ids
                        .iter()
                        .any(|&id| registry.identify(id).is_dht_server()),
                };
                (registry.peer(slot), peer)
            })
            .collect();
        self.flush_panes(ended_at);
        // Sample the final pane's gauges before the end-closes drain the
        // open table (the last batch snapshot precedes them too), but fold
        // the end-close records into the final pane's aggregate.
        let final_gauges = (self.open_count, self.connected.len());
        let end_closes = self.end_closes();
        self.open.clear();
        for (open, duration) in end_closes {
            // End-of-measurement closes are the right-censored observations:
            // the true session outlived the horizon. Track their durations
            // separately so the survival layer can split censored from
            // completed sessions.
            self.censored_durs.push(duration.as_millis());
            self.count_record(open.slot, open.direction, duration);
        }
        self.close_pane(ended_at, final_gauges);

        let mut distinct_ips: BTreeSet<IpAddress> = BTreeSet::new();
        for &addr_id in &self.conn_addr_ids {
            distinct_ips.insert(registry.addr(addr_id).ip());
        }
        StreamSummary {
            observer: self.config.observer,
            dht_server: self.config.dht_server,
            started_at: self.config.started_at,
            ended_at,
            window: self.config.window,
            duration_mode: self.config.duration_mode,
            events: self.events,
            pids,
            connections: self.inbound_count + self.outbound_count,
            inbound: DirectionAgg {
                count: self.inbound_count,
                dur_hist: self.inbound_durs.into_hist(),
            },
            outbound: DirectionAgg {
                count: self.outbound_count,
                dur_hist: self.outbound_durs.into_hist(),
            },
            closes_with_reason: self.closes_with_reason,
            trimmed_closes: self.trimmed_closes,
            censored_dur_hist: self.censored_durs.into_hist(),
            per_peer,
            distinct_connection_ips: distinct_ips.len(),
            max_open_connections,
            panes: self.panes,
            recent_windows: self.recent_windows.into_iter().collect(),
            peak_state_bytes: self.peak_state_bytes,
        }
    }

    // The row folds of `ingest_table`, one per observation kind.

    fn connection_opened(
        &mut self,
        at: SimTime,
        conn: ConnectionId,
        peer_slot: u32,
        direction: Direction,
        addr_id: u32,
    ) {
        self.before_event(at);
        let agg = self.slots.entry(peer_slot).or_default();
        if agg.first_addr_id.is_none() {
            agg.first_addr_id = Some(addr_id);
        }
        self.conn_addr_ids.insert(addr_id);
        self.open.insert(
            conn.0,
            OpenConn {
                slot: peer_slot,
                direction,
                opened_at: at,
            },
        );
        self.open_count += 1;
        *self.connected.entry(peer_slot).or_insert(0) += 1;
        self.pane.apply(WindowEvent::Opened { slot: peer_slot });
    }

    fn connection_closed(&mut self, at: SimTime, conn: ConnectionId, peer_slot: u32, reason: CloseReason) {
        self.before_event(at);
        self.slots.entry(peer_slot).or_default();
        let Some(open) = self.open.remove(&conn.0) else {
            return; // close without open: ignored, exactly like the batch path
        };
        let recorded = self.recorded_close(at).max(open.opened_at);
        self.open_count = self.open_count.saturating_sub(1);
        if let Some(count) = self.connected.get_mut(&open.slot) {
            *count -= 1;
            if *count == 0 {
                self.connected.remove(&open.slot);
            }
        }
        self.closes_with_reason += 1;
        if matches!(reason, CloseReason::TrimmedLocal | CloseReason::TrimmedRemote) {
            self.trimmed_closes += 1;
        }
        let duration = recorded.saturating_since(open.opened_at);
        // A horizon close tells us the session *outlived* the measurement,
        // not that it ended — the observation is right-censored. Same
        // duration value as the completed record, so the censored multiset
        // stays a sub-multiset of the combined one.
        if matches!(reason, CloseReason::MeasurementEnd) {
            self.censored_durs.push(duration.as_millis());
        }
        self.slots
            .entry(open.slot)
            .or_default()
            .records
            .push(duration);
        self.count_record(open.slot, open.direction, duration);
    }

    fn identify_received(&mut self, at: SimTime, peer_slot: u32, payload_id: u32) {
        self.before_event(at);
        let agg = self.slots.entry(peer_slot).or_default();
        if !agg.identify_ids.contains(&payload_id) {
            agg.identify_ids.push(payload_id);
            self.identify_id_count += 1;
        }
        self.pane.apply(WindowEvent::Identify { slot: peer_slot });
    }

    fn peer_discovered(&mut self, at: SimTime, peer_slot: u32, _addr_id: u32) {
        self.before_event(at);
        self.slots.entry(peer_slot).or_default();
        self.pane.apply(WindowEvent::Discovered { slot: peer_slot });
    }
}

/// The complete result of one streaming measurement campaign: one
/// streaming summary per observer of one simulation, plus what the reports
/// read of the run (its scenario and ground-truth PID count).
#[derive(Debug, Clone)]
pub struct StreamingCampaign {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Distinct PIDs in the simulated population
    /// (`GroundTruth::population_size`), the truth the network-size
    /// estimates are measured against.
    pub truth_pids: usize,
    /// One streaming summary per configured observer, in deployment order.
    pub streams: Vec<StreamSummary>,
    /// Width of the tumbling window panes.
    pub window: SimDuration,
}

impl StreamingCampaign {
    /// Looks up a stream by observer name.
    pub fn stream(&self, observer: &str) -> Option<&StreamSummary> {
        self.streams.iter().find(|s| s.observer == observer)
    }

    /// The primary stream: the go-ipfs observer if deployed, otherwise the
    /// first stream.
    ///
    /// # Panics
    ///
    /// Panics if the campaign deployed no observers (no period is like
    /// that).
    pub fn primary_stream(&self) -> &StreamSummary {
        self.stream("go-ipfs")
            .or(self.streams.first())
            .expect("every measurement period deploys at least one observer")
    }

    /// The vantage streams (the go-ipfs primary plus every `vantage-v*`
    /// clone), in deployment order — the capture occasions of the streaming
    /// capture–recapture estimators.
    pub fn vantage_streams(&self) -> Vec<&StreamSummary> {
        self.streams
            .iter()
            .filter(|s| s.observer == "go-ipfs" || s.observer.starts_with("vantage-v"))
            .collect()
    }
}

/// Runs a scenario once and folds every observer's log into a streaming
/// summary.
pub fn run_streaming_campaign(scenario: Scenario, window: SimDuration) -> StreamingCampaign {
    run_streaming_built(scenario.build(), window, DurationMode::Exact)
}

/// Simulates an already materialised scenario once and folds its output
/// with [`stream_output`].
pub fn run_streaming_built(
    run: ScenarioRun,
    window: SimDuration,
    duration_mode: DurationMode,
) -> StreamingCampaign {
    let scenario = run.scenario.clone();
    let output = run.simulate();
    StreamingCampaign {
        scenario,
        truth_pids: output.ground_truth.population_size(),
        streams: stream_output(&output, window, duration_mode),
        window,
    }
}

/// Folds each observer log of a finished simulation into a
/// [`StreamingMonitor`] over the log's own duration, with the given window
/// width and duration-store mode: one summary per log, in log order.
pub fn stream_output(
    output: &SimulationOutput,
    window: SimDuration,
    duration_mode: DurationMode,
) -> Vec<StreamSummary> {
    output
        .logs
        .iter()
        .map(|log| {
            let config =
                StreamConfig::for_observer(&log.observer, log.dht_server, log.duration(), window)
                    .with_duration_mode(duration_mode);
            StreamingMonitor::new(config).ingest_log(log)
        })
        .collect()
}

/// Runs one period × scale × vantage count under every given churn regime,
/// in parallel, through the streaming pipeline.
///
/// Campaigns come back in `scenarios` order regardless of `threads` —
/// the same determinism contract as [`crate::run_scenario_suite`].
pub fn run_stream_suite(
    period: MeasurementPeriod,
    scale: f64,
    seed: u64,
    vantages: usize,
    window: SimDuration,
    scenarios: &[ChurnScenario],
    threads: usize,
) -> Vec<StreamingCampaign> {
    run_parallel_ordered(scenarios, threads, |_, churn| {
        run_streaming_campaign(
            Scenario::new(period)
                .with_scale(scale)
                .with_seed(seed)
                .with_churn(churn.clone())
                .with_vantage_points(vantages),
            window,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;
    use p2pmodel::Multiaddr;
    use p2pmodel::Transport;

    fn addr(n: u32) -> Multiaddr {
        Multiaddr::new(IpAddress::V4(n), Transport::Tcp, 4001)
    }

    fn sample_log() -> ObserverLog {
        let mut registry = IdentifyRegistry::new();
        let [p1, p2, p3] = [1, 2, 3].map(|i| registry.register_peer(PeerId::derived(i)));
        let [a1, a2, a3] = [1, 2, 3].map(|i| registry.intern_addr(addr(i)));
        let (mut t, s) = (ObservationTable::new(), SimTime::from_secs);
        t.connection_opened(s(10), ConnectionId(1), p1, Direction::Inbound, a1);
        t.connection_closed(s(995), ConnectionId(1), p1, CloseReason::TrimmedRemote);
        t.connection_opened(s(2000), ConnectionId(2), p2, Direction::Outbound, a2);
        t.peer_discovered(s(2500), p3, a3);
        let (start, end) = (SimTime::ZERO, SimTime::from_hours(1));
        ObserverLog::from_columns(
            "go-ipfs",
            PeerId::derived(0),
            true,
            start,
            end,
            t,
            Arc::new(registry),
        )
    }

    fn go_ipfs_config(window_secs: u64) -> StreamConfig {
        StreamConfig::go_ipfs(
            "go-ipfs",
            true,
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimDuration::from_secs(window_secs),
        )
    }

    #[test]
    fn quantised_close_and_end_close_match_the_batch_monitor() {
        let summary = StreamingMonitor::new(go_ipfs_config(600)).ingest_log(&sample_log());
        assert_eq!(summary.connections, 2);
        assert_eq!(summary.pids, 3);
        let connected = summary.per_peer.values().filter(|p| p.connections > 0);
        assert_eq!(connected.count(), 2);
        // Connection 1: closed at 995 s, quantised up to 1 020 s → 1 010 s.
        assert_eq!(summary.inbound.count, 1);
        assert_eq!(summary.inbound.dur_hist, vec![(1_010_000, 1)]);
        // Connection 2: still open, closed at the end → 3 600 − 2 000 s.
        assert_eq!(summary.outbound.dur_hist, vec![(1_600_000, 1)]);
        assert_eq!(summary.closes_with_reason, 1);
        assert_eq!(summary.trimmed_closes, 1);
        // 1 h at 10 min panes → 6 panes plus the final flush pane.
        assert_eq!(summary.panes.len(), 7);
        assert_eq!(summary.recent_windows.len(), 7, "default retention keeps every pane");
        assert_eq!(summary.panes.last().unwrap().closed, 1);
        assert_eq!(summary.recent_windows.last().unwrap().state.closed, 1);
        assert!(summary.peak_state_bytes > 0);
    }

    #[test]
    fn end_closes_populate_the_censored_duration_histogram() {
        let summary = StreamingMonitor::new(go_ipfs_config(600)).ingest_log(&sample_log());
        // Connection 2 was still open at the horizon → right-censored at
        // 3 600 − 2 000 s. Connection 1 closed by event → uncensored.
        assert_eq!(summary.censored_dur_hist, vec![(1_600_000, 1)]);
        let censored: u64 = summary.censored_dur_hist.iter().map(|&(_, c)| c).sum();
        // No MeasurementEnd closes in this log, so the censored count is
        // exactly the open-at-finish remainder.
        assert_eq!(censored, summary.connections - summary.closes_with_reason);
        // The censored histogram is a sub-multiset of the combined one.
        let combined = summary.combined_dur_hist();
        for &(dur, count) in &summary.censored_dur_hist {
            let total = combined.iter().find(|&&(d, _)| d == dur).map(|&(_, c)| c).unwrap_or(0);
            assert!(count <= total, "censored {dur} ms exceeds the combined multiset");
        }
        // Bucketed mode censors into the same bucket edges as the direction
        // stores, so the sub-multiset property survives bucketing.
        let config = go_ipfs_config(600).with_duration_mode(DurationMode::LogBucketed);
        let bucketed = StreamingMonitor::new(config).ingest_log(&sample_log());
        let combined = bucketed.combined_dur_hist();
        for &(dur, count) in &bucketed.censored_dur_hist {
            let total = combined.iter().find(|&&(d, _)| d == dur).map(|&(_, c)| c).unwrap_or(0);
            assert!(count <= total);
        }
    }

    #[test]
    fn window_panes_partition_the_run_and_sum_to_the_totals() {
        let summary = StreamingMonitor::new(go_ipfs_config(900)).ingest_log(&sample_log());
        let mut merged = WindowState::new();
        for snapshot in &summary.recent_windows {
            assert_eq!(snapshot.summary(), summary.panes[snapshot.index as usize]);
            merged.merge(&snapshot.state);
        }
        assert_eq!(merged.opened, 2);
        assert_eq!(merged.closed, 2);
        assert_eq!(merged.discoveries, 1);
        assert_eq!(merged.event_count(), summary.events + 1, "end-close is synthetic");
        // Pane boundaries tile [start, end].
        for pair in summary.panes.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(summary.panes.first().unwrap().start, SimTime::ZERO);
        assert_eq!(summary.panes.last().unwrap().end, SimTime::from_hours(1));
        // known_pids gauge is monotone (historic view).
        for pair in summary.panes.windows(2) {
            assert!(pair[0].known_pids <= pair[1].known_pids);
        }
    }

    #[test]
    fn sliding_windows_merge_adjacent_panes() {
        let summary = StreamingMonitor::new(go_ipfs_config(900)).ingest_log(&sample_log());
        let slides = sliding_windows(&summary.recent_windows, 2);
        assert_eq!(slides.len(), summary.recent_windows.len());
        assert_eq!(slides[0], summary.recent_windows[0].state);
        let mut expected = summary.recent_windows[0].state.clone();
        expected.merge(&summary.recent_windows[1].state);
        assert_eq!(slides[1], expected);
    }

    #[test]
    fn log_bucketed_mode_bounds_the_duration_store() {
        let config = go_ipfs_config(900).with_duration_mode(DurationMode::LogBucketed);
        let summary = StreamingMonitor::new(config).ingest_log(&sample_log());
        assert_eq!(summary.duration_mode, DurationMode::LogBucketed);
        assert_eq!(summary.connections, 2);
        // Bucketed histograms report bucket lower edges ≤ the exact value.
        assert!(summary.inbound.dur_hist[0].0 <= 1_010_000);
        assert!(summary.inbound.dur_hist[0].0 >= 1_010_000 * 20 / 21);
    }

    #[test]
    fn log_bucket_edges_are_strictly_increasing() {
        let edges = log_bucket_edges();
        assert_eq!(edges[0], 0);
        assert_eq!(edges[1], 1);
        assert!(edges.len() < 2_000, "O(1) bucket count, got {}", edges.len());
        for pair in edges.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(*edges.last().unwrap() > SimDuration::from_days(365).as_millis());
    }

    #[test]
    fn streaming_campaign_matches_the_classic_runner_byte_for_byte() {
        let scenario = Scenario::new(MeasurementPeriod::P1).with_scale(0.003).with_seed(7);
        let classic = run_scenario(scenario.clone());
        let streaming = run_streaming_campaign(scenario, SimDuration::from_hours(6));
        assert_eq!(streaming.scenario, classic.scenario);
        assert_eq!(streaming.truth_pids, classic.ground_truth.population_size());
        assert_eq!(streaming.streams.len(), 3, "go-ipfs + two hydra heads");
        assert!(streaming.stream("go-ipfs").is_some());
        assert_eq!(streaming.primary_stream().observer, "go-ipfs");
        assert_eq!(streaming.vantage_streams().len(), 1);
        // The streams saw the same traffic the classic runner's datasets
        // recorded.
        for stream in &streaming.streams {
            let dataset = classic
                .passive_datasets()
                .into_iter()
                .find(|d| d.client == stream.observer)
                .unwrap();
            assert_eq!(stream.pids, dataset.pid_count(), "{}", stream.observer);
            assert_eq!(
                stream.connections as usize,
                dataset.connection_count(),
                "{}",
                stream.observer
            );
        }
    }

    #[test]
    fn stream_suite_is_deterministic_across_thread_counts() {
        let scenarios = vec![ChurnScenario::Baseline, ChurnScenario::flash_crowd()];
        let window = SimDuration::from_hours(6);
        let serial = run_stream_suite(MeasurementPeriod::P4, 0.003, 7, 1, window, &scenarios, 1);
        let parallel = run_stream_suite(MeasurementPeriod::P4, 0.003, 7, 1, window, &scenarios, 2);
        assert_eq!(serial.len(), 2);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.streams, b.streams);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.truth_pids, b.truth_pids);
        }
    }

    #[test]
    fn restore_rejects_pane_and_tick_cursors_outside_the_measurement() {
        let (start, end) = (SimTime::from_hours(1), SimTime::from_hours(2));
        let window = SimDuration::from_secs(600);
        let monitor = StreamingMonitor::new(StreamConfig::go_ipfs("g", true, start, end, window));
        assert!(StreamingMonitor::restore(&monitor.state_snapshot()).is_ok());
        // A cursor before the start would close more panes or ticks than
        // the config's bounds allow; one past the end could overflow.
        let tick = monitor.next_snapshot;
        for (pane_start, next_snapshot) in [
            (SimTime::ZERO, tick),
            (end + SimDuration::from_millis(1), tick),
            (SimTime::from_millis(u64::MAX), tick),
            (start, SimTime::ZERO),
            (start, end + SimDuration::from_secs(31)),
        ] {
            let mut forged = monitor.clone();
            forged.pane_start = pane_start;
            forged.next_snapshot = next_snapshot;
            assert!(
                matches!(
                    StreamingMonitor::restore(&forged.state_snapshot()),
                    Err(ArchiveError::Malformed { .. })
                ),
                "pane start {pane_start:?}, next tick {next_snapshot:?} restored"
            );
        }
    }

    #[test]
    fn end_closes_fold_into_the_peer_in_connection_id_order() {
        // One peer with a completed 0.1 s record and two connections still
        // open at the end, of 0.2 s (connection 1) and 0.4 s (connection 2).
        // Connection 2 opened first, so arrival order and the open table's
        // order are not connection-id order.
        let mut registry = IdentifyRegistry::new();
        let peer = registry.register_peer(PeerId::derived(7));
        let a = registry.intern_addr(addr(7));
        let end = SimTime::from_secs(10);
        let ms = SimTime::from_millis;
        let mut t = ObservationTable::new();
        t.connection_opened(ms(1_000), ConnectionId(0), peer, Direction::Inbound, a);
        t.connection_closed(ms(1_100), ConnectionId(0), peer, CloseReason::PeerLeft);
        t.connection_opened(ms(9_600), ConnectionId(2), peer, Direction::Inbound, a);
        t.connection_opened(ms(9_800), ConnectionId(1), peer, Direction::Outbound, a);
        let config = StreamConfig::hydra("hydra-h0", SimTime::ZERO, end, SimDuration::from_secs(5));
        let mut monitor = StreamingMonitor::new(config);
        monitor.ingest_table(&t);

        let live: Vec<(Option<IpAddress>, SimDuration)> =
            StreamView::Live(&monitor, &registry).peers().collect();
        let summary = monitor.finish(&registry);
        let agg = &summary.per_peer[&PeerId::derived(7)];
        assert_eq!(agg.connections, 3);
        assert_eq!(agg.max_duration, SimDuration::from_millis(400));
        assert_eq!(live, vec![(Some(addr(7).ip()), agg.max_duration)]);
        let in_id_order = 0.1 + 0.2 + 0.4;
        let in_open_order = 0.1 + 0.4 + 0.2;
        assert_ne!(f64::to_bits(in_id_order), f64::to_bits(in_open_order));
        assert_eq!(agg.duration_sum_secs.to_bits(), f64::to_bits(in_id_order));
        // The end closes still reach the direction and censored stores.
        assert_eq!((summary.inbound.count, summary.outbound.count), (2, 1));
        assert_eq!(summary.censored_dur_hist, vec![(200, 1), (400, 1)]);
    }

    #[test]
    fn the_tick_still_due_at_the_end_samples_the_open_connections() {
        // Three connections open at 3 590 s, after the last event-driven
        // tick (3 570 s); the 30 s gauge ticks once more at the 3 600 s end.
        let log = sample_log();
        let mut t = ObservationTable::new();
        for conn in 10..13 {
            t.connection_opened(
                SimTime::from_secs(3_590),
                ConnectionId(conn),
                0,
                Direction::Inbound,
                0,
            );
        }
        let mut monitor = StreamingMonitor::new(go_ipfs_config(600));
        monitor.ingest_table(&t);
        let live = StreamView::Live(&monitor, log.registry()).max_open_connections();
        assert_eq!(live, 3);
        assert_eq!(monitor.finish(log.registry()).max_open_connections, 3);
    }

    #[test]
    fn live_view_reads_what_finish_reports() {
        let log = sample_log();
        for config in [
            go_ipfs_config(600),
            go_ipfs_config(600).with_retained_panes(0),
        ] {
            let mut monitor = StreamingMonitor::new(config);
            for i in 0..log.table().len() {
                let mut chunk = ObservationTable::new();
                copy_row(log.table(), i, &mut chunk);
                monitor.ingest_table(&chunk);
                let view = StreamView::Live(&monitor, log.registry());
                let finished = monitor.clone().finish(log.registry());
                let done = StreamView::Finished(&finished);
                assert_eq!(view.pids(), done.pids(), "after row {i}");
                assert_eq!(
                    view.max_open_connections(),
                    done.max_open_connections(),
                    "after row {i}"
                );
                let sorted = |v: StreamView<'_>| {
                    let mut peers: Vec<_> = v.peers().collect();
                    peers.sort();
                    peers
                };
                assert_eq!(sorted(view), sorted(done), "after row {i}");
                assert_eq!(*view.summary(), finished, "after row {i}");
            }
        }
    }

    #[test]
    fn zero_snapshot_interval_does_not_hang() {
        // Regression: `flush_snapshots` looped forever on the first event
        // because `next_snapshot += 0` never advances.
        let mut config = go_ipfs_config(600);
        config.snapshot_interval = SimDuration::ZERO;
        let summary = StreamingMonitor::new(config).ingest_log(&sample_log());
        assert_eq!(summary.connections, 2);
        // No gauge ticks fire, so the max-open gauge never samples.
        assert_eq!(summary.max_open_connections, 0);
        // Panes still flush: the window machinery has its own guard.
        assert_eq!(summary.panes.len(), 7);
    }

    #[test]
    fn retained_panes_zero_keeps_only_the_compact_series() {
        // Regression: `with_retained_panes(0)` silently clamped to 1.
        let config = go_ipfs_config(600).with_retained_panes(0);
        let summary = StreamingMonitor::new(config).ingest_log(&sample_log());
        assert_eq!(summary.panes.len(), 7, "compact series always complete");
        assert!(summary.recent_windows.is_empty(), "0 keeps zero full states");

        let config = go_ipfs_config(600).with_retained_panes(1);
        let summary = StreamingMonitor::new(config).ingest_log(&sample_log());
        assert_eq!(summary.panes.len(), 7);
        assert_eq!(summary.recent_windows.len(), 1);
        assert_eq!(
            summary.recent_windows[0].index,
            summary.panes.last().unwrap().index,
            "the one retained state is the newest pane"
        );
    }

    /// Ingests the first `split` events of `log` into one monitor, round-trips
    /// it through the snapshot codec, feeds the rest, and checks the summary
    /// against an uninterrupted run — the serve daemon's crash-recovery path.
    fn assert_snapshot_resumes(log: &ObserverLog, config: StreamConfig, split: usize) {
        let table = log.table();
        let uninterrupted = StreamingMonitor::new(config.clone()).ingest_log(log);

        let mut first = StreamingMonitor::new(config);
        for i in 0..split.min(table.len()) {
            let mut chunk = ObservationTable::new();
            copy_row(table, i, &mut chunk);
            first.ingest_table(&chunk);
        }
        let bytes = first.state_snapshot();
        let mut resumed = StreamingMonitor::restore(&bytes).expect("snapshot must restore");
        assert_eq!(resumed, first, "restored monitor must equal the original");
        for i in split.min(table.len())..table.len() {
            let mut chunk = ObservationTable::new();
            copy_row(table, i, &mut chunk);
            resumed.ingest_table(&chunk);
        }
        let summary = resumed.finish(log.registry());
        assert_eq!(
            format!("{summary:?}"),
            format!("{uninterrupted:?}"),
            "resume at event {split} must be byte-identical"
        );
    }

    fn copy_row(table: &ObservationTable, i: usize, into: &mut ObservationTable) {
        let at = table.at(i);
        let slot = table.peer_slot_at(i);
        match table.kind_at(i) {
            kind @ (ObservationKind::OpenedInbound | ObservationKind::OpenedOutbound) => {
                into.connection_opened(
                    at,
                    table.conn_at(i).unwrap(),
                    slot,
                    kind.direction().unwrap(),
                    table.payload_at(i),
                );
            }
            ObservationKind::Closed => {
                into.connection_closed(
                    at,
                    table.conn_at(i).unwrap(),
                    slot,
                    close_reason_from_payload(table.payload_at(i)),
                );
            }
            ObservationKind::Identify => into.identify_received(at, slot, table.payload_at(i)),
            ObservationKind::Discovered => into.peer_discovered(at, slot, table.payload_at(i)),
        }
    }

    #[test]
    fn state_snapshot_resumes_at_every_event() {
        let log = sample_log();
        for split in 0..=log.table().len() {
            assert_snapshot_resumes(&log, go_ipfs_config(600), split);
            assert_snapshot_resumes(
                &log,
                go_ipfs_config(600).with_duration_mode(DurationMode::LogBucketed),
                split,
            );
            assert_snapshot_resumes(&log, go_ipfs_config(600).with_retained_panes(0), split);
            assert_snapshot_resumes(
                &log,
                StreamConfig::hydra("hydra-h0", SimTime::ZERO, SimTime::from_hours(1), SimDuration::from_secs(600)),
                split,
            );
        }
    }

    #[test]
    fn corrupt_state_snapshots_are_rejected() {
        let log = sample_log();
        let mut monitor = StreamingMonitor::new(go_ipfs_config(600));
        monitor.ingest_table(log.table());
        let bytes = monitor.state_snapshot();
        assert_eq!(StreamingMonitor::restore(&bytes).unwrap(), monitor);

        // Truncation anywhere fails loudly.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                StreamingMonitor::restore(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage is corruption too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(StreamingMonitor::restore(&padded).is_err());
        // A wrong version byte is rejected before anything is parsed.
        let mut wrong = bytes.clone();
        wrong[0] = 99;
        assert!(matches!(
            StreamingMonitor::restore(&wrong),
            Err(ArchiveError::Malformed { .. })
        ));
    }
}
