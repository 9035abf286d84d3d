//! The multi-tenant monitor daemon behind `repro serve`.
//!
//! The paper's monitor vantage is a *long-lived process* watching a live
//! network; everything else in this repo runs inside one batch process that
//! dies with its data. This module closes that gap (ROADMAP item 4): a
//! [`ServeState`] hosts one [`StreamingMonitor`] per **tenant** (a named
//! campaign feed), ingests concurrent observation feeds over a std-only
//! length-prefixed frame protocol, answers live queries with bounded
//! latency, and checkpoints/restores the whole tenant table for crash
//! recovery.
//!
//! # Protocol framing
//!
//! Every frame on the wire is `u32` little-endian length, one kind byte,
//! then the payload ([`write_frame`] / [`read_frame`]):
//!
//! * `FRAME_CONTROL` — a compact JSON document (the `jsonio` dialect):
//!   requests carry an `op` field (`hello`, `status`, `query`, `finish`,
//!   `checkpoint`, `ping`, `shutdown`), replies carry `ok` plus either the
//!   result fields or an `error` string. Control frames are always
//!   answered.
//! * [`FRAME_EVENTS`] — a tenant name plus a columnar event block
//!   ([`netsim::archive::encode_event_block`]): the block a trace archive
//!   stores for each observer, here over a batch of rows, so a feed is just
//!   archive rows cut into batches. Event frames are **not** answered (ingest stays pipelined);
//!   a malformed batch poisons the tenant and surfaces on its next control
//!   op. So does a batch with a row [`netsim::archive::check_rows`]
//!   rejects (a missing connection id, a close payload that is no close
//!   reason, or an id the tenant's registry does not hold) or a row outside
//!   the tenant's measurement, `[started_at, ended_at]`.
//! * [`FRAME_REGISTRY`] — a tenant name plus an incremental
//!   [`netsim::archive::encode_registry_delta`] keeping the tenant's dense
//!   id space aligned with the sender's. Must arrive before the event rows
//!   that reference the new ids; a row that names an id the registry does
//!   not hold yet poisons the tenant.
//!
//! # Tenant lifecycle
//!
//! `hello` (with a [`StreamConfig`] as JSON) creates the tenant, unless
//! [`config_from_json`] refuses the config; registry deltas and event
//! batches stream in; `query` answers from a
//! [`StreamView::Live`] that borrows the live monitor and its registry, so
//! a `network_size` answer reads the monitor in place and only the kinds
//! that need a full summary finalise a clone; `finish` finalises the real
//! monitor, returns the last answer and removes the tenant. `status`
//! reports the ingest cursor (events ingested, registry counts) so a
//! reconnecting feed knows how much of its log to skip — the resume
//! handshake after a crash.
//!
//! # Checkpoint format and the monoid replay argument
//!
//! [`ServeState::checkpoint_bytes`] reuses the archive block container: a
//! meta block (version + tenant directory), then per tenant one
//! [`StreamingMonitor::state_snapshot`] block and one full registry delta.
//! Restoring ([`ServeState::restore`]) rebuilds every monitor mid-window:
//! [`WindowState`](crate::WindowState) is a commutative monoid with exact
//! inverses and the monitor's remaining state is a finite map of plain
//! aggregates, so *checkpoint + replay of the tail* is algebraically the
//! same fold as an uninterrupted run — byte-identical summaries, which
//! `tests/serve_differential.rs` pins across every scenario cell. A restore
//! refuses the configs `hello` refuses, and checks that every id a monitor
//! holds resolves in its tenant's registry.

use crate::stream::{DurationMode, StreamConfig, StreamView, StreamingMonitor};
use jsonio::Json;
use netsim::archive::{
    apply_registry_delta, check_rows, decode_event_block, encode_registry_delta, ArchiveError,
    ArchiveFile, ArchiveWriter, ByteReader, ByteWriter, GLOBAL_OWNER,
};
use netsim::IdentifyRegistry;
use simclock::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Frame kind: a JSON control message (always answered with one).
pub(crate) const FRAME_CONTROL: u8 = 0;
/// Frame kind: tenant name + columnar event block (never answered).
pub const FRAME_EVENTS: u8 = 1;
/// Frame kind: tenant name + registry delta (never answered).
pub const FRAME_REGISTRY: u8 = 2;

/// Upper bound on a frame body (kind byte + payload). Batches are expected
/// in the kilobyte range; anything past this is a corrupt or hostile length
/// prefix and the connection is dropped instead of allocating.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// One protocol frame: a kind byte and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of `FRAME_CONTROL`, [`FRAME_EVENTS`], [`FRAME_REGISTRY`].
    pub kind: u8,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Wraps a JSON document as a control frame (compact encoding).
    pub fn control(doc: &Json) -> Frame {
        Frame {
            kind: FRAME_CONTROL,
            payload: doc.to_string_compact().into_bytes(),
        }
    }

    /// Wraps a tenant-addressed binary block (event batch or registry
    /// delta) as a frame of the given kind.
    pub fn tenant_block(kind: u8, tenant: &str, block: &[u8]) -> Frame {
        let mut w = ByteWriter::new();
        w.put_str(tenant);
        w.put_bytes(block);
        Frame {
            kind,
            payload: w.into_bytes(),
        }
    }

    /// Parses a control frame's payload as JSON.
    pub fn control_json(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.payload)
            .map_err(|_| "control frame payload is not UTF-8".to_string())?;
        Json::parse(text).map_err(|err| format!("control frame is not valid JSON: {err}"))
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let body_len = frame
        .payload
        .len()
        .checked_add(1)
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME_LEN")
        })?;
    w.write_all(&(body_len as u32).to_le_bytes())?;
    w.write_all(&[frame.kind])?;
    w.write_all(&frame.payload)
}

/// Reads one frame; `Ok(None)` on a clean end-of-stream (EOF exactly at a
/// frame boundary), an error on truncation mid-frame or an oversized /
/// zero-length body.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream truncated inside a frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    let body_len = u32::from_le_bytes(len_buf) as usize;
    if body_len == 0 || body_len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body length {body_len} outside 1..={MAX_FRAME_LEN}"),
        ));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    let kind = body[0];
    body.remove(0);
    Ok(Some(Frame {
        kind,
        payload: body,
    }))
}

/// Answers a query JSON against a [`StreamView`]: a live tenant for `query`,
/// its finished summary for `finish`. Injected by the caller (the
/// `analysis` crate supplies the real one) so this module never depends on
/// the analysis layer above it.
pub type QueryAnswerer = Arc<dyn Fn(StreamView<'_>, &Json) -> Result<Json, String> + Send + Sync>;

/// Serialises a [`StreamConfig`] as the JSON document the `hello` op
/// carries.
pub fn config_to_json(config: &StreamConfig) -> Json {
    let mut doc = Json::object();
    doc.insert("observer", config.observer.as_str());
    doc.insert("dht_server", config.dht_server);
    doc.insert("started_at_ms", config.started_at.as_millis());
    doc.insert("ended_at_ms", config.ended_at.as_millis());
    match config.close_quantisation {
        Some(q) => doc.insert("close_quantisation_ms", q.as_millis()),
        None => doc.insert("close_quantisation_ms", Json::Null),
    };
    doc.insert("snapshot_interval_ms", config.snapshot_interval.as_millis());
    doc.insert("window_ms", config.window.as_millis());
    doc.insert(
        "duration_mode",
        match config.duration_mode {
            DurationMode::Exact => "exact",
            DurationMode::LogBucketed => "log_bucketed",
        },
    );
    doc.insert("retained_panes", config.retained_panes as u64);
    doc
}

/// Parses the `hello` op's config document back into a [`StreamConfig`],
/// refusing one that a monitor could not fold in bounded time: a
/// measurement that ends before it starts, a pane, tick or close
/// quantisation that overflows past its end, or more panes or gauge ticks
/// than a fixed cap.
pub fn config_from_json(doc: &Json) -> Result<StreamConfig, String> {
    let err = |e: jsonio::JsonError| format!("bad stream config: {e}");
    let close_quantisation = match doc.get("close_quantisation_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(SimDuration::from_millis(v.as_u64().ok_or_else(|| {
            "bad stream config: close_quantisation_ms must be null or an integer".to_string()
        })?)),
    };
    let duration_mode = match doc.str_field("duration_mode").map_err(err)? {
        "exact" => DurationMode::Exact,
        "log_bucketed" => DurationMode::LogBucketed,
        other => return Err(format!("bad stream config: unknown duration_mode {other:?}")),
    };
    let retained = doc.u64_field("retained_panes").map_err(err)?;
    let config = StreamConfig {
        observer: doc.str_field("observer").map_err(err)?.to_string(),
        dht_server: doc.bool_field("dht_server").map_err(err)?,
        started_at: SimTime::from_millis(doc.u64_field("started_at_ms").map_err(err)?),
        ended_at: SimTime::from_millis(doc.u64_field("ended_at_ms").map_err(err)?),
        close_quantisation,
        snapshot_interval: SimDuration::from_millis(
            doc.u64_field("snapshot_interval_ms").map_err(err)?,
        ),
        window: SimDuration::from_millis(doc.u64_field("window_ms").map_err(err)?),
        duration_mode,
        retained_panes: usize::try_from(retained).unwrap_or(usize::MAX),
    };
    config
        .check_bounds()
        .map_err(|fault| format!("bad stream config: {fault}"))?;
    Ok(config)
}

/// Daemon options: where (and how often) to checkpoint.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Checkpoint file; `None` disables the `checkpoint` op and automatic
    /// checkpoints. Writes are atomic (temp file + rename).
    pub checkpoint_path: Option<PathBuf>,
    /// Automatically checkpoint after every N event frames (requires
    /// `checkpoint_path`).
    pub checkpoint_every: Option<u64>,
}

/// One tenant: a live monitor, its registry mirror, and its failure state.
struct Tenant {
    monitor: StreamingMonitor,
    registry: IdentifyRegistry,
    /// First ingest error, if any. A poisoned tenant drops further binary
    /// frames and fails its control ops with this message — the feed must
    /// `finish`/re-`hello` (or the operator restore a checkpoint).
    poisoned: Option<String>,
}

/// Checkpoint block kinds (disjoint from the trace-archive `BK_*` range).
const CK_META: u16 = 32;
const CK_MONITOR: u16 = 33;
const CK_REGISTRY: u16 = 34;
/// Version byte leading the checkpoint meta block.
const CK_VERSION: u8 = 1;

/// The daemon's whole mutable state: the tenant table plus counters.
/// Transport layers ([`serve_connection`], [`serve_unix`]) share one behind
/// a mutex; every frame is handled under the lock, which is what bounds
/// query latency — a query never waits on more than one in-flight batch.
pub struct ServeState {
    tenants: BTreeMap<String, Tenant>,
    answerer: QueryAnswerer,
    options: ServeOptions,
    shutdown: bool,
    event_frames: u64,
}

impl ServeState {
    /// Creates an empty daemon state.
    pub fn new(answerer: QueryAnswerer, options: ServeOptions) -> ServeState {
        ServeState {
            tenants: BTreeMap::new(),
            answerer,
            options,
            shutdown: false,
            event_frames: 0,
        }
    }

    /// True once a `shutdown` op was handled; transport loops exit on it.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Number of tenants currently hosted.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Total events ingested across all live tenants.
    pub fn events_ingested(&self) -> u64 {
        self.tenants
            .values()
            .map(|t| t.monitor.events_ingested())
            .sum()
    }

    /// Serialises the complete tenant table — monitor state snapshots plus
    /// full registry deltas inside the archive block container, led by a
    /// meta block carrying the tenant directory.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_u8(CK_VERSION);
        meta.put_uvarint(self.event_frames);
        meta.put_uvarint(self.tenants.len() as u64);
        for (name, tenant) in &self.tenants {
            meta.put_str(name);
            match &tenant.poisoned {
                Some(msg) => {
                    meta.put_u8(1);
                    meta.put_str(msg);
                }
                None => meta.put_u8(0),
            }
        }
        let mut writer = ArchiveWriter::new();
        writer.push_block(CK_META, GLOBAL_OWNER, &meta.into_bytes());
        for (index, tenant) in self.tenants.values().enumerate() {
            let owner = u32::try_from(index).expect("tenant count exceeds u32");
            writer.push_block(CK_MONITOR, owner, &tenant.monitor.state_snapshot());
            writer.push_block(
                CK_REGISTRY,
                owner,
                &encode_registry_delta(&tenant.registry, 0, 0, 0),
            );
        }
        writer.finish()
    }

    /// Rebuilds a daemon state from [`Self::checkpoint_bytes`] output,
    /// verifying every block checksum and rejecting truncated or bit-flipped
    /// checkpoints with a typed error.
    pub fn restore(
        bytes: &[u8],
        answerer: QueryAnswerer,
        options: ServeOptions,
    ) -> Result<ServeState, ArchiveError> {
        let file = ArchiveFile::parse(bytes)?;
        let meta = file.block(CK_META, GLOBAL_OWNER)?;
        let mut r = ByteReader::new(meta);
        let version = r.u8("checkpoint version")?;
        if version != CK_VERSION {
            return Err(ArchiveError::Malformed {
                context: format!("unsupported checkpoint version {version}"),
            });
        }
        let event_frames = r.uvarint("checkpoint event-frame counter")?;
        let count = r.len("checkpoint tenant count")?;
        let mut tenants = BTreeMap::new();
        for index in 0..count {
            let name = r.str("checkpoint tenant name")?.to_string();
            let poisoned = match r.u8("checkpoint poison tag")? {
                0 => None,
                1 => Some(r.str("checkpoint poison message")?.to_string()),
                tag => {
                    return Err(ArchiveError::Malformed {
                        context: format!("invalid checkpoint poison tag {tag}"),
                    })
                }
            };
            let owner = u32::try_from(index).map_err(|_| ArchiveError::Malformed {
                context: "checkpoint tenant count exceeds u32".to_string(),
            })?;
            let monitor = StreamingMonitor::restore(file.block(CK_MONITOR, owner)?)?;
            let mut registry = IdentifyRegistry::new();
            apply_registry_delta(&mut registry, file.block(CK_REGISTRY, owner)?)?;
            monitor
                .check_ids(&registry)
                .map_err(|fault| ArchiveError::Malformed {
                    context: format!("checkpoint tenant {name:?}: {fault}"),
                })?;
            if tenants
                .insert(
                    name.clone(),
                    Tenant {
                        monitor,
                        registry,
                        poisoned,
                    },
                )
                .is_some()
            {
                return Err(ArchiveError::Malformed {
                    context: format!("duplicate tenant {name:?} in checkpoint"),
                });
            }
        }
        r.finish("checkpoint meta")?;
        Ok(ServeState {
            tenants,
            answerer,
            options,
            shutdown: false,
            event_frames,
        })
    }

    /// Writes the current checkpoint atomically to the configured path, in a
    /// way that survives power loss: the bytes go to a temp file that is
    /// synced before it is renamed over the checkpoint, and the directory
    /// is synced after the rename so the new entry is durable too.
    pub fn write_checkpoint(&self) -> io::Result<u64> {
        let path = self.options.checkpoint_path.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no checkpoint path configured")
        })?;
        let bytes = self.checkpoint_bytes();
        let tmp = path.with_file_name(format!(
            "{}.tmp",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "checkpoint".to_string())
        ));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, &path)?;
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(bytes.len() as u64)
    }

    /// Handles one frame. Control frames always produce a reply frame;
    /// binary frames produce none (ingest errors poison the tenant and
    /// surface on its next control op).
    pub fn handle_frame(&mut self, frame: &Frame) -> Option<Frame> {
        match frame.kind {
            FRAME_CONTROL => Some(self.handle_control(frame)),
            FRAME_EVENTS => {
                self.handle_tenant_block(frame, true);
                None
            }
            FRAME_REGISTRY => {
                self.handle_tenant_block(frame, false);
                None
            }
            kind => Some(Frame::control(&error_doc(format!(
                "unknown frame kind {kind}"
            )))),
        }
    }

    fn handle_tenant_block(&mut self, frame: &Frame, events: bool) {
        let mut r = ByteReader::new(&frame.payload);
        let parsed = (|| -> Result<(String, Vec<u8>), String> {
            let name = r.str("tenant name").map_err(|e| e.to_string())?.to_string();
            let block = r.bytes("tenant block").map_err(|e| e.to_string())?.to_vec();
            r.finish("tenant frame").map_err(|e| e.to_string())?;
            Ok((name, block))
        })();
        let (name, block) = match parsed {
            Ok(parts) => parts,
            // No tenant to poison: a frame too mangled to even name its
            // tenant is dropped (the sender notices on its next status op
            // when the cursor stops advancing).
            Err(_) => return,
        };
        let Some(tenant) = self.tenants.get_mut(&name) else {
            return;
        };
        if tenant.poisoned.is_some() {
            return;
        }
        let result = if events {
            decode_event_block(&block)
                .and_then(|table| check_rows(&table, &tenant.registry).map(|()| table))
                .and_then(|table| tenant.monitor.check_row_times(&table).map(|()| table))
                .map(|table| tenant.monitor.ingest_table(&table))
        } else {
            apply_registry_delta(&mut tenant.registry, &block)
        };
        if let Err(err) = result {
            tenant.poisoned = Some(format!(
                "{} frame rejected: {err:?}",
                if events { "event" } else { "registry" }
            ));
            return;
        }
        if events {
            self.event_frames += 1;
            if let (Some(every), Some(_)) = (
                self.options.checkpoint_every,
                self.options.checkpoint_path.as_ref(),
            ) {
                if every > 0 && self.event_frames.is_multiple_of(every) {
                    if let Err(err) = self.write_checkpoint() {
                        eprintln!("# serve: automatic checkpoint failed: {err}");
                    }
                }
            }
        }
    }

    fn handle_control(&mut self, frame: &Frame) -> Frame {
        let doc = match frame.control_json() {
            Ok(doc) => doc,
            Err(err) => return Frame::control(&error_doc(err)),
        };
        let reply = match doc.str_field("op") {
            Ok("ping") => {
                let mut ok = ok_doc();
                ok.insert("tenants", self.tenants.len() as u64);
                Ok(ok)
            }
            Ok("shutdown") => {
                self.shutdown = true;
                Ok(ok_doc())
            }
            Ok("checkpoint") => self.write_checkpoint().map_err(|e| e.to_string()).map(|n| {
                let mut ok = ok_doc();
                ok.insert("bytes", n);
                ok
            }),
            Ok("hello") => self.op_hello(&doc),
            Ok("status") => self.op_status(&doc),
            Ok("query") => self.op_query(&doc),
            Ok("finish") => self.op_finish(&doc),
            Ok(op) => Err(format!("unknown op {op:?}")),
            Err(err) => Err(format!("control frame missing op: {err}")),
        };
        Frame::control(&match reply {
            Ok(doc) => doc,
            Err(err) => error_doc(err),
        })
    }

    fn op_hello(&mut self, doc: &Json) -> Result<Json, String> {
        let name = doc.str_field("tenant").map_err(|e| e.to_string())?;
        let config = config_from_json(doc.field("config").map_err(|e| e.to_string())?)?;
        if self.tenants.contains_key(name) {
            return Err(format!("tenant {name:?} already exists"));
        }
        self.tenants.insert(
            name.to_string(),
            Tenant {
                monitor: StreamingMonitor::new(config),
                registry: IdentifyRegistry::new(),
                poisoned: None,
            },
        );
        let mut ok = ok_doc();
        ok.insert("tenant", name);
        Ok(ok)
    }

    fn op_status(&mut self, doc: &Json) -> Result<Json, String> {
        let name = doc.str_field("tenant").map_err(|e| e.to_string())?;
        let tenant = self
            .tenants
            .get(name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        let mut ok = ok_doc();
        ok.insert("tenant", name);
        ok.insert("events", tenant.monitor.events_ingested());
        ok.insert("peers", tenant.registry.peer_count());
        ok.insert("addrs", tenant.registry.addr_count());
        ok.insert("infos", tenant.registry.identify_count());
        match &tenant.poisoned {
            Some(msg) => ok.insert("poisoned", msg.as_str()),
            None => ok.insert("poisoned", Json::Null),
        };
        Ok(ok)
    }

    fn op_query(&mut self, doc: &Json) -> Result<Json, String> {
        let name = doc.str_field("tenant").map_err(|e| e.to_string())?;
        let query = doc.field("query").map_err(|e| e.to_string())?;
        let tenant = self
            .tenants
            .get(name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        if let Some(msg) = &tenant.poisoned {
            return Err(format!("tenant {name:?} poisoned: {msg}"));
        }
        let answer = (self.answerer)(StreamView::Live(&tenant.monitor, &tenant.registry), query)?;
        let mut ok = ok_doc();
        ok.insert("tenant", name);
        ok.insert("answer", answer);
        Ok(ok)
    }

    fn op_finish(&mut self, doc: &Json) -> Result<Json, String> {
        let name = doc.str_field("tenant").map_err(|e| e.to_string())?;
        let tenant = self
            .tenants
            .get(name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        if let Some(msg) = &tenant.poisoned {
            let msg = msg.clone();
            self.tenants.remove(name);
            return Err(format!("tenant {name:?} poisoned: {msg}"));
        }
        let default_query = {
            let mut q = Json::object();
            q.insert("kind", "summary");
            q
        };
        let query = doc.get("query").unwrap_or(&default_query).clone();
        let tenant = self.tenants.remove(name).expect("tenant checked above");
        let summary = tenant.monitor.finish(&tenant.registry);
        let answer = (self.answerer)(StreamView::Finished(&summary), &query)?;
        let mut ok = ok_doc();
        ok.insert("tenant", name);
        ok.insert("answer", answer);
        Ok(ok)
    }
}

fn ok_doc() -> Json {
    let mut doc = Json::object();
    doc.insert("ok", true);
    doc
}

fn error_doc(message: impl Into<String>) -> Json {
    let mut doc = Json::object();
    doc.insert("ok", false);
    doc.insert("error", message.into());
    doc
}

/// Serves one bidirectional stream (a Unix-socket connection, a pipe pair,
/// an in-memory duplex in tests): reads frames until clean EOF or the
/// shared state shuts down, handling each under the lock and writing the
/// reply (if any) back immediately.
pub fn serve_connection<S: Read + Write>(state: &Mutex<ServeState>, stream: &mut S) -> io::Result<()> {
    while let Some(frame) = read_frame(stream)? {
        let (reply, shutdown) = {
            let mut guard = state.lock().expect("serve state lock poisoned");
            let reply = guard.handle_frame(&frame);
            (reply, guard.is_shutdown())
        };
        if let Some(reply) = reply {
            write_frame(stream, &reply)?;
            stream.flush()?;
        }
        if shutdown {
            break;
        }
    }
    Ok(())
}

/// Binds a Unix listener at `path` (replacing a stale socket file), accepts
/// connections until a `shutdown` op arrives, and serves each connection on
/// its own thread against the shared state. Returns once every connection
/// thread has drained. Unix only — the protocol itself ([`serve_connection`])
/// is transport-agnostic.
#[cfg(unix)]
pub fn serve_unix(path: &Path, state: Arc<Mutex<ServeState>>) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let mut handles = Vec::new();
    loop {
        match listener.accept() {
            Ok((mut stream, _addr)) => {
                stream.set_nonblocking(false)?;
                let state = Arc::clone(&state);
                handles.push(std::thread::spawn(move || {
                    if let Err(err) = serve_connection(&state, &mut stream) {
                        eprintln!("# serve: connection error: {err}");
                    }
                }));
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                if state.lock().expect("serve state lock poisoned").is_shutdown() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Err(err) => return Err(err),
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
/// Unix-domain transport is unavailable on this platform; drive
/// [`serve_connection`] over another duplex stream instead.
pub fn serve_unix(_path: &Path, _state: Arc<Mutex<ServeState>>) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "unix-domain sockets are unavailable on this platform",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::archive::encode_event_block;
    use netsim::ObservationTable;
    use p2pmodel::{AgentVersion, CloseReason, ConnectionId, Direction, IdentifyInfo, IpAddress,
        Multiaddr, PeerId, ProtocolSet, Transport};

    /// A [`QueryAnswerer`] that replies with the summary's `Debug` rendering —
    /// enough for the byte-identity tests in this crate, which compare restored
    /// and uninterrupted monitors without reaching into `analysis`.
    fn debug_answerer() -> QueryAnswerer {
        Arc::new(|view, _query| {
            let mut doc = Json::object();
            doc.insert("debug", format!("{:?}", view.summary()));
            Ok(doc)
        })
    }

    fn sample_feed() -> (StreamConfig, IdentifyRegistry, ObservationTable) {
        let mut registry = IdentifyRegistry::new();
        let a = registry.register_peer(PeerId::derived(1));
        let b = registry.register_peer(PeerId::derived(2));
        let addr_a = registry.intern_addr(Multiaddr::new(IpAddress::V4(10), Transport::Tcp, 4001));
        let addr_b = registry.intern_addr(Multiaddr::new(IpAddress::V4(11), Transport::Quic, 4001));
        let info = registry.intern_identify(&IdentifyInfo::new(
            AgentVersion::parse("go-ipfs/0.11.0/serve"),
            ProtocolSet::go_ipfs_dht_server(),
            vec![],
        ));
        let mut table = ObservationTable::new();
        table.connection_opened(SimTime::from_secs(3), ConnectionId(1), a, Direction::Inbound, addr_a);
        table.identify_received(SimTime::from_secs(4), a, info);
        table.connection_opened(SimTime::from_secs(20), ConnectionId(2), b, Direction::Outbound, addr_b);
        table.connection_closed(SimTime::from_secs(95), ConnectionId(1), a, CloseReason::PeerLeft);
        table.peer_discovered(SimTime::from_secs(120), b, addr_b);
        table.connection_closed(SimTime::from_secs(260), ConnectionId(2), b, CloseReason::TrimmedRemote);
        let config = StreamConfig::go_ipfs(
            "serve-test",
            true,
            SimTime::ZERO,
            SimTime::from_secs(300),
            SimDuration::from_secs(60),
        );
        (config, registry, table)
    }

    /// A loopback stream: reads from a pre-composed request buffer, captures
    /// everything the daemon writes back.
    struct Duplex {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn control_op(op: &str, tenant: Option<&str>) -> Frame {
        let mut doc = Json::object();
        doc.insert("op", op);
        if let Some(t) = tenant {
            doc.insert("tenant", t);
        }
        Frame::control(&doc)
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let frames = [
            Frame::control(&ok_doc()),
            Frame::tenant_block(FRAME_EVENTS, "t0", b"payload"),
            Frame { kind: FRAME_REGISTRY, payload: Vec::new() },
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut cursor = io::Cursor::new(wire.clone());
        for frame in &frames {
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), *frame);
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        // Truncation mid-frame is an error, not a silent None.
        let mut cut = io::Cursor::new(wire[..wire.len() - 1].to_vec());
        for _ in 0..frames.len() - 1 {
            read_frame(&mut cut).unwrap();
        }
        assert!(read_frame(&mut cut).is_err());

        // A hostile length prefix is rejected before allocating.
        let mut huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        huge.push(FRAME_CONTROL);
        assert!(read_frame(&mut io::Cursor::new(huge)).is_err());
        let oversized = Frame { kind: FRAME_CONTROL, payload: vec![0u8; MAX_FRAME_LEN] };
        assert!(write_frame(&mut Vec::new(), &oversized).is_err());
    }

    #[test]
    fn stream_config_json_roundtrips() {
        let (config, _, _) = sample_feed();
        for config in [
            config.clone(),
            config.clone().with_duration_mode(DurationMode::LogBucketed),
            config.with_retained_panes(0),
            StreamConfig::hydra("h", SimTime::ZERO, SimTime::from_secs(9), SimDuration::from_secs(3)),
        ] {
            assert_eq!(config_from_json(&config_to_json(&config)).unwrap(), config);
        }
    }

    #[test]
    fn protocol_conversation_matches_direct_ingest() {
        let (config, registry, table) = sample_feed();
        let mut direct = StreamingMonitor::new(config.clone());
        direct.ingest_table(&table);
        let expected = format!("{:?}", direct.finish(&registry));

        let mut requests = Vec::new();
        let mut hello = Json::object();
        hello.insert("op", "hello");
        hello.insert("tenant", "t0");
        hello.insert("config", config_to_json(&config));
        write_frame(&mut requests, &Frame::control(&hello)).unwrap();
        write_frame(
            &mut requests,
            &Frame::tenant_block(FRAME_REGISTRY, "t0", &encode_registry_delta(&registry, 0, 0, 0)),
        )
        .unwrap();
        // Two batches: mid-stream query answers from the live clone.
        write_frame(
            &mut requests,
            &Frame::tenant_block(FRAME_EVENTS, "t0", &encode_event_block(&table, 0, 3)),
        )
        .unwrap();
        let mut query = Json::object();
        query.insert("op", "query");
        query.insert("tenant", "t0");
        query.insert("query", Json::object());
        write_frame(&mut requests, &Frame::control(&query)).unwrap();
        write_frame(
            &mut requests,
            &Frame::tenant_block(FRAME_EVENTS, "t0", &encode_event_block(&table, 3, table.len())),
        )
        .unwrap();
        write_frame(&mut requests, &control_op("status", Some("t0"))).unwrap();
        write_frame(&mut requests, &control_op("finish", Some("t0"))).unwrap();
        write_frame(&mut requests, &control_op("shutdown", None)).unwrap();

        let state = Mutex::new(ServeState::new(debug_answerer(), ServeOptions::default()));
        let mut duplex = Duplex { input: io::Cursor::new(requests), output: Vec::new() };
        serve_connection(&state, &mut duplex).unwrap();
        assert!(state.lock().unwrap().is_shutdown());

        let mut replies = Vec::new();
        let mut cursor = io::Cursor::new(duplex.output);
        while let Some(frame) = read_frame(&mut cursor).unwrap() {
            replies.push(frame.control_json().unwrap());
        }
        // hello, query, status, finish, shutdown — binary frames unanswered.
        assert_eq!(replies.len(), 5);
        for reply in &replies {
            assert!(reply.bool_field("ok").unwrap(), "{reply:?}");
        }
        assert_eq!(replies[2].u64_field("events").unwrap(), 6);
        assert_eq!(replies[2].u64_field("peers").unwrap(), 2);
        let final_answer = replies[3].field("answer").unwrap();
        assert_eq!(final_answer.str_field("debug").unwrap(), expected);
        // The mid-stream query saw only the first batch.
        let mid = replies[1].field("answer").unwrap().str_field("debug").unwrap();
        assert_ne!(mid, expected);
    }

    #[test]
    fn malformed_batches_poison_only_their_tenant() {
        let (config, registry, table) = sample_feed();
        let mut state = ServeState::new(debug_answerer(), ServeOptions::default());
        for name in ["good", "bad"] {
            let mut hello = Json::object();
            hello.insert("op", "hello");
            hello.insert("tenant", name);
            hello.insert("config", config_to_json(&config));
            let reply = state.handle_frame(&Frame::control(&hello)).unwrap();
            assert!(reply.control_json().unwrap().bool_field("ok").unwrap());
        }
        let delta = encode_registry_delta(&registry, 0, 0, 0);
        let block = encode_event_block(&table, 0, table.len());
        for name in ["good", "bad"] {
            assert!(state.handle_frame(&Frame::tenant_block(FRAME_REGISTRY, name, &delta)).is_none());
        }
        state.handle_frame(&Frame::tenant_block(FRAME_EVENTS, "good", &block));
        state.handle_frame(&Frame::tenant_block(FRAME_EVENTS, "bad", &block[..block.len() / 2]));
        // Post-poison batches are dropped, not ingested.
        state.handle_frame(&Frame::tenant_block(FRAME_EVENTS, "bad", &block));

        let status = |state: &mut ServeState, name: &str| {
            state
                .handle_frame(&control_op("status", Some(name)))
                .unwrap()
                .control_json()
                .unwrap()
        };
        let good = status(&mut state, "good");
        assert_eq!(good.u64_field("events").unwrap(), table.len() as u64);
        assert!(matches!(good.get("poisoned"), Some(Json::Null)));
        let bad = status(&mut state, "bad");
        assert_eq!(bad.u64_field("events").unwrap(), 0);
        assert!(bad.str_field("poisoned").is_ok());
        // finish on a poisoned tenant fails but clears it.
        let reply = state.handle_frame(&control_op("finish", Some("bad"))).unwrap();
        assert!(!reply.control_json().unwrap().bool_field("ok").unwrap());
        assert_eq!(state.tenant_count(), 1);
    }

    #[test]
    fn restore_rejects_monitor_ids_the_registry_does_not_hold() {
        let (config, registry, table) = sample_feed();
        let mut monitor = StreamingMonitor::new(config);
        monitor.ingest_table(&table);
        let peers = [registry.peer(0), registry.peer(1)];
        let addrs = [registry.addr(0), registry.addr(1)];
        let infos = [registry.identify(0).clone()];
        let interned = |peers: &[PeerId], addrs: &[Multiaddr], infos: &[IdentifyInfo]| {
            let mut registry = IdentifyRegistry::new();
            for &peer in peers {
                registry.register_peer(peer);
            }
            for &addr in addrs {
                registry.intern_addr(addr);
            }
            for info in infos {
                registry.intern_identify(info);
            }
            registry
        };
        let registries = [
            ("none", interned(&peers, &addrs, &infos)),
            ("peer slot 1", interned(&peers[..1], &addrs, &infos)),
            ("address id 1", interned(&peers, &addrs[..1], &infos)),
            ("identify id 0", interned(&peers, &addrs, &[])),
        ];
        for (missing, registry) in registries {
            let mut state = ServeState::new(debug_answerer(), ServeOptions::default());
            state.tenants.insert(
                "t0".to_string(),
                Tenant {
                    monitor: monitor.clone(),
                    registry,
                    poisoned: None,
                },
            );
            let restored = ServeState::restore(
                &state.checkpoint_bytes(),
                debug_answerer(),
                ServeOptions::default(),
            );
            match restored {
                Ok(_) => assert_eq!(missing, "none", "a checkpoint missing {missing} restored"),
                Err(ArchiveError::Malformed { context }) => {
                    assert!(context.contains(missing), "{missing}: {context}");
                }
                Err(err) => panic!("{missing}: unexpected error {err:?}"),
            }
        }
    }

    #[test]
    fn checkpoint_roundtrips_and_rejects_corruption() {
        let (config, registry, table) = sample_feed();
        let mut state = ServeState::new(debug_answerer(), ServeOptions::default());
        for (i, name) in ["t0", "t1"].iter().enumerate() {
            let mut hello = Json::object();
            hello.insert("op", "hello");
            hello.insert("tenant", *name);
            hello.insert("config", config_to_json(&config));
            state.handle_frame(&Frame::control(&hello));
            state.handle_frame(&Frame::tenant_block(
                FRAME_REGISTRY,
                name,
                &encode_registry_delta(&registry, 0, 0, 0),
            ));
            // Different ingest depth per tenant.
            state.handle_frame(&Frame::tenant_block(
                FRAME_EVENTS,
                name,
                &encode_event_block(&table, 0, table.len() - i),
            ));
        }
        let bytes = state.checkpoint_bytes();
        let restored =
            ServeState::restore(&bytes, debug_answerer(), ServeOptions::default()).unwrap();
        assert_eq!(restored.tenant_count(), 2);
        for name in ["t0", "t1"] {
            let original = &state.tenants[name];
            let back = &restored.tenants[name];
            assert_eq!(back.monitor, original.monitor, "{name}");
            assert_eq!(back.registry.peer_count(), original.registry.peer_count());
            assert_eq!(
                format!("{:?}", back.monitor.clone().finish(&back.registry)),
                format!("{:?}", original.monitor.clone().finish(&original.registry)),
            );
        }

        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ServeState::restore(&bytes[..cut], debug_answerer(), ServeOptions::default())
                    .is_err(),
                "cut at {cut} was accepted"
            );
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(
            ServeState::restore(&flipped, debug_answerer(), ServeOptions::default()).is_err()
        );
    }
}
