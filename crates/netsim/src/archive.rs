//! The persistent columnar trace-archive container.
//!
//! Every analysis in the repo used to re-run the simulation; the dataset died
//! with the process. This module is the storage half of the `repro export` /
//! `repro analyze` pair: a versioned binary container that persists a full
//! [`SimulationOutput`] — the per-observer [`ObservationTable`] rows, the
//! interned [`IdentifyRegistry`] (written exactly once), the ground truth and
//! the DHT routing-table history — so a campaign is simulated once and
//! re-analysed many times, byte-identically.
//!
//! # Container layout
//!
//! ```text
//! header:  MAGIC "IPFSOBSA" (8 B) | format version u32 LE (4 B)
//! blocks:  raw payloads, back to back (no per-block framing in the stream)
//! footer:  entry count u32 | per block { kind u16, owner u32,
//!              offset u64, len u64, FNV-1a checksum u64 }
//! tail:    footer offset u64 | footer checksum u64 | MAGIC "IPFSOBSF" (8 B)
//! ```
//!
//! All integers are little-endian. Offsets/lengths/checksums live only in the
//! footer, so a reader seeks from the fixed-size tail straight to any block
//! without parsing the file; block payloads are verified against their FNV-1a
//! checksum on access, so a flipped bit fails loudly instead of corrupting an
//! analysis. The format version is checked before anything else — an archive
//! written by another format version is rejected, not misparsed.
//!
//! The registry and the observation rows use the wire codecs the serve
//! daemon's frames use: the registry is one [`encode_registry_delta`] block
//! from an empty registry, and each observer's rows are one
//! [`encode_event_block`] block over its whole table. An archive therefore
//! stores exactly the bytes a serve feed sends. The campaign-level metadata
//! block is opaque at this layer — `measurement::archive` owns its encoding.

use crate::dht::{DhtConduct, DhtEvent, DhtLog};
use crate::engine::SimulationOutput;
use crate::events::{GroundTruth, GroundTruthEvent, ObserverLog};
use crate::obs::{try_close_reason, IdentifyRegistry, ObservationKind, ObservationTable, NO_CONN};
use p2pmodel::agent::SemVer;
use p2pmodel::peer_id::PEER_ID_BYTES;
use p2pmodel::{
    AgentVersion, IdentifyInfo, IpAddress, Multiaddr, PeerId, ProtocolSet, Transport, VersionFlavor,
};
use simclock::rng::fnv1a;
use simclock::SimTime;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Leading magic of every archive file.
pub(crate) const MAGIC: [u8; 8] = *b"IPFSOBSA";
/// Trailing magic sealing the footer tail.
pub(crate) const FOOTER_MAGIC: [u8; 8] = *b"IPFSOBSF";
/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;

/// Owner tag of blocks that belong to the whole archive rather than to one
/// observer (registry, ground truth, metadata).
pub const GLOBAL_OWNER: u32 = u32::MAX;

// Block kinds, the `kind` of a footer entry and of [`ArchiveFile::block`].
// The `owner` field of an events block is the observer's index in the
// [`BK_OBSERVERS`] directory; every other block is [`GLOBAL_OWNER`]'s.

/// The caller's opaque campaign metadata.
pub const BK_META: u16 = 1;
/// The run's registry: one [`encode_registry_delta`] block from `(0, 0, 0)`.
pub const BK_REGISTRY: u16 = 2;
/// Observer directory: per-log metadata, in log order.
pub const BK_OBSERVERS: u16 = 5;
/// Ground-truth peers and events.
pub const BK_GROUND_TRUTH: u16 = 6;
/// DHT routing-table history.
pub const BK_DHT: u16 = 7;
/// One observer's rows: one [`encode_event_block`] block over its table.
pub const BK_EVENTS: u16 = 8;

/// Everything that can go wrong reading an archive. Corruption is always a
/// loud, typed failure — never a silently wrong analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// The file is shorter than the structure being read requires.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The leading or trailing magic bytes are wrong — not an archive, or
    /// the tail was cut off.
    BadMagic {
        /// Which magic failed.
        context: &'static str,
    },
    /// The archive was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A block's payload does not hash to the checksum recorded in the
    /// footer.
    ChecksumMismatch {
        /// The block's kind tag.
        kind: u16,
        /// The block's owner tag.
        owner: u32,
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// A block the decoder needs is absent from the footer index.
    MissingBlock {
        /// The block's kind tag.
        kind: u16,
        /// The block's owner tag.
        owner: u32,
    },
    /// The bytes decoded but the values make no sense.
    Malformed {
        /// Description of the inconsistency.
        context: String,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Truncated { context } => {
                write!(f, "archive truncated while reading {context}")
            }
            ArchiveError::BadMagic { context } => write!(f, "bad archive magic ({context})"),
            ArchiveError::UnsupportedVersion { found } => write!(
                f,
                "unsupported archive format version {found} (this build reads {FORMAT_VERSION})"
            ),
            ArchiveError::ChecksumMismatch {
                kind,
                owner,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in block kind {kind} owner {owner}: footer records {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            ArchiveError::MissingBlock { kind, owner } => {
                write!(f, "archive is missing block kind {kind} owner {owner}")
            }
            ArchiveError::Malformed { context } => write!(f, "malformed archive: {context}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

fn malformed(context: impl Into<String>) -> ArchiveError {
    ArchiveError::Malformed {
        context: context.into(),
    }
}

// ---------------------------------------------------------------------------
// Byte-level codec primitives
// ---------------------------------------------------------------------------

/// Little-endian / varint encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u128.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a LEB128 varint.
    pub fn put_uvarint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a zigzag-encoded signed varint.
    pub(crate) fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends raw bytes with no framing.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_uvarint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Little-endian / varint decoder over a borrowed slice. Every read is
/// bounds-checked and fails with [`ArchiveError::Truncated`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ArchiveError> {
        if self.buf.len() - self.pos < n {
            return Err(ArchiveError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a raw byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, ArchiveError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian u16.
    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, ArchiveError> {
        Ok(u16::from_le_bytes(self.take(2, context)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, ArchiveError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, ArchiveError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().unwrap()))
    }

    /// Reads a little-endian u128.
    pub fn u128(&mut self, context: &'static str) -> Result<u128, ArchiveError> {
        Ok(u128::from_le_bytes(self.take(16, context)?.try_into().unwrap()))
    }

    /// Reads an f64 from its bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, ArchiveError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a LEB128 varint.
    pub fn uvarint(&mut self, context: &'static str) -> Result<u64, ArchiveError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(context)?;
            if shift == 63 && byte > 1 {
                return Err(malformed(format!("varint overflow reading {context}")));
            }
            value |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(malformed(format!("varint too long reading {context}")));
            }
        }
    }

    /// Reads a zigzag-encoded signed varint.
    pub(crate) fn ivarint(&mut self, context: &'static str) -> Result<i64, ArchiveError> {
        let raw = self.uvarint(context)?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Reads a varint length as usize, guarding against absurd values.
    pub fn len(&mut self, context: &'static str) -> Result<usize, ArchiveError> {
        let v = self.uvarint(context)?;
        let v = usize::try_from(v).map_err(|_| malformed(format!("length overflow in {context}")))?;
        // A length can never exceed the bytes remaining (every element takes
        // at least one byte) — reject early. This bounds a count at one byte
        // per element only; reservations go through `Self::capacity_for`.
        if v > self.buf.len() - self.pos {
            return Err(ArchiveError::Truncated { context: "length-prefixed sequence" });
        }
        Ok(v)
    }

    /// How many of `count` elements of at least `min_len` encoded bytes
    /// each to reserve room for: never more than the bytes remaining can
    /// hold, so a forged count reserves no memory for elements that do not
    /// exist. On valid input the cap never binds. The archive and
    /// checkpoint decoders size every reservation by this cap.
    pub fn capacity_for(&self, count: usize, min_len: usize) -> usize {
        count.min((self.buf.len() - self.pos) / min_len)
    }

    /// An empty vector with room for [`Self::capacity_for`] elements.
    fn vec_for<T>(&self, count: usize, min_len: usize) -> Vec<T> {
        Vec::with_capacity(self.capacity_for(count, min_len))
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], ArchiveError> {
        let n = self.len(context)?;
        self.take(n, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, ArchiveError> {
        std::str::from_utf8(self.bytes(context)?)
            .map_err(|_| malformed(format!("invalid UTF-8 in {context}")))
    }

    /// Ensures every byte was consumed — trailing garbage is corruption.
    pub fn finish(self, context: &'static str) -> Result<(), ArchiveError> {
        if self.pos != self.buf.len() {
            return Err(malformed(format!(
                "{} trailing bytes after {context}",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Block container
// ---------------------------------------------------------------------------

/// One entry of the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockEntry {
    /// Block kind tag (`BK_*`).
    pub kind: u16,
    /// Owning observer index, or [`GLOBAL_OWNER`].
    pub owner: u32,
    /// Byte offset of the payload in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

/// Serialises an archive: header, then blocks, then the footer index.
#[derive(Debug)]
pub struct ArchiveWriter {
    buf: Vec<u8>,
    blocks: Vec<BlockEntry>,
}

impl ArchiveWriter {
    /// Starts an archive (writes the header).
    pub fn new() -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        ArchiveWriter {
            buf,
            blocks: Vec::new(),
        }
    }

    /// Appends a block payload and records it in the footer index.
    pub fn push_block(&mut self, kind: u16, owner: u32, payload: &[u8]) {
        self.blocks.push(BlockEntry {
            kind,
            owner,
            offset: self.buf.len() as u64,
            len: payload.len() as u64,
            checksum: fnv1a(payload),
        });
        self.buf.extend_from_slice(payload);
    }

    /// Writes the footer index and tail, returning the finished file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let footer_offset = self.buf.len() as u64;
        let mut footer = ByteWriter::new();
        footer.put_u32(self.blocks.len() as u32);
        for entry in &self.blocks {
            footer.put_u16(entry.kind);
            footer.put_u32(entry.owner);
            footer.put_u64(entry.offset);
            footer.put_u64(entry.len);
            footer.put_u64(entry.checksum);
        }
        let footer = footer.into_bytes();
        let footer_checksum = fnv1a(&footer);
        self.buf.extend_from_slice(&footer);
        self.buf.extend_from_slice(&footer_offset.to_le_bytes());
        self.buf.extend_from_slice(&footer_checksum.to_le_bytes());
        self.buf.extend_from_slice(&FOOTER_MAGIC);
        self.buf
    }
}

impl Default for ArchiveWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// A parsed archive: the raw bytes plus the verified footer index. Block
/// payloads are checksum-verified on access.
#[derive(Debug)]
pub struct ArchiveFile<'a> {
    bytes: &'a [u8],
    blocks: Vec<BlockEntry>,
}

impl<'a> ArchiveFile<'a> {
    /// Parses and verifies the header and footer of an archive.
    ///
    /// The block payloads are *not* touched here — readers seek to the
    /// columns they need via [`Self::block`], which verifies the checksum of
    /// exactly the bytes it hands out.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ArchiveError> {
        let header_len = MAGIC.len() + 4;
        if bytes.len() < header_len {
            return Err(ArchiveError::Truncated { context: "header" });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(ArchiveError::BadMagic { context: "file header" });
        }
        let version = u32::from_le_bytes(bytes[MAGIC.len()..header_len].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(ArchiveError::UnsupportedVersion { found: version });
        }
        let tail_len = 8 + 8 + FOOTER_MAGIC.len();
        if bytes.len() < header_len + tail_len {
            return Err(ArchiveError::Truncated { context: "footer tail" });
        }
        if bytes[bytes.len() - FOOTER_MAGIC.len()..] != FOOTER_MAGIC {
            return Err(ArchiveError::BadMagic { context: "footer tail" });
        }
        let tail_start = bytes.len() - tail_len;
        let footer_offset = u64::from_le_bytes(bytes[tail_start..tail_start + 8].try_into().unwrap());
        let footer_checksum =
            u64::from_le_bytes(bytes[tail_start + 8..tail_start + 16].try_into().unwrap());
        let footer_offset = usize::try_from(footer_offset)
            .ok()
            .filter(|&o| o >= header_len && o <= tail_start)
            .ok_or_else(|| malformed("footer offset out of bounds"))?;
        let footer = &bytes[footer_offset..tail_start];
        let actual = fnv1a(footer);
        if actual != footer_checksum {
            return Err(ArchiveError::ChecksumMismatch {
                kind: 0,
                owner: GLOBAL_OWNER,
                expected: footer_checksum,
                actual,
            });
        }
        let mut r = ByteReader::new(footer);
        let count = r.u32("footer entry count")? as usize;
        let mut blocks = r.vec_for(count, 30);
        for _ in 0..count {
            blocks.push(BlockEntry {
                kind: r.u16("footer entry kind")?,
                owner: r.u32("footer entry owner")?,
                offset: r.u64("footer entry offset")?,
                len: r.u64("footer entry len")?,
                checksum: r.u64("footer entry checksum")?,
            });
        }
        r.finish("footer index")?;
        Ok(ArchiveFile { bytes, blocks })
    }

    /// Looks up a block and returns its checksum-verified payload.
    pub fn block(&self, kind: u16, owner: u32) -> Result<&'a [u8], ArchiveError> {
        let entry = self
            .blocks
            .iter()
            .find(|b| b.kind == kind && b.owner == owner)
            .ok_or(ArchiveError::MissingBlock { kind, owner })?;
        let offset = usize::try_from(entry.offset).map_err(|_| malformed("block offset overflow"))?;
        let len = usize::try_from(entry.len).map_err(|_| malformed("block length overflow"))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ArchiveError::Truncated { context: "block payload" })?;
        let payload = &self.bytes[offset..end];
        let actual = fnv1a(payload);
        if actual != entry.checksum {
            return Err(ArchiveError::ChecksumMismatch {
                kind: entry.kind,
                owner: entry.owner,
                expected: entry.checksum,
                actual,
            });
        }
        Ok(payload)
    }
}

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

/// Fewest bytes an encoded [`Multiaddr`] takes: tag, IPv4, transport, port.
const ADDR_MIN_LEN: usize = 8;

fn put_peer(w: &mut ByteWriter, peer: &PeerId) {
    w.put_raw(peer.as_bytes());
}

fn read_peer(r: &mut ByteReader<'_>) -> Result<PeerId, ArchiveError> {
    let bytes = r.take(PEER_ID_BYTES, "peer id")?;
    Ok(PeerId::from_bytes(bytes.try_into().unwrap()))
}

fn put_addr(w: &mut ByteWriter, addr: &Multiaddr) {
    match addr.ip() {
        IpAddress::V4(v) => {
            w.put_u8(0);
            w.put_u32(v);
        }
        IpAddress::V6(v) => {
            w.put_u8(1);
            w.put_u128(v);
        }
    }
    w.put_u8(match addr.transport() {
        Transport::Tcp => 0,
        Transport::Quic => 1,
        Transport::Ws => 2,
        Transport::Circuit => 3,
    });
    w.put_u16(addr.port());
}

fn read_addr(r: &mut ByteReader<'_>) -> Result<Multiaddr, ArchiveError> {
    let ip = match r.u8("ip tag")? {
        0 => IpAddress::V4(r.u32("ipv4")?),
        1 => IpAddress::V6(r.u128("ipv6")?),
        tag => return Err(malformed(format!("unknown ip tag {tag}"))),
    };
    let transport = match r.u8("transport tag")? {
        0 => Transport::Tcp,
        1 => Transport::Quic,
        2 => Transport::Ws,
        3 => Transport::Circuit,
        tag => return Err(malformed(format!("unknown transport tag {tag}"))),
    };
    let port = r.u16("port")?;
    Ok(Multiaddr::new(ip, transport, port))
}

fn put_agent(w: &mut ByteWriter, agent: &AgentVersion) {
    match agent {
        AgentVersion::GoIpfs {
            version,
            commit,
            flavor,
        } => {
            w.put_u8(0);
            w.put_uvarint(version.major as u64);
            w.put_uvarint(version.minor as u64);
            w.put_uvarint(version.patch as u64);
            match &version.pre {
                Some(pre) => {
                    w.put_u8(1);
                    w.put_str(pre);
                }
                None => w.put_u8(0),
            }
            match commit {
                Some(commit) => {
                    w.put_u8(1);
                    w.put_str(commit);
                }
                None => w.put_u8(0),
            }
            w.put_u8(match flavor {
                VersionFlavor::Main => 0,
                VersionFlavor::Dirty => 1,
            });
        }
        AgentVersion::Other(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
        AgentVersion::Missing => w.put_u8(2),
    }
}

fn read_agent(r: &mut ByteReader<'_>) -> Result<AgentVersion, ArchiveError> {
    match r.u8("agent tag")? {
        0 => {
            let major = r.uvarint("semver major")? as u32;
            let minor = r.uvarint("semver minor")? as u32;
            let patch = r.uvarint("semver patch")? as u32;
            let version = match r.u8("semver pre tag")? {
                0 => SemVer::new(major, minor, patch),
                1 => SemVer::with_pre(major, minor, patch, r.str("semver pre")?),
                tag => return Err(malformed(format!("unknown semver pre tag {tag}"))),
            };
            let commit = match r.u8("commit tag")? {
                0 => None,
                1 => Some(r.str("commit")?),
                tag => return Err(malformed(format!("unknown commit tag {tag}"))),
            };
            let flavor = match r.u8("flavor tag")? {
                0 => VersionFlavor::Main,
                1 => VersionFlavor::Dirty,
                tag => return Err(malformed(format!("unknown flavor tag {tag}"))),
            };
            Ok(AgentVersion::go_ipfs(version, commit, flavor))
        }
        1 => Ok(AgentVersion::Other(r.str("other agent")?.to_string())),
        2 => Ok(AgentVersion::Missing),
        tag => Err(malformed(format!("unknown agent tag {tag}"))),
    }
}

fn put_identify(w: &mut ByteWriter, info: &IdentifyInfo) {
    put_agent(w, &info.agent);
    w.put_uvarint(info.protocols.len() as u64);
    for protocol in info.protocols.iter() {
        w.put_str(protocol.as_str());
    }
    w.put_uvarint(info.listen_addrs.len() as u64);
    for addr in &info.listen_addrs {
        put_addr(w, addr);
    }
}

fn read_identify(r: &mut ByteReader<'_>) -> Result<IdentifyInfo, ArchiveError> {
    let agent = read_agent(r)?;
    let protocol_count = r.len("protocol count")?;
    let mut protocols = ProtocolSet::new();
    for _ in 0..protocol_count {
        protocols.insert(r.str("protocol id")?);
    }
    let addr_count = r.len("listen addr count")?;
    let mut listen_addrs = r.vec_for(addr_count, ADDR_MIN_LEN);
    for _ in 0..addr_count {
        listen_addrs.push(read_addr(r)?);
    }
    Ok(IdentifyInfo::new(agent, protocols, listen_addrs))
}

// ---------------------------------------------------------------------------
// Column codecs (ObservationTable)
// ---------------------------------------------------------------------------

fn encode_col_at(ats: &[SimTime]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_uvarint(ats.len() as u64);
    let mut prev: u64 = 0;
    for (i, at) in ats.iter().enumerate() {
        let ms = at.as_millis();
        if i == 0 {
            w.put_uvarint(ms);
        } else {
            // Zigzag deltas: engine tables are time-sorted (deltas ≥ 0 and
            // tiny), but manually assembled tables need not be, and the
            // codec must round-trip any column exactly.
            w.put_ivarint(ms.wrapping_sub(prev) as i64);
        }
        prev = ms;
    }
    w.into_bytes()
}

fn decode_col_at(payload: &[u8]) -> Result<Vec<SimTime>, ArchiveError> {
    let mut r = ByteReader::new(payload);
    let count = r.len("at column count")?;
    let mut out = r.vec_for(count, 1);
    let mut prev: u64 = 0;
    for i in 0..count {
        let ms = if i == 0 {
            r.uvarint("first timestamp")?
        } else {
            prev.wrapping_add(r.ivarint("timestamp delta")? as u64)
        };
        out.push(SimTime::from_millis(ms));
        prev = ms;
    }
    r.finish("at column")?;
    Ok(out)
}

fn encode_col_kind(kinds: &[ObservationKind]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_uvarint(kinds.len() as u64);
    for &kind in kinds {
        w.put_u8(kind as u8);
    }
    w.into_bytes()
}

fn decode_col_kind(payload: &[u8]) -> Result<Vec<ObservationKind>, ArchiveError> {
    let mut r = ByteReader::new(payload);
    let count = r.len("kind column count")?;
    let mut out = r.vec_for(count, 1);
    for _ in 0..count {
        let byte = r.u8("kind byte")?;
        out.push(
            ObservationKind::from_u8(byte)
                .ok_or_else(|| malformed(format!("unknown observation kind {byte}")))?,
        );
    }
    r.finish("kind column")?;
    Ok(out)
}

fn encode_col_u32s(values: &[u32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_uvarint(values.len() as u64);
    for &v in values {
        w.put_uvarint(v as u64);
    }
    w.into_bytes()
}

fn decode_col_u32s(payload: &[u8], what: &'static str) -> Result<Vec<u32>, ArchiveError> {
    let mut r = ByteReader::new(payload);
    let count = r.len(what)?;
    let mut out = r.vec_for(count, 1);
    for _ in 0..count {
        let v = r.uvarint(what)?;
        out.push(u32::try_from(v).map_err(|_| malformed(format!("{what} value {v} exceeds u32")))?);
    }
    r.finish(what)?;
    Ok(out)
}

/// `NO_CONN` (`u64::MAX`) would be a worst-case 10-byte varint on the most
/// common non-connection rows, so the conn column stores `0` for it and
/// `conn + 1` otherwise.
fn encode_col_conn(conns: &[u64]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_uvarint(conns.len() as u64);
    for &conn in conns {
        if conn == crate::obs::NO_CONN {
            w.put_uvarint(0);
        } else {
            w.put_uvarint(
                conn.checked_add(1)
                    .expect("connection id u64::MAX - 1 is unrepresentable in an archive"),
            );
        }
    }
    w.into_bytes()
}

fn decode_col_conn(payload: &[u8]) -> Result<Vec<u64>, ArchiveError> {
    let mut r = ByteReader::new(payload);
    let count = r.len("conn column count")?;
    let mut out = r.vec_for(count, 1);
    for _ in 0..count {
        let v = r.uvarint("conn value")?;
        out.push(if v == 0 { crate::obs::NO_CONN } else { v - 1 });
    }
    r.finish("conn column")?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Wire codecs: event blocks and registry deltas
// ---------------------------------------------------------------------------

/// Encodes rows `from..to` of an observation table as a self-contained
/// columnar event block: the five column codecs above, length-prefixed and
/// concatenated. An archive stores one block per observer over its whole
/// table; a serve EVENTS frame carries one over a batch of rows.
///
/// # Panics
///
/// Panics if `from..to` is not a valid row range of `table`.
pub fn encode_event_block(table: &ObservationTable, from: usize, to: usize) -> Vec<u8> {
    assert!(
        from <= to && to <= table.len(),
        "event block range {from}..{to} out of bounds for {} rows",
        table.len()
    );
    let mut w = ByteWriter::new();
    w.put_bytes(&encode_col_at(&table.ats()[from..to]));
    w.put_bytes(&encode_col_kind(&table.kinds()[from..to]));
    w.put_bytes(&encode_col_u32s(&table.peer_slots()[from..to]));
    w.put_bytes(&encode_col_conn(&table.conns()[from..to]));
    w.put_bytes(&encode_col_u32s(&table.payloads()[from..to]));
    w.into_bytes()
}

/// Decodes an event block produced by [`encode_event_block`] back into a
/// standalone [`ObservationTable`] holding just those rows. Column ids
/// (peer slots, address/payload ids, connection ids) are preserved verbatim;
/// resolving them requires the registry the sender maintains via
/// [`encode_registry_delta`] / [`apply_registry_delta`].
pub fn decode_event_block(payload: &[u8]) -> Result<ObservationTable, ArchiveError> {
    let mut r = ByteReader::new(payload);
    let at = decode_col_at(r.bytes("event block at column")?)?;
    let kind = decode_col_kind(r.bytes("event block kind column")?)?;
    let peer_slot = decode_col_u32s(r.bytes("event block peer column")?, "peer slot")?;
    let conn = decode_col_conn(r.bytes("event block conn column")?)?;
    let payload_col = decode_col_u32s(r.bytes("event block payload column")?, "payload id")?;
    r.finish("event block")?;
    let n = at.len();
    if kind.len() != n || peer_slot.len() != n || conn.len() != n || payload_col.len() != n {
        return Err(malformed(format!(
            "event block columns disagree: at={n} kind={} peer_slot={} conn={} payload={}",
            kind.len(),
            peer_slot.len(),
            conn.len(),
            payload_col.len()
        )));
    }
    Ok(ObservationTable::from_columns(
        at,
        kind,
        peer_slot,
        conn,
        payload_col,
    ))
}

/// Checks every row of a decoded table against the registry its ids refer
/// to: open and close rows carry a connection id, a close row's payload is a
/// close reason, and every peer slot, opened or discovered address id and
/// identify id resolves in `registry`.
///
/// The monitors resolve these ids and payloads without checking, so rows
/// decoded from untrusted bytes — an archive, a serve event frame — must
/// pass before they are ingested. Tables the engine writes always pass.
pub fn check_rows(
    table: &ObservationTable,
    registry: &IdentifyRegistry,
) -> Result<(), ArchiveError> {
    let (peers, addrs, infos) = (
        registry.peer_count(),
        registry.addr_count(),
        registry.identify_count(),
    );
    let rows = table
        .kinds()
        .iter()
        .zip(table.peer_slots())
        .zip(table.conns())
        .zip(table.payloads());
    for (row, (((&kind, &slot), &conn), &payload)) in rows.enumerate() {
        let fault = match kind {
            _ if slot as usize >= peers => {
                format!("peer slot {slot} is not in the registry ({peers} peers)")
            }
            ObservationKind::OpenedInbound | ObservationKind::OpenedOutbound if conn == NO_CONN => {
                "open row without a connection id".to_string()
            }
            ObservationKind::Closed if conn == NO_CONN => {
                "close row without a connection id".to_string()
            }
            ObservationKind::Closed if try_close_reason(payload).is_none() => {
                format!("close payload {payload} is not a close reason")
            }
            ObservationKind::OpenedInbound
            | ObservationKind::OpenedOutbound
            | ObservationKind::Discovered
                if payload as usize >= addrs =>
            {
                format!("address id {payload} is not in the registry ({addrs} addresses)")
            }
            ObservationKind::Identify if payload as usize >= infos => {
                format!("identify id {payload} is not in the registry ({infos} payloads)")
            }
            _ => continue,
        };
        return Err(malformed(format!("row {row}: {fault}")));
    }
    Ok(())
}

/// Encodes every registry entry past the `(from_peers, from_addrs,
/// from_infos)` cursor as an incremental dictionary delta. The base counts
/// are recorded in the payload so the receiver can verify its own registry
/// is exactly at the cursor before appending — dense ids stay aligned on
/// both sides by construction. A delta from `(0, 0, 0)` is a full registry
/// serialization: the registry block of an archive and of a serve
/// checkpoint.
///
/// # Panics
///
/// Panics if any cursor component exceeds the registry's current counts.
pub fn encode_registry_delta(
    registry: &IdentifyRegistry,
    from_peers: usize,
    from_addrs: usize,
    from_infos: usize,
) -> Vec<u8> {
    assert!(
        from_peers <= registry.peer_count()
            && from_addrs <= registry.addr_count()
            && from_infos <= registry.identify_count(),
        "registry delta cursor ({from_peers}, {from_addrs}, {from_infos}) past registry counts"
    );
    let mut w = ByteWriter::new();
    w.put_uvarint(from_peers as u64);
    w.put_uvarint(from_addrs as u64);
    w.put_uvarint(from_infos as u64);
    w.put_uvarint((registry.peer_count() - from_peers) as u64);
    for slot in from_peers as u32..registry.peer_count() as u32 {
        put_peer(&mut w, &registry.peer(slot));
    }
    w.put_uvarint((registry.addr_count() - from_addrs) as u64);
    for id in from_addrs as u32..registry.addr_count() as u32 {
        put_addr(&mut w, &registry.addr(id));
    }
    w.put_uvarint((registry.identify_count() - from_infos) as u64);
    for id in from_infos as u32..registry.identify_count() as u32 {
        put_identify(&mut w, registry.identify(id));
    }
    w.into_bytes()
}

/// Reads one section of a registry delta (a count, then that many entries)
/// and interns each entry, which must land on the next dense id, `base + i`.
/// A registry hands each distinct value out once, so an entry repeating one
/// already interned would map the writer's new id to an old one: the
/// section is malformed.
fn intern_section<T>(
    r: &mut ByteReader<'_>,
    context: &'static str,
    base: usize,
    read: fn(&mut ByteReader<'_>) -> Result<T, ArchiveError>,
    mut intern: impl FnMut(T) -> u32,
) -> Result<(), ArchiveError> {
    let count = r.len(context)?;
    for i in 0..count {
        let expected = base + i;
        if intern(read(r)?) as usize != expected {
            return Err(malformed(format!(
                "{context}: entry {i} repeats an earlier one (expected id {expected})"
            )));
        }
    }
    Ok(())
}

/// Applies a delta produced by [`encode_registry_delta`] to a registry that
/// is exactly at the delta's base cursor, appending the new peers,
/// addresses and identify payloads so both sides agree on every dense id.
///
/// Fails with [`ArchiveError::Malformed`] when the receiver's counts do not
/// match the base cursor (a skipped or replayed delta) or when an entry is
/// already interned (the dense-id alignment would silently break: the
/// registry dedups, so a duplicate would map to an old id while the sender
/// keeps referencing the new one).
pub fn apply_registry_delta(
    registry: &mut IdentifyRegistry,
    payload: &[u8],
) -> Result<(), ArchiveError> {
    let mut r = ByteReader::new(payload);
    // The base cursors count entries the *receiver* already holds, not
    // entries present in this payload, so they are read as plain varints —
    // `ByteReader::len` would reject an empty delta whose base exceeds the
    // few bytes of the payload.
    let cursor = |r: &mut ByteReader, context: &'static str| -> Result<usize, ArchiveError> {
        let v = r.uvarint(context)?;
        usize::try_from(v).map_err(|_| malformed(format!("cursor overflow in {context}")))
    };
    let base_peers = cursor(&mut r, "registry delta peer base")?;
    let base_addrs = cursor(&mut r, "registry delta addr base")?;
    let base_infos = cursor(&mut r, "registry delta identify base")?;
    if base_peers != registry.peer_count()
        || base_addrs != registry.addr_count()
        || base_infos != registry.identify_count()
    {
        return Err(malformed(format!(
            "registry delta base ({base_peers}, {base_addrs}, {base_infos}) does not match \
             registry counts ({}, {}, {})",
            registry.peer_count(),
            registry.addr_count(),
            registry.identify_count()
        )));
    }
    intern_section(
        &mut r,
        "registry delta peers",
        base_peers,
        read_peer,
        |peer| registry.register_peer(peer),
    )?;
    intern_section(
        &mut r,
        "registry delta addrs",
        base_addrs,
        read_addr,
        |addr| registry.intern_addr(addr),
    )?;
    intern_section(
        &mut r,
        "registry delta identifies",
        base_infos,
        read_identify,
        |info| registry.intern_identify_owned(info),
    )?;
    r.finish("registry delta")
}

// ---------------------------------------------------------------------------
// Ground truth and DHT log codecs
// ---------------------------------------------------------------------------

/// A per-block peer dictionary: event streams reference peers by dense
/// varint index instead of repeating 32 raw bytes per mention. Ids are
/// assigned in first-mention order while the event stream is encoded into a
/// scratch writer; the dictionary is then emitted *before* the stream so the
/// reader can resolve indices in one pass.
#[derive(Default)]
struct PeerDict {
    ids: HashMap<PeerId, u64>,
    peers: Vec<PeerId>,
}

impl PeerDict {
    fn put_ref(&mut self, w: &mut ByteWriter, peer: &PeerId) {
        let id = match self.ids.get(peer) {
            Some(&id) => id,
            None => {
                let id = self.peers.len() as u64;
                self.ids.insert(*peer, id);
                self.peers.push(*peer);
                id
            }
        };
        w.put_uvarint(id);
    }

    /// Emits the dictionary followed by the already-encoded event stream.
    fn into_block(self, stream: ByteWriter) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_uvarint(self.peers.len() as u64);
        for peer in &self.peers {
            put_peer(&mut w, peer);
        }
        w.put_raw(&stream.into_bytes());
        w.into_bytes()
    }
}

/// The reader half: the dictionary decoded from the front of a block.
struct PeerTable(Vec<PeerId>);

impl PeerTable {
    fn read(r: &mut ByteReader<'_>, context: &'static str) -> Result<Self, ArchiveError> {
        let count = r.len(context)?;
        let mut peers = r.vec_for(count, PEER_ID_BYTES);
        for _ in 0..count {
            peers.push(read_peer(r)?);
        }
        Ok(PeerTable(peers))
    }

    fn read_ref(&self, r: &mut ByteReader<'_>, context: &'static str) -> Result<PeerId, ArchiveError> {
        let slot = self.read_slot(r, context)?;
        Ok(self.0[slot as usize])
    }

    /// Reads a reference and checks that it names a dictionary entry.
    fn read_slot(&self, r: &mut ByteReader<'_>, context: &'static str) -> Result<u32, ArchiveError> {
        let id = r.uvarint(context)?;
        if id < self.0.len() as u64 {
            Ok(id as u32)
        } else {
            Err(malformed(format!("{context} index {id} out of range ({} peers)", self.0.len())))
        }
    }
}

fn encode_ground_truth(truth: &GroundTruth) -> Vec<u8> {
    let mut dict = PeerDict::default();
    let mut w = ByteWriter::new();
    w.put_uvarint(truth.peers.len() as u64);
    for (peer, server) in &truth.peers {
        dict.put_ref(&mut w, peer);
        w.put_u8(u8::from(*server));
    }
    w.put_uvarint(truth.events.len() as u64);
    let mut prev = 0u64;
    let mut put_at = |w: &mut ByteWriter, at: &SimTime| {
        let ms = at.as_millis();
        w.put_ivarint(ms.wrapping_sub(prev) as i64);
        prev = ms;
    };
    for event in &truth.events {
        match event {
            GroundTruthEvent::PeerOnline { at, peer } => {
                w.put_u8(0);
                put_at(&mut w, at);
                dict.put_ref(&mut w, peer);
            }
            GroundTruthEvent::PeerOffline { at, peer } => {
                w.put_u8(1);
                put_at(&mut w, at);
                dict.put_ref(&mut w, peer);
            }
            GroundTruthEvent::RoleChanged {
                at,
                peer,
                dht_server,
            } => {
                w.put_u8(2);
                put_at(&mut w, at);
                dict.put_ref(&mut w, peer);
                w.put_u8(u8::from(*dht_server));
            }
        }
    }
    dict.into_block(w)
}

fn decode_ground_truth(payload: &[u8]) -> Result<GroundTruth, ArchiveError> {
    let mut r = ByteReader::new(payload);
    let table = PeerTable::read(&mut r, "ground-truth dictionary")?;
    let count = r.len("ground-truth peer count")?;
    // A peer reference and a role byte.
    let mut peers = r.vec_for(count, 2);
    for _ in 0..count {
        let peer = table.read_ref(&mut r, "ground-truth peer")?;
        let server = read_bool(&mut r, "ground-truth role")?;
        peers.push((peer, server));
    }
    let count = r.len("ground-truth event count")?;
    // A tag, a time delta and a peer reference.
    let mut events = r.vec_for(count, 3);
    let mut prev = 0u64;
    for _ in 0..count {
        let tag = r.u8("ground-truth event tag")?;
        let delta = r.ivarint("ground-truth event time")?;
        prev = prev.wrapping_add(delta as u64);
        let at = SimTime::from_millis(prev);
        let peer = table.read_ref(&mut r, "ground-truth event peer")?;
        events.push(match tag {
            0 => GroundTruthEvent::PeerOnline { at, peer },
            1 => GroundTruthEvent::PeerOffline { at, peer },
            2 => GroundTruthEvent::RoleChanged {
                at,
                peer,
                dht_server: read_bool(&mut r, "ground-truth role change")?,
            },
            tag => return Err(malformed(format!("unknown ground-truth event tag {tag}"))),
        });
    }
    r.finish("ground truth")?;
    Ok(GroundTruth { peers, events })
}

fn read_bool(r: &mut ByteReader<'_>, context: &'static str) -> Result<bool, ArchiveError> {
    match r.u8(context)? {
        0 => Ok(false),
        1 => Ok(true),
        byte => Err(malformed(format!("invalid bool byte {byte} in {context}"))),
    }
}

/// The DHT block: the log's own dictionary, [`DhtLog::peers`], in the
/// layout [`PeerDict::into_block`] gives the ground truth, then the log with
/// every peer written as its slot in that dictionary. A tracker's log numbers
/// its slots in order of first mention, the order a [`PeerDict`] would
/// assign, so the block is the one a dictionary built while writing would
/// give, without building one.
fn encode_dht(dht: &DhtLog) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_uvarint(dht.peers.len() as u64);
    for peer in &dht.peers {
        put_peer(&mut w, peer);
    }
    w.put_uvarint(dht.k as u64);
    w.put_uvarint(dht.bootstrap.len() as u64);
    for &slot in &dht.bootstrap {
        w.put_uvarint(slot.into());
    }
    w.put_uvarint(dht.conduct.len() as u64);
    for &(slot, conduct) in &dht.conduct {
        w.put_uvarint(slot.into());
        match conduct {
            DhtConduct::Honest => w.put_u8(0),
            DhtConduct::Sybil { cluster } => {
                w.put_u8(1);
                w.put_u32(cluster);
            }
            DhtConduct::Poison { junk_per_reply } => {
                w.put_u8(2);
                w.put_uvarint(junk_per_reply as u64);
            }
        }
    }
    w.put_uvarint(dht.events.len() as u64);
    let mut prev = 0u64;
    for event in &dht.events {
        let (tag, at, a, b) = match *event {
            DhtEvent::Up { at, server } => (0, at, server, None),
            DhtEvent::Down { at, server } => (1, at, server, None),
            DhtEvent::Admit { at, owner, entry } => (2, at, owner, Some(entry)),
            DhtEvent::Evict { at, owner, entry } => (3, at, owner, Some(entry)),
        };
        w.put_u8(tag);
        let ms = at.as_millis();
        w.put_ivarint(ms.wrapping_sub(prev) as i64);
        prev = ms;
        w.put_uvarint(a.into());
        if let Some(b) = b {
            w.put_uvarint(b.into());
        }
    }
    w.into_bytes()
}

fn decode_dht(payload: &[u8]) -> Result<DhtLog, ArchiveError> {
    let mut r = ByteReader::new(payload);
    let table = PeerTable::read(&mut r, "dht dictionary")?;
    // A slot is a peer: two entries with one `PeerId` would split its
    // routing table in two.
    let mut sorted = table.0.clone();
    sorted.sort_unstable();
    if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(malformed(format!(
            "dht dictionary repeats peer {}",
            pair[0].to_hex()
        )));
    }
    let k = r.uvarint("dht k")? as usize;
    let count = r.len("dht bootstrap count")?;
    let mut bootstrap = r.vec_for(count, 1);
    for _ in 0..count {
        bootstrap.push(table.read_slot(&mut r, "dht bootstrap peer")?);
    }
    let count = r.len("dht conduct count")?;
    // A peer reference and a tag.
    let mut conduct = r.vec_for(count, 2);
    for _ in 0..count {
        let slot = table.read_slot(&mut r, "dht conduct peer")?;
        let c = match r.u8("dht conduct tag")? {
            0 => DhtConduct::Honest,
            1 => DhtConduct::Sybil {
                cluster: r.u32("sybil cluster")?,
            },
            2 => DhtConduct::Poison {
                junk_per_reply: r.uvarint("poison junk")? as usize,
            },
            tag => return Err(malformed(format!("unknown dht conduct tag {tag}"))),
        };
        conduct.push((slot, c));
    }
    let count = r.len("dht event count")?;
    // A tag, a time delta and a peer reference.
    let mut events = r.vec_for(count, 3);
    let mut prev = 0u64;
    for _ in 0..count {
        let tag = r.u8("dht event tag")?;
        let delta = r.ivarint("dht event time")?;
        prev = prev.wrapping_add(delta as u64);
        let at = SimTime::from_millis(prev);
        events.push(match tag {
            0 => DhtEvent::Up {
                at,
                server: table.read_slot(&mut r, "dht up server")?,
            },
            1 => DhtEvent::Down {
                at,
                server: table.read_slot(&mut r, "dht down server")?,
            },
            2 => DhtEvent::Admit {
                at,
                owner: table.read_slot(&mut r, "dht admit owner")?,
                entry: table.read_slot(&mut r, "dht admit entry")?,
            },
            3 => DhtEvent::Evict {
                at,
                owner: table.read_slot(&mut r, "dht evict owner")?,
                entry: table.read_slot(&mut r, "dht evict entry")?,
            },
            tag => return Err(malformed(format!("unknown dht event tag {tag}"))),
        });
    }
    r.finish("dht log")?;
    Ok(DhtLog {
        k,
        peers: table.0,
        bootstrap,
        conduct,
        events,
    })
}

// ---------------------------------------------------------------------------
// Whole-output encode / decode
// ---------------------------------------------------------------------------

fn encode_observer_directory(logs: &[ObserverLog]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_uvarint(logs.len() as u64);
    for log in logs {
        w.put_str(&log.observer);
        put_peer(&mut w, &log.peer_id);
        w.put_u8(u8::from(log.dht_server));
        w.put_uvarint(log.started_at.as_millis());
        w.put_uvarint(log.ended_at.as_millis());
    }
    w.into_bytes()
}

/// Serialises a finished simulation output into one archive file, with the
/// caller's opaque `meta` bytes as the metadata block.
///
/// The blocks are META, REGISTRY, OBSERVERS, one EVENTS block per observer,
/// GROUND_TRUTH and DHT. The shared [`IdentifyRegistry`] is written exactly
/// once, as `encode_registry_delta(registry, 0, 0, 0)`; each observer's rows
/// are `encode_event_block(table, 0, table.len())`. Returns an error if the
/// logs do not share a single registry (engine outputs always do — a
/// manually assembled output with per-log registries has no one registry
/// block to write).
pub fn encode_output(output: &SimulationOutput, meta: &[u8]) -> Result<Vec<u8>, ArchiveError> {
    let empty_registry;
    let registry: &IdentifyRegistry = match output.logs.first() {
        Some(first) => {
            let registry = first.registry();
            for log in &output.logs[1..] {
                if !std::ptr::eq(log.registry(), registry) {
                    return Err(malformed(
                        "observer logs do not share one IdentifyRegistry; cannot write one registry block",
                    ));
                }
            }
            registry
        }
        None => {
            empty_registry = IdentifyRegistry::new();
            &empty_registry
        }
    };

    let mut writer = ArchiveWriter::new();
    writer.push_block(BK_META, GLOBAL_OWNER, meta);
    writer.push_block(BK_REGISTRY, GLOBAL_OWNER, &encode_registry_delta(registry, 0, 0, 0));
    writer.push_block(BK_OBSERVERS, GLOBAL_OWNER, &encode_observer_directory(&output.logs));
    for (idx, log) in output.logs.iter().enumerate() {
        let owner = u32::try_from(idx).expect("observer count exceeds u32");
        let table = log.table();
        writer.push_block(BK_EVENTS, owner, &encode_event_block(table, 0, table.len()));
    }
    writer.push_block(BK_GROUND_TRUTH, GLOBAL_OWNER, &encode_ground_truth(&output.ground_truth));
    writer.push_block(BK_DHT, GLOBAL_OWNER, &encode_dht(&output.dht));
    Ok(writer.finish())
}

/// Parses an archive and reconstructs the simulation output plus the opaque
/// metadata block, verifying every block checksum on the way.
///
/// The reconstructed output is value-identical to the one that was encoded:
/// same registry ids, same column contents, same ground truth and DHT
/// history — which is what makes re-analysis byte-identical to the direct
/// simulation path.
pub fn decode_output(bytes: &[u8]) -> Result<(Vec<u8>, SimulationOutput), ArchiveError> {
    let file = ArchiveFile::parse(bytes)?;
    let meta = file.block(BK_META, GLOBAL_OWNER)?.to_vec();
    let mut registry = IdentifyRegistry::new();
    apply_registry_delta(&mut registry, file.block(BK_REGISTRY, GLOBAL_OWNER)?)?;
    let registry = Arc::new(registry);

    let directory = file.block(BK_OBSERVERS, GLOBAL_OWNER)?;
    let mut r = ByteReader::new(directory);
    let count = r.len("observer count")?;
    // A name length, a peer id, a role byte and two times.
    let mut logs = r.vec_for(count, PEER_ID_BYTES + 4);
    for idx in 0..count {
        let observer = r.str("observer name")?.to_string();
        let peer_id = read_peer(&mut r)?;
        let dht_server = read_bool(&mut r, "observer role")?;
        let started_at = SimTime::from_millis(r.uvarint("observer start")?);
        let ended_at = SimTime::from_millis(r.uvarint("observer end")?);
        let owner = u32::try_from(idx).expect("observer count exceeds u32");
        let table = decode_event_block(file.block(BK_EVENTS, owner)?)?;
        check_rows(&table, &registry)?;
        logs.push(ObserverLog::from_columns(
            observer,
            peer_id,
            dht_server,
            started_at,
            ended_at,
            table,
            Arc::clone(&registry),
        ));
    }
    r.finish("observer directory")?;

    let ground_truth = decode_ground_truth(file.block(BK_GROUND_TRUTH, GLOBAL_OWNER)?)?;
    let dht = decode_dht(file.block(BK_DHT, GLOBAL_OWNER)?)?;
    Ok((meta, SimulationOutput::new(logs, ground_truth, dht)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmodel::{CloseReason, ConnectionId, Direction};

    #[test]
    fn varints_roundtrip() {
        let mut w = ByteWriter::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            w.put_uvarint(v);
        }
        let signed = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &signed {
            w.put_ivarint(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.uvarint("test").unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.ivarint("test").unwrap(), v);
        }
        r.finish("test").unwrap();
    }

    #[test]
    fn reader_reports_truncation() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(
            r.u64("test"),
            Err(ArchiveError::Truncated { .. })
        ));
    }

    #[test]
    fn block_container_roundtrips_and_seeks() {
        let mut w = ArchiveWriter::new();
        w.push_block(BK_META, GLOBAL_OWNER, b"hello");
        w.push_block(BK_EVENTS, 0, b"events zero");
        w.push_block(BK_EVENTS, 1, b"events one");
        let bytes = w.finish();
        let file = ArchiveFile::parse(&bytes).unwrap();
        assert_eq!(file.blocks.len(), 3);
        assert_eq!(file.block(BK_META, GLOBAL_OWNER).unwrap(), b"hello");
        assert_eq!(file.block(BK_EVENTS, 1).unwrap(), b"events one");
        assert_eq!(
            file.block(BK_DHT, GLOBAL_OWNER),
            Err(ArchiveError::MissingBlock {
                kind: BK_DHT,
                owner: GLOBAL_OWNER
            })
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut w = ArchiveWriter::new();
        w.push_block(BK_META, GLOBAL_OWNER, b"x");
        let mut bytes = w.finish();
        bytes[8] = 0xEE; // version field
        assert!(matches!(
            ArchiveFile::parse(&bytes),
            Err(ArchiveError::UnsupportedVersion { found }) if found != FORMAT_VERSION
        ));
    }

    #[test]
    fn bit_flip_in_block_fails_checksum() {
        let mut w = ArchiveWriter::new();
        w.push_block(BK_META, GLOBAL_OWNER, b"precious payload");
        let mut bytes = w.finish();
        bytes[12] ^= 0x01; // first payload byte (after 12-byte header)
        let file = ArchiveFile::parse(&bytes).unwrap();
        assert!(matches!(
            file.block(BK_META, GLOBAL_OWNER),
            Err(ArchiveError::ChecksumMismatch { kind: BK_META, .. })
        ));
    }

    #[test]
    fn truncated_tail_fails_cleanly() {
        let mut w = ArchiveWriter::new();
        w.push_block(BK_META, GLOBAL_OWNER, b"x");
        let bytes = w.finish();
        for cut in [bytes.len() - 1, bytes.len() - 9, 13, 11, 3] {
            let err = ArchiveFile::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArchiveError::Truncated { .. }
                        | ArchiveError::BadMagic { .. }
                        | ArchiveError::ChecksumMismatch { .. }
                        | ArchiveError::Malformed { .. }
                ),
                "cut at {cut} produced {err:?}"
            );
        }
    }

    #[test]
    fn timestamp_column_roundtrips_unsorted_input() {
        let mut table = ObservationTable::new();
        for &t in &[5u64, 0, 9, 9, 2] {
            table.identify_received(SimTime::from_millis(t), 0, 0);
        }
        let decoded = decode_col_at(&encode_col_at(table.ats())).unwrap();
        assert_eq!(decoded, table.ats());
    }

    fn wire_sample_table() -> ObservationTable {
        let mut table = ObservationTable::new();
        table.connection_opened(SimTime::from_secs(1), ConnectionId(3), 0, Direction::Inbound, 2);
        table.identify_received(SimTime::from_secs(2), 0, 1);
        table.peer_discovered(SimTime::from_secs(2), 1, 4);
        table.connection_closed(SimTime::from_secs(9), ConnectionId(3), 0, CloseReason::PeerLeft);
        table.connection_opened(SimTime::from_secs(11), ConnectionId(8), 1, Direction::Outbound, 4);
        table
    }

    #[test]
    fn event_block_roundtrips_every_row_range() {
        let table = wire_sample_table();
        for from in 0..=table.len() {
            for to in from..=table.len() {
                let decoded = decode_event_block(&encode_event_block(&table, from, to)).unwrap();
                assert_eq!(decoded.len(), to - from, "range {from}..{to}");
                assert_eq!(decoded.ats(), &table.ats()[from..to]);
                assert_eq!(decoded.kinds(), &table.kinds()[from..to]);
                assert_eq!(decoded.peer_slots(), &table.peer_slots()[from..to]);
                assert_eq!(decoded.conns(), &table.conns()[from..to]);
                assert_eq!(decoded.payloads(), &table.payloads()[from..to]);
            }
        }
    }

    #[test]
    fn event_block_rejects_corruption() {
        let table = wire_sample_table();
        let block = encode_event_block(&table, 0, table.len());
        for cut in [0, 1, block.len() / 2, block.len() - 1] {
            assert!(
                decode_event_block(&block[..cut]).is_err(),
                "cut at {cut} was accepted"
            );
        }
        let mut trailing = block.clone();
        trailing.push(0);
        assert!(matches!(
            decode_event_block(&trailing),
            Err(ArchiveError::Malformed { .. })
        ));
    }

    fn wire_sample_registry(peers: u64, addrs: u16, infos: u8) -> IdentifyRegistry {
        let mut registry = IdentifyRegistry::new();
        for i in 0..peers {
            registry.register_peer(PeerId::derived(100 + i));
        }
        for i in 0..addrs {
            registry.intern_addr(Multiaddr::new(IpAddress::V4(i as u32), Transport::Tcp, 4001));
        }
        for i in 0..infos {
            registry.intern_identify(&IdentifyInfo::new(
                AgentVersion::parse(&format!("go-ipfs/0.{i}.0/wire")),
                ProtocolSet::go_ipfs_dht_server(),
                vec![],
            ));
        }
        registry
    }

    #[test]
    fn registry_delta_streams_incrementally() {
        let small = wire_sample_registry(2, 1, 1);
        let mut mirror = IdentifyRegistry::new();
        apply_registry_delta(&mut mirror, &encode_registry_delta(&small, 0, 0, 0)).unwrap();
        assert_eq!(mirror.peer_count(), 2);
        assert_eq!(mirror.addr_count(), 1);
        assert_eq!(mirror.identify_count(), 1);

        let grown = wire_sample_registry(4, 3, 2);
        apply_registry_delta(&mut mirror, &encode_registry_delta(&grown, 2, 1, 1)).unwrap();
        assert_eq!(mirror.peer_count(), 4);
        for slot in 0..4u32 {
            assert_eq!(mirror.peer(slot), grown.peer(slot));
        }
        for id in 0..3u32 {
            assert_eq!(mirror.addr(id), grown.addr(id));
        }
        for id in 0..2u32 {
            assert_eq!(mirror.identify(id), grown.identify(id));
        }
    }

    #[test]
    fn registry_delta_rejects_base_mismatch_and_duplicates() {
        let registry = wire_sample_registry(3, 2, 1);
        let delta = encode_registry_delta(&registry, 2, 1, 1);
        let mut behind = wire_sample_registry(1, 1, 1);
        assert!(matches!(
            apply_registry_delta(&mut behind, &delta),
            Err(ArchiveError::Malformed { .. })
        ));

        // Hand-craft a delta whose base matches but whose entry duplicates an
        // existing peer: the registry would dedup it to an old slot, silently
        // desyncing ids, so the decoder must reject it instead.
        let mut receiver = wire_sample_registry(1, 0, 0);
        let mut w = ByteWriter::new();
        w.put_uvarint(1); // peer base
        w.put_uvarint(0); // addr base
        w.put_uvarint(0); // identify base
        w.put_uvarint(1); // one "new" peer...
        put_peer(&mut w, &receiver.peer(0)); // ...that is already interned
        w.put_uvarint(0);
        w.put_uvarint(0);
        assert!(matches!(
            apply_registry_delta(&mut receiver, &w.into_bytes()),
            Err(ArchiveError::Malformed { .. })
        ));

        let mut truncated = wire_sample_registry(2, 1, 1);
        let full = encode_registry_delta(&wire_sample_registry(3, 2, 1), 2, 1, 1);
        assert!(apply_registry_delta(&mut truncated, &full[..full.len() - 1]).is_err());
    }

    fn sample_output() -> SimulationOutput {
        let mut registry = IdentifyRegistry::new();
        let peer = PeerId::derived(42);
        let slot = registry.register_peer(peer);
        let addr_id = registry.intern_addr(Multiaddr::new(IpAddress::V4(9), Transport::Quic, 4001));
        let info_id = registry.intern_identify(&IdentifyInfo::new(
            AgentVersion::parse("go-ipfs/0.11.0/abcd"),
            ProtocolSet::go_ipfs_dht_server(),
            vec![Multiaddr::new(IpAddress::V6(77), Transport::Ws, 443)],
        ));
        let mut table = ObservationTable::new();
        table.connection_opened(SimTime::from_secs(1), ConnectionId(3), slot, Direction::Inbound, addr_id);
        table.identify_received(SimTime::from_secs(2), slot, info_id);
        table.connection_closed(SimTime::from_secs(9), ConnectionId(3), slot, CloseReason::PeerLeft);
        let registry = Arc::new(registry);
        let log = ObserverLog::from_columns(
            "go-ipfs",
            PeerId::derived(1),
            true,
            SimTime::ZERO,
            SimTime::from_secs(10),
            table,
            Arc::clone(&registry),
        );
        let ground_truth = GroundTruth {
            peers: vec![(peer, true)],
            events: vec![
                GroundTruthEvent::PeerOnline {
                    at: SimTime::ZERO,
                    peer,
                },
                GroundTruthEvent::RoleChanged {
                    at: SimTime::from_secs(5),
                    peer,
                    dht_server: false,
                },
                GroundTruthEvent::PeerOffline {
                    at: SimTime::from_secs(9),
                    peer,
                },
            ],
        };
        // Slots in order of first mention: the bootstrap observer, the two
        // adversaries, then the peer.
        let dht = DhtLog {
            k: 20,
            peers: vec![PeerId::derived(1), PeerId::derived(7), PeerId::derived(8), peer],
            bootstrap: vec![0],
            conduct: vec![
                (1, DhtConduct::Sybil { cluster: 3 }),
                (2, DhtConduct::Poison { junk_per_reply: 5 }),
            ],
            events: vec![
                DhtEvent::Up {
                    at: SimTime::ZERO,
                    server: 3,
                },
                DhtEvent::Admit {
                    at: SimTime::from_secs(1),
                    owner: 3,
                    entry: 1,
                },
                DhtEvent::Evict {
                    at: SimTime::from_secs(2),
                    owner: 3,
                    entry: 1,
                },
                DhtEvent::Down {
                    at: SimTime::from_secs(9),
                    server: 3,
                },
            ],
        };
        SimulationOutput::new(vec![log], ground_truth, dht)
    }

    #[test]
    fn whole_output_roundtrips_exactly() {
        let output = sample_output();
        let bytes = encode_output(&output, b"campaign meta").unwrap();
        let (meta, decoded) = decode_output(&bytes).unwrap();
        assert_eq!(meta, b"campaign meta");
        assert_eq!(decoded.logs.len(), output.logs.len());
        for (a, b) in decoded.logs.iter().zip(output.logs.iter()) {
            assert_eq!(a, b);
            assert_eq!(a.table().checksum(), b.table().checksum());
            // Registry ids must survive verbatim, not just the resolved
            // values: monitors compare raw ids on the hot path.
            assert_eq!(a.table().peer_slots(), b.table().peer_slots());
            assert_eq!(a.table().payloads(), b.table().payloads());
        }
        assert_eq!(decoded.ground_truth, output.ground_truth);
        assert_eq!(decoded.dht, output.dht);
    }

    /// `sample_output` with one row of its table replaced: `(row, kind, peer
    /// slot, connection id, payload)`.
    fn forged_output(
        row: usize,
        kind: ObservationKind,
        slot: u32,
        conn: u64,
        payload: u32,
    ) -> SimulationOutput {
        let output = sample_output();
        let log = &output.logs[0];
        let t = log.table();
        let (mut kinds, mut slots, mut conns, mut payloads) = (
            t.kinds().to_vec(),
            t.peer_slots().to_vec(),
            t.conns().to_vec(),
            t.payloads().to_vec(),
        );
        (kinds[row], slots[row], conns[row], payloads[row]) = (kind, slot, conn, payload);
        let table = ObservationTable::from_columns(t.ats().to_vec(), kinds, slots, conns, payloads);
        let forged = ObserverLog::from_columns(
            log.observer.clone(),
            log.peer_id,
            log.dht_server,
            log.started_at,
            log.ended_at,
            table,
            Arc::new(log.registry().clone()),
        );
        SimulationOutput::new(
            vec![forged],
            output.ground_truth.clone(),
            output.dht.clone(),
        )
    }

    #[test]
    fn forged_rows_with_valid_checksums_are_rejected() {
        use ObservationKind::{Closed, Discovered, Identify, OpenedInbound};
        // The sample registry holds one peer, one address and one identify
        // payload; rows 0, 1 and 2 open, identify and close connection 3.
        let forgeries = [
            ("close payload 9", forged_output(2, Closed, 0, 3, 9)),
            (
                "open row without a connection",
                forged_output(0, OpenedInbound, 0, NO_CONN, 0),
            ),
            (
                "close row without a connection",
                forged_output(2, Closed, 0, NO_CONN, 2),
            ),
            (
                "unknown peer slot",
                forged_output(1, Identify, 1, NO_CONN, 0),
            ),
            (
                "unknown open address",
                forged_output(0, OpenedInbound, 0, 3, 1),
            ),
            (
                "unknown discovered address",
                forged_output(1, Discovered, 0, NO_CONN, 1),
            ),
            (
                "unknown identify payload",
                forged_output(1, Identify, 0, NO_CONN, 1),
            ),
        ];
        for (what, output) in forgeries {
            let bytes = encode_output(&output, b"").unwrap();
            assert!(
                matches!(decode_output(&bytes), Err(ArchiveError::Malformed { .. })),
                "{what}: a forged row must not decode"
            );
        }
        // The unforged sample passes the same check.
        let output = sample_output();
        check_rows(output.logs[0].table(), output.logs[0].registry()).unwrap();
    }

    #[test]
    fn archive_blocks_are_the_wire_blocks() {
        let output = sample_output();
        let bytes = encode_output(&output, b"meta").unwrap();
        let file = ArchiveFile::parse(&bytes).unwrap();
        let layout: Vec<(u16, u32)> = file.blocks.iter().map(|b| (b.kind, b.owner)).collect();
        assert_eq!(
            layout,
            [
                (BK_META, GLOBAL_OWNER),
                (BK_REGISTRY, GLOBAL_OWNER),
                (BK_OBSERVERS, GLOBAL_OWNER),
                (BK_EVENTS, 0),
                (BK_GROUND_TRUTH, GLOBAL_OWNER),
                (BK_DHT, GLOBAL_OWNER),
            ]
        );
        let log = &output.logs[0];
        let table = log.table();
        assert_eq!(
            file.block(BK_REGISTRY, GLOBAL_OWNER).unwrap(),
            encode_registry_delta(log.registry(), 0, 0, 0)
        );
        assert_eq!(
            file.block(BK_EVENTS, 0).unwrap(),
            encode_event_block(table, 0, table.len())
        );
    }

    /// The sample archive re-encoded with its `kind` block replaced by
    /// `block`, under valid checksums.
    fn with_block(kind: u16, block: &[u8]) -> Vec<u8> {
        let bytes = encode_output(&sample_output(), b"").unwrap();
        let file = ArchiveFile::parse(&bytes).unwrap();
        let mut writer = ArchiveWriter::new();
        for entry in &file.blocks {
            let payload = if entry.kind == kind {
                block
            } else {
                file.block(entry.kind, entry.owner).unwrap()
            };
            writer.push_block(entry.kind, entry.owner, payload);
        }
        writer.finish()
    }

    fn with_registry_block(block: &[u8]) -> Vec<u8> {
        with_block(BK_REGISTRY, block)
    }

    #[test]
    fn dht_blocks_write_the_log_dictionary_as_it_is() {
        let output = sample_output();
        let block = encode_dht(&output.dht);
        // The dictionary a `PeerDict` builds while writing: the same bytes.
        let mut dict = PeerDict::default();
        let mut stream = ByteWriter::new();
        let dht = &output.dht;
        let peer = |slot: u32| dht.peers[slot as usize];
        stream.put_uvarint(dht.k as u64);
        stream.put_uvarint(dht.bootstrap.len() as u64);
        for &slot in &dht.bootstrap {
            dict.put_ref(&mut stream, &peer(slot));
        }
        assert_eq!(dht.conduct.len(), 2);
        stream.put_uvarint(2);
        dict.put_ref(&mut stream, &peer(dht.conduct[0].0));
        stream.put_u8(1);
        stream.put_u32(3);
        dict.put_ref(&mut stream, &peer(dht.conduct[1].0));
        stream.put_u8(2);
        stream.put_uvarint(5);
        stream.put_uvarint(dht.events.len() as u64);
        let mut prev = 0;
        for event in &dht.events {
            let (tag, at, slots) = match *event {
                DhtEvent::Up { at, server } => (0, at, vec![server]),
                DhtEvent::Down { at, server } => (1, at, vec![server]),
                DhtEvent::Admit { at, owner, entry } => (2, at, vec![owner, entry]),
                DhtEvent::Evict { at, owner, entry } => (3, at, vec![owner, entry]),
            };
            stream.put_u8(tag);
            stream.put_ivarint(at.as_millis() as i64 - prev);
            prev = at.as_millis() as i64;
            for slot in slots {
                dict.put_ref(&mut stream, &peer(slot));
            }
        }
        assert_eq!(block, dict.into_block(stream));
        assert_eq!(decode_dht(&block).unwrap(), output.dht);
    }

    #[test]
    fn repeated_dht_dictionary_entries_with_valid_checksums_are_rejected() {
        let output = sample_output();
        let block = encode_dht(&output.dht);
        assert!(decode_output(&with_block(BK_DHT, &block)).is_ok());
        // The same block with the last dictionary entry (the peer, slot 3)
        // replaced by the first (the bootstrap observer, slot 0): every
        // reference stays in range, but two slots now name one peer.
        let peers = &output.dht.peers;
        let mut forged = block.clone();
        let last = 1 + 3 * PEER_ID_BYTES;
        assert_eq!(&forged[last..last + PEER_ID_BYTES], peers[3].as_bytes());
        forged[last..last + PEER_ID_BYTES].copy_from_slice(peers[0].as_bytes());
        assert!(
            matches!(
                decode_output(&with_block(BK_DHT, &forged)),
                Err(ArchiveError::Malformed { .. })
            ),
            "a repeated dht dictionary entry must not decode"
        );
    }

    #[test]
    fn repeated_registry_entries_with_valid_checksums_are_rejected() {
        let output = sample_output();
        let registry = output.logs[0].registry();
        // The sample registry holds one peer, one address and one identify
        // payload. `registry_block(section)` writes that registry from
        // `(0, 0, 0)` with section `section`'s entry twice; section 3 is none.
        let puts: [&dyn Fn(&mut ByteWriter); 3] = [
            &|w| put_peer(w, &registry.peer(0)),
            &|w| put_addr(w, &registry.addr(0)),
            &|w| put_identify(w, registry.identify(0)),
        ];
        let registry_block = |twice: usize| {
            let mut w = ByteWriter::new();
            for _ in 0..3 {
                w.put_uvarint(0);
            }
            for (section, put) in puts.iter().enumerate() {
                let count = if section == twice { 2 } else { 1 };
                w.put_uvarint(count);
                for _ in 0..count {
                    put(&mut w);
                }
            }
            w.into_bytes()
        };
        assert_eq!(registry_block(3), encode_registry_delta(registry, 0, 0, 0));
        assert!(decode_output(&with_registry_block(&registry_block(3))).is_ok());
        let sections = ["peer", "address", "identify payload"];
        for (section, what) in sections.into_iter().enumerate() {
            assert!(
                matches!(
                    decode_output(&with_registry_block(&registry_block(section))),
                    Err(ArchiveError::Malformed { .. })
                ),
                "a repeated {what} must not decode"
            );
        }
    }

    #[test]
    fn empty_output_roundtrips() {
        let output = SimulationOutput::new(Vec::new(), GroundTruth::default(), DhtLog::default());
        let bytes = encode_output(&output, b"").unwrap();
        let (meta, decoded) = decode_output(&bytes).unwrap();
        assert!(meta.is_empty());
        assert!(decoded.logs.is_empty());
        assert_eq!(decoded.ground_truth, GroundTruth::default());
    }
}
