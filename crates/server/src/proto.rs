//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! ## Frame layout
//!
//! ```text
//! ┌──────────────┬──────────────────────────────────────────────┐
//! │ len: u32 LE  │ payload (len bytes)                          │
//! └──────────────┴──────────────────────────────────────────────┘
//!                  ┌─────────────┬───────────┬─────────────────┐
//!        payload = │ version: u8 │ tag: u8   │ body (codec)    │
//!                  └─────────────┴───────────┴─────────────────┘
//! ```
//!
//! Bodies use [`ppq_storage::codec`] — the same little-endian
//! fixed-layout convention as every on-disk structure in the repo, so a
//! frame hexdump reads like a page hexdump. `len` is capped at
//! [`MAX_FRAME_LEN`]; a peer announcing more is malformed, not a reason
//! to allocate 4 GiB.
//!
//! ## Decode contract
//!
//! Frames arrive from the network, i.e. from an untrusted peer: decoding
//! must **never panic**. Every decoder goes through the codec's checked
//! `try_*` accessors, rejects unknown versions/tags, bounds every
//! count-prefixed vector by the bytes actually remaining (an adversarial
//! count cannot force an over-allocation), and rejects trailing garbage
//! after a complete body. Anything malformed is a typed
//! [`ProtocolError`] — property-tested in `tests/proto_corruption.rs`
//! against truncations and bit-flips of valid frames, mirroring the WAL
//! corruption suite.
//!
//! STRQ responses carry the *full* [`StrqOutcome`] (all answer tiers and
//! the visited counter), so a remote caller can check bit-identity
//! against an in-process engine, not just cardinalities.
//!
//! ## Revisions
//!
//! * **2** — the Stats body drops two fields: the inline-maintenance
//!   flag (always `false` once only a worker folds) and the pool's
//!   pinned-frame count (the buffer pool no longer pins frames). A
//!   version-1 frame is refused as [`ProtocolError::BadVersion`]`(1)`.
//! * **1** — the first layout.

use bytes::Bytes;
use ppq_core::query::StrqOutcome;
use ppq_geo::Point;
use ppq_obs::{HistogramStats, MetricsSnapshot, SlowQuery};
use ppq_storage::codec::{Decoder, Encoder};
use ppq_traj::TrajId;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Protocol revision carried in every payload. Bumped on any layout
/// change; a server rejects frames from a different revision with a
/// typed error instead of misparsing them.
pub const PROTO_VERSION: u8 = 2;

/// Upper bound on a frame payload (16 MiB). Large enough for any slice
/// or answer the service produces; small enough that a hostile length
/// prefix cannot drive allocation.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// A TPQ match: trajectory id plus its predicted `(t, point)` track.
pub type TpqMatch = (TrajId, Vec<(u32, Point)>);

/// Why a payload failed to decode. Never a panic: every variant is a
/// statement about the peer's bytes, not about our state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before the structure it announced.
    Truncated,
    /// The frame's protocol revision is not [`PROTO_VERSION`].
    BadVersion(u8),
    /// The request/response tag byte is not one we define.
    UnknownTag(u8),
    /// The frame length prefix exceeds [`MAX_FRAME_LEN`].
    Oversize(usize),
    /// Bytes remained after a complete body — the peer and we disagree
    /// about the layout, so nothing after this frame can be trusted.
    TrailingBytes(usize),
    /// A field held a value outside its domain (a non-boolean flag
    /// byte, invalid UTF-8 in a message).
    BadValue(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated mid-structure"),
            ProtocolError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (ours: {PROTO_VERSION})"
                )
            }
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            ProtocolError::Oversize(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            ProtocolError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after complete message")
            }
            ProtocolError::BadValue(what) => write!(f, "field out of domain: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Transport-or-protocol failure reading/writing frames.
#[derive(Debug)]
pub enum WireError {
    Io(io::Error),
    Protocol(ProtocolError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport: {e}"),
            WireError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<ProtocolError> for WireError {
    fn from(e: ProtocolError) -> WireError {
        WireError::Protocol(e)
    }
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// STRQ at timestep `t` around `point`, against the current
    /// published snapshot.
    Strq { t: u32, point: Point },
    /// TPQ at `t` around `point` over `horizon` future timesteps.
    Tpq { t: u32, point: Point, horizon: u32 },
    /// Ingest one timestep slice (must be the stream's next `t`).
    Append {
        t: u32,
        points: Vec<(TrajId, Point)>,
    },
    /// Service health/progress report.
    Stats,
    /// Force a snapshot publish; returns the (possibly unchanged)
    /// version.
    Publish,
    /// Full metrics-registry snapshot (counters, gauges, histogram
    /// digests, slow-query log) — the wire-level admin surface.
    Metrics,
}

const REQ_STRQ: u8 = 1;
const REQ_TPQ: u8 = 2;
const REQ_APPEND: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_PUBLISH: u8 = 5;
const REQ_METRICS: u8 = 6;

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// STRQ answer plus the snapshot version it was computed from.
    Strq { version: u32, outcome: StrqOutcome },
    /// TPQ answer plus the snapshot version.
    Tpq {
        version: u32,
        matches: Vec<TpqMatch>,
    },
    /// Slice acknowledged; the stream now expects `next_t`.
    Appended { next_t: u32 },
    /// Health/progress report.
    Stats(StatsBody),
    /// Publish done at `version`.
    Published { version: u32 },
    /// Overload shed: the connection queue is full; retry later.
    Busy,
    /// Append rejected: slice out of order, nothing was ingested.
    OutOfOrder { expected: u32, got: u32 },
    /// Request understood but failed; human-readable cause.
    Error { message: String },
    /// Metrics-registry snapshot. Every numeric field is an integer
    /// (nanoseconds for latencies) — the wire carries no floats.
    Metrics(MetricsSnapshot),
}

const RESP_STRQ: u8 = 1;
const RESP_TPQ: u8 = 2;
const RESP_APPENDED: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_PUBLISHED: u8 = 5;
const RESP_BUSY: u8 = 6;
const RESP_OUT_OF_ORDER: u8 = 7;
const RESP_ERROR: u8 = 8;
const RESP_METRICS: u8 = 9;

/// Body of [`Response::Stats`] — the wire form of
/// [`ppq_live::ServiceStatus`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsBody {
    pub next_t: Option<u32>,
    pub published_version: u32,
    pub wal_pending: u64,
    pub maintenance_failures: u32,
    pub worker_attached: bool,
    pub last_maintenance_error: Option<String>,
    pub wal_pending_bytes: u64,
    pub chain_generations: u32,
    pub last_fold_unix_ms: Option<u64>,
    pub last_compaction_unix_ms: Option<u64>,
    pub pool_resident_frames: u64,
}

// --- Encode -----------------------------------------------------------------

fn header(e: &mut Encoder, tag: u8) {
    // The codec has no single-byte writer; a u16 carries (version, tag)
    // little-endian, so version is byte 0 and tag is byte 1 on the wire.
    e.put_u16(u16::from_le_bytes([PROTO_VERSION, tag]));
}

fn put_ids(e: &mut Encoder, ids: &[TrajId]) {
    e.put_u32(ids.len() as u32);
    for &id in ids {
        e.put_u32(id);
    }
}

fn put_opt_u32(e: &mut Encoder, v: Option<u32>) {
    match v {
        Some(v) => {
            e.put_u16(1);
            e.put_u32(v);
        }
        None => e.put_u16(0),
    }
}

fn put_opt_u64(e: &mut Encoder, v: Option<u64>) {
    match v {
        Some(v) => {
            e.put_u16(1);
            e.put_u64(v);
        }
        None => e.put_u16(0),
    }
}

fn put_bool(e: &mut Encoder, v: bool) {
    e.put_u16(v as u16);
}

impl Request {
    /// Serialize to a frame payload (header + body, no length prefix —
    /// [`write_frame`] adds that).
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        match self {
            Request::Strq { t, point } => {
                header(&mut e, REQ_STRQ);
                e.put_u32(*t);
                e.put_point(point);
            }
            Request::Tpq { t, point, horizon } => {
                header(&mut e, REQ_TPQ);
                e.put_u32(*t);
                e.put_point(point);
                e.put_u32(*horizon);
            }
            Request::Append { t, points } => {
                header(&mut e, REQ_APPEND);
                e.put_u32(*t);
                e.put_u32(points.len() as u32);
                for (id, p) in points {
                    e.put_u32(*id);
                    e.put_point(p);
                }
            }
            Request::Stats => header(&mut e, REQ_STATS),
            Request::Publish => header(&mut e, REQ_PUBLISH),
            Request::Metrics => header(&mut e, REQ_METRICS),
        }
        e.finish()
    }

    /// Parse a frame payload. Total: every malformed input is a typed
    /// error, never a panic or an unbounded allocation.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut d = Decoder::from_slice(payload);
        let tag = read_header(&mut d)?;
        let req = match tag {
            REQ_STRQ => Request::Strq {
                t: try_u32(&mut d)?,
                point: try_point(&mut d)?,
            },
            REQ_TPQ => Request::Tpq {
                t: try_u32(&mut d)?,
                point: try_point(&mut d)?,
                horizon: try_u32(&mut d)?,
            },
            REQ_APPEND => {
                let t = try_u32(&mut d)?;
                let n = bounded_count(&mut d, 4 + 16)?;
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = try_u32(&mut d)?;
                    let p = try_point(&mut d)?;
                    points.push((id, p));
                }
                Request::Append { t, points }
            }
            REQ_STATS => Request::Stats,
            REQ_PUBLISH => Request::Publish,
            REQ_METRICS => Request::Metrics,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        finish(&d)?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a frame payload (see [`Request::encode`]).
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        match self {
            Response::Strq { version, outcome } => {
                header(&mut e, RESP_STRQ);
                e.put_u32(*version);
                put_ids(&mut e, &outcome.truth);
                put_ids(&mut e, &outcome.approx);
                put_ids(&mut e, &outcome.candidates);
                put_ids(&mut e, &outcome.exact);
                e.put_u64(outcome.visited as u64);
            }
            Response::Tpq { version, matches } => {
                header(&mut e, RESP_TPQ);
                e.put_u32(*version);
                e.put_u32(matches.len() as u32);
                for (id, track) in matches {
                    e.put_u32(*id);
                    e.put_u32(track.len() as u32);
                    for (t, p) in track {
                        e.put_u32(*t);
                        e.put_point(p);
                    }
                }
            }
            Response::Appended { next_t } => {
                header(&mut e, RESP_APPENDED);
                e.put_u32(*next_t);
            }
            Response::Stats(s) => {
                header(&mut e, RESP_STATS);
                put_opt_u32(&mut e, s.next_t);
                e.put_u32(s.published_version);
                e.put_u64(s.wal_pending);
                e.put_u32(s.maintenance_failures);
                put_bool(&mut e, s.worker_attached);
                match &s.last_maintenance_error {
                    Some(msg) => {
                        e.put_u16(1);
                        e.put_bytes(msg.as_bytes());
                    }
                    None => e.put_u16(0),
                }
                e.put_u64(s.wal_pending_bytes);
                e.put_u32(s.chain_generations);
                put_opt_u64(&mut e, s.last_fold_unix_ms);
                put_opt_u64(&mut e, s.last_compaction_unix_ms);
                e.put_u64(s.pool_resident_frames);
            }
            Response::Published { version } => {
                header(&mut e, RESP_PUBLISHED);
                e.put_u32(*version);
            }
            Response::Busy => header(&mut e, RESP_BUSY),
            Response::OutOfOrder { expected, got } => {
                header(&mut e, RESP_OUT_OF_ORDER);
                e.put_u32(*expected);
                e.put_u32(*got);
            }
            Response::Error { message } => {
                header(&mut e, RESP_ERROR);
                e.put_bytes(message.as_bytes());
            }
            Response::Metrics(m) => {
                header(&mut e, RESP_METRICS);
                e.put_u32(m.counters.len() as u32);
                for (name, v) in &m.counters {
                    e.put_bytes(name.as_bytes());
                    e.put_u64(*v);
                }
                e.put_u32(m.gauges.len() as u32);
                for (name, v) in &m.gauges {
                    e.put_bytes(name.as_bytes());
                    e.put_u64(*v);
                }
                e.put_u32(m.histograms.len() as u32);
                for (name, h) in &m.histograms {
                    e.put_bytes(name.as_bytes());
                    for v in [
                        h.count, h.sum_ns, h.min_ns, h.p50_ns, h.p90_ns, h.p99_ns, h.p999_ns,
                        h.max_ns,
                    ] {
                        e.put_u64(v);
                    }
                }
                e.put_u32(m.slow_queries.len() as u32);
                for q in &m.slow_queries {
                    e.put_bytes(q.name.as_bytes());
                    for v in [q.seq, q.latency_ns, q.reads, q.hits, q.visited] {
                        e.put_u64(v);
                    }
                }
            }
        }
        e.finish()
    }

    /// Parse a frame payload (see [`Request::decode`] for the totality
    /// contract).
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut d = Decoder::from_slice(payload);
        let tag = read_header(&mut d)?;
        let resp = match tag {
            RESP_STRQ => {
                let version = try_u32(&mut d)?;
                let truth = read_ids(&mut d)?;
                let approx = read_ids(&mut d)?;
                let candidates = read_ids(&mut d)?;
                let exact = read_ids(&mut d)?;
                let visited = try_u64(&mut d)? as usize;
                Response::Strq {
                    version,
                    outcome: StrqOutcome {
                        truth,
                        approx,
                        candidates,
                        exact,
                        visited,
                    },
                }
            }
            RESP_TPQ => {
                let version = try_u32(&mut d)?;
                // One match is at least id + empty-track length = 8 B.
                let n = bounded_count(&mut d, 8)?;
                let mut matches = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = try_u32(&mut d)?;
                    let len = bounded_count(&mut d, 4 + 16)?;
                    let mut track = Vec::with_capacity(len);
                    for _ in 0..len {
                        let t = try_u32(&mut d)?;
                        let p = try_point(&mut d)?;
                        track.push((t, p));
                    }
                    matches.push((id, track));
                }
                Response::Tpq { version, matches }
            }
            RESP_APPENDED => Response::Appended {
                next_t: try_u32(&mut d)?,
            },
            RESP_STATS => {
                let next_t = read_opt_u32(&mut d)?;
                let published_version = try_u32(&mut d)?;
                let wal_pending = try_u64(&mut d)?;
                let maintenance_failures = try_u32(&mut d)?;
                let worker_attached = read_bool(&mut d)?;
                let last_maintenance_error = match try_u16(&mut d)? {
                    0 => None,
                    1 => Some(read_string(&mut d)?),
                    _ => return Err(ProtocolError::BadValue("error-presence flag")),
                };
                let wal_pending_bytes = try_u64(&mut d)?;
                let chain_generations = try_u32(&mut d)?;
                let last_fold_unix_ms = read_opt_u64(&mut d)?;
                let last_compaction_unix_ms = read_opt_u64(&mut d)?;
                let pool_resident_frames = try_u64(&mut d)?;
                Response::Stats(StatsBody {
                    next_t,
                    published_version,
                    wal_pending,
                    maintenance_failures,
                    worker_attached,
                    last_maintenance_error,
                    wal_pending_bytes,
                    chain_generations,
                    last_fold_unix_ms,
                    last_compaction_unix_ms,
                    pool_resident_frames,
                })
            }
            RESP_PUBLISHED => Response::Published {
                version: try_u32(&mut d)?,
            },
            RESP_BUSY => Response::Busy,
            RESP_OUT_OF_ORDER => Response::OutOfOrder {
                expected: try_u32(&mut d)?,
                got: try_u32(&mut d)?,
            },
            RESP_ERROR => Response::Error {
                message: read_string(&mut d)?,
            },
            RESP_METRICS => {
                // Entry minimums: empty name = 4 B length prefix, then
                // the fixed u64 block of each entry kind.
                let n = bounded_count(&mut d, 4 + 8)?;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = read_string(&mut d)?;
                    counters.push((name, try_u64(&mut d)?));
                }
                let n = bounded_count(&mut d, 4 + 8)?;
                let mut gauges = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = read_string(&mut d)?;
                    gauges.push((name, try_u64(&mut d)?));
                }
                let n = bounded_count(&mut d, 4 + 64)?;
                let mut histograms = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = read_string(&mut d)?;
                    histograms.push((
                        name,
                        HistogramStats {
                            count: try_u64(&mut d)?,
                            sum_ns: try_u64(&mut d)?,
                            min_ns: try_u64(&mut d)?,
                            p50_ns: try_u64(&mut d)?,
                            p90_ns: try_u64(&mut d)?,
                            p99_ns: try_u64(&mut d)?,
                            p999_ns: try_u64(&mut d)?,
                            max_ns: try_u64(&mut d)?,
                        },
                    ));
                }
                let n = bounded_count(&mut d, 4 + 40)?;
                let mut slow_queries = Vec::with_capacity(n);
                for _ in 0..n {
                    slow_queries.push(SlowQuery {
                        name: read_string(&mut d)?,
                        seq: try_u64(&mut d)?,
                        latency_ns: try_u64(&mut d)?,
                        reads: try_u64(&mut d)?,
                        hits: try_u64(&mut d)?,
                        visited: try_u64(&mut d)?,
                    });
                }
                Response::Metrics(MetricsSnapshot {
                    counters,
                    gauges,
                    histograms,
                    slow_queries,
                })
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        finish(&d)?;
        Ok(resp)
    }
}

// --- Checked decode helpers -------------------------------------------------

fn read_header(d: &mut Decoder) -> Result<u8, ProtocolError> {
    let [version, tag] = try_u16(d)?.to_le_bytes();
    if version != PROTO_VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    Ok(tag)
}

fn try_u16(d: &mut Decoder) -> Result<u16, ProtocolError> {
    d.try_u16().ok_or(ProtocolError::Truncated)
}

fn try_u32(d: &mut Decoder) -> Result<u32, ProtocolError> {
    d.try_u32().ok_or(ProtocolError::Truncated)
}

fn try_u64(d: &mut Decoder) -> Result<u64, ProtocolError> {
    d.try_u64().ok_or(ProtocolError::Truncated)
}

fn try_point(d: &mut Decoder) -> Result<Point, ProtocolError> {
    d.try_point().ok_or(ProtocolError::Truncated)
}

/// Read a vector count and verify the remaining bytes could hold that
/// many items of at least `min_item_bytes` each — a hostile count is a
/// truncation report, not a `Vec::with_capacity` of 4 billion.
fn bounded_count(d: &mut Decoder, min_item_bytes: usize) -> Result<usize, ProtocolError> {
    let n = try_u32(d)? as usize;
    if n.saturating_mul(min_item_bytes) > d.remaining() {
        return Err(ProtocolError::Truncated);
    }
    Ok(n)
}

fn read_ids(d: &mut Decoder) -> Result<Vec<TrajId>, ProtocolError> {
    let n = bounded_count(d, 4)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(try_u32(d)?);
    }
    Ok(ids)
}

fn read_opt_u32(d: &mut Decoder) -> Result<Option<u32>, ProtocolError> {
    match try_u16(d)? {
        0 => Ok(None),
        1 => Ok(Some(try_u32(d)?)),
        _ => Err(ProtocolError::BadValue("option flag")),
    }
}

fn read_opt_u64(d: &mut Decoder) -> Result<Option<u64>, ProtocolError> {
    match try_u16(d)? {
        0 => Ok(None),
        1 => Ok(Some(try_u64(d)?)),
        _ => Err(ProtocolError::BadValue("option flag")),
    }
}

fn read_bool(d: &mut Decoder) -> Result<bool, ProtocolError> {
    match try_u16(d)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ProtocolError::BadValue("boolean flag")),
    }
}

fn read_string(d: &mut Decoder) -> Result<String, ProtocolError> {
    let b = d.try_bytes().ok_or(ProtocolError::Truncated)?;
    String::from_utf8(b.to_vec()).map_err(|_| ProtocolError::BadValue("non-UTF-8 string"))
}

fn finish(d: &Decoder) -> Result<(), ProtocolError> {
    match d.remaining() {
        0 => Ok(()),
        n => Err(ProtocolError::TrailingBytes(n)),
    }
}

// --- Framing ----------------------------------------------------------------

/// Write one `len + payload` frame, in one write, and flush it. Two
/// writes would send the prefix alone first (`TCP_NODELAY`), and a
/// reader on another core wakes for it, finds no payload yet, and sleeps
/// again.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on a clean EOF at a frame boundary;
/// EOF mid-frame is [`ProtocolError::Truncated`], a length prefix past
/// [`MAX_FRAME_LEN`] is [`ProtocolError::Oversize`]. A read timeout is
/// an error like any other.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    read_frame_polling(r, None)
}

/// [`read_frame`], optionally polling a stop flag across read timeouts.
/// With `stop` set, a timeout before the frame's first byte consults
/// the flag and returns `Ok(None)` once it is raised, and any other
/// timeout keeps reading, so a slow peer cannot desynchronize the
/// framing. Without it, this is exactly [`read_frame`].
pub(crate) fn read_frame_polling(
    r: &mut impl Read,
    stop: Option<&AtomicBool>,
) -> Result<Option<Vec<u8>>, WireError> {
    let polling = stop.is_some();
    let mut len_buf = [0u8; 4];
    match fill(r, &mut len_buf, polling, stop)? {
        Fill::Eof | Fill::Stopped => return Ok(None),
        Fill::Partial => return Err(ProtocolError::Truncated.into()),
        Fill::Full => {}
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversize(len).into());
    }
    let mut payload = vec![0u8; len];
    // Once the prefix is in, the frame is finished regardless of `stop`.
    match fill(r, &mut payload, polling, None)? {
        Fill::Full => Ok(Some(payload)),
        Fill::Eof | Fill::Partial | Fill::Stopped => Err(ProtocolError::Truncated.into()),
    }
}

enum Fill {
    /// Buffer filled completely.
    Full,
    /// EOF before the first byte.
    Eof,
    /// EOF after some bytes — a torn frame.
    Partial,
    /// The stop flag was raised before the first byte.
    Stopped,
}

/// Fill `buf`. With `retry_timeouts`, a read timeout reads again, after
/// returning [`Fill::Stopped`] if it came before the first byte and
/// `stop` is raised; without it, a timeout is an error.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    retry_timeouts: bool,
    stop: Option<&AtomicBool>,
) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Fill::Eof
                } else {
                    Fill::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if retry_timeouts
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                if filled == 0 && stop.is_some_and(|s| s.load(Ordering::Acquire)) {
                    return Ok(Fill::Stopped);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_one_frames_are_refused() {
        let stats = Response::Stats(StatsBody {
            next_t: Some(3),
            published_version: 2,
            wal_pending: 0,
            maintenance_failures: 0,
            worker_attached: true,
            last_maintenance_error: None,
            wal_pending_bytes: 0,
            chain_generations: 1,
            last_fold_unix_ms: None,
            last_compaction_unix_ms: None,
            pool_resident_frames: 4,
        });
        for payload in [Request::Stats.encode(), stats.encode()] {
            let mut v1 = payload.to_vec();
            assert_eq!(v1[0], PROTO_VERSION);
            v1[0] = 1;
            assert_eq!(Request::decode(&v1), Err(ProtocolError::BadVersion(1)));
            assert_eq!(Response::decode(&v1), Err(ProtocolError::BadVersion(1)));
        }
    }
}
