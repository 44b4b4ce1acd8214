//! The write-ahead log: a length-prefixed, CRC-sealed record stream that
//! durably captures every pushed time slice before it enters the
//! in-memory pipeline.
//!
//! On-disk shape (specified byte for byte in `docs/FORMAT.md` §11):
//!
//! ```text
//! header  := "PPQW" | version u32
//! record  := len u32 | crc u32 | payload (len bytes)
//! payload := t u32 | n u32 | n × (id u32 | x f64 bits | y f64 bits)
//! ```
//!
//! Every record is appended with a *single* write call, so a crash can
//! only tear the final record — never interleave two. `crc` seals the
//! payload; `len` is implicitly validated by the CRC landing (or not) at
//! the claimed extent. Appends are group-committed: the file is fsynced
//! every `group_commit` records (and on [`Wal::sync`]), trading a bounded
//! unacknowledged tail for ingest throughput.
//!
//! Recovery ([`Wal::open_replay`]) walks the records front to back and
//! applies the *torn-tail rule*: any malformation that could have been
//! produced by a crashed append — a partial header, a record extending
//! past end-of-file, a CRC mismatch on the final record — trims the log
//! back to the last valid boundary and reopens for appending.
//! Malformation strictly *before* the final record cannot be a tear (the
//! log is append-only) and is reported as [`WalError::Corrupt`] instead:
//! silently trimming there would discard acknowledged data.
//!
//! All durable operations route through [`ppq_storage::fault`], so the
//! crash-anywhere harness can kill an append, a group commit, or the
//! post-fold truncation at any instrumented operation.

use ppq_geo::Point;
use ppq_storage::{crc32, fault};
use ppq_traj::TrajId;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Registry handles for the WAL, resolved once. The pending gauge is
/// process-wide (last writer wins across concurrently open logs) — the
/// served configuration opens exactly one.
struct WalMetrics {
    append_ns: ppq_obs::Histogram,
    sync_ns: ppq_obs::Histogram,
    appends: ppq_obs::Counter,
    pending: ppq_obs::Gauge,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ppq_obs::Registry::global();
        WalMetrics {
            append_ns: r.histogram("ppq_wal_append_ns"),
            sync_ns: r.histogram("ppq_wal_sync_ns"),
            appends: r.counter("ppq_wal_appends"),
            pending: r.gauge("ppq_wal_records_pending"),
        }
    })
}

/// File name of the log inside a live repository directory.
pub const WAL_NAME: &str = "wal.ppq";
/// Temp name the truncation rewrite stages under before its rename.
pub const WAL_TMP_NAME: &str = "wal.ppq.tmp";

const MAGIC: [u8; 4] = *b"PPQW";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
const REC_HEADER_LEN: usize = 8;
/// Encoded size of one `(id, point)` pair in a record payload.
const POINT_LEN: usize = 4 + 8 + 8;

/// Log failures a caller can act on.
#[derive(Debug)]
pub enum WalError {
    Io(io::Error),
    /// Structural damage strictly before the final record — not
    /// producible by a torn append, so it is surfaced instead of
    /// trimmed. `offset` is the byte position of the bad record.
    Corrupt {
        offset: u64,
        what: &'static str,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt { offset, what } => {
                write!(f, "WAL corrupt at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// One replayed time slice.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    pub t: u32,
    pub points: Vec<(TrajId, Point)>,
}

/// An open, appendable log. See the module docs for the format and the
/// recovery rules.
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Fsync every this-many appended records (1 = every append).
    group_commit: usize,
    /// Records appended since the last fsync.
    pending: usize,
    /// Bytes of committed-structure prefix (header + whole records). The
    /// append position. The physical file can be longer after a torn
    /// append; `repair` discards that junk before the next write.
    len: u64,
    /// A previous append failed mid-record; the physical tail past `len`
    /// is garbage that must be cut before appending again.
    needs_repair: bool,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, replay every valid
    /// record, trim a torn tail, and return the records together with
    /// the log positioned for appending.
    pub fn open_replay(
        path: &Path,
        group_commit: usize,
    ) -> Result<(Wal, Vec<WalRecord>), WalError> {
        assert!(group_commit > 0, "group_commit must be at least 1");
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (records, valid_end) = parse(&bytes)?;

        // Deliberately not truncating here: the valid prefix must be
        // kept, and any torn tail is cut by the explicit set_len below.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut len = valid_end;
        if (bytes.len() as u64) > valid_end {
            // Torn tail: cut the file back to the last valid boundary.
            fault::set_len(&file, valid_end)?;
            fault::sync_all(&file)?;
        }
        if valid_end < HEADER_LEN {
            // Empty or header-torn log: (re)initialize.
            fault::set_len(&file, 0)?;
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            file.seek(SeekFrom::Start(0))?;
            fault::write_all(&mut file, &header)?;
            fault::sync_all(&file)?;
            len = HEADER_LEN;
        } else {
            file.seek(SeekFrom::Start(len))?;
        }
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                group_commit,
                pending: 0,
                len,
                needs_repair: false,
            },
            records,
        ))
    }

    /// Append one time slice. The record hits the file in a single write;
    /// durability is group-committed (see [`Wal::sync`] to force it). On
    /// error the in-memory append position is unchanged — a later retry
    /// first discards whatever partial bytes the failed attempt left.
    pub fn append(&mut self, t: u32, points: &[(TrajId, Point)]) -> Result<(), WalError> {
        let m = wal_metrics();
        let _sp = ppq_obs::Span::with("wal_append", &m.append_ns);
        self.repair()?;
        let record = encode_record(t, points);
        self.file.seek(SeekFrom::Start(self.len))?;
        if let Err(e) = fault::write_all(&mut self.file, &record) {
            self.needs_repair = true;
            return Err(e.into());
        }
        self.len += record.len() as u64;
        self.pending += 1;
        m.appends.inc();
        m.pending.set(self.pending as u64);
        if self.pending >= self.group_commit {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsync any records appended since the last sync. A failed sync
    /// leaves the records written; a later sync covers them.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.pending > 0 {
            let m = wal_metrics();
            let _sp = ppq_obs::Span::with("wal_sync", &m.sync_ns);
            fault::sync_all(&self.file)?;
            self.pending = 0;
            m.pending.set(0);
        }
        Ok(())
    }

    /// Records appended but not yet fsynced.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Committed-structure bytes (the append position).
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Drop every record with `t < min_t` — the fold path's "the
    /// chain now covers these" truncation. Rewrites the retained
    /// suffix to a temp file and renames it over the log, so a crash at
    /// any point leaves either the old or the new log, both valid.
    pub fn truncate_before(&mut self, min_t: u32) -> Result<(), WalError> {
        self.repair()?;
        let bytes = std::fs::read(&self.path)?;
        let (records, _) = parse(&bytes)?;

        let tmp = self.path.with_file_name(WAL_TMP_NAME);
        let mut out = Vec::with_capacity(HEADER_LEN as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for rec in records.iter().filter(|r| r.t >= min_t) {
            out.extend_from_slice(&encode_record(rec.t, &rec.points));
        }
        {
            let mut f = File::create(&tmp)?;
            fault::write_all(&mut f, &out)?;
            fault::sync_all(&f)?;
        }
        fault::rename(&tmp, &self.path)?;
        if let Some(parent) = self.path.parent() {
            fault::sync_all(&File::open(parent)?)?;
        }
        // Swap the handle: the old one points at the unlinked inode.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::Start(out.len() as u64))?;
        self.file = file;
        self.len = out.len() as u64;
        self.pending = 0;
        wal_metrics().pending.set(0);
        Ok(())
    }

    /// Cut physical junk a failed append left past the committed
    /// prefix. Plain (uninstrumented) I/O on purpose: this discards
    /// bytes that were never acknowledged, it does not add durability.
    fn repair(&mut self) -> Result<(), WalError> {
        if self.needs_repair {
            self.file.set_len(self.len)?;
            self.needs_repair = false;
        }
        Ok(())
    }
}

fn encode_record(t: u32, points: &[(TrajId, Point)]) -> Vec<u8> {
    let payload_len = 8 + points.len() * POINT_LEN;
    let mut buf = Vec::with_capacity(REC_HEADER_LEN + payload_len);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // CRC patched below
    buf.extend_from_slice(&t.to_le_bytes());
    buf.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for &(id, p) in points {
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(&p.x.to_bits().to_le_bytes());
        buf.extend_from_slice(&p.y.to_bits().to_le_bytes());
    }
    let crc = crc32(&buf[REC_HEADER_LEN..]);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

/// Walk `bytes` and return every valid record plus the byte length of
/// the valid prefix. Applies the torn-tail rule from the module docs.
fn parse(bytes: &[u8]) -> Result<(Vec<WalRecord>, u64), WalError> {
    if bytes.len() < HEADER_LEN as usize {
        // Missing or torn header: nothing valid, reinitialize.
        return Ok((Vec::new(), 0));
    }
    if bytes[..4] != MAGIC {
        return Err(WalError::Corrupt {
            offset: 0,
            what: "bad magic",
        });
    }
    if u32_at(bytes, 4) != VERSION {
        return Err(WalError::Corrupt {
            offset: 4,
            what: "unsupported version",
        });
    }
    let mut records = Vec::new();
    let mut off = HEADER_LEN as usize;
    while off < bytes.len() {
        let rem = bytes.len() - off;
        if rem < REC_HEADER_LEN {
            break; // torn record header → trim
        }
        let len = u32_at(bytes, off) as usize;
        if len > rem - REC_HEADER_LEN {
            break; // record extends past EOF → torn → trim
        }
        let payload = &bytes[off + REC_HEADER_LEN..off + REC_HEADER_LEN + len];
        let crc = u32_at(bytes, off + 4);
        if crc32(payload) != crc {
            if off + REC_HEADER_LEN + len == bytes.len() {
                break; // final record torn mid-payload → trim
            }
            return Err(WalError::Corrupt {
                offset: off as u64,
                what: "record CRC mismatch",
            });
        }
        // CRC-valid: structural damage here cannot be a tear.
        if len < 8 || !(len - 8).is_multiple_of(POINT_LEN) {
            return Err(WalError::Corrupt {
                offset: off as u64,
                what: "record length not a whole point count",
            });
        }
        let t = u32_at(payload, 0);
        let n = u32_at(payload, 4) as usize;
        if 8 + n * POINT_LEN != len {
            return Err(WalError::Corrupt {
                offset: off as u64,
                what: "point count disagrees with record length",
            });
        }
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let p = 8 + i * POINT_LEN;
            let id = u32_at(payload, p);
            let x = f64::from_bits(u64::from_le_bytes(
                payload[p + 4..p + 12].try_into().unwrap(),
            ));
            let y = f64::from_bits(u64::from_le_bytes(
                payload[p + 12..p + 20].try_into().unwrap(),
            ));
            points.push((id, Point::new(x, y)));
        }
        records.push(WalRecord { t, points });
        off += REC_HEADER_LEN + len;
    }
    Ok((records, off as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppq-wal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(WAL_NAME)
    }

    fn slice(t: u32, n: usize) -> Vec<(TrajId, Point)> {
        (0..n as u32)
            .map(|i| (i, Point::new(t as f64 + 0.25 * i as f64, -(i as f64))))
            .collect()
    }

    #[test]
    fn roundtrip_including_empty_slices() {
        let path = tmp("roundtrip");
        let slices: Vec<(u32, Vec<(TrajId, Point)>)> =
            vec![(5, slice(5, 3)), (6, Vec::new()), (7, slice(7, 1))];
        {
            let (mut wal, replayed) = Wal::open_replay(&path, 2).unwrap();
            assert!(replayed.is_empty());
            for (t, pts) in &slices {
                wal.append(*t, pts).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, replayed) = Wal::open_replay(&path, 2).unwrap();
        assert_eq!(replayed.len(), 3);
        for (rec, (t, pts)) in replayed.iter().zip(&slices) {
            assert_eq!(rec.t, *t);
            assert_eq!(rec.points.len(), pts.len());
            for ((ia, pa), (ib, pb)) in rec.points.iter().zip(pts) {
                assert_eq!(ia, ib);
                assert_eq!(pa.x.to_bits(), pb.x.to_bits());
                assert_eq!(pa.y.to_bits(), pb.y.to_bits());
            }
        }
    }

    #[test]
    fn torn_tail_is_trimmed_and_reappendable() {
        let path = tmp("torn");
        {
            let (mut wal, _) = Wal::open_replay(&path, 1).unwrap();
            wal.append(0, &slice(0, 2)).unwrap();
            wal.append(1, &slice(1, 2)).unwrap();
        }
        // Tear the final record by dropping its last 5 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (mut wal, replayed) = Wal::open_replay(&path, 1).unwrap();
        assert_eq!(replayed.len(), 1, "torn record must be dropped");
        assert_eq!(replayed[0].t, 0);
        // The trim restored a clean append boundary.
        wal.append(1, &slice(1, 2)).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open_replay(&path, 1).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].t, 1);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let path = tmp("midlog");
        {
            let (mut wal, _) = Wal::open_replay(&path, 1).unwrap();
            wal.append(0, &slice(0, 2)).unwrap();
            wal.append(1, &slice(1, 2)).unwrap();
        }
        // Flip a payload byte of the FIRST record (not the final one).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + REC_HEADER_LEN + 9] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open_replay(&path, 1) {
            Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, HEADER_LEN),
            other => panic!("expected Corrupt, got {:?}", other.map(|(_, r)| r)),
        }
    }

    #[test]
    fn truncate_before_drops_folded_records() {
        let path = tmp("truncate");
        let (mut wal, _) = Wal::open_replay(&path, 1).unwrap();
        for t in 0..6 {
            wal.append(t, &slice(t, 1)).unwrap();
        }
        wal.truncate_before(4).unwrap();
        // The surviving suffix is appendable and replays correctly.
        wal.append(6, &slice(6, 1)).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open_replay(&path, 1).unwrap();
        let ts: Vec<u32> = replayed.iter().map(|r| r.t).collect();
        assert_eq!(ts, vec![4, 5, 6]);
    }

    #[test]
    fn failed_append_leaves_no_junk_for_the_next_one() {
        let path = tmp("repair");
        let (mut wal, _) = Wal::open_replay(&path, 1).unwrap();
        wal.append(0, &slice(0, 2)).unwrap();
        // Tear the next append mid-record (one-shot: later I/O is fine).
        fault::arm(
            0,
            fault::FaultKind::Torn { keep: 11 },
            fault::FaultMode::OneShot,
        );
        let err = wal.append(1, &slice(1, 2));
        let out = fault::disarm();
        assert!(out.triggered);
        assert!(err.is_err());
        // Retry: the partial bytes must be cut, not appended after.
        wal.append(1, &slice(1, 2)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replayed) = Wal::open_replay(&path, 1).unwrap();
        let ts: Vec<u32> = replayed.iter().map(|r| r.t).collect();
        assert_eq!(ts, vec![0, 1]);
    }
}
