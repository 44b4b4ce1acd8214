//! Deterministic fault injection under the durable-I/O layer.
//!
//! Every write, read, fsync, and rename that the storage substrate (and
//! the layers built on it: the repository writer, the live-ingest WAL)
//! performs is routed through the helpers in this module. Normally they
//! are transparent pass-throughs; a test can *arm* the current thread
//! with a schedule that makes the Nth instrumented operation fail, tear
//! (persist only a prefix of the buffer, then error), or silently flip a
//! bit. Because all durable I/O in this workspace happens on the calling
//! thread (rayon only ever parallelizes pure compute), the operation
//! sequence is deterministic and independent of `RAYON_NUM_THREADS` —
//! the same `(op, kind)` always lands on the same byte of the same file.
//!
//! The state is thread-local on purpose: `cargo test` runs many tests in
//! one process, and a process-global schedule would poison unrelated
//! tests running concurrently.
//!
//! Two modes:
//!
//! * [`FaultMode::OneShot`] — the targeted operation misbehaves once and
//!   every later operation succeeds. Models a transient I/O error (the
//!   retry-and-backoff paths).
//! * [`FaultMode::CrashAfter`] — the targeted operation misbehaves and
//!   **every subsequent operation fails**, as if the process died or the
//!   disk vanished mid-write. Models a crash: the test abandons its
//!   in-memory state, calls [`disarm`], and exercises recovery from
//!   whatever reached the file system.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// What the targeted operation does instead of succeeding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation returns an I/O error without touching the file.
    Fail,
    /// A write persists only the first `keep` bytes of the buffer, then
    /// errors — a torn write. On non-write operations this degrades to
    /// [`FaultKind::Fail`] (a sync or rename cannot tear).
    Torn { keep: usize },
    /// A write persists the buffer with bit `bit % (len * 8)` flipped and
    /// *reports success* — silent media corruption. A read flips the bit
    /// in the returned buffer. On sync/rename this degrades to
    /// [`FaultKind::Fail`].
    BitFlip { bit: usize },
}

/// Whether the fault is transient or terminal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Only operation N misbehaves.
    OneShot,
    /// Operation N misbehaves and all later operations fail outright.
    CrashAfter,
}

#[derive(Clone, Copy, Debug)]
struct Plan {
    op: u64,
    kind: FaultKind,
    mode: FaultMode,
}

#[derive(Default)]
struct State {
    ops: u64,
    plan: Option<Plan>,
    triggered: bool,
    crashed: bool,
    files_read: Vec<PathBuf>,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Arm the current thread: instrumented operation number `op` (0-based)
/// performs `kind` under `mode`. Replaces any previous schedule.
pub fn arm(op: u64, kind: FaultKind, mode: FaultMode) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            ops: 0,
            plan: Some(Plan { op, kind, mode }),
            ..State::default()
        });
    });
}

/// Arm the current thread in counting-only mode: no fault fires, but
/// [`disarm`] reports how many instrumented operations ran — the way a
/// crash-anywhere test discovers its injection-point space.
pub fn arm_counting() {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State::default());
    });
}

/// What an armed section observed.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Instrumented operations executed while armed.
    pub ops: u64,
    /// Whether the scheduled fault actually fired.
    pub triggered: bool,
    /// Every [`read_file`] while armed, in order.
    pub files_read: Vec<PathBuf>,
}

/// Disarm the current thread and report what happened. Safe to call when
/// not armed (reports zero operations).
pub fn disarm() -> Outcome {
    STATE.with(|s| {
        let st = s.borrow_mut().take();
        match st {
            Some(st) => Outcome {
                ops: st.ops,
                triggered: st.triggered,
                files_read: st.files_read,
            },
            None => Outcome {
                ops: 0,
                triggered: false,
                files_read: Vec::new(),
            },
        }
    })
}

/// True while a schedule (or counter) is armed on this thread.
pub fn armed() -> bool {
    STATE.with(|s| s.borrow().is_some())
}

enum Decision {
    Pass,
    Fail,
    Torn(usize),
    Flip(usize),
}

fn decide() -> Decision {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let Some(st) = s.as_mut() else {
            return Decision::Pass;
        };
        if st.crashed {
            return Decision::Fail;
        }
        let n = st.ops;
        st.ops += 1;
        let Some(p) = st.plan else {
            return Decision::Pass;
        };
        if st.triggered || n != p.op {
            return Decision::Pass;
        }
        st.triggered = true;
        if p.mode == FaultMode::CrashAfter {
            st.crashed = true;
        }
        match p.kind {
            FaultKind::Fail => Decision::Fail,
            FaultKind::Torn { keep } => Decision::Torn(keep),
            FaultKind::BitFlip { bit } => Decision::Flip(bit),
        }
    })
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

#[cfg(unix)]
fn pread(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn pwrite(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

/// Non-unix fallback: `seek`, then read or write, on the shared handle.
/// The cursor is shared state there, and a [`crate::PageStore`] reads and
/// writes one handle, so reads and writes take this one lock.
#[cfg(not(unix))]
static CURSOR: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(not(unix))]
fn pread(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let _guard = CURSOR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(not(unix))]
fn pwrite(mut file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let _guard = CURSOR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

/// Whole-file read of a committed segment. Logged while armed
/// ([`Outcome::files_read`]), so a test can count which segments a code
/// path reads, but not an injection point: the injection space stays the
/// durable-I/O sequence the crash tests walk.
pub fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.files_read.push(path.to_path_buf());
        }
    });
    std::fs::read(path)
}

/// Instrumented `write_all`.
pub fn write_all(file: &mut File, buf: &[u8]) -> io::Result<()> {
    match decide() {
        Decision::Pass => file.write_all(buf),
        Decision::Fail => Err(injected("write")),
        Decision::Torn(keep) => {
            let k = keep.min(buf.len());
            file.write_all(&buf[..k])?;
            Err(injected("torn write"))
        }
        Decision::Flip(bit) => {
            if buf.is_empty() {
                return file.write_all(buf);
            }
            let mut corrupt = buf.to_vec();
            let b = bit % (corrupt.len() * 8);
            corrupt[b / 8] ^= 1 << (b % 8);
            file.write_all(&corrupt)
        }
    }
}

/// Instrumented positional `write_all` (no cursor, no lock held across
/// the syscall). Decision semantics match [`write_all`]: `Torn` persists
/// the first `keep` bytes then errors, `BitFlip` persists a corrupted
/// buffer and reports success.
pub fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    match decide() {
        Decision::Pass => pwrite(file, buf, offset),
        Decision::Fail => Err(injected("write")),
        Decision::Torn(keep) => {
            let k = keep.min(buf.len());
            pwrite(file, &buf[..k], offset)?;
            Err(injected("torn write"))
        }
        Decision::Flip(bit) => {
            if buf.is_empty() {
                return pwrite(file, buf, offset);
            }
            let mut corrupt = buf.to_vec();
            let b = bit % (corrupt.len() * 8);
            corrupt[b / 8] ^= 1 << (b % 8);
            pwrite(file, &corrupt, offset)
        }
    }
}

/// Instrumented positional `read_exact` (no cursor, no lock held across
/// the syscall). Decision semantics match [`read_exact`]: one
/// instrumented operation per call, `Fail`/`Torn` error without reading,
/// `BitFlip` reads then corrupts the returned buffer.
pub fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    match decide() {
        Decision::Pass => pread(file, buf, offset),
        Decision::Fail | Decision::Torn(_) => Err(injected("read")),
        Decision::Flip(bit) => {
            pread(file, buf, offset)?;
            if !buf.is_empty() {
                let b = bit % (buf.len() * 8);
                buf[b / 8] ^= 1 << (b % 8);
            }
            Ok(())
        }
    }
}

/// Instrumented `read_exact`.
pub fn read_exact(file: &mut File, buf: &mut [u8]) -> io::Result<()> {
    match decide() {
        Decision::Pass => file.read_exact(buf),
        Decision::Fail | Decision::Torn(_) => Err(injected("read")),
        Decision::Flip(bit) => {
            file.read_exact(buf)?;
            if !buf.is_empty() {
                let b = bit % (buf.len() * 8);
                buf[b / 8] ^= 1 << (b % 8);
            }
            Ok(())
        }
    }
}

/// Instrumented `sync_all` (file or directory fsync).
pub fn sync_all(file: &File) -> io::Result<()> {
    match decide() {
        Decision::Pass => file.sync_all(),
        _ => Err(injected("sync")),
    }
}

/// Instrumented atomic rename.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match decide() {
        Decision::Pass => std::fs::rename(from, to),
        _ => Err(injected("rename")),
    }
}

/// Instrumented file truncation/extension.
pub fn set_len(file: &File, len: u64) -> io::Result<()> {
    match decide() {
        Decision::Pass => file.set_len(len),
        _ => Err(injected("set_len")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Seek;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ppq-fault-test-{name}-{}", std::process::id()));
        p
    }

    fn open_rw(path: &Path) -> File {
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .unwrap()
    }

    #[test]
    fn pass_through_when_unarmed() {
        let path = tmp("pass");
        let mut f = open_rw(&path);
        write_all(&mut f, b"hello").unwrap();
        f.rewind().unwrap();
        let mut buf = [0u8; 5];
        read_exact(&mut f, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn counting_reports_ops() {
        let path = tmp("count");
        let mut f = open_rw(&path);
        arm_counting();
        write_all(&mut f, b"a").unwrap();
        write_all(&mut f, b"b").unwrap();
        sync_all(&f).unwrap();
        let out = disarm();
        assert_eq!(out.ops, 3);
        assert!(!out.triggered);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn one_shot_fails_only_op_n() {
        let path = tmp("oneshot");
        let mut f = open_rw(&path);
        arm(1, FaultKind::Fail, FaultMode::OneShot);
        write_all(&mut f, b"ok").unwrap();
        assert!(write_all(&mut f, b"boom").is_err());
        write_all(&mut f, b"ok2").unwrap();
        let out = disarm();
        assert!(out.triggered);
        assert_eq!(out.ops, 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_after_kills_everything_later() {
        let path = tmp("crash");
        let mut f = open_rw(&path);
        arm(0, FaultKind::Fail, FaultMode::CrashAfter);
        assert!(write_all(&mut f, b"x").is_err());
        assert!(sync_all(&f).is_err());
        assert!(write_all(&mut f, b"y").is_err());
        disarm();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_write_persists_prefix() {
        let path = tmp("torn");
        let mut f = open_rw(&path);
        arm(0, FaultKind::Torn { keep: 3 }, FaultMode::OneShot);
        assert!(write_all(&mut f, b"abcdef").is_err());
        disarm();
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bit_flip_silently_corrupts() {
        let path = tmp("flip");
        let mut f = open_rw(&path);
        arm(0, FaultKind::BitFlip { bit: 0 }, FaultMode::OneShot);
        write_all(&mut f, &[0u8; 4]).unwrap();
        let out = disarm();
        assert!(out.triggered);
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 0, 0, 0]);
        std::fs::remove_file(path).ok();
    }
}
