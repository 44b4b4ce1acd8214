//! How either end of a connection waits for its next frame: spin, then
//! block.
//!
//! A blocked read that wakes a parked core costs ~7 µs on a shared
//! vCPU, and a request/response round trip pays two of them (the server
//! waking for the request, the client for the reply). Polling the
//! socket for a few microseconds first skips both wake-ups whenever the
//! peer answers within the budget. Spinning burns the core it runs on,
//! so a wait spins only when both of these hold:
//!
//! - **hot**: this connection's previous wait ended within
//!   [`SPIN_BUDGET`], so the peer is answering at spin speed (a slow
//!   append ack, or an idle connection, never costs a spin). A wait that
//!   blocked counts less the one block-and-wake it paid;
//! - **a core is free**: the connections this process has open, served
//!   and dialed, plus an attached maintenance worker, number no more
//!   than the cores it may run on. With more, a spinner takes the core a
//!   peer, a handler or the worker needs.
//!
//! The spin yields the core between peeks. Loopback wake-ups tend to put
//! both ends of a connection on one core, and a spinner that held it
//! would keep its peer from running until the budget ran out: with a
//! busy loop on the other core, 97 % of such spins missed. Yielding
//! costs a syscall when nothing else wants the core.
//!
//! Spinning leaves the framing alone: it only peeks, restores blocking
//! mode, and the framed read ([`proto::read_frame_polling`]) runs
//! unchanged, read timeout and stop-flag polling included.

use crate::proto::{self, WireError};
use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The longest a wait spins before it blocks. It is about the measured
/// cost of one block-and-wake on a shared vCPU (~7 µs each way, so a
/// round trip that blocks on both ends pays ~14–20 µs). Spinning for as
/// long as blocking would have cost is the 2-competitive rule for
/// spin-then-block: a wait never costs more than twice the better of
/// the two. A sweep over {10, 20, 50} µs on the `tcp_read` and
/// `live_mixed` workloads picked this value.
pub const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// Connections open in this process, served and dialed, plus attached
/// maintenance workers.
static OPEN: AtomicUsize = AtomicUsize::new(0);

/// Whether a wait may spin: `open` connections and workers fit on
/// `cores`, and the connection's previous wait, `last_wait`, ended
/// within [`SPIN_BUDGET`].
fn may_spin(open: usize, cores: usize, last_wait: Duration) -> bool {
    open <= cores && last_wait <= SPIN_BUDGET
}

/// The cores this process may run on, read once: the query reads cgroup
/// files, which costs more than a spin saves.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

struct SpinMetrics {
    hits: ppq_obs::Counter,
    misses: ppq_obs::Counter,
}

/// Registry handles for the spin outcome, resolved once. `hits` counts
/// spins that saw the socket readable within the budget, `misses` those
/// that gave up and blocked; a wait the gate keeps from spinning counts
/// in neither.
fn spin_metrics() -> &'static SpinMetrics {
    static METRICS: OnceLock<SpinMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ppq_obs::Registry::global();
        SpinMetrics {
            hits: r.counter("ppq_wire_spin_hits"),
            misses: r.counter("ppq_wire_spin_misses"),
        }
    })
}

/// Register the spin counters, so a metrics page lists them before the
/// first spin.
pub(crate) fn register_metrics() {
    spin_metrics();
}

/// One unit of the process's open count, held for as long as its
/// connection or worker lives.
pub(crate) struct Open(());

impl Open {
    pub(crate) fn new() -> Open {
        OPEN.fetch_add(1, Ordering::Relaxed);
        Open(())
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        OPEN.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A connection's waiting state: its share of the open count and how
/// long its previous wait took to see the socket readable.
pub(crate) struct FrameWait {
    last_wait: Duration,
    _open: Open,
}

impl FrameWait {
    /// A new connection starts hot: its first wait may spin.
    pub(crate) fn new() -> FrameWait {
        FrameWait {
            last_wait: Duration::ZERO,
            _open: Open::new(),
        }
    }

    /// Wait for the next frame on `stream` and read it
    /// ([`proto::read_frame_polling`] semantics), spinning first when
    /// the gate allows.
    pub(crate) fn next_frame(
        &mut self,
        stream: &TcpStream,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<Vec<u8>>, WireError> {
        let start = Instant::now();
        let hit = may_spin(OPEN.load(Ordering::Relaxed), cores(), self.last_wait) && {
            let hit = spin_until_readable(stream)?;
            let m = spin_metrics();
            if hit { &m.hits } else { &m.misses }.inc();
            hit
        };
        let readable_after = start.elapsed();
        let frame = proto::read_frame_polling(&mut &*stream, stop);
        // A wait that blocked paid a wake-up, about one `SPIN_BUDGET`, on
        // top of the peer's time. Charging it would keep a connection
        // whose peer answers at spin speed cold for good.
        self.last_wait = if hit {
            readable_after
        } else {
            start.elapsed().saturating_sub(SPIN_BUDGET)
        };
        frame
    }
}

/// Peek at `stream` without blocking until it is readable or
/// [`SPIN_BUDGET`] has passed; `true` if it became readable. Readable
/// includes EOF and a pending error, which the framed read then
/// reports. The stream is back in blocking mode on return.
fn spin_until_readable(stream: &TcpStream) -> std::io::Result<bool> {
    stream.set_nonblocking(true)?;
    let start = Instant::now();
    let mut byte = [0u8; 1];
    let readable = loop {
        match stream.peek(&mut byte) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            _ => break true,
        }
        if start.elapsed() >= SPIN_BUDGET {
            break false;
        }
        std::thread::yield_now();
    };
    stream.set_nonblocking(false)?;
    Ok(readable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spins_only_when_hot_and_a_core_is_free() {
        let us = Duration::from_micros;
        // The open bound: at most one connection or worker per core.
        assert!(may_spin(2, 2, Duration::ZERO));
        assert!(!may_spin(3, 2, Duration::ZERO));
        assert!(may_spin(1, 1, Duration::ZERO));
        assert!(!may_spin(2, 1, Duration::ZERO));
        // The hot bound: the previous wait ended within the budget.
        assert!(may_spin(1, 2, SPIN_BUDGET));
        assert!(!may_spin(1, 2, SPIN_BUDGET + Duration::from_nanos(1)));
        assert!(!may_spin(1, 2, us(5_000)));
        // Both must hold.
        assert!(!may_spin(3, 2, SPIN_BUDGET + us(1)));
    }
}
