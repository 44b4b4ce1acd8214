//! Threaded TCP transport serving a [`LiveService`].
//!
//! ## Thread model
//!
//! ```text
//!                    ┌────────────────────────────┐
//!   clients ──TCP──▶ │ accept thread (nonblocking)│
//!                    └──────────┬─────────────────┘
//!                               │ bounded sync_channel(queue_depth)
//!                  full? ──▶ Busy frame, connection dropped
//!                               │
//!            ┌──────────────────┼──────────────────┐
//!            ▼                  ▼                  ▼
//!      handler thread 0   handler thread 1   handler thread N-1
//!      (own workspace)    (own workspace)    (own workspace)
//!                               │
//!                               ▼ queries / appends
//!                    ┌────────────────────────────┐
//!                    │ Arc<LiveService>           │◀── maintenance
//!                    └────────────────────────────┘    worker thread
//! ```
//!
//! Each handler owns one connection at a time and one reusable
//! [`ShardedQueryWorkspace`] across all of them — the same
//! allocation-lean convention as the in-process query path. Overload is
//! shed at the *accept* edge: when the bounded hand-off queue is full
//! the new connection gets a single [`Response::Busy`] frame and is
//! closed, so admitted connections keep their latency instead of
//! everyone queueing unboundedly.
//!
//! A handler waits for its next request the way the client
//! ([`crate::RemoteConn`]) waits for a reply: spin, then block. It peeks
//! at the nonblocking socket, yielding the core between peeks, for at
//! most [`crate::SPIN_BUDGET`], then restores blocking mode and reads
//! the frame as before (read timeout and stop-flag polling included).
//! That skips the wake-up of a parked core on each end of a round trip.
//! A wait spins only while its connection is hot (the previous wait
//! ended within the budget) and a core is free: the connections this
//! process has open, served and dialed, plus an attached maintenance
//! worker, number no more than `available_parallelism()`. Otherwise a
//! spinner would take the core a peer or the worker needs. The registry
//! counts spins as `ppq_wire_spin_hits` and `ppq_wire_spin_misses`.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] is a drain, not an abort: stop the accept
//! loop, let every handler finish its in-flight request and close its
//! connection at the next frame boundary, then (if this server owns the
//! maintenance worker) fold all acknowledged slices into the generation
//! chain. After `Ok(())`, recovering the live directory
//! reproduces exactly the acknowledged state — `tests/shutdown.rs`
//! proves no acked slice is lost.

use crate::proto::{self, Request, Response, StatsBody, WireError};
use crate::wait::{self, FrameWait};
use ppq_core::query::ShardedQueryWorkspace;
use ppq_live::{LiveError, LiveService, MaintenanceConfig, MaintenanceWorker, WorkerStats};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Handler threads = max concurrently served connections.
    pub handler_threads: usize,
    /// Accepted-but-unclaimed connections the hand-off queue holds
    /// before new arrivals are shed with [`Response::Busy`].
    pub queue_depth: usize,
    /// Socket read timeout — bounds how long a handler blocks on an
    /// idle connection before polling the stop flag (it does not drop
    /// the connection).
    pub poll_interval: Duration,
    /// When `Some`, the server attaches a background
    /// [`MaintenanceWorker`] to the service and owns its drain on
    /// shutdown. `None` attaches nothing, and the service never folds:
    /// only for `fold_every = 0` services or a caller-attached worker.
    pub maintenance: Option<MaintenanceConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            handler_threads: 4,
            queue_depth: 16,
            poll_interval: Duration::from_millis(100),
            maintenance: Some(MaintenanceConfig::default()),
        }
    }
}

/// Counters the transport keeps (monotonic, lock-free).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections handed to a handler.
    pub accepted: u64,
    /// Connections shed with a `Busy` frame.
    pub shed: u64,
    /// Requests answered (any response, including errors).
    pub requests: u64,
    /// Connections dropped for protocol violations.
    pub protocol_errors: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
}

/// Registry handles for the transport, resolved once. The handle-level
/// [`ServerStats`] counters above stay authoritative for the handle's
/// own API; the registry mirrors them (plus per-class detail) for the
/// wire-level `Metrics` surface.
struct ServerMetrics {
    requests: ppq_obs::Counter,
    shed: ppq_obs::Counter,
    protocol_errors: ppq_obs::Counter,
    bytes_in: ppq_obs::Counter,
    bytes_out: ppq_obs::Counter,
    connections_opened: ppq_obs::Counter,
    connections_closed: ppq_obs::Counter,
    connections_active: ppq_obs::Gauge,
    strq_requests: ppq_obs::Counter,
    tpq_requests: ppq_obs::Counter,
    append_requests: ppq_obs::Counter,
    stats_requests: ppq_obs::Counter,
    publish_requests: ppq_obs::Counter,
    metrics_requests: ppq_obs::Counter,
    strq_ns: ppq_obs::Histogram,
    tpq_ns: ppq_obs::Histogram,
    append_ns: ppq_obs::Histogram,
}

fn server_metrics() -> &'static ServerMetrics {
    static METRICS: std::sync::OnceLock<ServerMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ppq_obs::Registry::global();
        ServerMetrics {
            requests: r.counter("ppq_server_requests"),
            shed: r.counter("ppq_server_shed"),
            protocol_errors: r.counter("ppq_server_protocol_errors"),
            bytes_in: r.counter("ppq_server_bytes_in"),
            bytes_out: r.counter("ppq_server_bytes_out"),
            connections_opened: r.counter("ppq_server_connections_opened"),
            connections_closed: r.counter("ppq_server_connections_closed"),
            connections_active: r.gauge("ppq_server_connections_active"),
            strq_requests: r.counter("ppq_server_strq_requests"),
            tpq_requests: r.counter("ppq_server_tpq_requests"),
            append_requests: r.counter("ppq_server_append_requests"),
            stats_requests: r.counter("ppq_server_stats_requests"),
            publish_requests: r.counter("ppq_server_publish_requests"),
            metrics_requests: r.counter("ppq_server_metrics_requests"),
            strq_ns: r.histogram("ppq_server_strq_ns"),
            tpq_ns: r.histogram("ppq_server_tpq_ns"),
            append_ns: r.histogram("ppq_server_append_ns"),
        }
    })
}

/// A running server. Dropping without [`ServerHandle::shutdown`] stops
/// the threads best-effort (the maintenance worker still drains via its
/// own `Drop`).
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<LiveService>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    worker: Option<MaintenanceWorker>,
    /// The attached maintenance worker's share of the spin gate's open
    /// count, whoever attached it.
    _worker_open: Option<wait::Open>,
}

/// Bind `addr` and serve `service` until shutdown. `addr` may carry
/// port 0 to let the OS pick; [`ServerHandle::addr`] reports the bound
/// address.
pub fn start(
    addr: impl ToSocketAddrs,
    service: Arc<LiveService>,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;

    let worker = match cfg.maintenance.clone() {
        Some(mcfg) => {
            let w = service.start_maintenance(mcfg).ok_or_else(|| {
                io::Error::new(
                    ErrorKind::AlreadyExists,
                    "a maintenance worker is already attached to this service",
                )
            })?;
            Some(w)
        }
        None => None,
    };
    let worker_open = service.status().worker_attached.then(wait::Open::new);
    wait::register_metrics();

    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(cfg.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut handlers = Vec::with_capacity(cfg.handler_threads.max(1));
    for i in 0..cfg.handler_threads.max(1) {
        let service = Arc::clone(&service);
        let rx = Arc::clone(&rx);
        let stop = Arc::clone(&stop);
        let counters = Arc::clone(&counters);
        let poll = cfg.poll_interval;
        handlers.push(
            std::thread::Builder::new()
                .name(format!("ppq-handler-{i}"))
                .spawn(move || handler_loop(service, rx, stop, counters, poll))
                .expect("spawn handler thread"),
        );
    }

    let accept = {
        let stop = Arc::clone(&stop);
        let counters = Arc::clone(&counters);
        let poll = cfg.poll_interval;
        std::thread::Builder::new()
            .name("ppq-accept".into())
            .spawn(move || accept_loop(listener, tx, stop, counters, poll))
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr: bound,
        service,
        stop,
        counters,
        accept: Some(accept),
        handlers,
        worker,
        _worker_open: worker_open,
    })
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served [`LiveService`].
    pub fn service(&self) -> &Arc<LiveService> {
        &self.service
    }

    /// Transport counters so far.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Maintenance-worker counters, when this server owns the worker.
    pub fn worker_stats(&self) -> Option<WorkerStats> {
        self.worker.as_ref().map(|w| w.stats())
    }

    /// Graceful drain: stop accepting, finish in-flight requests, close
    /// connections at their next frame boundary, then fold every
    /// acknowledged slice into the chain (when this server owns the
    /// maintenance worker).
    pub fn shutdown(mut self) -> Result<(), LiveError> {
        self.stop_transport();
        match self.worker.take() {
            Some(w) => w.shutdown(),
            None => Ok(()),
        }
    }

    fn stop_transport(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_transport();
        // `self.worker` drains via its own Drop.
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<TcpStream>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    poll: Duration,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => {
                    counters.shed.fetch_add(1, Ordering::Relaxed);
                    server_metrics().shed.inc();
                    shed(stream);
                }
                Err(TrySendError::Disconnected(_)) => return,
            },
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(poll.min(POLL_CAP)),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Transient per-connection failures (reset before accept);
            // keep listening.
            Err(_) => std::thread::sleep(poll.min(POLL_CAP)),
        }
    }
}

/// Accept-loop sleep cap so shutdown latency stays low even with a
/// generous handler poll interval.
const POLL_CAP: Duration = Duration::from_millis(25);

/// Tell an un-admitted connection we are overloaded, then close it.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = proto::write_frame(&mut stream, &Response::Busy.encode());
}

fn handler_loop(
    service: Arc<LiveService>,
    rx: Arc<Mutex<Receiver<TcpStream>>>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    poll: Duration,
) {
    // One workspace per handler thread, reused across connections and
    // requests — the steady state allocates only answer vectors.
    let mut ws = ShardedQueryWorkspace::default();
    loop {
        let next = {
            let rx = rx.lock().expect("handler queue lock poisoned");
            rx.recv_timeout(poll.min(POLL_CAP))
        };
        match next {
            Ok(stream) => {
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                let m = server_metrics();
                m.connections_opened.inc();
                m.connections_active.add(1);
                serve_connection(&service, stream, &stop, &counters, poll, &mut ws);
                m.connections_closed.inc();
                m.connections_active.sub(1);
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serve one connection until the peer closes, a protocol violation
/// poisons the framing, or shutdown is requested (checked between
/// frames — an in-flight request always completes and is answered).
fn serve_connection(
    service: &Arc<LiveService>,
    mut stream: TcpStream,
    stop: &AtomicBool,
    counters: &Counters,
    poll: Duration,
    ws: &mut ShardedQueryWorkspace,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    let mut waiter = FrameWait::new();
    loop {
        let m = server_metrics();
        let payload = match waiter.next_frame(&stream, Some(stop)) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(WireError::Protocol(e)) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                m.protocol_errors.inc();
                // Best-effort diagnosis; the framing can no longer be
                // trusted, so the connection closes either way.
                let resp = Response::Error {
                    message: format!("malformed frame: {e}"),
                };
                let _ = proto::write_frame(&mut stream, &resp.encode());
                return;
            }
            Err(WireError::Io(_)) => return,
        };
        // 4-byte length prefix + payload, the full wire footprint.
        m.bytes_in.add(4 + payload.len() as u64);
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                m.protocol_errors.inc();
                let resp = Response::Error {
                    message: format!("malformed request: {e}"),
                };
                let _ = proto::write_frame(&mut stream, &resp.encode());
                return;
            }
        };
        // Counted before dispatch so a `Metrics` snapshot includes the
        // request that produced it — server totals then equal client
        // completions exactly, with nothing in flight.
        counters.requests.fetch_add(1, Ordering::Relaxed);
        m.requests.inc();
        let response = dispatch(service, req, ws);
        let encoded = response.encode();
        m.bytes_out.add(4 + encoded.len() as u64);
        if proto::write_frame(&mut stream, &encoded).is_err() {
            return;
        }
    }
}

fn dispatch(service: &Arc<LiveService>, req: Request, ws: &mut ShardedQueryWorkspace) -> Response {
    let m = server_metrics();
    match req {
        Request::Strq { t, point } => {
            m.strq_requests.inc();
            let mut sp = ppq_obs::Span::with("server_strq", &m.strq_ns);
            let (version, outcome) = service.strq(t, &point, ws);
            sp.visited(outcome.visited as u64);
            Response::Strq { version, outcome }
        }
        Request::Tpq { t, point, horizon } => {
            m.tpq_requests.inc();
            let _sp = ppq_obs::Span::with("server_tpq", &m.tpq_ns);
            let (version, matches) = service.tpq(t, &point, horizon, ws);
            Response::Tpq { version, matches }
        }
        Request::Append { t, points } => {
            m.append_requests.inc();
            let _sp = ppq_obs::Span::with("server_append", &m.append_ns);
            match service.push_slice(t, &points) {
                Ok(()) => Response::Appended { next_t: t + 1 },
                Err(LiveError::OutOfOrder { expected, got }) => {
                    Response::OutOfOrder { expected, got }
                }
                Err(e) => Response::Error {
                    message: format!("append failed: {e}"),
                },
            }
        }
        Request::Stats => {
            m.stats_requests.inc();
            let s = service.status();
            Response::Stats(StatsBody {
                next_t: s.next_t,
                published_version: s.published_version,
                wal_pending: s.wal_pending as u64,
                maintenance_failures: s.maintenance_failures,
                worker_attached: s.worker_attached,
                last_maintenance_error: s.last_maintenance_error,
                wal_pending_bytes: s.wal_pending_bytes,
                chain_generations: s.chain_generations,
                last_fold_unix_ms: s.last_fold_unix_ms,
                last_compaction_unix_ms: s.last_compaction_unix_ms,
                pool_resident_frames: s.pool_resident_frames,
            })
        }
        Request::Publish => {
            m.publish_requests.inc();
            Response::Published {
                version: service.publish(),
            }
        }
        Request::Metrics => {
            m.metrics_requests.inc();
            Response::Metrics(ppq_obs::snapshot())
        }
    }
}
