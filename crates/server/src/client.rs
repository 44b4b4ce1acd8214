//! Client side: a blocking connection plus a [`QueryTarget`] adapter so
//! a load driver written against the trait drives a remote server
//! unchanged.

use crate::proto::{self, Request, Response, StatsBody, TpqMatch, WireError};
use ppq_core::query::{QueryTarget, StrqOutcome};
use ppq_geo::Point;
use ppq_traj::TrajId;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// Why a remote call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or frame-decode failure; the connection is dead.
    Wire(WireError),
    /// The server shed this connection under overload; dial again later.
    Busy,
    /// Append rejected as out of order; resume from `expected`.
    OutOfOrder { expected: u32, got: u32 },
    /// The server reported a failure executing the request.
    Server(String),
    /// The server answered with a response type the request cannot
    /// produce — protocol confusion, treat the connection as dead.
    UnexpectedResponse,
    /// The server closed the connection at a frame boundary (shutdown).
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Busy => write!(f, "server busy: connection shed"),
            ClientError::OutOfOrder { expected, got } => {
                write!(f, "append out of order: expected t={expected}, got t={got}")
            }
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::UnexpectedResponse => write!(f, "response type mismatches request"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Wire(WireError::Io(e))
    }
}

/// One blocking protocol connection (request → response, in order).
pub struct RemoteConn {
    stream: TcpStream,
}

impl RemoteConn {
    /// Dial the server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<RemoteConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RemoteConn { stream })
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        proto::write_frame(&mut self.stream, &req.encode())?;
        let payload = proto::read_frame(&mut self.stream)?.ok_or(ClientError::Closed)?;
        let resp = Response::decode(&payload).map_err(WireError::Protocol)?;
        match resp {
            Response::Busy => Err(ClientError::Busy),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Ok(other),
        }
    }

    /// Remote STRQ: the snapshot version it was answered at, plus the
    /// full [`StrqOutcome`] (bit-comparable to an in-process answer at
    /// the same version).
    pub fn strq(&mut self, t: u32, point: &Point) -> Result<(u32, StrqOutcome), ClientError> {
        match self.call(&Request::Strq { t, point: *point })? {
            Response::Strq { version, outcome } => Ok((version, outcome)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Remote TPQ over `horizon` timesteps.
    pub fn tpq(
        &mut self,
        t: u32,
        point: &Point,
        horizon: u32,
    ) -> Result<(u32, Vec<TpqMatch>), ClientError> {
        match self.call(&Request::Tpq {
            t,
            point: *point,
            horizon,
        })? {
            Response::Tpq { version, matches } => Ok((version, matches)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Ingest one slice; returns the timestep the stream expects next.
    pub fn append(&mut self, t: u32, points: &[(TrajId, Point)]) -> Result<u32, ClientError> {
        match self.call(&Request::Append {
            t,
            points: points.to_vec(),
        })? {
            Response::Appended { next_t } => Ok(next_t),
            Response::OutOfOrder { expected, got } => {
                Err(ClientError::OutOfOrder { expected, got })
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Service health/progress report.
    pub fn stats(&mut self) -> Result<StatsBody, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Force a snapshot publish; returns the current version.
    pub fn publish(&mut self) -> Result<u32, ClientError> {
        match self.call(&Request::Publish)? {
            Response::Published { version } => Ok(version),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Full metrics-registry snapshot of the server process.
    pub fn metrics(&mut self) -> Result<ppq_obs::MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}

/// The remote server as a [`QueryTarget`]: a load driver written
/// against the trait (the benchmark of record's `tcp_read` workload is
/// one) measures the served path exactly as it measures the in-process
/// targets.
pub struct RemoteClient {
    addr: SocketAddr,
}

impl RemoteClient {
    /// Target a server. Resolution happens once, here; worker threads
    /// dial lazily on first use (`Ctx: Default` means the harness cannot
    /// pre-dial for us).
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<RemoteClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        Ok(RemoteClient { addr })
    }

    /// The resolved server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn with_conn<T>(
        &self,
        ctx: &mut RemoteCtx,
        f: impl FnOnce(&mut RemoteConn) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        if ctx.conn.is_none() {
            ctx.conn = Some(RemoteConn::connect(self.addr)?);
        }
        let conn = ctx.conn.as_mut().expect("connection just established");
        let out = f(conn);
        if out.is_err() {
            // Any failure poisons request/response pairing on this
            // connection; the next op re-dials.
            ctx.conn = None;
        }
        out
    }
}

/// Per-worker connection state: one lazily-dialed [`RemoteConn`].
#[derive(Default)]
pub struct RemoteCtx {
    conn: Option<RemoteConn>,
}

impl QueryTarget for RemoteClient {
    type Ctx = RemoteCtx;

    /// Remote STRQ under load. `Busy` shed counts as zero answers (the
    /// op completes, the server refused it — the latency histogram
    /// keeps the sample); any other failure panics, because a load
    /// run over a dead transport measures nothing.
    fn strq(&self, t: u32, p: &Point, ctx: &mut Self::Ctx) -> usize {
        match self.with_conn(ctx, |c| c.strq(t, p)) {
            Ok((_version, outcome)) => outcome.exact.len(),
            Err(ClientError::Busy) => 0,
            Err(e) => panic!("remote STRQ failed under load: {e}"),
        }
    }

    fn tpq(&self, t: u32, p: &Point, horizon: u32, ctx: &mut Self::Ctx) -> usize {
        match self.with_conn(ctx, |c| c.tpq(t, p, horizon)) {
            Ok((_version, matches)) => matches.len(),
            Err(ClientError::Busy) => 0,
            Err(e) => panic!("remote TPQ failed under load: {e}"),
        }
    }
}
