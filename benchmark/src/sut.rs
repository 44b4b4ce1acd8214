//! The adapter to the system under test: every call into a `ppq-*` crate
//! is in this file, through the narrowest public surface that does the
//! job (`ShardedPpqStream`, `RepoWriter`/`Repo`/`DiskQueryEngine`,
//! `QueryTarget`, `LiveService`/`LiveRepo::recover`,
//! `ppq_server::start`/`RemoteConn`). The rest of the benchmark sees
//! generated inputs, answers and timings only, so a change to the system's
//! API is absorbed here.
//!
//! Per-layer probes replay a workload's own inputs into one layer's public
//! functions in isolation and time them from outside; they never reach
//! into private state.

use crate::gen::{self, Anchors, Kind, Query};
use crate::trace::Tracer;
use ppq_core::query::{QueryTarget, ShardedQueryEngine, ShardedQueryWorkspace};
use ppq_core::{summary_io, PpqConfig, ShardedPpqStream, Variant};
use ppq_geo::{coords, BBox, GridSpec};
use ppq_live::{LiveConfig, LiveRepo, LiveService, MaintenanceConfig, Wal};
use ppq_repo::{DiskQueryEngine, DiskQueryWorkspace, RepoWriter};
use ppq_server::{RemoteClient, RemoteConn, Request, Response, ServerConfig, ServerHandle};
use ppq_traj::synth::{porto_like, PortoConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub use ppq_core::query::StrqOutcome;
pub use ppq_core::ShardedSummary;
pub use ppq_geo::Point;
pub use ppq_repo::Repo;
pub use ppq_traj::Dataset;

/// Pipeline shards in every workload.
pub const SHARDS: usize = 4;
/// Repository page size.
pub const PAGE_SIZE: usize = 4 << 10;
pub const TPQ_HORIZON: u32 = 10;
/// Bytes of user data per ingested point: id `u32` + two `f64`.
pub const USER_BYTES_PER_POINT: f64 = 20.0;

pub type TpqAnswer = Vec<(u32, Vec<(u32, Point)>)>;
pub type Slice<'a> = (u32, &'a [(u32, Point)]);

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// PPQ-S with the ε_p the served-path benches use; everything else is the
/// library default.
pub fn config() -> PpqConfig {
    PpqConfig::variant(Variant::PpqS, 0.1)
}

// --- traj: inputs ---------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub struct DataSpec {
    pub trajectories: usize,
    pub mean_len: usize,
    pub min_len: usize,
    pub start_spread: u32,
}

/// Sub-sets a dataset is the union of.
const PARTS: usize = 8;

/// The union of [`PARTS`] seeded `porto_like` sets over one extent, with
/// trajectory ids in order of first appearance, as an ingesting service
/// would assign them.
///
/// One `porto_like` call scatters its trajectories around six random
/// pickup areas, so density — and with it size, quality and latency —
/// swings by several percent from seed to seed; 48 areas average that out.
/// Arrival-ordered ids matter to the live path: with ids in generation
/// order a delta generation of a small slice can introduce an id far
/// above the shard's highest, which `summary_io::apply_delta` rejects as
/// corrupt.
pub fn dataset(spec: &DataSpec, seed: u64) -> Dataset {
    let mut trajectories = Vec::with_capacity(spec.trajectories);
    for part in 0..PARTS {
        let share = spec.trajectories / PARTS + usize::from(part < spec.trajectories % PARTS);
        let set = porto_like(&PortoConfig {
            trajectories: share,
            mean_len: spec.mean_len,
            min_len: spec.min_len,
            start_spread: spec.start_spread,
            seed: gen::Rng::derive(seed, part as u64),
        });
        trajectories.extend_from_slice(set.trajectories());
    }
    trajectories.sort_by_key(|t| t.start);
    Dataset::new(trajectories)
}

pub fn slices(data: &Dataset) -> Vec<Slice<'_>> {
    data.time_slices().map(|s| (s.t, s.points)).collect()
}

impl Anchors for Dataset {
    fn num_trajectories(&self) -> usize {
        Dataset::num_trajectories(self)
    }
    fn start(&self, traj: usize) -> u32 {
        self.trajectories()[traj].start
    }
    fn len(&self, traj: usize) -> usize {
        self.trajectories()[traj].len()
    }
    fn at(&self, traj: usize, offset: usize) -> (f64, f64) {
        let p = self.trajectories()[traj].points[offset];
        (p.x, p.y)
    }
    fn extent(&self) -> (f64, f64, f64, f64) {
        let b = self.bbox().expect("non-empty dataset");
        (b.min.x, b.min.y, b.max.x, b.max.y)
    }
}

// --- core + repo: the batch path --------------------------------------------

/// Feed `slices` through a fresh `ShardedPpqStream`; one `core.push_slice`
/// span per slice (op id = timestep).
pub fn ingest(slices: &[Slice<'_>], tr: &mut Tracer) -> ShardedPpqStream {
    let mut stream = ShardedPpqStream::new(config(), SHARDS);
    for &(t, points) in slices {
        tr.begin("core.push_slice", t as u64);
        stream.push_slice(t, points);
        tr.end();
    }
    stream
}

pub fn finish(stream: ShardedPpqStream, tr: &mut Tracer) -> ShardedSummary {
    tr.begin("core.finish", 0);
    let summary = stream.finish();
    tr.end();
    summary
}

pub fn build(data: &Dataset) -> ShardedSummary {
    finish(
        ingest(&slices(data), &mut Tracer::off()),
        &mut Tracer::off(),
    )
}

pub fn write_repo(dir: &Path, summary: &ShardedSummary, tr: &mut Tracer) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    tr.begin("repo.write", 0);
    let r = RepoWriter::with_page_size(dir, PAGE_SIZE).write_sharded(summary);
    tr.end();
    r.map(|_| ()).map_err(err("repo write"))
}

pub fn open_repo(dir: &Path, pool_pages: usize, tr: &mut Tracer) -> Result<Repo, String> {
    tr.begin("repo.open", 0);
    let r = Repo::open(dir, pool_pages);
    tr.end();
    r.map_err(err("repo open"))
}

/// Serialized form of every shard (`core.summary_bytes`).
pub fn encode_summary(summary: &ShardedSummary) -> Vec<Vec<u8>> {
    summary.shards().iter().map(summary_io::to_bytes).collect()
}

/// Decode every shard and rebuild its index: what an in-memory deployment
/// pays to come back up from its serialized summary.
pub fn decode_summary(bytes: &[Vec<u8>]) -> Result<ShardedSummary, String> {
    let shards = bytes
        .iter()
        .map(|b| summary_io::from_bytes(b, true))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("summary decode"))?;
    Ok(ShardedSummary::from_shards(shards))
}

/// Data pages of the repository at `dir`, from its page segments' sizes.
pub fn data_pages(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "pages"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() / PAGE_SIZE as u64)
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes of every file under `dir` (one level; stores are flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.metadata()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

// --- query backends ---------------------------------------------------------

/// A production-form query session: one backend handle plus its
/// per-thread context, driven through the system's `QueryTarget`.
pub trait Exec {
    /// Run one query; the answer cardinality keeps the call observable.
    fn exec(&mut self, q: &Query) -> usize;
}

pub struct Session<'a, T: QueryTarget> {
    target: &'a T,
    ctx: T::Ctx,
}

pub fn session<T: QueryTarget>(target: &T) -> Session<'_, T> {
    Session {
        target,
        ctx: T::Ctx::default(),
    }
}

impl<T: QueryTarget> Exec for Session<'_, T> {
    #[inline]
    fn exec(&mut self, q: &Query) -> usize {
        let p = Point::new(q.x, q.y);
        match q.kind {
            Kind::Strq => self.target.strq(q.t, &p, &mut self.ctx),
            Kind::Tpq => self.target.tpq(q.t, &p, q.horizon, &mut self.ctx),
        }
    }
}

pub fn gc() -> f64 {
    config().tpi.pi.gc
}

pub fn mem_engine<'a>(summary: &'a ShardedSummary, data: &'a Dataset) -> ShardedQueryEngine<'a> {
    ShardedQueryEngine::new(summary, data, gc())
}

pub fn disk_engine<'a>(repo: &'a Repo, data: &'a Dataset) -> DiskQueryEngine<'a> {
    DiskQueryEngine::new(repo, data, gc())
}

pub fn remote_client(addr: SocketAddr) -> RemoteClient {
    RemoteClient::new(addr).expect("socket address resolves to itself")
}

/// Full answers (every STRQ tier, TPQ payloads) for the correctness gate.
pub trait Answers {
    fn strq(&mut self, t: u32, p: &Point) -> Result<StrqOutcome, String>;
    fn tpq(&mut self, t: u32, p: &Point, horizon: u32) -> Result<TpqAnswer, String>;
}

pub struct MemAnswers<'a, 'e>(&'e ShardedQueryEngine<'a>, ShardedQueryWorkspace);
pub struct DiskAnswers<'a, 'e>(&'e DiskQueryEngine<'a>, DiskQueryWorkspace);
pub struct ServiceAnswers<'a>(&'a LiveService, ShardedQueryWorkspace);
pub struct RemoteAnswers(RemoteConn);

pub fn mem_answers<'a, 'e>(e: &'e ShardedQueryEngine<'a>) -> MemAnswers<'a, 'e> {
    MemAnswers(e, ShardedQueryWorkspace::new())
}
pub fn disk_answers<'a, 'e>(e: &'e DiskQueryEngine<'a>) -> DiskAnswers<'a, 'e> {
    DiskAnswers(e, DiskQueryWorkspace::new())
}
pub fn service_answers(s: &LiveService) -> ServiceAnswers<'_> {
    ServiceAnswers(s, ShardedQueryWorkspace::new())
}
pub fn remote_answers(addr: SocketAddr) -> Result<RemoteAnswers, String> {
    RemoteConn::connect(addr)
        .map(RemoteAnswers)
        .map_err(err("connect"))
}

impl Answers for MemAnswers<'_, '_> {
    fn strq(&mut self, t: u32, p: &Point) -> Result<StrqOutcome, String> {
        Ok(self.0.strq_online_with(t, p, &mut self.1))
    }
    fn tpq(&mut self, t: u32, p: &Point, h: u32) -> Result<TpqAnswer, String> {
        Ok(self.0.tpq_with(t, p, h, &mut self.1))
    }
}
impl Answers for DiskAnswers<'_, '_> {
    fn strq(&mut self, t: u32, p: &Point) -> Result<StrqOutcome, String> {
        self.0
            .strq_online_with(t, p, &mut self.1)
            .map_err(err("disk strq"))
    }
    fn tpq(&mut self, t: u32, p: &Point, h: u32) -> Result<TpqAnswer, String> {
        self.0
            .tpq_with(t, p, h, &mut self.1)
            .map_err(err("disk tpq"))
    }
}
impl Answers for ServiceAnswers<'_> {
    fn strq(&mut self, t: u32, p: &Point) -> Result<StrqOutcome, String> {
        Ok(self.0.strq(t, p, &mut self.1).1)
    }
    fn tpq(&mut self, t: u32, p: &Point, h: u32) -> Result<TpqAnswer, String> {
        Ok(self.0.tpq(t, p, h, &mut self.1).1)
    }
}
impl Answers for RemoteAnswers {
    fn strq(&mut self, t: u32, p: &Point) -> Result<StrqOutcome, String> {
        self.0.strq(t, p).map(|r| r.1).map_err(err("remote strq"))
    }
    fn tpq(&mut self, t: u32, p: &Point, h: u32) -> Result<TpqAnswer, String> {
        self.0.tpq(t, p, h).map(|r| r.1).map_err(err("remote tpq"))
    }
}

impl RemoteAnswers {
    /// One `Stats` round trip: the smallest request the protocol has.
    pub fn stats_rtt(&mut self) -> Result<(), String> {
        self.0.stats().map(|_| ()).map_err(err("remote stats"))
    }
}

// --- correctness gate ---------------------------------------------------------

/// The canonical `g_c` query grid every engine derives from the dataset
/// extent, rebuilt here so the reference truth needs no engine.
pub struct QueryGrid(GridSpec);

impl QueryGrid {
    pub fn new(data: &Dataset) -> QueryGrid {
        let bbox = data.bbox().expect("non-empty dataset");
        QueryGrid(GridSpec::covering(&bbox.inflate(gc()), gc()))
    }

    pub fn cell(&self, p: &Point) -> Option<BBox> {
        self.0.locate(p).map(|(cx, cy)| self.0.cell_bbox(cx, cy))
    }

    /// The rectangle an STRQ at `p` probes the index with.
    pub fn search_rect(&self, p: &Point) -> Option<BBox> {
        self.cell(p)
            .map(|c| c.inflate(config().guaranteed_deviation()))
    }
}

/// Index-free ground truth for STRQ `(t, p)`: scan the original points of
/// timestep `t` (restricted to slices below `t_limit`, for a partially
/// ingested stream).
pub fn naive_truth(grid: &QueryGrid, data: &Dataset, t: u32, p: &Point, t_limit: u32) -> Vec<u32> {
    let Some(cell) = grid.cell(p) else {
        return Vec::new();
    };
    if t >= t_limit {
        return Vec::new();
    }
    let mut out: Vec<u32> = data
        .points_at(t)
        .iter()
        .filter(|(_, q)| cell.contains(q))
        .map(|(id, _)| *id)
        .collect();
    out.sort_unstable();
    out
}

fn is_subset(small: &[u32], big: &[u32]) -> bool {
    small.iter().all(|id| big.binary_search(id).is_ok())
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub failed: u64,
    /// Σ|approx ∩ exact| and Σ|approx| over the STRQ sample.
    pub approx_hits: u64,
    pub approx_returned: u64,
    pub visited: u64,
    pub candidates: u64,
    pub exact: u64,
    pub strq: u64,
    /// FNV-1a over every answer bit; equal digests mean identical STRQ
    /// tiers and TPQ payload bits.
    pub digest: u64,
}

impl Verdict {
    pub fn approx_precision(&self) -> f64 {
        if self.approx_returned == 0 {
            1.0
        } else {
            self.approx_hits as f64 / self.approx_returned as f64
        }
    }
}

fn digest_strq(mut h: u64, o: &StrqOutcome) -> u64 {
    for tier in [&o.approx, &o.candidates, &o.exact] {
        h = gen::fnv1a(h, &(tier.len() as u32).to_le_bytes());
        for id in tier.iter() {
            h = gen::fnv1a(h, &id.to_le_bytes());
        }
    }
    gen::fnv1a(h, &(o.visited as u64).to_le_bytes())
}

fn digest_tpq(mut h: u64, a: &TpqAnswer) -> u64 {
    h = gen::fnv1a(h, &(a.len() as u32).to_le_bytes());
    for (id, sub) in a {
        h = gen::fnv1a(h, &id.to_le_bytes());
        h = gen::fnv1a(h, &(sub.len() as u32).to_le_bytes());
        for (t, p) in sub {
            h = gen::fnv1a(h, &t.to_le_bytes());
            h = gen::fnv1a(h, &p.x.to_bits().to_le_bytes());
            h = gen::fnv1a(h, &p.y.to_bits().to_le_bytes());
        }
    }
    h
}

/// Ask every query of `sample` and check the paper's guarantees against
/// the index-free truth: candidate recall = 1 and exact tier == truth.
/// With a `reference` backend, every STRQ tier and every TPQ payload bit
/// must equal the reference's too. A transport or I/O error is a failure.
pub fn verify(
    target: &mut dyn Answers,
    mut reference: Option<&mut dyn Answers>,
    data: &Dataset,
    t_limit: u32,
    sample: &[Query],
) -> Verdict {
    let grid = QueryGrid::new(data);
    let mut v = Verdict {
        digest: gen::FNV_OFFSET,
        ..Verdict::default()
    };
    for q in sample {
        v.checked += 1;
        let p = Point::new(q.x, q.y);
        let ok = match q.kind {
            Kind::Strq => match target.strq(q.t, &p) {
                Ok(o) => {
                    let truth = naive_truth(&grid, data, q.t, &p, t_limit);
                    v.strq += 1;
                    v.visited += o.visited as u64;
                    v.candidates += o.candidates.len() as u64;
                    v.exact += o.exact.len() as u64;
                    v.approx_returned += o.approx.len() as u64;
                    v.approx_hits += o
                        .approx
                        .iter()
                        .filter(|id| o.exact.binary_search(id).is_ok())
                        .count() as u64;
                    v.digest = digest_strq(v.digest, &o);
                    let same = match reference.as_deref_mut() {
                        Some(r) => r.strq(q.t, &p).is_ok_and(|ro| ro == o),
                        None => true,
                    };
                    same && o.exact == truth && is_subset(&truth, &o.candidates)
                }
                Err(_) => false,
            },
            Kind::Tpq => match target.tpq(q.t, &p, q.horizon) {
                Ok(a) => {
                    v.digest = digest_tpq(v.digest, &a);
                    let truth = naive_truth(&grid, data, q.t, &p, t_limit);
                    let ids: Vec<u32> = a.iter().map(|(id, _)| *id).collect();
                    let same = match reference.as_deref_mut() {
                        // The digest covers lengths, ids, times and point bits.
                        Some(r) => r
                            .tpq(q.t, &p, q.horizon)
                            .is_ok_and(|ra| digest_tpq(0, &ra) == digest_tpq(0, &a)),
                        None => true,
                    };
                    same && ids == truth
                }
                Err(_) => false,
            },
        };
        if !ok {
            v.failed += 1;
        }
    }
    v
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ReconCheck {
    pub points: u64,
    /// Points missing from the summary or deviating beyond the bound.
    pub violations: u64,
    pub mae_m: f64,
    pub max_dev_m: f64,
}

/// Check the ε deviation bound on every reconstructed point with
/// `t < t_limit`, and the mean absolute error in metres.
pub fn recon_check(summary: &ShardedSummary, data: &Dataset, t_limit: u32) -> ReconCheck {
    let bound = config().guaranteed_deviation() * (1.0 + 1e-9);
    let mut c = ReconCheck::default();
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    for (id, t, p) in data.iter_points() {
        if t >= t_limit {
            continue;
        }
        c.points += 1;
        match summary.reconstruct(id, t) {
            Some(r) => {
                let d = p.dist(&r);
                sum += d;
                max = max.max(d);
                if d > bound {
                    c.violations += 1;
                }
            }
            None => c.violations += 1,
        }
    }
    c.mae_m = coords::deg_to_meters(sum / c.points.max(1) as f64);
    c.max_dev_m = coords::deg_to_meters(max);
    c
}

// --- live + server ------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub struct LiveSpec {
    /// 0 disables folding.
    pub fold_every: u64,
    pub compact_max_chain: usize,
    pub publish_every: u64,
    pub handler_threads: usize,
    /// Attach the background `MaintenanceWorker` (library-default cadence).
    pub worker: bool,
}

fn live_config(spec: &LiveSpec) -> LiveConfig {
    let mut cfg = LiveConfig::new(config(), SHARDS);
    cfg.page_size = PAGE_SIZE;
    cfg.fold_every = spec.fold_every;
    cfg.compact_max_chain = spec.compact_max_chain;
    cfg
}

/// Log every slice of `slices` into a fresh live directory (WAL only, no
/// fold), so opening a service on it is a full recovery.
pub fn preload_live_dir(dir: &Path, spec: &LiveSpec, slices: &[Slice<'_>]) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = live_config(spec);
    cfg.fold_every = 0;
    let mut live = LiveRepo::recover(dir, cfg).map_err(err("live open"))?;
    for &(t, points) in slices {
        live.push_slice(t, points).map_err(err("live push"))?;
    }
    live.sync().map_err(err("wal sync"))
}

/// A served `LiveService`: loopback `ppq_server` in this process.
pub struct LiveStack {
    server: ServerHandle,
    service: Arc<LiveService>,
}

fn open_service(
    dir: &Path,
    spec: &LiveSpec,
    data: Arc<Dataset>,
) -> Result<(LiveService, f64), String> {
    let t = Instant::now();
    let service = LiveService::open(dir, live_config(spec), data, spec.publish_every)
        .map_err(err("service open"))?;
    Ok((service, secs(t)))
}

/// Open (recovering whatever `dir` holds) and serve. Returns the stack and
/// the seconds `LiveService::open` took.
pub fn start_live(
    dir: &Path,
    spec: &LiveSpec,
    data: Arc<Dataset>,
) -> Result<(LiveStack, f64), String> {
    let (service, open_s) = open_service(dir, spec, data)?;
    let service = Arc::new(service);
    let server = ppq_server::start(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            handler_threads: spec.handler_threads,
            maintenance: spec.worker.then(MaintenanceConfig::default),
            ..ServerConfig::default()
        },
    )
    .map_err(err("server start"))?;
    Ok((LiveStack { server, service }, open_s))
}

/// Seconds one more `LiveService::open` of `dir` takes (no server).
pub fn time_service_open(dir: &Path, spec: &LiveSpec, data: Arc<Dataset>) -> Result<f64, String> {
    open_service(dir, spec, data).map(|(_, open_s)| open_s)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LiveCounts {
    pub folds: u64,
    pub compactions: u64,
    pub maintenance_failures: u64,
    pub shed: u64,
    pub protocol_errors: u64,
}

impl LiveStack {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The served service, for in-process sessions and probes.
    pub fn service(&self) -> &LiveService {
        &self.service
    }

    /// The summary currently published to readers.
    pub fn published(&self) -> ShardedSummary {
        self.service.published().summary.clone()
    }

    pub fn counts(&self) -> LiveCounts {
        let s = self.server.stats();
        let w = self.server.worker_stats().unwrap_or_default();
        LiveCounts {
            folds: w.folds,
            compactions: w.compactions,
            maintenance_failures: w.maintenance_failures + w.sync_failures,
            shed: s.shed,
            protocol_errors: s.protocol_errors,
        }
    }

    /// Graceful drain: in-flight requests finish, every acknowledged
    /// slice is folded and checkpointed, all threads are joined.
    pub fn shutdown(self) -> Result<(), String> {
        self.server.shutdown().map_err(err("server shutdown"))
    }
}

/// The writer connection of the live workload.
pub struct Appender(RemoteConn);

pub fn appender(addr: SocketAddr) -> Result<Appender, String> {
    RemoteConn::connect(addr)
        .map(Appender)
        .map_err(err("connect"))
}

impl Appender {
    pub fn append(&mut self, slice: Slice<'_>) -> Result<(), String> {
        match self.0.append(slice.0, slice.1) {
            Ok(next) if next == slice.0 + 1 => Ok(()),
            Ok(next) => Err(format!("append t={} acked next_t={next}", slice.0)),
            Err(e) => Err(format!("append t={}: {e}", slice.0)),
        }
    }

    pub fn publish(&mut self) -> Result<u32, String> {
        self.0.publish().map_err(err("publish"))
    }
}

pub struct Recovered {
    pub seconds: f64,
    pub next_t: u32,
    pub summary: ShardedSummary,
}

/// Time `LiveRepo::recover` on `dir` (checkpoint decode + WAL tail
/// replay) and take the recovered pipeline's summary.
pub fn recover(dir: &Path, spec: &LiveSpec) -> Result<Recovered, String> {
    let mut cfg = live_config(spec);
    cfg.fold_every = 0;
    let t = Instant::now();
    let live = LiveRepo::recover(dir, cfg).map_err(err("recover"))?;
    let seconds = secs(t);
    Ok(Recovered {
        seconds,
        next_t: live.next_t().unwrap_or(0),
        summary: live.snapshot(),
    })
}

/// Records in the WAL of `dir` (the tail a recovery replays).
pub fn wal_tail_records(dir: &Path) -> Result<u64, String> {
    let scratch = dir.with_extension("walcopy");
    std::fs::copy(dir.join(ppq_live::WAL_NAME), &scratch).map_err(err("wal copy"))?;
    let n = Wal::open_replay(&scratch, 8)
        .map(|(_, records)| records.len() as u64)
        .map_err(err("wal replay"));
    let _ = std::fs::remove_file(&scratch);
    n
}

// --- obs: registry deltas -------------------------------------------------------

/// Counter values and histogram `(count, sum_ns)` of the process-wide
/// registry, for deltas where no accessor exists.
pub struct ObsMark(ppq_obs::MetricsSnapshot);

pub fn obs_mark() -> ObsMark {
    ObsMark(ppq_obs::snapshot())
}

impl ObsMark {
    pub fn counter_since(&self, earlier: &ObsMark, name: &str) -> u64 {
        self.0
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(earlier.0.counter(name).unwrap_or(0))
    }

    /// `(samples, mean_ns)` the histogram gained since `earlier`.
    pub fn hist_since(&self, earlier: &ObsMark, name: &str) -> (u64, f64) {
        let get = |m: &ObsMark| {
            m.0.histogram(name)
                .map(|h| (h.count, h.sum_ns))
                .unwrap_or((0, 0))
        };
        let (c1, s1) = get(self);
        let (c0, s0) = get(earlier);
        let n = c1.saturating_sub(c0);
        let mean = if n == 0 {
            0.0
        } else {
            s1.saturating_sub(s0) as f64 / n as f64
        };
        (n, mean)
    }
}

/// Lock-free read of the registry's fold-time sum, for the sampler that
/// places fold intervals on the benchmark's clock.
pub struct FoldProbe(ppq_obs::Histogram);

pub fn fold_probe() -> FoldProbe {
    FoldProbe(ppq_obs::histogram("ppq_fold_ns"))
}

impl FoldProbe {
    pub fn fold_ns_sum(&self) -> u64 {
        self.0.snapshot().sum_nanos() as u64
    }
}

// --- probes: one layer in isolation ----------------------------------------------

fn ns_per(t: Instant, n: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

#[derive(Clone, Copy, Debug, Default)]
pub struct BuildProbes {
    pub predict_fit_ns_per_point: f64,
    pub quantize_batch_ns_per_point: f64,
    pub cqc_encode_ns_per_point: f64,
    pub tpi_build_s: f64,
}

/// Timesteps between two partitions the build probes sample.
const PROBE_STRIDE: usize = 4;

/// predict, quantize, cqc and tpi on the build workload's own slices.
/// Every [`PROBE_STRIDE`]-th timestep is one partition: its active trajectories'
/// last `k` true points predict the next; the prediction errors go to the
/// incremental quantizer; the quantization residuals to the CQC template.
pub fn probe_build_layers(data: &Dataset) -> BuildProbes {
    let cfg = config();
    let k = cfg.k;
    let mut out = BuildProbes::default();
    let mut quantizer =
        ppq_quantize::IncrementalQuantizer::with_config(cfg.eps1, cfg.kmeans.clone());
    let template = ppq_cqc::CqcTemplate::new(cfg.eps1, cfg.gs);
    let (mut fit_ns, mut quant_ns, mut cqc_ns, mut points) = (0u128, 0u128, 0u128, 0usize);
    for slice in data.time_slices().step_by(PROBE_STRIDE) {
        let mut histories: Vec<[Point; 8]> = Vec::new();
        let mut targets: Vec<Point> = Vec::new();
        for &(id, p) in slice.points {
            let traj = data.trajectory(id);
            let off = (slice.t - traj.start) as usize;
            if off < k {
                continue;
            }
            let mut h = [Point::ORIGIN; 8];
            for (j, slot) in h.iter_mut().enumerate().take(k) {
                *slot = traj.points[off - 1 - j];
            }
            histories.push(h);
            targets.push(p);
        }
        if targets.is_empty() {
            continue;
        }
        let t = Instant::now();
        let rows: Vec<ppq_predict::linear::TrainingRow<'_>> = histories
            .iter()
            .zip(&targets)
            .map(|(h, &target)| ppq_predict::linear::TrainingRow {
                target,
                history: &h[..k],
            })
            .collect();
        let predictor = ppq_predict::linear::fit_predictor(&rows, k);
        let errors: Vec<Point> = histories
            .iter()
            .zip(&targets)
            .map(|(h, &target)| target - predictor.predict(&h[..k]))
            .collect();
        fit_ns += t.elapsed().as_nanos();

        let t = Instant::now();
        let codes = quantizer.quantize_batch(&errors);
        quant_ns += t.elapsed().as_nanos();

        let residuals: Vec<Point> = errors
            .iter()
            .zip(&codes)
            .map(|(&e, &b)| e - quantizer.word(b))
            .collect();
        let t = Instant::now();
        let mut sink = 0u64;
        for &r in &residuals {
            sink = sink.wrapping_add(template.encode(r).raw_bits());
        }
        std::hint::black_box(sink);
        cqc_ns += t.elapsed().as_nanos();
        points += targets.len();
    }
    let per = |ns: u128| ns as f64 / points.max(1) as f64;
    out.predict_fit_ns_per_point = per(fit_ns);
    out.quantize_batch_ns_per_point = per(quant_ns);
    out.cqc_encode_ns_per_point = per(cqc_ns);
    // Twice: the first build pays for fresh memory, the second is timed.
    std::hint::black_box(ppq_tpi::Tpi::build(data, &cfg.tpi));
    let t = Instant::now();
    std::hint::black_box(ppq_tpi::Tpi::build(data, &cfg.tpi));
    out.tpi_build_s = secs(t);
    out
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SummaryFacts {
    pub codewords: f64,
    pub cqc_bytes: f64,
    pub tpi_bytes: f64,
    pub tpi_periods: f64,
}

pub fn summary_facts(summary: &ShardedSummary) -> SummaryFacts {
    let b = summary.breakdown();
    let tpis = || summary.shards().iter().filter_map(|s| s.tpi());
    SummaryFacts {
        codewords: summary.codebook_len() as f64,
        cqc_bytes: (b.cqc_codes + b.cqc_template) as f64,
        tpi_bytes: tpis().map(|t| t.size_bytes()).sum::<usize>() as f64,
        tpi_periods: tpis().map(|t| t.periods().len()).sum::<usize>() as f64,
    }
}

/// Bytes an in-memory deployment holds to serve `summary`: the
/// serialized summary plus its index.
pub fn resident_bytes(summary: &ShardedSummary, encoded: &[Vec<u8>]) -> u64 {
    (encoded.iter().map(Vec::len).sum::<usize>() as f64 + summary_facts(summary).tpi_bytes) as u64
}

#[derive(Clone, Copy, Debug, Default)]
pub struct RepoFacts {
    pub pages: f64,
    pub dir_resident_bytes: f64,
}

pub fn repo_facts(repo: &Repo) -> RepoFacts {
    RepoFacts {
        pages: repo.total_pages() as f64,
        dir_resident_bytes: repo
            .shards()
            .iter()
            .map(|s| s.directory().size_bytes())
            .sum::<usize>() as f64,
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct MemProbes {
    pub tpi_probe_ns: f64,
    pub tpi_ids_per_probe: f64,
    pub sindex_decode_ns_per_id: f64,
    pub slowest_shard_share: f64,
}

/// tpi, sindex and the per-shard fan-out on the query workload's own
/// anchors.
pub fn probe_mem_layers(
    summary: &ShardedSummary,
    engine: &ShardedQueryEngine<'_>,
    data: &Dataset,
    sample: &[Query],
) -> MemProbes {
    let mut out = MemProbes::default();
    let grid = QueryGrid::new(data);
    let rects: Vec<(u32, BBox)> = sample
        .iter()
        .filter_map(|q| Some((q.t, grid.search_rect(&Point::new(q.x, q.y))?)))
        .collect();

    // tpi: the rectangle probe every STRQ starts with, over every shard.
    let mut scratch = ppq_sindex::QueryScratch::default();
    let mut ids = Vec::new();
    let mut total_ids = 0usize;
    let t = Instant::now();
    for (qt, rect) in &rects {
        for shard in summary.shards() {
            if let Some(tpi) = shard.tpi() {
                ids.clear();
                tpi.query_rect_into(*qt, rect, &mut scratch, &mut ids);
                total_ids += ids.len();
            }
        }
    }
    out.tpi_probe_ns = ns_per(t, rects.len());
    out.tpi_ids_per_probe = total_ids as f64 / rects.len().max(1) as f64;

    // sindex: re-compress the first shard's posting blocks, then time the
    // decode alone.
    let lists: Vec<ppq_sindex::CompressedIdList> = summary.shards()[0]
        .tpi()
        .map(|tpi| {
            tpi.periods()
                .iter()
                .flat_map(|p| p.pi.export_blocks())
                .take(50_000)
                .map(|(_, _, _, ids)| ppq_sindex::CompressedIdList::compress(&ids))
                .collect()
        })
        .unwrap_or_default();
    let mut bytes = Vec::new();
    let mut decoded = 0usize;
    let t = Instant::now();
    for list in &lists {
        ids.clear();
        list.decompress_into(&mut bytes, &mut ids);
        decoded += ids.len();
    }
    out.sindex_decode_ns_per_id = ns_per(t, decoded);

    // core fan-out: the slowest shard's share of the summed shard time.
    let mut ws: Vec<ppq_core::QueryWorkspace> = (0..engine.num_shards())
        .map(|_| ppq_core::QueryWorkspace::new())
        .collect();
    let (mut slowest, mut all) = (0u128, 0u128);
    for q in sample.iter().filter(|q| q.kind == Kind::Strq) {
        let p = Point::new(q.x, q.y);
        let mut worst = 0u128;
        for (i, w) in ws.iter_mut().enumerate() {
            let t = Instant::now();
            std::hint::black_box(engine.shard_engine(i).strq_online_with(q.t, &p, w));
            let ns = t.elapsed().as_nanos();
            worst = worst.max(ns);
            all += ns;
        }
        slowest += worst;
    }
    out.slowest_shard_share = slowest as f64 / all.max(1) as f64;
    out
}

#[derive(Clone, Copy, Debug, Default)]
pub struct DiskProbes {
    pub dir_lookup_ns: f64,
    pub pages_planned_per_query: f64,
    pub fetch_batch_ns: f64,
    pub read_ns_per_page: f64,
}

/// repo::dir and storage on the disk workload's own anchors: the
/// directory walk (plan) and the pool batch (fetch) of every sampled
/// query, timed apart, then a cold sequential read of every page.
pub fn probe_disk_layers(
    repo: &Repo,
    data: &Dataset,
    sample: &[Query],
) -> Result<DiskProbes, String> {
    let mut out = DiskProbes::default();
    let grid = QueryGrid::new(data);
    let stats = ppq_storage::IoStats::default();
    let (mut plan_ns, mut fetch_ns, mut pages, mut n) = (0u128, 0u128, 0usize, 0usize);
    let mut plan = Vec::new();
    repo.clear_cache();
    for q in sample {
        let Some(rect) = grid.search_rect(&Point::new(q.x, q.y)) else {
            continue;
        };
        n += 1;
        for shard in repo.shards() {
            plan.clear();
            let t = Instant::now();
            if let Some((pidx, period)) = shard.period_of(q.t) {
                for (ri, region) in period.regions.iter().enumerate() {
                    if !region.bbox.intersects(&rect) {
                        continue;
                    }
                    let Some((cells, metas, b)) =
                        shard.directory().group(pidx as u32, ri as u32, q.t)
                    else {
                        continue;
                    };
                    let Some((lx, ly, hx, hy)) = region.grid.cell_range_in_rect(&rect) else {
                        continue;
                    };
                    let range = (
                        lx.max(b.min_cx),
                        ly.max(b.min_cy),
                        hx.min(b.max_cx),
                        hy.min(b.max_cy),
                    );
                    ppq_sindex::posting::walk_cells_in_range(
                        &region.grid,
                        cells,
                        range,
                        |i, _, _| plan.push(metas[i]),
                    );
                }
            }
            plan_ns += t.elapsed().as_nanos();
            if plan.is_empty() {
                continue;
            }
            let t = Instant::now();
            let pinned = shard.fetch_blocks(&plan, &stats).map_err(err("fetch"))?;
            fetch_ns += t.elapsed().as_nanos();
            pages += pinned.len();
        }
    }
    out.dir_lookup_ns = plan_ns as f64 / n.max(1) as f64;
    out.fetch_batch_ns = fetch_ns as f64 / n.max(1) as f64;
    out.pages_planned_per_query = pages as f64 / n.max(1) as f64;

    repo.clear_cache();
    let mut read = 0usize;
    let t = Instant::now();
    for shard in repo.shards() {
        for segment in shard.segments() {
            for page in 0..segment.num_pages() {
                segment.read(page, &stats).map_err(err("page read"))?;
                read += 1;
            }
        }
    }
    out.read_ns_per_page = ns_per(t, read);
    repo.clear_cache();
    Ok(out)
}

pub fn io_backend(repo: &Repo) -> &'static str {
    repo.pool().backend_name()
}

/// `(reads, buffer_hits)` the repository has served so far.
pub fn repo_io(repo: &Repo) -> (u64, u64) {
    (repo.io_stats().reads(), repo.io_stats().buffer_hits())
}

#[derive(Clone, Copy, Debug, Default)]
pub struct WireProbes {
    pub req_encode_ns: f64,
    pub req_decode_ns: f64,
    pub resp_encode_ns: f64,
    pub resp_decode_ns: f64,
}

/// server::proto on the run's own messages: every sampled query's request
/// and the response the service gives it, encoded and decoded in memory.
pub fn probe_wire(service: &LiveService, sample: &[Query]) -> WireProbes {
    let mut answers = service_answers(service);
    let version = service.published().version;
    let requests: Vec<Request> = sample
        .iter()
        .map(|q| {
            let point = Point::new(q.x, q.y);
            match q.kind {
                Kind::Strq => Request::Strq { t: q.t, point },
                Kind::Tpq => Request::Tpq {
                    t: q.t,
                    point,
                    horizon: q.horizon,
                },
            }
        })
        .collect();
    let responses: Vec<Response> = sample
        .iter()
        .map(|q| {
            let p = Point::new(q.x, q.y);
            match q.kind {
                Kind::Strq => Response::Strq {
                    version,
                    outcome: answers.strq(q.t, &p).expect("in-process"),
                },
                Kind::Tpq => Response::Tpq {
                    version,
                    matches: answers.tpq(q.t, &p, q.horizon).expect("in-process"),
                },
            }
        })
        .collect();
    let n = sample.len();
    let t = Instant::now();
    let req_bytes: Vec<_> = requests.iter().map(Request::encode).collect();
    let req_encode_ns = ns_per(t, n);
    let t = Instant::now();
    for b in &req_bytes {
        std::hint::black_box(Request::decode(b).expect("own encoding"));
    }
    let req_decode_ns = ns_per(t, n);
    let t = Instant::now();
    let resp_bytes: Vec<_> = responses.iter().map(Response::encode).collect();
    let resp_encode_ns = ns_per(t, n);
    let t = Instant::now();
    for b in &resp_bytes {
        std::hint::black_box(Response::decode(b).expect("own encoding"));
    }
    let resp_decode_ns = ns_per(t, n);
    WireProbes {
        req_encode_ns,
        req_decode_ns,
        resp_encode_ns,
        resp_decode_ns,
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LiveProbes {
    pub snapshot_ns: f64,
    pub state_encode_ns: f64,
    pub state_bytes: f64,
    pub repo_append_ns: f64,
    pub repo_append_bytes: f64,
    pub repo_compact_ns: f64,
    pub repo_compact_bytes: f64,
    pub wal_bytes_per_point: f64,
    pub publish_ns: f64,
}

/// core::state, repo append/compact, the WAL and publish on the live
/// workload's own acknowledged slices, each in isolation: the stream is
/// replayed once and sampled at 25/50/75/100 %.
pub fn probe_live_layers(
    scratch: &Path,
    data: Arc<Dataset>,
    acked: &[Slice<'_>],
) -> Result<LiveProbes, String> {
    let mut out = LiveProbes::default();
    let n = acked.len();
    let marks: Vec<usize> = (1..=4).map(|i| (n * i / 4).max(1)).collect();

    // core: snapshot cost as the stream grows; state codec at the end.
    let repo_dir = scratch.join("probe-repo");
    let _ = std::fs::remove_dir_all(&repo_dir);
    let writer = RepoWriter::with_page_size(&repo_dir, PAGE_SIZE);
    let mut stream = ShardedPpqStream::new(config(), SHARDS);
    let (mut snap_ns, mut append_ns, mut append_bytes) = (0u128, 0u128, 0u64);
    for (i, &(t, points)) in acked.iter().enumerate() {
        stream.push_slice(t, points);
        if let Some(m) = marks.iter().position(|&m| m == i + 1) {
            let t0 = Instant::now();
            let snap = stream.snapshot();
            snap_ns += t0.elapsed().as_nanos();
            // repo: base at 25 %, then one delta generation per mark.
            let before = dir_bytes(&repo_dir);
            let t0 = Instant::now();
            if m == 0 {
                writer.write_sharded(&snap).map_err(err("probe base"))?;
            } else {
                writer.append_sharded(&snap).map_err(err("probe append"))?;
                append_ns += t0.elapsed().as_nanos();
                append_bytes += dir_bytes(&repo_dir).saturating_sub(before);
            }
        }
    }
    out.snapshot_ns = snap_ns as f64 / marks.len() as f64;
    out.repo_append_ns = append_ns as f64 / 3.0;
    out.repo_append_bytes = append_bytes as f64 / 3.0;
    let t0 = Instant::now();
    let state = ppq_core::state::sharded_to_bytes(&stream);
    out.state_encode_ns = t0.elapsed().as_nanos() as f64;
    out.state_bytes = state.len() as f64;

    let repo = Repo::open(&repo_dir, 64).map_err(err("probe open"))?;
    let t0 = Instant::now();
    let manifest = repo.compact(None).map_err(err("probe compact"))?;
    out.repo_compact_ns = t0.elapsed().as_nanos() as f64;
    out.repo_compact_bytes = manifest
        .newest()
        .shards
        .iter()
        .map(|s| s.summary_len + s.dir_len + s.tpi_pages * manifest.page_size as u64)
        .sum::<u64>() as f64;
    drop(repo);

    // live: WAL footprint and publish cost on an unserved service.
    let live_dir = scratch.join("probe-live");
    let _ = std::fs::remove_dir_all(&live_dir);
    let spec = LiveSpec {
        fold_every: 0,
        compact_max_chain: 0,
        publish_every: 0,
        handler_threads: 1,
        worker: false,
    };
    let service =
        LiveService::open(&live_dir, live_config(&spec), data, 0).map_err(err("probe service"))?;
    let mut publish_ns = 0u128;
    let mut points = 0u64;
    for (i, &(t, pts)) in acked.iter().enumerate() {
        service.push_slice(t, pts).map_err(err("probe push"))?;
        points += pts.len() as u64;
        if marks.contains(&(i + 1)) {
            let t0 = Instant::now();
            service.publish();
            publish_ns += t0.elapsed().as_nanos();
        }
    }
    out.publish_ns = publish_ns as f64 / marks.len() as f64;
    out.wal_bytes_per_point = std::fs::metadata(live_dir.join(ppq_live::WAL_NAME))
        .map(|m| m.len())
        .unwrap_or(0) as f64
        / points.max(1) as f64;
    drop(service);
    let _ = std::fs::remove_dir_all(&repo_dir);
    let _ = std::fs::remove_dir_all(&live_dir);
    Ok(out)
}
