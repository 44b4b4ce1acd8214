//! Serve-during-ingest: a concurrent query service over a [`LiveRepo`].
//!
//! The ingest side ([`LiveService::push_slice`]) serializes writers
//! through one mutex — slices must arrive in timestep order anyway
//! ([`crate::LiveError::OutOfOrder`]), so a single writer lane *is* the
//! ordering contract, not a bottleneck workaround. The query side never
//! touches that lock: readers clone an `Arc` of the current
//! [`Published`] snapshot from an `RwLock` that is only write-held for
//! the duration of a pointer swap.
//!
//! ## Consistency contract
//!
//! A [`Published`] snapshot is built under the writer lock from
//! [`LiveRepo::snapshot`], so it reflects a *prefix* of the acknowledged
//! slice sequence: every slice with `t < version` is fully applied and
//! nothing else is visible. Readers therefore can never observe a torn
//! slice or an uncommitted suffix — the worst case is staleness bounded
//! by `publish_every`. Building it copies no history: the snapshot
//! shares every coefficient row, trajectory record and sealed index
//! period with the stream, so its cost under the lock is a pointer per
//! row and per trajectory plus a copy of the index's open period. The
//! stream copies a shared trajectory record when it next extends it —
//! once per publish, and only for trajectories still active — so a
//! snapshot, once published, never changes. Because the pipeline is
//! deterministic, the contract is checkable: replaying the first
//! `version - min_t` slices into a fresh `ShardedPpqStream` must
//! reproduce the served answers bit for bit
//! (`tests/concurrent_consistency.rs` does exactly this while ingest,
//! folding, and compaction run).
//!
//! ## Maintenance ownership
//!
//! The service holds the two halves of a [`LiveRepo`] apart: the ingest
//! half (WAL, pipeline) behind the writer lock, the maintenance half
//! (chain appender, backoff) behind its own lock, which only
//! the maintainer takes. The maintainer is the attached
//! [`crate::worker::MaintenanceWorker`] ([`LiveService::start_maintenance`]):
//! **exactly one** agent drives fold/sync/compaction. A service with no
//! worker never folds — the server attaches one by default, and a
//! worker-less service is meant for `fold_every = 0` deployments. A fold
//! takes the writer lock twice, briefly: to freeze (WAL fsync, a copy of
//! the stream) and to commit (WAL truncation). Writing the generation
//! with its pipeline state, and compacting, happen with it free, so appends,
//! publishes and [`LiveService::status`] never wait on them. The lock
//! order is maintainer, then writer. The direct maintenance methods
//! (`fold`, `fold_with`, `sync`) are not part of the public serving
//! surface; they exist only for tests behind the `test-internals`
//! feature. Production callers observe maintenance through
//! [`LiveService::status`] and the worker's
//! [`crate::worker::WorkerStats`].

use crate::live::{Ingest, IngestAccess, Maintainer, MaintenanceOutcome, MaintenanceView};
use crate::{LiveConfig, LiveError, LiveRepo};
use ppq_core::query::{QueryTarget, ShardedQueryEngine, ShardedQueryWorkspace, StrqOutcome};
use ppq_core::ShardedSummary;
use ppq_geo::{BBox, GridSpec, Point};
use ppq_traj::{Dataset, TrajId};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Registry handles for the publish path. Publish age is derived by the
/// scraper from the publish-time gauge rather than recomputed here, so
/// the registry stays clock-free on the hot path.
struct ServiceMetrics {
    published_version: ppq_obs::Gauge,
    last_publish_unix_ms: ppq_obs::Gauge,
    publishes: ppq_obs::Counter,
    /// Each writer-lock hold maintenance takes: freeze, commit, the due
    /// check, the group-commit sync.
    maintenance_lock_ns: ppq_obs::Histogram,
}

fn service_metrics() -> &'static ServiceMetrics {
    static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ppq_obs::Registry::global();
        ServiceMetrics {
            published_version: r.gauge("ppq_published_version"),
            last_publish_unix_ms: r.gauge("ppq_last_publish_unix_ms"),
            publishes: r.counter("ppq_publishes"),
            maintenance_lock_ns: r.histogram("ppq_maintenance_lock_ns"),
        }
    })
}

/// An immutable, versioned view of everything ingested before `version`.
pub struct Published {
    /// The stream's `next_t` when this snapshot was taken: all slices
    /// with `t < version` are included, none after.
    pub version: u32,
    /// The quantized summary those slices fold into.
    pub summary: ShardedSummary,
}

struct Writer {
    ingest: Ingest,
    since_publish: u64,
}

/// A maintenance pass's route to the ingest half: the writer lock, taken
/// per call and its hold timed into `ppq_maintenance_lock_ns`.
struct WriterLock<'a>(&'a Mutex<Writer>);

impl IngestAccess for WriterLock<'_> {
    fn with<R>(&mut self, f: impl FnOnce(&mut Ingest) -> R) -> R {
        let mut w = self.0.lock().expect("writer lock poisoned");
        let _held = ppq_obs::Span::with("maintenance_lock", &service_metrics().maintenance_lock_ns);
        f(&mut w.ingest)
    }
}

/// A point-in-time health/progress report of the service — the public
/// observation surface now that maintenance internals are owned by the
/// background worker (feeds the server's `Stats` response and the bench
/// reports).
#[derive(Clone, Debug)]
pub struct ServiceStatus {
    /// The timestep the stream expects next (`None` before any slice).
    pub next_t: Option<u32>,
    /// Version of the currently published snapshot.
    pub published_version: u32,
    /// WAL records appended but not yet fsynced.
    pub wal_pending: usize,
    /// Consecutive failed maintenance attempts (drives the backoff).
    pub maintenance_failures: u32,
    /// The last maintenance failure since the last success, rendered.
    pub last_maintenance_error: Option<String>,
    /// Whether a background maintenance worker owns the cadence (without
    /// one, nothing folds).
    pub worker_attached: bool,
    /// Committed-structure bytes of the WAL — the durable backlog the
    /// next fold will drain.
    pub wal_pending_bytes: u64,
    /// Committed generations in the chain (0 before the first fold).
    pub chain_generations: u32,
    /// Wall-clock ms of the last successful fold (this incarnation).
    pub last_fold_unix_ms: Option<u64>,
    /// Wall-clock ms of the last compaction (this incarnation).
    pub last_compaction_unix_ms: Option<u64>,
    /// Frames resident across the process's shared buffer pools (the
    /// `ppq_pool_resident_frames` gauge) — auto-compaction's repository
    /// view and any disk query engine in this process page through them.
    pub pool_resident_frames: u64,
}

/// What one background-worker tick did (see
/// [`crate::worker::MaintenanceWorker`]).
pub(crate) struct TickOutcome {
    pub maintenance: MaintenanceOutcome,
    pub synced: bool,
    pub sync_error: Option<LiveError>,
}

/// Concurrent ingest-and-serve front end for a [`LiveRepo`].
pub struct LiveService {
    writer: Mutex<Writer>,
    /// The maintenance half. Taken before `writer` whenever both are
    /// held; a fold holds it throughout and `writer` only to freeze and
    /// to commit.
    maintainer: Mutex<Maintainer>,
    /// What [`LiveService::status`] reports of the maintainer, which
    /// keeps it current — so a status read never waits on a pass.
    maintenance_view: Arc<Mutex<MaintenanceView>>,
    published: RwLock<Arc<Published>>,
    /// Original-point store backing exact-answer refinement — the same
    /// role the repository's full dataset plays for `DiskQueryEngine`.
    dataset: Arc<Dataset>,
    /// Canonical query grid, fixed across snapshots so cell boundaries
    /// never move while the service is live.
    grid: GridSpec,
    publish_every: u64,
    /// Set while a [`crate::worker::MaintenanceWorker`] owns the
    /// fold/sync/compaction cadence (at most one at a time).
    worker_attached: AtomicBool,
}

impl LiveService {
    /// Open (recovering if needed) the live directory and start serving.
    /// A fresh snapshot is published every `publish_every` ingested
    /// slices (0 publishes only on explicit [`LiveService::publish`]).
    /// Nothing folds until a worker is attached
    /// ([`LiveService::start_maintenance`]).
    pub fn open(
        dir: &Path,
        cfg: LiveConfig,
        dataset: Arc<Dataset>,
        publish_every: u64,
    ) -> Result<LiveService, LiveError> {
        let gc = cfg.ppq.tpi.pi.gc;
        let bbox = dataset
            .bbox()
            .unwrap_or(BBox::from_extents(0.0, 0.0, 1.0, 1.0));
        let grid = GridSpec::covering(&bbox.inflate(gc), gc);
        let LiveRepo { ingest, maint } = LiveRepo::recover(dir, cfg)?;
        let snapshot = Arc::new(Published {
            version: ingest.next_t().unwrap_or(0),
            summary: ingest.snapshot(),
        });
        Ok(LiveService {
            writer: Mutex::new(Writer {
                ingest,
                since_publish: 0,
            }),
            maintenance_view: maint.view(),
            maintainer: Mutex::new(maint),
            published: RwLock::new(snapshot),
            dataset,
            grid,
            publish_every,
            worker_attached: AtomicBool::new(false),
        })
    }

    /// Ingest one slice (WAL + pipeline, exactly [`LiveRepo::push_slice`])
    /// and republish if the cadence is due. Never waits on a fold's
    /// write phase or a compaction.
    pub fn push_slice(&self, t: u32, points: &[(TrajId, Point)]) -> Result<(), LiveError> {
        let mut w = self.writer.lock().expect("writer lock poisoned");
        w.ingest.push_slice(t, points)?;
        w.since_publish += 1;
        if self.publish_every > 0 && w.since_publish >= self.publish_every {
            self.publish_locked(&mut w);
        }
        Ok(())
    }

    /// Take and publish a snapshot of the current pipeline state.
    /// Returns the (possibly unchanged) current version.
    ///
    /// No-op publishes are skipped: if no slice was acknowledged since
    /// the last publish, the snapshot version (= the stream's `next_t`)
    /// is unchanged, and — the pipeline being deterministic — the
    /// snapshot would be identical too. The already-published `Arc` is
    /// kept, so a periodic publish tick (the background worker's) does
    /// not churn pointer swaps or clone the summary.
    pub fn publish(&self) -> u32 {
        let mut w = self.writer.lock().expect("writer lock poisoned");
        self.publish_locked(&mut w)
    }

    fn publish_locked(&self, w: &mut Writer) -> u32 {
        let version = w.ingest.next_t().unwrap_or(0);
        w.since_publish = 0;
        {
            let current = self.published.read().expect("publish lock poisoned");
            if current.version == version {
                return version;
            }
        }
        let snapshot = Arc::new(Published {
            version,
            summary: w.ingest.snapshot(),
        });
        *self.published.write().expect("publish lock poisoned") = snapshot;
        let m = service_metrics();
        m.published_version.set(version as u64);
        m.last_publish_unix_ms.set(ppq_obs::unix_ms());
        m.publishes.inc();
        version
    }

    /// The current snapshot (cheap: one `Arc` clone under a read lock).
    pub fn published(&self) -> Arc<Published> {
        self.published
            .read()
            .expect("publish lock poisoned")
            .clone()
    }

    /// A query engine over `snap` — the identical evaluation path the
    /// offline [`ShardedQueryEngine`] uses, pinned to the service's
    /// canonical grid. Three borrows, so building one per request costs
    /// nothing. The consistency test replays through this same
    /// constructor so live and quiescent answers share every code path.
    pub fn engine_for<'a>(&'a self, snap: &'a Published) -> ShardedQueryEngine<'a> {
        ShardedQueryEngine::with_grid(&snap.summary, &self.dataset, &self.grid)
    }

    /// One production STRQ against the current snapshot. Returns the
    /// snapshot version the answer was computed from.
    pub fn strq(&self, t: u32, p: &Point, ws: &mut ShardedQueryWorkspace) -> (u32, StrqOutcome) {
        let snap = self.published();
        let outcome = self.engine_for(&snap).strq_online_with(t, p, ws);
        (snap.version, outcome)
    }

    /// One TPQ against the current snapshot, with the snapshot version.
    #[allow(clippy::type_complexity)]
    pub fn tpq(
        &self,
        t: u32,
        p: &Point,
        l: u32,
        ws: &mut ShardedQueryWorkspace,
    ) -> (u32, Vec<(TrajId, Vec<(u32, Point)>)>) {
        let snap = self.published();
        let answers = self.engine_for(&snap).tpq_with(t, p, l, ws);
        (snap.version, answers)
    }

    /// Health/progress snapshot. Briefly takes the writer lock for the
    /// ingest fields; the maintenance fields come from the copy the
    /// maintainer updates as it commits, so neither waits on a fold's
    /// write phase or a compaction.
    pub fn status(&self) -> ServiceStatus {
        let (next_t, wal_pending, wal_pending_bytes) = {
            let w = self.writer.lock().expect("writer lock poisoned");
            (
                w.ingest.next_t(),
                w.ingest.wal_pending(),
                w.ingest.wal_pending_bytes(),
            )
        };
        let m = self
            .maintenance_view
            .lock()
            .expect("maintenance view lock poisoned")
            .clone();
        ServiceStatus {
            next_t,
            published_version: self
                .published
                .read()
                .expect("publish lock poisoned")
                .version,
            wal_pending,
            maintenance_failures: m.failures,
            last_maintenance_error: m.last_error,
            worker_attached: self.worker_attached.load(Ordering::Acquire),
            wal_pending_bytes,
            chain_generations: m.chain_generations,
            last_fold_unix_ms: m.last_fold_unix_ms,
            last_compaction_unix_ms: m.last_compaction_unix_ms,
            pool_resident_frames: ppq_obs::gauge("ppq_pool_resident_frames").get(),
        }
    }

    /// The canonical query grid (fixed for the service's lifetime).
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The original-point store queries refine against.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Tear down the service and hand back the underlying [`LiveRepo`].
    /// Unreachable while a worker (or any other clone of the owning
    /// `Arc`) is alive, so it cannot race background maintenance.
    pub fn into_inner(self) -> LiveRepo {
        LiveRepo {
            ingest: self
                .writer
                .into_inner()
                .expect("writer lock poisoned")
                .ingest,
            maint: self
                .maintainer
                .into_inner()
                .expect("maintainer lock poisoned"),
        }
    }

    /// Run one pass as the maintainer: its half locked throughout, the
    /// writer lock reachable per phase.
    fn maintain<T>(&self, pass: impl FnOnce(&mut Maintainer, &mut WriterLock<'_>) -> T) -> T {
        let mut m = self.maintainer.lock().expect("maintainer lock poisoned");
        pass(&mut m, &mut WriterLock(&self.writer))
    }

    // --- Worker hooks (crate-internal; `worker.rs` is the one caller) ---

    /// Claim maintenance ownership. Returns `false` if another worker
    /// already owns it.
    pub(crate) fn attach_worker(&self) -> bool {
        !self.worker_attached.swap(true, Ordering::AcqRel)
    }

    /// Release maintenance ownership (worker shutdown/drop). The service
    /// stops folding until the next attach.
    pub(crate) fn detach_worker(&self) {
        self.worker_attached.store(false, Ordering::Release);
    }

    /// One background-maintenance tick: run due fold/compaction, flush
    /// the WAL group-commit remainder, then republish (a no-op unless a
    /// slice arrived). The writer lock is taken only for the fold's
    /// freeze and commit and for the sync, never across a write phase,
    /// a compaction or the publish `RwLock` swap's readers.
    pub(crate) fn worker_tick(&self, sync_wal: bool) -> TickOutcome {
        let maintenance = self.maintain(|m, w| m.maintain_if_due(w));
        let sync = sync_wal
            .then(|| WriterLock(&self.writer).with(|i| (i.wal_pending() > 0).then(|| i.sync())))
            .flatten();
        let (synced, sync_error) = match sync {
            Some(Ok(())) => (true, None),
            Some(Err(e)) => (false, Some(e)),
            None => (false, None),
        };
        self.publish();
        TickOutcome {
            maintenance,
            synced,
            sync_error,
        }
    }

    /// Final drain for graceful shutdown: fsync the WAL and fold
    /// everything outstanding into the chain (fold = sync → generation
    /// commit, state included → WAL truncate), so recovery starts from a
    /// chain covering every acknowledged slice — then, when
    /// auto-compaction is on, compact the chain to one generation.
    pub(crate) fn final_drain(&self) -> Result<(), LiveError> {
        self.maintain(|m, w| m.drain(w))
    }

    // --- Test-only escape hatches -----------------------------------------
    //
    // Gated so production callers cannot race the maintenance worker:
    // the worker is the only agent that folds/syncs once attached.

    /// Force the WAL to stable storage. Test-only: the maintenance
    /// worker owns syncs in production.
    #[cfg(any(test, feature = "test-internals"))]
    pub fn sync(&self) -> Result<(), LiveError> {
        self.writer
            .lock()
            .expect("writer lock poisoned")
            .ingest
            .sync()
    }

    /// Fold the WAL into the generation chain now. Test-only: the
    /// maintenance worker owns folds in production.
    #[cfg(any(test, feature = "test-internals"))]
    pub fn fold(&self) -> Result<(), LiveError> {
        self.fold_with(|| {})
    }

    /// [`LiveService::fold`], running `in_write_phase` after the
    /// generation is written and before the commit: the
    /// maintainer holds its half, the writer lock is free, and the WAL
    /// still holds the folded records. Test-only.
    #[cfg(any(test, feature = "test-internals"))]
    pub fn fold_with(&self, in_write_phase: impl FnOnce()) -> Result<(), LiveError> {
        self.maintain(|m, w| m.fold(w, 0, in_write_phase)).map(drop)
    }
}

/// The live service as a [`QueryTarget`] backend: versioned snapshot
/// queries through a per-worker [`ShardedQueryWorkspace`].
impl QueryTarget for LiveService {
    type Ctx = ShardedQueryWorkspace;

    fn strq(&self, t: u32, p: &Point, ctx: &mut Self::Ctx) -> usize {
        LiveService::strq(self, t, p, ctx).1.exact.len()
    }

    fn tpq(&self, t: u32, p: &Point, horizon: u32, ctx: &mut Self::Ctx) -> usize {
        LiveService::tpq(self, t, p, horizon, ctx).1.len()
    }
}
