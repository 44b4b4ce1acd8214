//! The live repository: WAL-guarded ingest in front of the
//! generation-chain store, with recovery from the chain plus the WAL
//! tail, periodic WAL folding, and threshold-driven auto-compaction.
//!
//! See the crate docs for the lifecycle; `docs/ARCHITECTURE.md` has the
//! full diagram and the crash-window argument.

use crate::wal::{Wal, WalError, WAL_NAME};
use ppq_core::summary_io::DecodeError;
use ppq_core::{state, PpqConfig, ShardedPpqStream, ShardedSummary};
use ppq_geo::Point;
use ppq_repo::{Appender, ChainState, Manifest, Repo, RepoError, RepoWriter};
use ppq_storage::PAGE_SIZE;
use ppq_traj::TrajId;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Registry handles for the maintenance path, resolved once.
struct LiveMetrics {
    fold_ns: ppq_obs::Histogram,
    compact_ns: ppq_obs::Histogram,
    folds: ppq_obs::Counter,
    compactions: ppq_obs::Counter,
    failures: ppq_obs::Counter,
    backoff_shift: ppq_obs::Gauge,
    chain_generations: ppq_obs::Gauge,
}

fn live_metrics() -> &'static LiveMetrics {
    static METRICS: OnceLock<LiveMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ppq_obs::Registry::global();
        LiveMetrics {
            fold_ns: r.histogram("ppq_fold_ns"),
            compact_ns: r.histogram("ppq_compact_ns"),
            folds: r.counter("ppq_maintenance_folds"),
            compactions: r.counter("ppq_maintenance_compactions"),
            failures: r.counter("ppq_maintenance_failures"),
            backoff_shift: r.gauge("ppq_maintenance_backoff_shift"),
            chain_generations: r.gauge("ppq_chain_generations"),
        }
    })
}

/// Buffer-pool pages used when auto-compaction opens the chain.
const COMPACT_POOL_PAGES: usize = 64;

/// Tuning knobs of a [`LiveRepo`]. `Default` is sized for real ingest;
/// tests shrink everything.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Pipeline configuration — must stay fixed for the life of the
    /// directory (the state committed with each generation embeds it;
    /// recovery trusts that copy for replay determinism).
    pub ppq: PpqConfig,
    /// Pipeline shards (fixed for the life of the directory).
    pub shards: usize,
    /// Repository page size (fixed for the life of the directory).
    pub page_size: usize,
    /// Fsync the WAL every this-many appended slices (1 = every append).
    pub group_commit: usize,
    /// Fold the WAL into a delta generation every this-many slices (the
    /// cadence of [`LiveRepo::maintain_if_due`] and of the maintenance
    /// worker); 0 disables it ([`LiveRepo::fold`] still works).
    pub fold_every: u64,
    /// Auto-compact when the committed chain reaches this many
    /// generations; 0 disables the length trigger.
    pub compact_max_chain: usize,
    /// Auto-compact when the superseded fraction of the store's bytes
    /// (older generations' pipeline states) reaches this; > 1.0 disables
    /// the byte trigger.
    pub compact_dead_frac: f64,
    /// Cap on the fold-backoff exponent: after `f` consecutive
    /// maintenance failures the next fold is attempted
    /// `fold_every << min(f, max_backoff_shift)` slices later.
    pub max_backoff_shift: u32,
}

impl LiveConfig {
    pub fn new(ppq: PpqConfig, shards: usize) -> LiveConfig {
        LiveConfig {
            ppq,
            shards,
            page_size: PAGE_SIZE,
            group_commit: 8,
            fold_every: 256,
            compact_max_chain: 6,
            compact_dead_frac: 0.5,
            max_backoff_shift: 6,
        }
    }
}

/// Failures of the live-ingest layer.
#[derive(Debug)]
pub enum LiveError {
    Io(io::Error),
    Wal(WalError),
    Repo(RepoError),
    /// The chain holds no usable pipeline state (none committed, or one
    /// that disagrees with the chain's summaries or the config), or the
    /// WAL and the chain disagree about the timeline.
    Replay(String),
    /// A slice arrived at a timestep the stream does not expect next.
    /// Nothing was logged or ingested; the caller resumes from
    /// [`LiveRepo::next_t`].
    OutOfOrder {
        expected: u32,
        got: u32,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "live-ingest I/O error: {e}"),
            LiveError::Wal(e) => write!(f, "{e}"),
            LiveError::Repo(e) => write!(f, "{e}"),
            LiveError::Replay(what) => write!(f, "recovery replay failed: {what}"),
            LiveError::OutOfOrder { expected, got } => {
                write!(f, "out-of-order slice: expected t={expected}, got t={got}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<io::Error> for LiveError {
    fn from(e: io::Error) -> LiveError {
        LiveError::Io(e)
    }
}
impl From<WalError> for LiveError {
    fn from(e: WalError) -> LiveError {
        LiveError::Wal(e)
    }
}
impl From<RepoError> for LiveError {
    fn from(e: RepoError) -> LiveError {
        LiveError::Repo(e)
    }
}
impl From<DecodeError> for LiveError {
    fn from(e: DecodeError) -> LiveError {
        LiveError::Replay(format!("pipeline state: {e}"))
    }
}

/// Crash-safe live ingest over a [`ppq_repo`] generation chain.
///
/// A live repository has two halves with separate owners. The *ingest
/// half* (WAL, in-memory [`ShardedPpqStream`], unfolded-slice count) is
/// all [`LiveRepo::push_slice`] touches: it logs the slice and feeds the
/// pipeline, nothing more. The *maintenance half* (chain appender,
/// failure backoff, chain stats) drains the WAL into a delta generation
/// that carries the pipeline state, truncates the log, and compacts the
/// chain when it crosses the configured thresholds. A fold
/// touches the ingest half only to freeze and to commit (see
/// [`LiveRepo::fold`]), which is what lets [`crate::LiveService`] write
/// generations and compact without holding its writer lock. A
/// `LiveRepo` owns both halves; nothing folds unless
/// [`LiveRepo::maintain_if_due`] or [`LiveRepo::fold`] is called.
///
/// Maintenance failures never take down ingest: they are recorded
/// ([`LiveRepo::last_maintenance_error`]) and retried with doubling
/// backoff while the WAL keeps absorbing slices.
///
/// [`LiveRepo::recover`] is the only constructor: opening a directory
/// *is* recovery (a clean shutdown is just a crash with an empty WAL
/// tail). It resumes the stream from the committed chain — its summaries
/// and the state its newest generation carries — replays the WAL tail
/// onto it — skipping records the chain already covers, trimming a torn
/// final record — and converges to the same pipeline state, bit for bit,
/// as an uncrashed run that consumed the same acknowledged slices.
pub struct LiveRepo {
    pub(crate) ingest: Ingest,
    pub(crate) maint: Maintainer,
}

/// The ingest half: everything an append touches.
/// [`crate::LiveService`] keeps it behind its writer lock.
pub(crate) struct Ingest {
    wal: Wal,
    stream: ShardedPpqStream,
    /// Slices ingested after the horizon of the last committed fold.
    steps_since_fold: u64,
}

/// The maintenance half, touched only by the one maintainer: the caller
/// of [`LiveRepo`]'s maintenance methods, or a service's
/// [`crate::worker::MaintenanceWorker`].
pub(crate) struct Maintainer {
    dir: PathBuf,
    cfg: LiveConfig,
    appender: Appender,
    /// Consecutive maintenance failures (fold or compaction).
    failures: u32,
    last_error: Option<LiveError>,
    /// Committed generations (cached from the manifest after every fold
    /// or compaction so status queries never touch the disk). 0 until a
    /// base exists: the first fold writes it, later folds append deltas.
    chain_generations: u32,
    /// Wall-clock milliseconds of the last successful fold / compaction
    /// (`None` until one happens in this incarnation).
    last_fold_unix_ms: Option<u64>,
    last_compaction_unix_ms: Option<u64>,
    /// The fields above as status reports read them (see
    /// [`Maintainer::refresh_view`]).
    view: Arc<Mutex<MaintenanceView>>,
}

/// How a fold reaches the ingest half: a [`LiveRepo`] owns it outright,
/// [`crate::LiveService`] takes its writer lock for each call. A fold
/// makes two calls, the freeze and the commit; its write phase runs
/// between them and holds nothing.
pub(crate) trait IngestAccess {
    fn with<R>(&mut self, f: impl FnOnce(&mut Ingest) -> R) -> R;
}

impl IngestAccess for Ingest {
    fn with<R>(&mut self, f: impl FnOnce(&mut Ingest) -> R) -> R {
        f(self)
    }
}

/// A fold between its freeze and its commit.
struct Frozen {
    /// The stream's `next_t` at the freeze: the generation covers every
    /// slice before it, and the commit cuts the log there.
    horizon: u32,
    /// Unfolded slices at the freeze — the ones this fold covers.
    folded: u64,
    /// `ppq_fold_ns`, recorded when the commit drops it.
    _span: ppq_obs::Span,
}

/// The maintenance half's state as a status report shows it, copied out
/// whenever it changes so a reader never waits on a pass in progress.
#[derive(Clone, Debug, Default)]
pub(crate) struct MaintenanceView {
    pub failures: u32,
    pub last_error: Option<String>,
    pub chain_generations: u32,
    pub last_fold_unix_ms: Option<u64>,
    pub last_compaction_unix_ms: Option<u64>,
}

/// What one [`LiveRepo::maintain_if_due`] pass actually did — the
/// background worker folds these into its counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaintenanceOutcome {
    /// The cadence (with backoff) said maintenance was due.
    pub attempted: bool,
    /// A fold with real work (unfolded slices) committed.
    pub folded: bool,
    /// The chain was compacted after the fold.
    pub compacted: bool,
    /// The pass failed (recorded in [`LiveRepo::last_maintenance_error`],
    /// backoff widened); ingest is unaffected.
    pub failed: bool,
}

impl LiveRepo {
    /// Open `dir`, recovering whatever a previous incarnation left:
    /// committed chain + WAL tail → the exact pipeline state at the last
    /// acknowledged slice. A fresh directory recovers to the empty
    /// stream.
    pub fn recover(dir: &Path, cfg: LiveConfig) -> Result<LiveRepo, LiveError> {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.group_commit > 0, "group_commit must be at least 1");
        std::fs::create_dir_all(dir)?;

        let chain = ChainState::read(dir)?;
        let chain_generations = chain
            .as_ref()
            .map_or(0, |c| c.manifest.generations.len() as u32);
        // The first fold appends to the chain just read: hand its
        // summaries over rather than have the appender read and verify
        // them again.
        let appender = match &chain {
            Some(chain) => Appender::from_chain(dir, cfg.page_size, chain),
            None => Appender::with_page_size(dir, cfg.page_size),
        };
        let mut stream = match chain {
            Some(chain) => {
                if chain.summaries.len() != cfg.shards {
                    return Err(LiveError::Replay(format!(
                        "chain has {} shards, config asks for {}",
                        chain.summaries.len(),
                        cfg.shards
                    )));
                }
                let state = chain.state.ok_or_else(|| {
                    LiveError::Replay(
                        "the chain's newest generation carries no pipeline state".into(),
                    )
                })?;
                state::sharded_from_bytes(&state, chain.summaries)?
            }
            None => ShardedPpqStream::new(cfg.ppq.clone(), cfg.shards),
        };

        let (wal, records) = Wal::open_replay(&dir.join(WAL_NAME), cfg.group_commit)?;
        let mut replayed = 0u64;
        for rec in &records {
            match stream.next_t() {
                // Already covered by the chain (the crash hit the fold
                // between the generation commit and the truncation).
                Some(next) if rec.t < next => continue,
                Some(next) if rec.t > next => {
                    return Err(LiveError::Replay(format!(
                        "WAL gap: stream expects t={next}, log resumes at t={}",
                        rec.t
                    )))
                }
                _ => {}
            }
            stream.push_slice(rec.t, &rec.points);
            replayed += 1;
        }

        let maint = Maintainer {
            dir: dir.to_path_buf(),
            appender,
            cfg,
            failures: 0,
            last_error: None,
            chain_generations,
            last_fold_unix_ms: None,
            last_compaction_unix_ms: None,
            view: Arc::default(),
        };
        maint.refresh_view();
        Ok(LiveRepo {
            ingest: Ingest {
                wal,
                stream,
                steps_since_fold: replayed,
            },
            maint,
        })
    }

    /// Ingest one time slice: WAL first (group-committed), then the
    /// in-memory pipeline. Returns only after the slice is logged. Never
    /// folds — see [`LiveRepo::maintain_if_due`].
    pub fn push_slice(&mut self, t: u32, points: &[(TrajId, Point)]) -> Result<(), LiveError> {
        self.ingest.push_slice(t, points)
    }

    /// Force the WAL to stable storage (the group-commit flush).
    pub fn sync(&mut self) -> Result<(), LiveError> {
        self.ingest.sync()
    }

    /// Drain the WAL into the repository in three phases:
    ///
    /// 1. **freeze** (touches the ingest half): fsync the log, copy the
    ///    stream, note its horizon `H = next_t`;
    /// 2. **write** (does not): commit the copy's snapshot and its
    ///    pipeline state as one generation (base on first fold, delta
    ///    after) — one manifest rename;
    /// 3. **commit** (touches the ingest half): truncate the log before
    ///    `H`, keeping any slice appended since the freeze.
    ///
    /// Ordering is the crash contract: each step only widens what
    /// recovery can see, and the log is only cut once the chain durably
    /// covers it. This is the one fold implementation;
    /// [`LiveRepo::maintain_if_due`] and the service's worker run it too.
    pub fn fold(&mut self) -> Result<(), LiveError> {
        self.maint.fold(&mut self.ingest, 0, || {}).map(drop)
    }

    /// Collapse the committed chain to a single base generation if it
    /// crosses either compaction threshold. Called automatically after
    /// each successful fold of [`LiveRepo::maintain_if_due`].
    pub fn maybe_compact(&mut self) -> Result<bool, LiveError> {
        self.maint.compact_if_due(false)
    }

    /// Run fold + auto-compaction if the cadence (with failure backoff)
    /// says it is due. This is the single maintenance entry point, shared
    /// with the background [`crate::worker::MaintenanceWorker`]'s tick.
    /// Failures are absorbed into the backoff state, never propagated —
    /// the WAL keeps covering everything the chain is missing.
    pub fn maintain_if_due(&mut self) -> MaintenanceOutcome {
        self.maint.maintain_if_due(&mut self.ingest)
    }

    /// The timestep the stream expects next (`None` before any slice).
    #[inline]
    pub fn next_t(&self) -> Option<u32> {
        self.ingest.next_t()
    }

    /// The live in-memory pipeline (for snapshots and online queries).
    #[inline]
    pub fn stream(&self) -> &ShardedPpqStream {
        &self.ingest.stream
    }

    /// Summary of everything ingested so far (including slices not yet
    /// folded to disk).
    pub fn snapshot(&self) -> ShardedSummary {
        self.ingest.snapshot()
    }

    /// The last maintenance (fold/compaction) failure since the last
    /// success, if any. Ingest keeps running through these; the WAL
    /// holds everything the chain is missing.
    #[inline]
    pub fn last_maintenance_error(&self) -> Option<&LiveError> {
        self.maint.last_error.as_ref()
    }

    /// Consecutive failed maintenance attempts (drives the backoff).
    #[inline]
    pub fn maintenance_failures(&self) -> u32 {
        self.maint.failures
    }

    /// WAL records appended but not yet fsynced.
    #[inline]
    pub fn wal_pending(&self) -> usize {
        self.ingest.wal_pending()
    }

    /// Committed-structure bytes of the WAL (its append position) — the
    /// durable backlog the next fold will drain.
    #[inline]
    pub fn wal_pending_bytes(&self) -> u64 {
        self.ingest.wal_pending_bytes()
    }

    /// Committed generations in the chain (0 before the first fold).
    /// Cached from the manifest; status queries never touch the disk.
    #[inline]
    pub fn chain_generations(&self) -> u32 {
        self.maint.chain_generations
    }

    /// Wall-clock ms of the last successful fold in this incarnation.
    #[inline]
    pub fn last_fold_unix_ms(&self) -> Option<u64> {
        self.maint.last_fold_unix_ms
    }

    /// Wall-clock ms of the last compaction in this incarnation.
    #[inline]
    pub fn last_compaction_unix_ms(&self) -> Option<u64> {
        self.maint.last_compaction_unix_ms
    }
}

impl Ingest {
    pub(crate) fn push_slice(
        &mut self,
        t: u32,
        points: &[(TrajId, Point)],
    ) -> Result<(), LiveError> {
        if let Some(expected) = self.stream.next_t() {
            if t != expected {
                return Err(LiveError::OutOfOrder { expected, got: t });
            }
        }
        self.wal.append(t, points)?;
        self.stream.push_slice(t, points);
        self.steps_since_fold += 1;
        Ok(())
    }

    pub(crate) fn sync(&mut self) -> Result<(), LiveError> {
        self.wal.sync()?;
        Ok(())
    }

    pub(crate) fn next_t(&self) -> Option<u32> {
        self.stream.next_t()
    }

    pub(crate) fn snapshot(&self) -> ShardedSummary {
        self.stream.snapshot()
    }

    pub(crate) fn wal_pending(&self) -> usize {
        self.wal.pending()
    }

    pub(crate) fn wal_pending_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Phase 3 of a fold: the chain now covers every slice before the
    /// horizon, so the log drops them. Records appended since the
    /// freeze have `t ≥ horizon` and survive the rewrite.
    fn commit(&mut self, frozen: Frozen) -> Result<u64, LiveError> {
        self.wal.truncate_before(frozen.horizon)?;
        self.steps_since_fold -= frozen.folded;
        Ok(frozen.folded)
    }
}

impl Maintainer {
    /// [`LiveRepo::maintain_if_due`] over either owner of the ingest
    /// half.
    pub(crate) fn maintain_if_due(&mut self, ingest: &mut impl IngestAccess) -> MaintenanceOutcome {
        if self.cfg.fold_every == 0 {
            return MaintenanceOutcome::default();
        }
        let shift = self.failures.min(self.cfg.max_backoff_shift).min(63);
        let due = self.cfg.fold_every.saturating_mul(1u64 << shift);
        // `due` ≥ 1, so a due fold always has work: `None` = not due.
        let result = match self.fold(ingest, due, || {}) {
            Ok(None) => return MaintenanceOutcome::default(),
            Ok(Some(folded)) => self
                .compact_if_due(false)
                .map(|compacted| (folded, compacted)),
            Err(e) => Err(e),
        };
        self.settle(result)
    }

    /// [`LiveRepo::fold`]: freeze → write → `before_commit` → commit, if
    /// at least `min_steps` slices are unfolded. Returns the slices
    /// folded, or `None` when there was nothing to fold.
    pub(crate) fn fold(
        &mut self,
        ingest: &mut impl IngestAccess,
        min_steps: u64,
        before_commit: impl FnOnce(),
    ) -> Result<Option<u64>, LiveError> {
        let Some((frozen, stream)) = ingest.with(|i| self.freeze(i, min_steps))? else {
            return Ok(None);
        };
        self.write(stream)?;
        before_commit();
        let folded = ingest.with(|i| i.commit(frozen))?;
        self.last_fold_unix_ms = Some(ppq_obs::unix_ms());
        self.refresh_view();
        Ok(Some(folded))
    }

    /// Phase 1 of a fold: fsync the log and copy the stream at its
    /// horizon — the one part of the write that still happens under the
    /// writer lock. The copy shares the stream's outputs (coefficient
    /// rows, trajectory records, index slices and sealed periods); what
    /// it still copies is the per-trajectory histories and raw windows,
    /// the partitioner and the index's open period.
    fn freeze(
        &self,
        ingest: &mut Ingest,
        min_steps: u64,
    ) -> Result<Option<(Frozen, ShardedPpqStream)>, LiveError> {
        let folded = ingest.steps_since_fold;
        let Some(horizon) = ingest.stream.next_t() else {
            return Ok(None); // nothing ingested yet
        };
        if folded < min_steps || (self.chain_generations > 0 && folded == 0) {
            return Ok(None); // not due, or nothing new since the last fold
        }
        let span = ppq_obs::Span::with("fold", &live_metrics().fold_ns);
        ingest.wal.sync()?;
        let frozen = Frozen {
            horizon,
            folded,
            _span: span,
        };
        Ok(Some((frozen, ingest.stream.clone())))
    }

    /// Phase 2 of a fold, touching nothing ingest uses: the frozen
    /// stream's summary and pipeline state become one generation.
    fn write(&mut self, stream: ShardedPpqStream) -> Result<(), LiveError> {
        // Encoded before `finish` consumes the copy.
        let state_bytes = state::sharded_to_bytes(&stream);
        let snapshot = stream.finish();
        let rewrite = || {
            RepoWriter::with_page_size(&self.dir, self.cfg.page_size)
                .write_sharded_with_state(&snapshot, &state_bytes)
        };
        let manifest = if self.chain_generations > 0 {
            match self
                .appender
                .append_sharded_with_state(&snapshot, &state_bytes)
            {
                Ok(manifest) => manifest,
                // A chain this process did not grow (e.g. an operator
                // compacted to a different shape) can make the delta path
                // unusable; a full rewrite restores the invariant.
                Err(RepoError::NotAnExtension(_)) => rewrite()?,
                Err(e) => return Err(e.into()),
            }
        } else {
            rewrite()?
        };
        self.chain_generations = manifest.generations.len() as u32;
        self.refresh_view();
        Ok(())
    }

    /// Compact if the policy asks ([`LiveRepo::maybe_compact`]) — or,
    /// with `whole`, whenever the chain holds more than one generation
    /// and auto-compaction is on at all. Reads and rewrites only the
    /// committed chain, which nothing but this maintainer writes — so it
    /// needs no part of the ingest half.
    fn compact_if_due(&mut self, whole: bool) -> Result<bool, LiveError> {
        if self.chain_generations == 0 {
            return Ok(false);
        }
        let bytes = std::fs::read(self.dir.join(ppq_repo::layout::MANIFEST_NAME))?;
        let manifest = Manifest::from_bytes(&bytes)?;
        let (cfg, len) = (&self.cfg, manifest.generations.len());
        let chain_long = cfg.compact_max_chain > 0 && len >= cfg.compact_max_chain;
        let too_dead = dead_fraction(&manifest) >= cfg.compact_dead_frac;
        let auto = cfg.compact_max_chain > 0 || cfg.compact_dead_frac <= 1.0;
        let tidy = whole && auto && len > 1;
        if !(chain_long || too_dead || tidy) {
            return Ok(false);
        }
        let _sp = ppq_obs::Span::with("compact", &live_metrics().compact_ns);
        Repo::open(&self.dir, COMPACT_POOL_PAGES)?.compact(None)?;
        self.chain_generations = 1;
        self.last_compaction_unix_ms = Some(ppq_obs::unix_ms());
        self.refresh_view();
        Ok(true)
    }

    /// Graceful-shutdown drain: a fold, whatever the cadence says, then
    /// — when auto-compaction is on — a compaction of any chain longer
    /// than one generation, then a sweep of the chain the last commit
    /// superseded (no reader outlives a shutdown to need it). So the store
    /// a shutdown leaves is one generation over every acknowledged slice,
    /// whichever folds and compactions the worker ran before it; the
    /// policy alone would keep a long last delta on its base or not
    /// depending on where the worker's last compaction fell. A failed
    /// fold is the caller's error (acknowledged slices are still only in
    /// the WAL); a failure after it is recorded like a tick's — the drain
    /// itself lost nothing.
    pub(crate) fn drain(&mut self, ingest: &mut impl IngestAccess) -> Result<(), LiveError> {
        let folded = self.fold(ingest, 0, || {})?.unwrap_or(0);
        let tidied = self.compact_if_due(true).and_then(|compacted| {
            RepoWriter::with_page_size(&self.dir, self.cfg.page_size).sweep_superseded()?;
            Ok((folded, compacted))
        });
        self.settle(tidied);
        Ok(())
    }

    /// The view status reports read, kept current by this half.
    pub(crate) fn view(&self) -> Arc<Mutex<MaintenanceView>> {
        Arc::clone(&self.view)
    }

    /// Copy the status fields out, and set the chain gauge with them, so
    /// a status report and a metrics scrape agree. Called wherever those
    /// fields change: at the generation commit, the log truncation, the
    /// compaction and the end of a pass.
    fn refresh_view(&self) {
        live_metrics()
            .chain_generations
            .set(self.chain_generations as u64);
        *self.view.lock().expect("maintenance view lock poisoned") = MaintenanceView {
            failures: self.failures,
            last_error: self.last_error.as_ref().map(|e| e.to_string()),
            chain_generations: self.chain_generations,
            last_fold_unix_ms: self.last_fold_unix_ms,
            last_compaction_unix_ms: self.last_compaction_unix_ms,
        };
    }

    /// Book one attempted fold → compaction pass (`(slices folded,
    /// compacted)`) into the counters and the backoff state, and report
    /// it.
    fn settle(&mut self, result: Result<(u64, bool), LiveError>) -> MaintenanceOutcome {
        let mut out = MaintenanceOutcome {
            attempted: true,
            ..MaintenanceOutcome::default()
        };
        let m = live_metrics();
        match result {
            Ok((folded, compacted)) => {
                out.folded = folded > 0;
                out.compacted = compacted;
                self.failures = 0;
                self.last_error = None;
                if out.folded {
                    m.folds.inc();
                }
                if out.compacted {
                    m.compactions.inc();
                }
            }
            Err(e) => {
                // Degrade gracefully: remember, back off, keep ingesting.
                // The appender cache may reference a half-written chain;
                // rebuild it from the committed manifest next time.
                out.failed = true;
                self.failures = self.failures.saturating_add(1);
                self.last_error = Some(e);
                self.appender = Appender::with_page_size(&self.dir, self.cfg.page_size);
                m.failures.inc();
            }
        }
        m.backoff_shift
            .set(self.failures.min(self.cfg.max_backoff_shift) as u64);
        self.refresh_view();
        out
    }
}

/// Superseded fraction of the committed store's bytes: every generation
/// may carry the whole pipeline state, and recovery takes it only from
/// the newest one — older states are pure overhead the next compaction
/// reclaims. Summary deltas stack, and page segments and directory keys
/// cover only their own generation's timesteps. Not counted: a delta's
/// directory re-records the region table of the period it extends
/// (64 B a region), which makes the earlier copy dead too, but the
/// manifest does not record region counts; those bytes are left to the
/// chain-length cap (`compact_max_chain`).
fn dead_fraction(manifest: &Manifest) -> f64 {
    let mut total = 0u64;
    let mut dead = 0u64;
    let n = manifest.generations.len();
    for (gi, g) in manifest.generations.iter().enumerate() {
        total += g.state_len;
        if gi + 1 < n {
            dead += g.state_len;
        }
        for s in &g.shards {
            total += s.summary_len + s.dir_len + s.tpi_pages * manifest.page_size as u64;
        }
    }
    dead as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppq_repo::{GenKind, GenManifest, ShardManifest};

    /// Three generations of two shards on 100-byte pages: 1,000 summary,
    /// 100 directory and 500 page bytes per shard and generation.
    fn manifest(state_len: u64) -> Manifest {
        let shard = ShardManifest {
            summary_len: 1_000,
            summary_crc: 1,
            dir_len: 100,
            dir_crc: 2,
            tpi_pages: 5,
        };
        let generations = (1..=3)
            .map(|g| GenManifest {
                generation: g,
                kind: if g == 1 {
                    GenKind::Base
                } else {
                    GenKind::Delta
                },
                state_len,
                state_crc: u32::from(state_len > 0),
                shards: vec![shard.clone(), shard.clone()],
            })
            .collect();
        Manifest {
            page_size: 100,
            generations,
        }
    }

    /// Only the states of the two older generations are dead: no
    /// directory byte is superseded, so a chain without state has none.
    #[test]
    fn dead_fraction_counts_superseded_states_only() {
        assert_eq!(dead_fraction(&manifest(0)), 0.0);
        let live = 3 * 2 * 1_600;
        assert_eq!(
            dead_fraction(&manifest(400)),
            800.0 / (live + 3 * 400) as f64
        );
    }
}
