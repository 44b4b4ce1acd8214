//! Background maintenance: fold, compaction, WAL sync, and snapshot
//! publication on a dedicated thread, off the ingest path.
//!
//! A [`crate::LiveService`] never maintains itself: without a worker,
//! nothing folds. [`MaintenanceWorker`], attached via
//! [`crate::LiveService::start_maintenance`], is the **sole agent**
//! driving fold, compaction, WAL group-commit flushes, and the periodic
//! publish tick; ingest only appends (WAL + in-memory pipeline).
//!
//! ## State machine
//!
//! ```text
//!            start_maintenance()
//!   Detached ───────────────────▶ Running ──── tick ────┐
//!      ▲                            │  ▲                │
//!      │                            │  └── sleep(tick) ◀┘
//!      │        shutdown() / drop   ▼
//!      └──────────────────────── Draining
//!               (stop → join → final fold → detach)
//! ```
//!
//! ## One tick
//!
//! ```text
//!  writer lock:   [due? freeze]                          [commit] [sync]
//!                  WAL fsync,                             WAL truncate
//!                  stream copy, H                         before H
//!  maintainer:    ├─────────── write ──────────────────┤          ├ compact ┤
//!                  snapshot + state → one generation
//!  appends:       ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶ ──▶
//! ```
//!
//! [`crate::LiveRepo::maintain_if_due`]'s fold (with the repo's
//! exponential backoff after failures — a failing disk does not get
//! hammered every tick) takes the writer lock only to freeze and to
//! commit; the generation (with the pipeline state) and any compaction are written
//! while appends, publishes and status reads go on. Slices acknowledged
//! during the write have `t ≥ H`, so the commit's truncation keeps them.
//! Then a WAL `sync` if records are pending, then — outside the lock — a
//! publish that is a no-op unless a slice arrived since the last one.
//!
//! Shutdown is a drain, not an abort: the in-flight tick finishes, then
//! a final fold pushes every acknowledged slice into the generation
//! chain, state included, so `LiveRepo::recover` restarts from exactly the
//! acknowledged state. Dropping the worker without calling
//! [`MaintenanceWorker::shutdown`] performs the same drain best-effort
//! (errors are recorded in the service status instead of returned).

use crate::service::LiveService;
use crate::LiveError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cadence knobs for a [`MaintenanceWorker`].
#[derive(Clone, Debug)]
pub struct MaintenanceConfig {
    /// Sleep between ticks. Maintenance due-ness is still governed by
    /// the repo's `fold_every` counter and failure backoff; the tick
    /// only bounds how stale a due fold can get.
    pub tick: Duration,
    /// Flush pending WAL group-commit records every tick, so the
    /// durability window is bounded by `tick` even under `group_commit`
    /// batching.
    pub sync_wal: bool,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            tick: Duration::from_millis(20),
            sync_wal: true,
        }
    }
}

/// Monotonic counters describing what the worker has done so far.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Ticks executed (including no-op ones).
    pub ticks: u64,
    /// Folds that actually moved slices into the generation chain.
    pub folds: u64,
    /// Compactions that rewrote the generation chain.
    pub compactions: u64,
    /// Failed maintenance attempts (also visible via service status).
    pub maintenance_failures: u64,
    /// WAL fsyncs issued for pending group-commit records.
    pub wal_syncs: u64,
    /// WAL syncs that failed.
    pub sync_failures: u64,
    /// Publish ticks, each a no-op unless a slice arrived since the
    /// last publish.
    pub publishes: u64,
    /// The most recent WAL-sync failure, rendered. Unlike maintenance
    /// errors (kept by the repo and shown in the service status), sync
    /// errors happen on the worker thread only — without this they
    /// would vanish into a bare counter.
    pub last_sync_error: Option<String>,
}

#[derive(Default)]
struct Counters {
    ticks: AtomicU64,
    folds: AtomicU64,
    compactions: AtomicU64,
    maintenance_failures: AtomicU64,
    wal_syncs: AtomicU64,
    sync_failures: AtomicU64,
    publishes: AtomicU64,
    last_sync_error: Mutex<Option<String>>,
}

struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
    counters: Counters,
}

/// Handle to the background maintenance thread. Obtain via
/// [`crate::LiveService::start_maintenance`]; at most one can be
/// attached to a service at a time.
pub struct MaintenanceWorker {
    service: Arc<LiveService>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl LiveService {
    /// Attach a background [`MaintenanceWorker`]: starts the thread
    /// that drives fold/compaction/WAL-sync/publish at `cfg.tick`
    /// cadence.
    ///
    /// Returns `None` if a worker is already attached.
    pub fn start_maintenance(
        self: &Arc<Self>,
        cfg: MaintenanceConfig,
    ) -> Option<MaintenanceWorker> {
        if !self.attach_worker() {
            return None;
        }
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            counters: Counters::default(),
        });
        let service = Arc::clone(self);
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("ppq-maintenance".into())
            .spawn(move || run(service, thread_shared, cfg))
            .expect("spawn maintenance worker");
        Some(MaintenanceWorker {
            service: Arc::clone(self),
            shared,
            handle: Some(handle),
        })
    }
}

fn run(service: Arc<LiveService>, shared: Arc<Shared>, cfg: MaintenanceConfig) {
    loop {
        {
            let stop = shared.stop.lock().expect("worker stop lock poisoned");
            if *stop {
                return;
            }
            let (stop, _) = shared
                .wake
                .wait_timeout(stop, cfg.tick)
                .expect("worker stop lock poisoned");
            if *stop {
                return;
            }
        }
        let out = service.worker_tick(cfg.sync_wal);
        let c = &shared.counters;
        c.ticks.fetch_add(1, Ordering::Relaxed);
        if out.maintenance.folded {
            c.folds.fetch_add(1, Ordering::Relaxed);
        }
        if out.maintenance.compacted {
            c.compactions.fetch_add(1, Ordering::Relaxed);
        }
        if out.maintenance.failed {
            c.maintenance_failures.fetch_add(1, Ordering::Relaxed);
        }
        if out.synced {
            c.wal_syncs.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(e) = &out.sync_error {
            c.sync_failures.fetch_add(1, Ordering::Relaxed);
            *c.last_sync_error.lock().expect("sync error lock poisoned") = Some(e.to_string());
        }
        c.publishes.fetch_add(1, Ordering::Relaxed);
    }
}

impl MaintenanceWorker {
    /// Counters so far (cheap, lock-free).
    pub fn stats(&self) -> WorkerStats {
        let c = &self.shared.counters;
        WorkerStats {
            ticks: c.ticks.load(Ordering::Relaxed),
            folds: c.folds.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            maintenance_failures: c.maintenance_failures.load(Ordering::Relaxed),
            wal_syncs: c.wal_syncs.load(Ordering::Relaxed),
            sync_failures: c.sync_failures.load(Ordering::Relaxed),
            publishes: c.publishes.load(Ordering::Relaxed),
            last_sync_error: c
                .last_sync_error
                .lock()
                .expect("sync error lock poisoned")
                .clone(),
        }
    }

    /// Graceful drain: stop the tick loop, join the thread, fold every
    /// outstanding slice into the generation chain, and
    /// detach from the service. After `Ok(())`,
    /// `LiveRepo::recover` on the directory restores exactly the
    /// acknowledged state.
    pub fn shutdown(mut self) -> Result<(), LiveError> {
        match self.stop_and_join() {
            // The drain already ran (or there was never a live thread);
            // Drop sees `handle == None` and does nothing more.
            true => {
                let drained = self.service.final_drain();
                self.service.detach_worker();
                drained
            }
            false => Ok(()),
        }
    }

    /// Stops and joins the tick thread. Returns whether this call owned
    /// a live thread (i.e. drain/detach still need to happen).
    fn stop_and_join(&mut self) -> bool {
        *self.shared.stop.lock().expect("worker stop lock poisoned") = true;
        self.shared.wake.notify_all();
        match self.handle.take() {
            Some(handle) => {
                let _ = handle.join();
                true
            }
            None => false,
        }
    }
}

impl Drop for MaintenanceWorker {
    /// Best-effort drain: same as [`MaintenanceWorker::shutdown`] but a
    /// drain failure is only observable through
    /// [`crate::LiveService::status`].
    fn drop(&mut self) {
        if self.stop_and_join() {
            let _ = self.service.final_drain();
            self.service.detach_worker();
        }
    }
}
