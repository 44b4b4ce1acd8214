//! The background maintenance worker: folds/compactions really move off
//! the ingest path onto the worker thread, no-op publishes don't churn
//! snapshot `Arc`s, and worker shutdown drains every acknowledged slice
//! into the recoverable chain.

use ppq_core::{PpqConfig, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveRepo, LiveService, MaintenanceConfig};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::TrajId;
use std::sync::Arc;
use std::time::Duration;

type Slices = Vec<(u32, Vec<(TrajId, Point)>)>;

fn fixture(seed: u64) -> (Arc<ppq_traj::Dataset>, Slices) {
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 30,
        mean_len: 25,
        min_len: 15,
        start_spread: 6,
        seed,
    }));
    let slices = data
        .time_slices()
        .map(|s| (s.t, s.points.to_vec()))
        .collect();
    (data, slices)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ppq-worker-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn publish_without_new_slices_keeps_the_same_snapshot_arc() {
    let (data, slices) = fixture(0xFEE1);
    let cfg = LiveConfig::new(PpqConfig::variant(Variant::PpqS, 0.1), 2);
    let dir = scratch("noop-publish");
    // publish_every = 0: only explicit publishes.
    let service = LiveService::open(&dir, cfg, data, 0).expect("open");
    for (t, points) in &slices[..4] {
        service.push_slice(*t, points).expect("ingest");
    }

    let v1 = service.publish();
    let snap1 = service.published();
    assert_eq!(snap1.version, v1);

    // Nothing ingested since: same version, same Arc — not a rebuilt
    // identical snapshot, the *same allocation*.
    let v2 = service.publish();
    assert_eq!(v2, v1);
    assert!(
        Arc::ptr_eq(&snap1, &service.published()),
        "no-op publish must not swap the snapshot Arc"
    );

    // One more slice makes the next publish real again.
    let (t, points) = &slices[4];
    service.push_slice(*t, points).expect("ingest");
    let v3 = service.publish();
    assert_eq!(v3, t + 1);
    assert!(!Arc::ptr_eq(&snap1, &service.published()));

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_owns_maintenance_and_drains_on_shutdown() {
    let (data, slices) = fixture(0xFEE2);
    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let mut cfg = LiveConfig::new(ppq, 2);
    cfg.fold_every = 4;
    cfg.compact_max_chain = 3;
    cfg.group_commit = 8;
    let dir = scratch("worker");
    let service = Arc::new(LiveService::open(&dir, cfg.clone(), data, 4).expect("open"));

    // Before attach: no worker, so two folds' worth of slices fold
    // nothing. The last fold's worth is held back for after the detach.
    let fold_every = cfg.fold_every as usize;
    assert!(slices.len() > 4 * fold_every, "fixture too short");
    let (before, rest) = slices.split_at(2 * fold_every);
    let (during, after) = rest.split_at(rest.len() - fold_every);
    for (t, points) in before {
        service.push_slice(*t, points).expect("ingest");
    }
    let status = service.status();
    assert!(!status.worker_attached);
    assert_eq!(status.chain_generations, 0, "folded without a worker");
    assert!(
        status.last_fold_unix_ms.is_none(),
        "folded without a worker"
    );

    let worker = service
        .start_maintenance(MaintenanceConfig {
            tick: Duration::from_millis(1),
            sync_wal: true,
        })
        .expect("first worker attaches");
    // Only one worker may own maintenance.
    assert!(
        service
            .start_maintenance(MaintenanceConfig::default())
            .is_none(),
        "second worker must be refused"
    );
    let status = service.status();
    assert!(status.worker_attached);

    let last_t = {
        let mut last = 0;
        for (t, points) in during {
            service.push_slice(*t, points).expect("ingest");
            last = *t;
            // Give the 1 ms worker tick room to land folds mid-stream.
            if t % 8 == 0 {
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        last
    };

    // Wait (bounded) until the worker has folded at least once.
    let mut folds = 0;
    for _ in 0..200 {
        folds = worker.stats().folds;
        if folds > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(folds > 0, "background worker never folded");
    let wstats = worker.stats();
    assert_eq!(wstats.maintenance_failures, 0);
    assert_eq!(wstats.sync_failures, 0);
    assert!(wstats.ticks > 0);
    // The periodic publish tick kept the snapshot fresh without being
    // driven by the ingest cadence alone.
    assert!(wstats.publishes > 0);

    // Shutdown = drain: stop the thread, fold everything, detach.
    worker.shutdown().expect("drain");
    let drained = service.status();
    assert!(!drained.worker_attached);
    assert_eq!(drained.wal_pending, 0, "drain left pending WAL records");

    // Detached: a fold's worth more slices is logged, never folded.
    for (t, points) in after {
        service.push_slice(*t, points).expect("ingest");
    }
    let last_t = after.last().map_or(last_t, |s| s.0);
    let status = service.status();
    assert_eq!(
        (status.chain_generations, status.last_fold_unix_ms),
        (drained.chain_generations, drained.last_fold_unix_ms),
        "folded without a worker"
    );

    // Recovery sees every acknowledged slice.
    drop(Arc::try_unwrap(service).ok().expect("sole owner"));
    let recovered = LiveRepo::recover(&dir, cfg).expect("recover");
    assert_eq!(recovered.next_t(), Some(last_t + 1));
    let _ = std::fs::remove_dir_all(&dir);
}
