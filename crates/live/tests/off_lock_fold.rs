//! A fold holds the writer lock only to freeze and to commit. Between
//! the two — the write phase, where the generation and its pipeline
//! state are written — appends, publishes and status reads go straight
//! through, and the slices acknowledged then survive both a crash before
//! the commit and the commit's log truncation.
//!
//! `LiveService::fold_with` (a `test-internals` hook) runs a closure at
//! the end of the write phase, with the maintainer holding its half and
//! the writer lock free.

use ppq_core::summary_io;
use ppq_core::{PpqConfig, ShardedPpqStream, ShardedSummary, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveRepo, LiveService, Wal, WAL_NAME};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::{Dataset, TrajId};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

type Slices = Vec<(u32, Vec<(TrajId, Point)>)>;

/// How long an operation may take before it counts as blocked.
const BLOCKED: Duration = Duration::from_secs(10);

fn fixture() -> (Arc<Dataset>, Slices) {
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 24,
        mean_len: 30,
        min_len: 20,
        start_spread: 8,
        seed: 0x0FF1,
    }));
    let slices = data
        .time_slices()
        .map(|s| (s.t, s.points.to_vec()))
        .collect();
    (data, slices)
}

/// No automatic folds, every ack fsynced: each fold is the test's, and
/// every acknowledged slice is durable when its push returns.
fn config() -> LiveConfig {
    let mut cfg = LiveConfig::new(PpqConfig::variant(Variant::PpqS, 0.1), 2);
    cfg.page_size = 4096;
    cfg.group_commit = 1;
    cfg.fold_every = 0;
    cfg
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppq-off-lock-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A crash image: every file of the (flat) live directory, as it is now.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        assert!(entry.file_type().unwrap().is_file(), "live dir is flat");
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn summary_bytes(s: &ShardedSummary) -> Vec<Vec<u8>> {
    s.shards().iter().map(summary_io::to_bytes).collect()
}

fn wal_ts(dir: &Path) -> Vec<u32> {
    let (_, records) = Wal::open_replay(&dir.join(WAL_NAME), 1).unwrap();
    records.iter().map(|r| r.t).collect()
}

#[test]
fn appends_publishes_and_status_do_not_wait_on_a_write_phase() {
    let (data, slices) = fixture();
    let dir = scratch("no-wait");
    let service = Arc::new(LiveService::open(&dir, config(), data, 0).unwrap());
    let half = slices.len() / 2;
    for (t, points) in &slices[..half] {
        service.push_slice(*t, points).unwrap();
    }

    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let folder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service.fold_with(move || {
                entered_tx.send(()).unwrap();
                // Stay in the write phase until released (or the test
                // gives up and drops the sender).
                let _ = release_rx.recv_timeout(Duration::from_secs(60));
            })
        })
    };
    entered_rx
        .recv_timeout(BLOCKED)
        .expect("the fold never reached its write phase");

    let (done_tx, done_rx) = mpsc::channel();
    let (t, points) = slices[half].clone();
    let ops = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service.push_slice(t, &points).unwrap();
            done_tx.send(("push_slice", t + 1)).unwrap();
            done_tx.send(("publish", service.publish())).unwrap();
            let next_t = service.status().next_t.unwrap();
            done_tx.send(("status", next_t)).unwrap();
        })
    };
    for op in ["push_slice", "publish", "status"] {
        let (got, next_t) = done_rx
            .recv_timeout(BLOCKED)
            .unwrap_or_else(|_| panic!("{op} waited on the fold's write phase"));
        assert_eq!((got, next_t), (op, t + 1));
    }

    release_tx.send(()).unwrap();
    ops.join().unwrap();
    folder.join().unwrap().expect("the fold commits");
    // The slice acked mid-fold is past the fold's horizon: still logged.
    assert_eq!(wal_ts(&dir), vec![t]);
    let status = service.status();
    assert_eq!(status.chain_generations, 1);
    assert!(status.last_fold_unix_ms.is_some());
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slices_acked_during_a_write_phase_survive_crash_and_commit() {
    let (data, slices) = fixture();
    let cfg = config();
    let dir = scratch("acked");
    let (image_a, image_b) = (scratch("acked-a"), scratch("acked-b"));
    let service = LiveService::open(&dir, cfg.clone(), data, 0).unwrap();
    let first = slices.len() / 2;
    let k = 5;
    for (t, points) in &slices[..first] {
        service.push_slice(*t, points).unwrap();
    }
    let min_t = slices[0].0;
    let horizon = slices[first].0;

    // Freeze at H, ack k more slices, write; image A; commit; image B.
    service
        .fold_with(|| {
            for (t, points) in &slices[first..first + k] {
                service.push_slice(*t, points).unwrap();
            }
            copy_dir(&dir, &image_a);
        })
        .unwrap();
    copy_dir(&dir, &image_b);
    drop(service);

    let mut replay = ShardedPpqStream::new(cfg.ppq.clone(), cfg.shards);
    for (t, points) in &slices[..first + k] {
        replay.push_slice(*t, points);
    }
    let want = summary_bytes(&replay.snapshot());

    // Before the commit the log still holds the folded records too;
    // after it, exactly the records with t ≥ H.
    let all: Vec<u32> = (min_t..horizon + k as u32).collect();
    assert_eq!(wal_ts(&image_a), all);
    assert_eq!(wal_ts(&image_b), all[(horizon - min_t) as usize..]);

    for (name, image) in [("A", &image_a), ("B", &image_b)] {
        let recovered = LiveRepo::recover(image, cfg.clone()).unwrap();
        assert_eq!(
            recovered.next_t(),
            Some(horizon + k as u32),
            "image {name}: recovery lost slices acked during the write phase"
        );
        assert_eq!(
            summary_bytes(&recovered.snapshot()),
            want,
            "image {name}: recovered summary diverges from the replay"
        );
    }
    for d in [&dir, &image_a, &image_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}
