//! Live-ingest lifecycle: recover-fresh → ingest → fold → reopen →
//! resume → auto-compact, with the recovered pipeline held bit-identical
//! to an uninterrupted stream and the folded chain serving queries
//! through the disk engine. Crash coverage at every injected I/O
//! operation lives in `crash_anywhere.rs`.

use ppq_core::query::ShardedQueryEngine;
use ppq_core::summary_io;
use ppq_core::{PpqConfig, ShardedPpqStream, Variant};
use ppq_geo::Point;
use ppq_live::{
    LiveConfig, LiveError, LiveRepo, LiveService, MaintenanceConfig, Wal, CKPT_NAME, WAL_NAME,
};
use ppq_repo::{DiskQueryEngine, Repo};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::Dataset;
use std::path::PathBuf;

const PAGE: usize = 4096;

fn dataset() -> Dataset {
    porto_like(&PortoConfig {
        trajectories: 24,
        mean_len: 30,
        min_len: 20,
        start_spread: 8,
        seed: 4242,
    })
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppq-live-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn live_config(fold_every: u64) -> LiveConfig {
    let mut cfg = LiveConfig::new(PpqConfig::variant(Variant::PpqS, 0.1), 2);
    cfg.page_size = PAGE;
    cfg.group_commit = 3;
    cfg.fold_every = fold_every;
    cfg
}

fn assert_snapshots_bit_identical(live: &LiveRepo, control: &ShardedPpqStream) {
    let a = live.snapshot();
    let b = control.snapshot();
    assert_eq!(a.shards().len(), b.shards().len());
    for (i, (sa, sb)) in a.shards().iter().zip(b.shards()).enumerate() {
        assert_eq!(
            summary_io::to_bytes(sa),
            summary_io::to_bytes(sb),
            "shard {i} summary bytes diverge from the uninterrupted stream"
        );
    }
}

#[test]
fn reopen_resumes_bit_identically_across_folds() {
    let data = dataset();
    let cfg = live_config(5);
    let gc = cfg.ppq.tpi.pi.gc;
    let dir = tmp_dir("resume");
    let slices: Vec<_> = data.time_slices().collect();
    let mut control = ShardedPpqStream::new(cfg.ppq.clone(), cfg.shards);

    // First incarnation: ingest ~60% (several folds happen en route, and
    // the cut lands two slices past a fold, so recovery has an unfolded
    // WAL tail to replay), then drop the handle without any explicit
    // shutdown step.
    let every = cfg.fold_every as usize;
    let cut = slices.len() * 6 / 10 / every * every + 2;
    {
        let mut live = LiveRepo::recover(&dir, cfg.clone()).unwrap();
        assert!(live.next_t().is_none(), "fresh directory starts empty");
        for s in &slices[..cut] {
            live.push_slice(s.t, s.points).unwrap();
            live.maintain_if_due();
            assert!(
                live.last_maintenance_error().is_none(),
                "maintenance must succeed in a fault-free run"
            );
        }
        live.sync().unwrap();
    }
    for s in &slices[..cut] {
        control.push_slice(s.t, s.points);
    }
    let (_, tail) = Wal::open_replay(&dir.join(WAL_NAME), cfg.group_commit).unwrap();
    assert_eq!(tail.len(), 2, "recovery must replay the unfolded tail");

    // Second incarnation: recovery must reproduce the stream state bit
    // for bit, and ingest must continue seamlessly.
    let mut live = LiveRepo::recover(&dir, cfg.clone()).unwrap();
    assert_eq!(live.next_t(), control.next_t());
    assert_snapshots_bit_identical(&live, &control);
    for s in &slices[cut..] {
        live.push_slice(s.t, s.points).unwrap();
        live.maintain_if_due();
        control.push_slice(s.t, s.points);
    }
    assert_snapshots_bit_identical(&live, &control);

    // The folded chain answers through the disk engine exactly like the
    // in-memory engine over the control stream's summary.
    live.fold().unwrap();
    let full = control.snapshot();
    let repo = Repo::open(&dir, 64).unwrap();
    let engine_disk = DiskQueryEngine::new(&repo, &data, gc);
    let engine_mem = ShardedQueryEngine::new(&full, &data, gc);
    let qs: Vec<(u32, Point)> = data
        .iter_points()
        .step_by(17)
        .map(|(_, t, p)| (t, p))
        .collect();
    let disk = engine_disk.strq_batch(&qs).unwrap();
    let mem = engine_mem.strq_batch(&qs);
    assert_eq!(disk.len(), mem.len());
    for (d, m) in disk.iter().zip(&mem) {
        assert_eq!(d.exact, m.exact);
        assert_eq!(d.visited, m.visited);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn out_of_order_slice_is_rejected_without_side_effects() {
    let data = dataset();
    let cfg = live_config(0); // no auto-fold
    let dir = tmp_dir("order");
    let slices: Vec<_> = data.time_slices().collect();
    let mut live = LiveRepo::recover(&dir, cfg).unwrap();
    live.push_slice(slices[0].t, slices[0].points).unwrap();
    let expected = live.next_t().unwrap();

    // Skipping ahead is refused before anything touches the WAL.
    let wal_len_before = std::fs::metadata(dir.join(ppq_live::WAL_NAME))
        .unwrap()
        .len();
    match live.push_slice(expected + 3, slices[1].points) {
        Err(LiveError::OutOfOrder { expected: e, got }) => {
            assert_eq!(e, expected);
            assert_eq!(got, expected + 3);
        }
        other => panic!("expected OutOfOrder, got {:?}", other.err()),
    }
    live.sync().unwrap();
    assert_eq!(
        std::fs::metadata(dir.join(ppq_live::WAL_NAME))
            .unwrap()
            .len(),
        wal_len_before,
        "a rejected slice must not be logged"
    );
    // The expected slice still goes through.
    live.push_slice(expected, slices[1].points).unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn chain_length_threshold_triggers_auto_compaction() {
    let data = dataset();
    let mut cfg = live_config(4);
    cfg.compact_max_chain = 3;
    cfg.compact_dead_frac = 2.0; // isolate the length trigger
    let dir = tmp_dir("autocompact");
    let slices: Vec<_> = data.time_slices().collect();
    let mut live = LiveRepo::recover(&dir, cfg.clone()).unwrap();
    let mut max_gens = 0;
    for s in &slices {
        live.push_slice(s.t, s.points).unwrap();
        live.maintain_if_due();
        assert!(live.last_maintenance_error().is_none());
        if let Ok(repo) = Repo::open(&dir, 16) {
            max_gens = max_gens.max(repo.num_generations());
            assert!(
                repo.num_generations() <= cfg.compact_max_chain,
                "chain must be compacted before exceeding the threshold"
            );
        }
    }
    assert!(
        max_gens >= 2,
        "fixture must actually grow a chain (saw {max_gens})"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_checkpoint_is_a_typed_error_not_silent_data_loss() {
    let data = dataset();
    let cfg = live_config(4);
    let dir = tmp_dir("badckpt");
    let slices: Vec<_> = data.time_slices().collect();
    {
        let mut live = LiveRepo::recover(&dir, cfg.clone()).unwrap();
        for s in &slices[..10] {
            live.push_slice(s.t, s.points).unwrap();
            live.maintain_if_due();
        }
        live.fold().unwrap();
    }
    let ckpt = dir.join(CKPT_NAME);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&ckpt, &bytes).unwrap();
    match LiveRepo::recover(&dir, cfg) {
        Err(LiveError::CorruptCheckpoint(_)) => {}
        other => panic!(
            "expected CorruptCheckpoint, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn maintenance_failure_degrades_gracefully_and_recovers() {
    use ppq_storage::fault;

    let data = dataset();
    let mut cfg = live_config(4);
    cfg.max_backoff_shift = 1;
    let dir = tmp_dir("degrade");
    let slices: Vec<_> = data.time_slices().collect();
    let mut live = LiveRepo::recover(&dir, cfg).unwrap();

    // Push up to one slice before the fold threshold, then make the
    // fold's first durable write fail transiently (one-shot). Ingest
    // must keep accepting slices, the failure must be visible, and a
    // later retry (after backoff doubles the cadence) must self-heal.
    for s in &slices[..3] {
        live.push_slice(s.t, s.points).unwrap();
        live.maintain_if_due();
    }
    fault::arm(1, fault::FaultKind::Fail, fault::FaultMode::OneShot);
    live.push_slice(slices[3].t, slices[3].points)
        .expect("ingest must survive a failed fold");
    live.maintain_if_due();
    fault::disarm();
    assert!(live.last_maintenance_error().is_some());
    assert_eq!(live.maintenance_failures(), 1);

    // Keep ingesting: the retry fires 8 slices after the failed fold
    // (fold_every << 1) and succeeds, clearing the failure state.
    for s in &slices[4..] {
        live.push_slice(s.t, s.points).unwrap();
        live.maintain_if_due();
    }
    assert!(
        live.last_maintenance_error().is_none(),
        "backoff retry must eventually fold"
    );
    assert_eq!(live.maintenance_failures(), 0);

    // And nothing was lost: the recovered-from-disk view equals a fresh
    // uninterrupted stream.
    live.fold().unwrap();
    drop(live);
    let control = {
        let mut s2 = ShardedPpqStream::new(live_config(4).ppq, 2);
        for s in &slices {
            s2.push_slice(s.t, s.points);
        }
        s2
    };
    let reopened = LiveRepo::recover(&dir, live_config(4)).unwrap();
    assert_snapshots_bit_identical(&reopened, &control);
    let _ = std::fs::remove_dir_all(dir);
}

/// Trajectory ids are the caller's: they need not be assigned in arrival
/// order, and a delta generation of a few slices may introduce an id far
/// beyond everything seen so far. Such a stream must fold, compact,
/// reopen and recover, and hold exactly what its twin whose ids are the
/// arrival ranks holds.
#[test]
fn ids_out_of_arrival_order_fold_recover_and_answer() {
    // `Dataset` numbers trajectories in input order: sorted by start,
    // ids are arrival ranks. The scattered twin maps rank `r` to a
    // sparse, non-monotone id, so a later arrival can land thousands of
    // slots past the end of the per-trajectory arrays.
    let ranked = {
        let mut trajs = dataset().trajectories().to_vec();
        trajs.sort_by_key(|t| t.start);
        Dataset::new(trajs)
    };
    let n = ranked.num_trajectories() as u32;
    let scatter = |rank: u32| 2000 * ((rank * 7) % n);

    let mut cfg = live_config(4);
    cfg.shards = 1; // one pipeline, so the twins differ in ids alone
    let run = |name: &str, id_of: &dyn Fn(u32) -> u32| {
        let dir = tmp_dir(name);
        let mut control = ShardedPpqStream::new(cfg.ppq.clone(), cfg.shards);
        {
            let mut live = LiveRepo::recover(&dir, cfg.clone()).unwrap();
            for s in ranked.time_slices() {
                let points: Vec<_> = s.points.iter().map(|&(id, p)| (id_of(id), p)).collect();
                live.push_slice(s.t, &points).unwrap();
                live.maintain_if_due();
                control.push_slice(s.t, &points);
                assert!(
                    live.last_maintenance_error().is_none(),
                    "{name}: maintenance failed: {:?}",
                    live.last_maintenance_error()
                );
            }
            live.fold().unwrap();
        }
        // The folded chain stitches back to the stream's summary...
        let full = control.snapshot();
        let repo = Repo::open(&dir, 64).unwrap();
        assert_eq!(
            summary_io::to_bytes(repo.shards()[0].summary()),
            summary_io::to_bytes(full.shard(0)),
            "{name}: reopened chain diverges from the stream"
        );
        // ...and recovery resumes it bit for bit.
        let recovered = LiveRepo::recover(&dir, cfg.clone()).unwrap();
        assert_snapshots_bit_identical(&recovered, &control);
        let _ = std::fs::remove_dir_all(dir);
        full
    };
    let want = run("ids-ranked", &|rank| rank);
    let got = run("ids-scattered", &scatter);

    let radius = want.search_radius();
    let (want_tpi, got_tpi) = (want.shard(0).tpi().unwrap(), got.shard(0).tpi().unwrap());
    for (rank, t, p) in ranked.iter_points() {
        let (a, b) = (want.reconstruct(rank, t), got.reconstruct(scatter(rank), t));
        assert_eq!(a, b, "reconstruction of rank {rank} at t={t}");
        let mut near: Vec<u32> = want_tpi
            .query_disc(t, &p, radius)
            .into_iter()
            .map(scatter)
            .collect();
        near.sort_unstable();
        assert_eq!(near, got_tpi.query_disc(t, &p, radius));
    }
}

/// A graceful shutdown runs the pass a tick would have: fold, then
/// compact if the policy asks. Here the drain's fold is what takes the
/// chain to the length threshold, so a drain that only folded would
/// leave a chain the very next tick would have collapsed.
#[test]
fn graceful_shutdown_leaves_a_chain_the_policy_would_leave_alone() {
    let data = std::sync::Arc::new(dataset());
    let mut cfg = live_config(4);
    cfg.compact_max_chain = 2;
    cfg.compact_dead_frac = 2.0; // isolate the length trigger
    let dir = tmp_dir("drain-compacts");
    let slices: Vec<_> = data.time_slices().collect();
    let service = std::sync::Arc::new(
        LiveService::open(&dir, cfg.clone(), std::sync::Arc::clone(&data), 4).unwrap(),
    );
    // The base generation, folded at the fourth slice as a due tick
    // would.
    for s in &slices[..4] {
        service.push_slice(s.t, s.points).unwrap();
    }
    service.fold().unwrap();
    // The worker now owns the cadence; three more slices are not due.
    let worker = service
        .start_maintenance(MaintenanceConfig::default())
        .expect("worker attaches");
    for s in &slices[4..7] {
        service.push_slice(s.t, s.points).unwrap();
    }
    worker.shutdown().expect("drain");
    assert!(service.status().last_maintenance_error.is_none());
    drop(service);

    let mut recovered = LiveRepo::recover(&dir, cfg).unwrap();
    assert_eq!(recovered.next_t(), Some(slices[6].t + 1));
    assert_eq!(recovered.wal_pending(), 0);
    assert_eq!(
        recovered.chain_generations(),
        1,
        "the drain's delta generation was left on a full chain"
    );
    assert!(
        !recovered.maybe_compact().unwrap(),
        "shutdown left work for the compaction policy"
    );
    // Nor does the chain that compaction superseded outlive the service:
    // every segment file belongs to the one live generation.
    let live_generation = Repo::open(&dir, 16).unwrap().manifest().generation();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if let Some((_, rest)) = name.split_once("-g") {
            let generation: u64 = rest.split('-').next().unwrap().parse().unwrap();
            assert_eq!(generation, live_generation, "superseded segment {name}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A graceful shutdown leaves one generation even where the policy would
/// keep the chain: a long last delta on a young base stays under both
/// triggers. Which chain the worker's last compaction left behind must not
/// decide what a shutdown leaves.
#[test]
fn graceful_shutdown_leaves_one_generation() {
    let data = std::sync::Arc::new(dataset());
    let cfg = live_config(4);
    let dir = tmp_dir("drain-one-generation");
    let slices: Vec<_> = data.time_slices().collect();
    let mut live = LiveRepo::recover(&dir, cfg.clone()).unwrap();
    for (i, s) in slices.iter().enumerate() {
        live.push_slice(s.t, s.points).unwrap();
        if i + 1 == 4 || i + 1 == slices.len() {
            live.fold().unwrap();
        }
    }
    assert_eq!(live.chain_generations(), 2);
    assert!(!live.maybe_compact().unwrap(), "fixture trips the policy");
    drop(live);

    let service = std::sync::Arc::new(
        LiveService::open(&dir, cfg.clone(), std::sync::Arc::clone(&data), 4).unwrap(),
    );
    let worker = service
        .start_maintenance(MaintenanceConfig::default())
        .expect("worker attaches");
    worker.shutdown().expect("drain");
    assert!(service.status().last_maintenance_error.is_none());
    drop(service);

    let recovered = LiveRepo::recover(&dir, cfg).unwrap();
    assert_eq!(recovered.next_t(), Some(slices.last().unwrap().t + 1));
    assert_eq!(recovered.chain_generations(), 1);
    let _ = std::fs::remove_dir_all(dir);
}
