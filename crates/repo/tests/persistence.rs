//! End-to-end persistence: build → write → reopen → query, with the disk
//! engine's answers held bit-identical to the in-memory engines, plus
//! crash-safety and corruption-detection coverage.

use ppq_core::query::{QueryEngine, ShardedQueryEngine, StrqOutcome};
use ppq_core::{PpqConfig, PpqTrajectory, ShardedPpqStream, ShardedSummary, Variant};
use ppq_geo::Point;
use ppq_repo::{Appender, DiskQueryEngine, Repo, RepoError, RepoWriter};
use ppq_storage::{fault, IoStats};
use ppq_tpi::DiskTpi;
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::Dataset;
use std::path::PathBuf;

const PAGE: usize = 4096; // small pages so multi-page layouts are exercised

fn dataset() -> Dataset {
    porto_like(&PortoConfig {
        trajectories: 60,
        mean_len: 45,
        min_len: 30,
        start_spread: 12,
        seed: 77,
    })
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppq-repo-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn queries(data: &Dataset) -> Vec<(u32, Point)> {
    let mut qs: Vec<(u32, Point)> = data
        .iter_points()
        .step_by(23)
        .map(|(_, t, p)| (t, p))
        .collect();
    // Misses too: far outside the extent and past the time range.
    qs.push((0, Point::new(500.0, 500.0)));
    qs.push((1_000_000, Point::new(-8.6, 41.1)));
    qs
}

fn points_bit_eq(a: &Point, b: &Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

fn assert_outcomes_bit_identical(disk: &[StrqOutcome], mem: &[StrqOutcome]) {
    assert_eq!(disk.len(), mem.len());
    for (i, (d, m)) in disk.iter().zip(mem).enumerate() {
        assert_eq!(d.truth, m.truth, "truth diverged at query {i}");
        assert_eq!(d.approx, m.approx, "approx diverged at query {i}");
        assert_eq!(d.candidates, m.candidates, "candidates diverged at {i}");
        assert_eq!(d.exact, m.exact, "exact diverged at query {i}");
        assert_eq!(d.visited, m.visited, "visited diverged at query {i}");
    }
}

#[allow(clippy::type_complexity)]
fn assert_tpq_bit_identical(
    disk: &[Vec<(u32, Vec<(u32, Point)>)>],
    mem: &[Vec<(u32, Vec<(u32, Point)>)>],
) {
    assert_eq!(disk.len(), mem.len());
    for (qi, (d, m)) in disk.iter().zip(mem).enumerate() {
        assert_eq!(d.len(), m.len(), "TPQ match count diverged at query {qi}");
        for ((id_d, sub_d), (id_m, sub_m)) in d.iter().zip(m) {
            assert_eq!(id_d, id_m, "TPQ id diverged at query {qi}");
            assert_eq!(sub_d.len(), sub_m.len());
            for ((td, pd), (tm, pm)) in sub_d.iter().zip(sub_m) {
                assert_eq!(td, tm);
                assert!(
                    points_bit_eq(pd, pm),
                    "TPQ payload bits diverged at query {qi}, id {id_d}, t {td}"
                );
            }
        }
    }
}

#[test]
fn disk_engine_bit_identical_to_memory_engine() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let summary = PpqTrajectory::build(&data, &cfg).into_summary();
    assert!(summary.tpi().is_some(), "fixture must build its index");

    let dir = tmp_dir("parity-1shard");
    RepoWriter::with_page_size(&dir, PAGE)
        .write(&summary)
        .unwrap();
    let repo = Repo::open(&dir, 64).unwrap();

    // Precondition for payload bit-identity: the reopened summary
    // reconstructs bit-for-bit like the original.
    for traj in data.trajectories() {
        for off in 0..traj.len() {
            let t = traj.start + off as u32;
            let a = summary.reconstruct(traj.id, t).unwrap();
            let b = repo.shard(0).summary().reconstruct(traj.id, t).unwrap();
            assert!(
                points_bit_eq(&a, &b),
                "reopened reconstruction diverged at traj {} t {t}",
                traj.id
            );
        }
    }

    // The buffer pool changes what is read, never what is answered:
    // pool off and pool on give the same bits.
    let engine_mem = QueryEngine::new(&summary, &data, gc);
    let qs = queries(&data);
    for pool_pages in [0, 64] {
        let repo = Repo::open(&dir, pool_pages).unwrap();
        let engine_disk = DiskQueryEngine::new(&repo, &data, gc);
        assert_outcomes_bit_identical(
            &engine_disk.strq_batch(&qs).unwrap(),
            &engine_mem.strq_batch(&qs),
        );
        assert_tpq_bit_identical(
            &engine_disk.tpq_batch(&qs, 10).unwrap(),
            &engine_mem.tpq_batch(&qs, 10),
        );
    }

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn disk_engine_bit_identical_to_sharded_engine() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let sharded = ShardedSummary::build(&data, &cfg, 3);

    let dir = tmp_dir("parity-3shard");
    RepoWriter::with_page_size(&dir, PAGE)
        .write_sharded(&sharded)
        .unwrap();
    let repo = Repo::open(&dir, 64).unwrap();
    assert_eq!(repo.num_shards(), 3);

    let engine_mem = ShardedQueryEngine::new(&sharded, &data, gc);
    let engine_disk = DiskQueryEngine::new(&repo, &data, gc);
    let qs = queries(&data);
    assert_outcomes_bit_identical(
        &engine_disk.strq_batch(&qs).unwrap(),
        &engine_mem.strq_batch(&qs),
    );
    assert_tpq_bit_identical(
        &engine_disk.tpq_batch(&qs, 10).unwrap(),
        &engine_mem.tpq_batch(&qs, 10),
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batches_are_thread_count_invariant() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let summary = PpqTrajectory::build(&data, &cfg).into_summary();
    let dir = tmp_dir("threads");
    RepoWriter::with_page_size(&dir, PAGE)
        .write(&summary)
        .unwrap();
    let repo = Repo::open(&dir, 64).unwrap();
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    let qs = queries(&data);
    let one = rayon::with_thread_count(1, || engine.strq_online_batch(&qs).unwrap());
    let four = rayon::with_thread_count(4, || engine.strq_online_batch(&qs).unwrap());
    assert_eq!(one, four);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn per_query_io_counts_and_pool() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let summary = PpqTrajectory::build(&data, &cfg).into_summary();
    let dir = tmp_dir("iostats");
    RepoWriter::with_page_size(&dir, PAGE)
        .write(&summary)
        .unwrap();
    let repo = Repo::open(&dir, 128).unwrap();
    let engine = DiskQueryEngine::new(&repo, &data, gc);

    let (id, t, p) = data.iter_points().next().unwrap();
    let mut ws = ppq_repo::DiskQueryWorkspace::new();
    repo.clear_cache();
    let out = engine.strq_online_with(t, &p, &mut ws).unwrap();
    assert!(out.exact.contains(&id));
    let (cold_reads, _) = ws.last_io;
    assert!(cold_reads >= 1, "cold query must page something in");
    // Warm repeat: all pages come from the shared pool.
    let out2 = engine.strq_online_with(t, &p, &mut ws).unwrap();
    assert_eq!(out, out2);
    let (warm_reads, warm_hits) = ws.last_io;
    assert_eq!(warm_reads, 0, "warm repeat must be I/O-free");
    assert!(warm_hits >= 1);
    // Cumulative counter saw both.
    assert!(repo.io_stats().reads() >= cold_reads);
    assert!(repo.io_stats().buffer_hits() >= warm_hits);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn directed_block_lookup_beats_disktpi_scan() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let summary = PpqTrajectory::build(&data, &cfg).into_summary();
    let tpi = summary.tpi().unwrap().clone();

    let dir = tmp_dir("vs-scan");
    RepoWriter::with_page_size(&dir, PAGE)
        .write(&summary)
        .unwrap();
    let repo = Repo::open(&dir, 0).unwrap(); // pool off: count every page-in
    let scan_path = dir.join("disktpi-baseline.pages");
    let disk_tpi = DiskTpi::create_with(tpi, &scan_path, 0, PAGE).unwrap();

    let mut directed = 0u64;
    let mut scanned = 0u64;
    for (_, t, p) in data.iter_points().step_by(37) {
        let stats = IoStats::default();
        let a = repo.query_cell(t, &p, &stats).unwrap();
        directed += stats.reads();
        disk_tpi.io_stats().reset();
        let mut b = disk_tpi.query(t, &p).unwrap();
        scanned += disk_tpi.io_stats().reads();
        b.sort_unstable();
        assert_eq!(a, b, "directed and scanned answers diverged at t {t}");
    }
    assert!(
        directed < scanned,
        "block directory must do strictly fewer page-ins: directed {directed} vs scan {scanned}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Stream `data` through an `S`-shard pipeline, snapshotting after the
/// slice counts in `cuts`; returns the snapshots plus the final summary.
fn sharded_snapshots(
    data: &Dataset,
    cfg: &PpqConfig,
    shards: usize,
    cuts: &[usize],
) -> (Vec<ShardedSummary>, ShardedSummary) {
    let mut stream = ShardedPpqStream::new(cfg.clone(), shards);
    let slices: Vec<_> = data.time_slices().collect();
    let mut snaps = Vec::new();
    for (i, slice) in slices.iter().enumerate() {
        stream.push_slice(slice.t, slice.points);
        if cuts.contains(&(i + 1)) {
            snaps.push(stream.snapshot());
        }
    }
    (snaps, stream.finish())
}

/// Build + append a 3-generation store under `name` and the single-shot
/// control store next to it; returns `(appended_dir, single_dir, full)`.
fn appended_fixture(
    data: &Dataset,
    cfg: &PpqConfig,
    shards: usize,
    name: &str,
) -> (PathBuf, PathBuf, ShardedSummary) {
    let n_slices = data.time_slices().count();
    let (snaps, full) = sharded_snapshots(data, cfg, shards, &[n_slices / 3, 2 * n_slices / 3]);
    let appended = tmp_dir(&format!("{name}-appended"));
    let writer = RepoWriter::with_page_size(&appended, PAGE);
    writer.write_sharded(&snaps[0]).unwrap();
    writer.append_sharded(&snaps[1]).unwrap();
    writer.append_sharded(&full).unwrap();
    let single = tmp_dir(&format!("{name}-single"));
    RepoWriter::with_page_size(&single, PAGE)
        .write_sharded(&full)
        .unwrap();
    (appended, single, full)
}

/// Assert two open repositories answer the query workload identically at
/// every STRQ level and in every TPQ payload bit, and that the first also
/// matches the in-memory engine on `full`.
fn assert_stores_identical(
    data: &Dataset,
    full: &ShardedSummary,
    gc: f64,
    probe: &Repo,
    control: &Repo,
) {
    let engine_probe = DiskQueryEngine::new(probe, data, gc);
    let engine_control = DiskQueryEngine::new(control, data, gc);
    let engine_mem = ShardedQueryEngine::new(full, data, gc);
    let qs = queries(data);
    let strq_probe = engine_probe.strq_batch(&qs).unwrap();
    assert_outcomes_bit_identical(&strq_probe, &engine_control.strq_batch(&qs).unwrap());
    assert_outcomes_bit_identical(&strq_probe, &engine_mem.strq_batch(&qs));
    let tpq_probe = engine_probe.tpq_batch(&qs, 10).unwrap();
    assert_tpq_bit_identical(&tpq_probe, &engine_control.tpq_batch(&qs, 10).unwrap());
    assert_tpq_bit_identical(&tpq_probe, &engine_mem.tpq_batch(&qs, 10));
}

/// Assert two repository directories hold exactly the same files with
/// exactly the same bytes (the strongest possible parity: not just the
/// same answers, the same store).
fn assert_dirs_byte_identical(a: &std::path::Path, b: &std::path::Path) {
    let listing = |d: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let names = listing(a);
    assert_eq!(names, listing(b), "directory listings diverge");
    for name in &names {
        let ba = std::fs::read(a.join(name)).unwrap();
        let bb = std::fs::read(b.join(name)).unwrap();
        assert_eq!(ba, bb, "file {name} diverges between {a:?} and {b:?}");
    }
}

#[test]
fn warm_appender_bit_identical_to_cold_append_path() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let n = data.time_slices().count();
    let (snaps, full) = sharded_snapshots(&data, &cfg, 2, &[n / 4, n / 2, 3 * n / 4]);

    // Cold control: the stateless writer re-reads the chain every append.
    let cold = tmp_dir("appender-cold");
    let writer = RepoWriter::with_page_size(&cold, PAGE);
    writer.write_sharded(&snaps[0]).unwrap();
    for snap in snaps[1..].iter().chain([&full]) {
        writer.append_sharded(snap).unwrap();
    }

    // Warm probe: one cached Appender drives the same appends.
    let warm = tmp_dir("appender-warm");
    RepoWriter::with_page_size(&warm, PAGE)
        .write_sharded(&snaps[0])
        .unwrap();
    let mut appender = Appender::with_page_size(&warm, PAGE);
    assert!(!appender.is_warm());
    for snap in snaps[1..].iter().chain([&full]) {
        appender.append_sharded(snap).unwrap();
        assert!(appender.is_warm(), "cache must survive a successful append");
    }

    assert_dirs_byte_identical(&cold, &warm);
    let _ = std::fs::remove_dir_all(cold);
    let _ = std::fs::remove_dir_all(warm);
}

#[test]
fn stale_appender_cache_is_detected_and_rebuilt() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let n = data.time_slices().count();
    let (snaps, full) = sharded_snapshots(&data, &cfg, 2, &[n / 4, n / 2, 3 * n / 4]);

    let cold = tmp_dir("appender-stale-cold");
    let writer = RepoWriter::with_page_size(&cold, PAGE);
    writer.write_sharded(&snaps[0]).unwrap();
    for snap in snaps[1..].iter().chain([&full]) {
        writer.append_sharded(snap).unwrap();
    }

    // The appender commits one delta, then a *different* writer advances
    // the chain behind its back; the appender's next call must notice its
    // cached manifest is stale, rebuild from disk, and still produce the
    // byte-identical store.
    let warm = tmp_dir("appender-stale-warm");
    RepoWriter::with_page_size(&warm, PAGE)
        .write_sharded(&snaps[0])
        .unwrap();
    let mut appender = Appender::with_page_size(&warm, PAGE);
    appender.append_sharded(&snaps[1]).unwrap();
    RepoWriter::with_page_size(&warm, PAGE)
        .append_sharded(&snaps[2])
        .unwrap();
    appender.append_sharded(&full).unwrap();

    assert_dirs_byte_identical(&cold, &warm);
    let _ = std::fs::remove_dir_all(cold);
    let _ = std::fs::remove_dir_all(warm);
}

#[test]
fn appended_store_bit_identical_to_single_shot_build() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let (appended, single, full) = appended_fixture(&data, &cfg, 2, "append-parity");

    let repo = Repo::open(&appended, 64).unwrap();
    assert_eq!(repo.num_generations(), 3, "base + two deltas must be live");
    assert_eq!(repo.num_shards(), 2);
    let control = Repo::open(&single, 64).unwrap();
    assert_eq!(control.num_generations(), 1);

    // The stitched summary chain reconstructs bit-for-bit like the live
    // stream's summary — the precondition for TPQ payload identity.
    for traj in data.trajectories() {
        for off in 0..traj.len() {
            let t = traj.start + off as u32;
            let a = full.reconstruct(traj.id, t).unwrap();
            let b = repo
                .shard(repo.router().shard_of(traj.id))
                .summary()
                .reconstruct(traj.id, t)
                .unwrap();
            assert!(
                points_bit_eq(&a, &b),
                "stitched reconstruction diverged at traj {} t {t}",
                traj.id
            );
        }
    }
    assert_stores_identical(&data, &full, gc, &repo, &control);

    // An appended chain persists far fewer bytes than three rewrites: the
    // delta generations' summary segments are a fraction of the base's.
    let m = repo.manifest();
    let base_bytes: u64 = m.generations[0].shards.iter().map(|s| s.summary_len).sum();
    let delta_bytes: u64 = m.generations[1..]
        .iter()
        .flat_map(|g| g.shards.iter())
        .map(|s| s.summary_len)
        .sum();
    assert!(
        delta_bytes < base_bytes,
        "two third-window deltas ({delta_bytes} B) must undercut the base snapshot ({base_bytes} B)"
    );

    let _ = std::fs::remove_dir_all(appended);
    let _ = std::fs::remove_dir_all(single);
}

#[test]
fn compaction_collapses_generations_and_preserves_answers() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let (appended, single, full) = appended_fixture(&data, &cfg, 2, "compact");

    let repo = Repo::open(&appended, 64).unwrap();
    assert_eq!(repo.num_generations(), 3);
    let manifest = repo.compact(None).unwrap();
    assert_eq!(manifest.generations.len(), 1);
    drop(repo);

    let compacted = Repo::open(&appended, 64).unwrap();
    assert_eq!(compacted.num_generations(), 1);
    assert_eq!(compacted.num_shards(), 2);
    let control = Repo::open(&single, 64).unwrap();
    assert_stores_identical(&data, &full, gc, &compacted, &control);

    // The pre-compaction chain is retained for in-flight readers of the
    // previous manifest; the next committed write sweeps it.
    assert!(appended.join("sdelta-g2-0.seg").exists());
    compacted.compact(None).unwrap();
    assert!(
        !appended.join("sdelta-g2-0.seg").exists(),
        "second commit must sweep the pre-compaction chain"
    );
    assert!(
        !appended.join("summary-g1-0.seg").exists(),
        "second commit must sweep the original base"
    );
    drop(compacted);
    let reopened = Repo::open(&appended, 64).unwrap();
    let control = Repo::open(&single, 64).unwrap();
    assert_stores_identical(&data, &full, gc, &reopened, &control);

    let _ = std::fs::remove_dir_all(appended);
    let _ = std::fs::remove_dir_all(single);
}

#[test]
fn compaction_reshards_without_changing_answers() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let (appended, single, full) = appended_fixture(&data, &cfg, 2, "reshard");

    let repo = Repo::open(&appended, 64).unwrap();
    repo.compact(Some(3)).unwrap();
    drop(repo);

    let resharded = Repo::open(&appended, 64).unwrap();
    assert_eq!(resharded.num_shards(), 3);
    assert_eq!(resharded.num_generations(), 1);

    // Exact STRQ answers and TPQ payload bits are invariant under
    // re-sharding (reconstructions are carried bit-for-bit; the rebuilt
    // index is a faithful index over the same reconstructed stream).
    let control = Repo::open(&single, 64).unwrap();
    let engine_new = DiskQueryEngine::new(&resharded, &data, gc);
    let engine_control = DiskQueryEngine::new(&control, &data, gc);
    let qs = queries(&data);
    let a = engine_new.strq_batch(&qs).unwrap();
    let b = engine_control.strq_batch(&qs).unwrap();
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.truth, y.truth, "truth diverged at query {i}");
        assert_eq!(x.approx, y.approx, "approx diverged at query {i}");
        assert_eq!(x.candidates, y.candidates, "candidates diverged at {i}");
        assert_eq!(x.exact, y.exact, "exact diverged at query {i}");
    }
    assert_tpq_bit_identical(
        &engine_new.tpq_batch(&qs, 10).unwrap(),
        &engine_control.tpq_batch(&qs, 10).unwrap(),
    );
    let _ = full;

    let _ = std::fs::remove_dir_all(appended);
    let _ = std::fs::remove_dir_all(single);
}

#[test]
fn compact_refuses_a_stale_view() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let n_slices = data.time_slices().count();
    let (snaps, full) = sharded_snapshots(&data, &cfg, 2, &[n_slices / 2]);
    let dir = tmp_dir("stale-compact");
    let writer = RepoWriter::with_page_size(&dir, PAGE);
    writer.write_sharded(&snaps[0]).unwrap();

    // Open a view, then let the store advance underneath it.
    let repo = Repo::open(&dir, 16).unwrap();
    writer.append_sharded(&full).unwrap();

    // Compacting the stale view would discard the appended generation
    // (and overwrite its committed segments); it must refuse instead.
    assert!(matches!(repo.compact(None), Err(RepoError::Stale(_))));
    drop(repo);

    // The appended chain is untouched; a fresh view compacts fine.
    let repo = Repo::open(&dir, 16).unwrap();
    assert_eq!(repo.num_generations(), 2);
    repo.compact(None).unwrap();
    drop(repo);
    assert_eq!(Repo::open(&dir, 16).unwrap().num_generations(), 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn append_rejects_non_extensions() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let n_slices = data.time_slices().count();
    let (snaps, full) = sharded_snapshots(&data, &cfg, 2, &[n_slices / 2]);

    let dir = tmp_dir("reject");
    let writer = RepoWriter::with_page_size(&dir, PAGE);

    // Appending onto nothing is refused.
    assert!(matches!(
        writer.append_sharded(&full),
        Err(RepoError::NotAnExtension(_))
    ));
    writer.write_sharded(&snaps[0]).unwrap();

    // Wrong shard count.
    let other = ShardedSummary::build(&data, &cfg, 3);
    assert!(matches!(
        writer.append_sharded(&other),
        Err(RepoError::NotAnExtension(_))
    ));

    // A summary of unrelated data is structurally not an extension.
    let unrelated_data = porto_like(&PortoConfig {
        trajectories: 40,
        mean_len: 40,
        min_len: 30,
        start_spread: 12,
        seed: 4242,
    });
    let unrelated = ShardedSummary::build(&unrelated_data, &cfg, 2);
    assert!(matches!(
        writer.append_sharded(&unrelated),
        Err(RepoError::NotAnExtension(_))
    ));

    // The real extension still appends cleanly afterwards.
    writer.append_sharded(&full).unwrap();
    assert_eq!(Repo::open(&dir, 0).unwrap().num_generations(), 2);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn crash_during_append_leaves_committed_chain_consistent() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let n_slices = data.time_slices().count();
    let (snaps, full) = sharded_snapshots(&data, &cfg, 2, &[n_slices / 2]);
    let dir = tmp_dir("crash-append");
    let writer = RepoWriter::with_page_size(&dir, PAGE);
    writer.write_sharded(&snaps[0]).unwrap();

    let qs = queries(&data);
    let mem_before = ShardedQueryEngine::new(&snaps[0], &data, gc).strq_online_batch(&qs);
    let mem_after = ShardedQueryEngine::new(&full, &data, gc).strq_online_batch(&qs);

    // Crash the *real* append at every instrumented I/O operation in
    // turn (alternating hard failures with torn writes that persist a
    // prefix). Every pre-commit crash must leave the chain opening at
    // generation 1 answering like the old snapshot; a crash past the
    // manifest rename must leave generation 2 fully live — never
    // anything in between.
    let mut n = 0u64;
    let committed_by_crash = loop {
        assert!(n < 10_000, "append never completed");
        let kind = if n.is_multiple_of(2) {
            fault::FaultKind::Fail
        } else {
            fault::FaultKind::Torn { keep: 7 }
        };
        fault::arm(n, kind, fault::FaultMode::CrashAfter);
        let result = writer.append_sharded(&full);
        let out = fault::disarm();
        if !out.triggered {
            result.unwrap();
            break false; // ran past the last op: clean commit
        }
        assert!(result.is_err(), "a crashed append must surface an error");
        let repo = Repo::open(&dir, 16).unwrap();
        let engine = DiskQueryEngine::new(&repo, &data, gc);
        match repo.num_generations() {
            1 => {
                assert_eq!(repo.manifest().generation(), 1);
                assert_outcomes_bit_identical(&engine.strq_online_batch(&qs).unwrap(), &mem_before);
            }
            2 => {
                // The rename is the linearization point; this crash
                // landed after it (e.g. on the directory fsync), so the
                // append is durable despite the error.
                assert_outcomes_bit_identical(&engine.strq_online_batch(&qs).unwrap(), &mem_after);
                break true;
            }
            g => panic!("crashed append left {g} generations"),
        }
        n += 1;
    };

    // Whether the commit landed via the crash tail or a clean retry, the
    // final store serves the full view.
    assert!(committed_by_crash || n > 0, "no crash was ever injected");
    let repo = Repo::open(&dir, 16).unwrap();
    assert_eq!(repo.num_generations(), 2);
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    assert_outcomes_bit_identical(&engine.strq_online_batch(&qs).unwrap(), &mem_after);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn crash_during_compaction_leaves_chain_consistent() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let (appended, single, full) = appended_fixture(&data, &cfg, 2, "crash-compact");
    let control = Repo::open(&single, 16).unwrap();

    // Crash the *real* compaction at every instrumented I/O operation in
    // turn — including the chain page reads feeding the block copy. A
    // pre-commit crash leaves the 3-generation chain untouched (partial
    // generation-4 segments and a torn manifest temp are unreferenced
    // litter); a post-rename crash leaves the compacted single
    // generation fully live. Each iteration reopens and retries over
    // whatever the previous crash left behind.
    let mut n = 0u64;
    loop {
        assert!(n < 10_000, "compaction never completed");
        let kind = if n.is_multiple_of(2) {
            fault::FaultKind::Fail
        } else {
            fault::FaultKind::Torn { keep: 7 }
        };
        let repo = Repo::open(&appended, 16).unwrap();
        fault::arm(n, kind, fault::FaultMode::CrashAfter);
        let result = repo.compact(None);
        let out = fault::disarm();
        drop(repo);
        if !out.triggered {
            result.unwrap();
            break;
        }
        assert!(
            result.is_err(),
            "a crashed compaction must surface an error"
        );
        let reopened = Repo::open(&appended, 16).unwrap();
        match reopened.num_generations() {
            3 => assert_stores_identical(&data, &full, gc, &reopened, &control),
            1 => {
                // Crash landed past the manifest rename: the compaction
                // is durable despite the error.
                assert_stores_identical(&data, &full, gc, &reopened, &control);
                break;
            }
            g => panic!("crashed compaction left {g} generations"),
        }
        n += 1;
    }
    assert!(n > 0, "no crash was ever injected");

    let compacted = Repo::open(&appended, 16).unwrap();
    assert_eq!(compacted.num_generations(), 1);
    assert_stores_identical(&data, &full, gc, &compacted, &control);
    let _ = std::fs::remove_dir_all(appended);
    let _ = std::fs::remove_dir_all(single);
}

#[test]
fn delta_segment_corruption_is_detected() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let (appended, single, _) = appended_fixture(&data, &cfg, 2, "delta-corrupt");
    let _ = std::fs::remove_dir_all(single);

    // A flipped byte anywhere in a delta segment is caught at open by the
    // manifest CRC before the delta is ever applied, and the error names
    // the exact file and generation that failed verification.
    let seg = appended.join("sdelta-g2-0.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&seg, &bytes).unwrap();
    match Repo::open(&appended, 0).err() {
        Some(RepoError::CorruptSegment {
            path,
            generation,
            shard,
            actual_crc,
            ..
        }) => {
            assert_eq!(path, seg);
            assert_eq!(generation, 2);
            assert_eq!(shard, 0);
            assert!(actual_crc.is_some(), "length matched, CRC did not");
        }
        other => panic!("expected CorruptSegment, got {other:?}"),
    }
    bytes[mid] ^= 0x20;
    std::fs::write(&seg, &bytes).unwrap();
    Repo::open(&appended, 0).unwrap();
    let _ = std::fs::remove_dir_all(appended);
}

#[test]
fn crash_during_write_leaves_previous_generation_consistent() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let summary = PpqTrajectory::build(&data, &cfg).into_summary();
    let dir = tmp_dir("crash");
    let writer = RepoWriter::with_page_size(&dir, PAGE);
    writer.write(&summary).unwrap();
    let gen1 = Repo::open(&dir, 16).unwrap().manifest().generation();
    assert_eq!(gen1, 1);

    // Crash the *real* generation-2 rewrite at every instrumented I/O
    // operation in turn. Every pre-commit crash leaves partial g2 files
    // (and possibly a torn manifest temp) on disk, but the store keeps
    // opening at generation 1 and serving queries; a post-rename crash
    // commits generation 2 despite the error.
    let (id, t, p) = data.iter_points().next().unwrap();
    let mut n = 0u64;
    loop {
        assert!(n < 10_000, "rewrite never completed");
        let kind = if n.is_multiple_of(2) {
            fault::FaultKind::Fail
        } else {
            fault::FaultKind::Torn { keep: 7 }
        };
        fault::arm(n, kind, fault::FaultMode::CrashAfter);
        let result = writer.write(&summary);
        let out = fault::disarm();
        if !out.triggered {
            result.unwrap();
            break;
        }
        assert!(result.is_err(), "a crashed rewrite must surface an error");
        let repo = Repo::open(&dir, 16).unwrap();
        let g = repo.manifest().generation();
        assert!(g == 1 || g == 2, "crashed rewrite left generation {g}");
        let engine = DiskQueryEngine::new(&repo, &data, gc);
        assert!(engine.strq(t, &p).unwrap().exact.contains(&id));
        if g == 2 {
            break;
        }
        n += 1;
    }
    assert!(n > 0, "no crash was ever injected");

    // Generation 2 is committed (by the crash tail or the clean final
    // attempt). The sweep retains the immediately previous generation (a
    // concurrent reader may still be opening it) but removes anything
    // older.
    let repo = Repo::open(&dir, 16).unwrap();
    assert_eq!(repo.manifest().generation(), 2);
    assert!(
        dir.join("summary-g1-0.seg").exists(),
        "previous generation must be retained for in-flight readers"
    );
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    assert!(engine.strq(t, &p).unwrap().exact.contains(&id));
    drop(repo);

    // Generation 3 makes generation 1 unreachable by any reader that
    // started after the generation-2 commit — now it is swept.
    writer.write(&summary).unwrap();
    let repo = Repo::open(&dir, 16).unwrap();
    assert_eq!(repo.manifest().generation(), 3);
    assert!(!dir.join("summary-g1-0.seg").exists(), "g1 not swept");
    assert!(dir.join("summary-g2-0.seg").exists(), "g2 must be retained");
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    assert!(engine.strq(t, &p).unwrap().exact.contains(&id));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corruption_is_detected() {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let summary = PpqTrajectory::build(&data, &cfg).into_summary();
    let dir = tmp_dir("corrupt");
    RepoWriter::with_page_size(&dir, PAGE)
        .write(&summary)
        .unwrap();

    // Missing manifest: clean error.
    let empty = tmp_dir("corrupt-empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(matches!(Repo::open(&empty, 0), Err(RepoError::Io(_))));
    let _ = std::fs::remove_dir_all(empty);

    // Flipped byte in the summary segment: caught at open by the
    // manifest CRC, reported with the offending path and generation.
    let seg = dir.join("summary-g1-0.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();
    match Repo::open(&dir, 0).err() {
        Some(RepoError::CorruptSegment {
            path, generation, ..
        }) => {
            assert_eq!(path, seg);
            assert_eq!(generation, 1);
        }
        other => panic!("expected CorruptSegment, got {other:?}"),
    }
    bytes[mid] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();
    Repo::open(&dir, 0).unwrap();

    // Flipped byte in a data page: caught lazily by the page CRC when a
    // query pages it in.
    let pages = dir.join("tpi-g1-0.pages");
    let mut bytes = std::fs::read(&pages).unwrap();
    assert!(!bytes.is_empty());
    bytes[10] ^= 0x01;
    std::fs::write(&pages, &bytes).unwrap();
    let repo = Repo::open(&dir, 0).unwrap(); // structure is fine
    let gc = cfg.tpi.pi.gc;
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    let mut saw_crc_error = false;
    for (_, t, p) in data.iter_points().step_by(11) {
        if let Err(e) = engine.strq_online(t, &p) {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            saw_crc_error = true;
            break;
        }
    }
    assert!(saw_crc_error, "no query touched the corrupted page");
    let _ = std::fs::remove_dir_all(dir);
}

/// A dataset made with `+ - * /` alone (an LCG random walk), so that what
/// it summarises to does not depend on the platform's `sin`/`ln`.
fn arithmetic_dataset() -> Dataset {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as u32
    };
    let trajectories = (0..40)
        .map(|id| {
            let start = next() % 12;
            let len = 30 + next() % 20;
            let mut p = Point::new(
                -8.6 + (next() % 1000) as f64 * 1e-4,
                41.1 + (next() % 1000) as f64 * 1e-4,
            );
            let points = (0..len)
                .map(|_| {
                    let step = |r: u32| ((r % 7) as f64 - 3.0) * 2e-5;
                    p = Point::new(p.x + step(next()), p.y + step(next()));
                    p
                })
                .collect();
            ppq_traj::Trajectory { id, start, points }
        })
        .collect();
    Dataset::new(trajectories)
}

/// The segments a writer lays down are a function of the summary alone:
/// for a fixed build, every generation's summary, directory and page
/// segment of a base + two-delta chain (the full and the
/// `min_exclusive_t` forms of the block walk) and of the single-shot
/// store carry the CRCs recorded when this test was written. An in-memory
/// index representation may change; what reaches the disk may not, short
/// of a format revision.
#[test]
fn written_segments_match_the_recorded_crcs() {
    let data = arithmetic_dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let (appended, single, _) = appended_fixture(&data, &cfg, 2, "golden");
    // (summary CRC, directory CRC, CRC over the pages' trailer CRCs), per
    // generation and shard in manifest order.
    let crcs = |dir: &std::path::Path| -> Vec<(u32, u32, u32)> {
        let manifest = ppq_repo::Manifest::from_bytes(
            &std::fs::read(dir.join(ppq_repo::layout::MANIFEST_NAME)).unwrap(),
        )
        .unwrap();
        let mut out = Vec::new();
        for g in &manifest.generations {
            for (i, sm) in g.shards.iter().enumerate() {
                let pages = dir.join(ppq_repo::layout::tpi_seg_name(g.generation, i as u32));
                let trailers: Vec<u8> = std::fs::read(pages)
                    .unwrap()
                    .chunks(PAGE)
                    .flat_map(|page| page[PAGE - ppq_storage::PAGE_TRAILER..].to_vec())
                    .collect();
                out.push((sm.summary_crc, sm.dir_crc, ppq_storage::crc32(&trailers)));
            }
        }
        out
    };
    assert_eq!(
        crcs(&appended),
        [
            (0xb072c48d, 0xbbb18d10, 0x673b9dbf),
            (0xb81b7404, 0xc81ecf29, 0x4e473492),
            (0x174b6d81, 0x59770650, 0x75ea15dd),
            (0x54978649, 0xdf40938f, 0xa41db445),
            (0xa8bbc616, 0x0ea7228a, 0x602528dd),
            (0xf6a9c81a, 0x80f4e7bc, 0xfd2223fb),
        ],
        "base + two deltas"
    );
    assert_eq!(
        crcs(&single),
        [
            (0xe13af442, 0xc0e958ef, 0x1cf0eb70),
            (0xacb428d6, 0x94617ad8, 0xa88abdb8),
        ],
        "single-shot store"
    );
    for dir in [appended, single] {
        std::fs::remove_dir_all(dir).ok();
    }
}
