//! Concurrency and fault battery for the batched disk read path.
//!
//! The batched plan-then-fetch engine shares one residency-managed
//! buffer pool across every reader thread, so the properties worth
//! money are the cross-thread ones:
//!
//! * N threads hammering batched STRQ/TPQ against one engine get
//!   answers bit-identical to the serial baseline — hits, misses and
//!   evictions from sibling threads, even of frames a query is decoding
//!   from, never leak into a query's result.
//! * The accounting invariant `pool hits + misses == Σ per-query
//!   attempts` holds exactly under concurrency, not just on average.
//! * A fault injected mid-batch (hard read failure or silent bit-flip)
//!   surfaces as a typed error, and a retry after the fault clears is
//!   bit-identical — the pool never serves a poisoned frame.
//!
//! Everything here must hold at `RAYON_NUM_THREADS=1` and `=4`; the CI
//! determinism matrix runs this suite under both.

use ppq_core::query::{ShardedQueryEngine, StrqOutcome};
use ppq_core::{PpqConfig, ShardedSummary, Variant};
use ppq_geo::Point;
use ppq_repo::{DiskQueryEngine, DiskQueryWorkspace, Repo, RepoError, RepoWriter};
use ppq_storage::fault;
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::Dataset;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

const PAGE: usize = 4096;

/// The pool instruments are process-global registry counters; tests
/// that measure deltas must not interleave with pool traffic from their
/// neighbours in this binary.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let dir = std::env::temp_dir().join(format!("ppq-conc-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn queries(data: &Dataset) -> Vec<(u32, Point)> {
    let mut qs: Vec<(u32, Point)> = data
        .iter_points()
        .step_by(23)
        .map(|(_, t, p)| (t, p))
        .collect();
    qs.push((0, Point::new(500.0, 500.0)));
    qs.push((1_000_000, Point::new(-8.6, 41.1)));
    qs
}

/// A 3-shard on-disk store of the synthetic fixture; small pages so
/// multi-page blocks are routine.
fn build_store(name: &str) -> (PathBuf, Dataset, f64) {
    let (dir, data, gc, _) = build_store_and_summary(name);
    (dir, data, gc)
}

fn build_store_and_summary(name: &str) -> (PathBuf, Dataset, f64, ShardedSummary) {
    let data = dataset();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let sharded = ShardedSummary::build(&data, &cfg, 3);
    let dir = tmp_dir(name);
    RepoWriter::with_page_size(&dir, PAGE)
        .write_sharded(&sharded)
        .unwrap();
    (dir, data, gc, sharded)
}

fn points_bit_eq(a: &Point, b: &Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

fn assert_strq_bit_identical(got: &[StrqOutcome], want: &[StrqOutcome], who: &str) {
    assert_eq!(got.len(), want.len(), "{who}: result count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.approx, w.approx, "{who}: approx diverged at query {i}");
        assert_eq!(
            g.candidates, w.candidates,
            "{who}: candidates diverged at {i}"
        );
        assert_eq!(g.exact, w.exact, "{who}: exact diverged at query {i}");
        assert_eq!(g.visited, w.visited, "{who}: visited diverged at query {i}");
    }
}

#[allow(clippy::type_complexity)]
fn assert_tpq_bit_identical(
    got: &[Vec<(u32, Vec<(u32, Point)>)>],
    want: &[Vec<(u32, Vec<(u32, Point)>)>],
    who: &str,
) {
    assert_eq!(got.len(), want.len());
    for (qi, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{who}: TPQ match count at query {qi}");
        for ((id_g, sub_g), (id_w, sub_w)) in g.iter().zip(w) {
            assert_eq!(id_g, id_w, "{who}: TPQ id diverged at query {qi}");
            assert_eq!(sub_g.len(), sub_w.len());
            for ((tg, pg), (tw, pw)) in sub_g.iter().zip(sub_w) {
                assert_eq!(tg, tw);
                assert!(
                    points_bit_eq(pg, pw),
                    "{who}: TPQ payload bits diverged at query {qi}, id {id_g}, t {tg}"
                );
            }
        }
    }
}

/// A query whose cold working set spans several pages (so mid-batch
/// faults have room to land), found by probing the fixture's own points.
fn multi_page_query(engine: &DiskQueryEngine, data: &Dataset) -> (u32, Point) {
    let mut ws = DiskQueryWorkspace::new();
    for (_, t, p) in data.iter_points().step_by(7) {
        engine.repo().clear_cache();
        if engine.strq_online_with(t, &p, &mut ws).is_ok() && ws.last_io.0 >= 2 {
            return (t, p);
        }
    }
    panic!("no fixture query pages in more than one page");
}

/// A fault-path error must be typed: it converts to [`RepoError::Io`]
/// and names either the injected fault or the CRC check that caught it —
/// never a panic, never a silent wrong answer.
fn assert_typed(err: std::io::Error, who: &str) {
    let msg = err.to_string();
    let typed = RepoError::from(err);
    match &typed {
        RepoError::Io(_) => {}
        other => panic!("{who}: expected RepoError::Io, got {other:?}"),
    }
    assert!(
        msg.contains("injected fault") || msg.contains("CRC"),
        "{who}: untyped error message: {msg}"
    );
}

#[test]
fn concurrent_batched_queries_are_bit_identical_to_serial() {
    let _g = lock();
    let (dir, data, gc) = build_store("parallel");
    let repo = Repo::open(&dir, 64).unwrap();
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    let qs = queries(&data);

    // Serial baselines (and the fixed-chunk determinism contract: the
    // rayon thread count must not change a batch's answers).
    let strq_base = engine.strq_online_batch(&qs).unwrap();
    let tpq_base = engine.tpq_batch(&qs, 8).unwrap();
    let strq_one = rayon::with_thread_count(1, || engine.strq_online_batch(&qs).unwrap());
    let strq_four = rayon::with_thread_count(4, || engine.strq_online_batch(&qs).unwrap());
    assert_strq_bit_identical(&strq_one, &strq_base, "rayon=1");
    assert_strq_bit_identical(&strq_four, &strq_base, "rayon=4");

    std::thread::scope(|s| {
        for worker in 0..6 {
            let engine = &engine;
            let repo = &repo;
            let (qs, strq_base, tpq_base) = (&qs, &strq_base, &tpq_base);
            s.spawn(move || {
                for round in 0..3 {
                    // Odd workers cold-start the shared pool mid-flight:
                    // sibling queries must survive losing their frames at
                    // any point.
                    if worker % 2 == 1 {
                        repo.clear_cache();
                    }
                    let who = format!("worker {worker} round {round}");
                    let strq = engine.strq_online_batch(qs).unwrap();
                    assert_strq_bit_identical(&strq, strq_base, &who);
                    let tpq = engine.tpq_batch(qs, 8).unwrap();
                    assert_tpq_bit_identical(&tpq, tpq_base, &who);
                }
            });
        }
    });

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn accounting_reconciles_exactly_under_concurrency() {
    let _g = lock();
    let (dir, data, gc) = build_store("reconcile");
    let repo = Repo::open(&dir, 48).unwrap();
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    let qs = queries(&data);

    let hits = ppq_obs::counter("ppq_pool_hits");
    let misses = ppq_obs::counter("ppq_pool_misses");
    let (hits0, misses0) = (hits.get(), misses.get());
    let (reads0, bhits0) = (repo.io_stats().reads(), repo.io_stats().buffer_hits());

    // Per-thread sums of per-query attempts, from `last_io` — the same
    // numbers Table 9 measurement reads.
    let attempts: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|worker| {
                let engine = &engine;
                let qs = &qs;
                s.spawn(move || {
                    let mut ws = DiskQueryWorkspace::new();
                    let mut sum = 0u64;
                    for (i, (t, p)) in qs.iter().enumerate() {
                        if (i + worker) % 17 == 0 {
                            engine.repo().clear_cache();
                        }
                        engine.strq_online_with(*t, p, &mut ws).unwrap();
                        let (reads, bhits) = ws.last_io;
                        sum += reads + bhits;
                    }
                    sum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let pool_delta = (hits.get() - hits0) + (misses.get() - misses0);
    let repo_delta = (repo.io_stats().reads() - reads0) + (repo.io_stats().buffer_hits() - bhits0);
    assert_eq!(
        pool_delta, attempts,
        "pool hits+misses diverged from Σ per-query attempts"
    );
    assert_eq!(
        repo_delta, attempts,
        "repo cumulative stats diverged from Σ per-query attempts"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn mid_batch_faults_are_typed_and_retry_bit_identical() {
    let _g = lock();
    let (dir, data, gc) = build_store("faults");
    let repo = Repo::open(&dir, 64).unwrap();
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    let (t, p) = multi_page_query(&engine, &data);
    let baseline = engine.strq_online(t, &p).unwrap();
    assert!(!baseline.exact.is_empty(), "fixture query must hit");

    // Discover the cold query's instrumented-operation space: every miss
    // is one serial read through the instrumented path, so the op
    // sequence is exactly the page-read sequence, deterministic across
    // runs and thread counts.
    repo.clear_cache();
    fault::arm_counting();
    engine.strq_online(t, &p).unwrap();
    let ops = fault::disarm().ops;
    assert!(ops >= 2, "cold query must page in multiple blocks");

    // Land a fault on *every* operation in turn: a hard failure and a
    // silent bit-flip (which must be caught by the page CRC, never
    // returned as data).
    for op in 0..ops {
        for kind in [fault::FaultKind::Fail, fault::FaultKind::BitFlip { bit: 5 }] {
            repo.clear_cache();
            fault::arm(op, kind, fault::FaultMode::OneShot);
            let result = engine.strq_online(t, &p);
            let out = fault::disarm();
            assert!(out.triggered, "op {op} {kind:?}: fault never fired");
            let err = result.expect_err("faulted query must error");
            assert_typed(err, &format!("op {op} {kind:?}"));
            // With the fault cleared, the very next attempt is
            // bit-identical — no poisoned frame survived in the pool.
            let retry = engine.strq_online(t, &p).unwrap();
            assert_strq_bit_identical(
                std::slice::from_ref(&retry),
                std::slice::from_ref(&baseline),
                &format!("retry after op {op} {kind:?}"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn faulty_threads_do_not_disturb_clean_readers() {
    let _g = lock();
    let (dir, data, gc) = build_store("mixed");
    let repo = Repo::open(&dir, 64).unwrap();
    let engine = DiskQueryEngine::new(&repo, &data, gc);
    let qs = queries(&data);
    let strq_base = engine.strq_online_batch(&qs).unwrap();

    std::thread::scope(|s| {
        // Clean readers: full batches, always bit-identical.
        for worker in 0..3 {
            let engine = &engine;
            let (qs, strq_base) = (&qs, &strq_base);
            s.spawn(move || {
                for round in 0..3 {
                    let strq = engine.strq_online_batch(qs).unwrap();
                    assert_strq_bit_identical(
                        &strq,
                        strq_base,
                        &format!("clean worker {worker} round {round}"),
                    );
                }
            });
        }
        // Faulty readers: the fault schedule is thread-local, so arming
        // here cannot touch the clean threads. Every error must be
        // typed, and after disarming the same thread recovers to the
        // bit-identical answer.
        for worker in 0..3 {
            let engine = &engine;
            let (qs, strq_base) = (&qs, &strq_base);
            s.spawn(move || {
                let mut ws = DiskQueryWorkspace::new();
                fault::arm(
                    worker as u64,
                    fault::FaultKind::Fail,
                    fault::FaultMode::CrashAfter,
                );
                let mut errors = 0usize;
                for (i, (t, p)) in qs.iter().enumerate() {
                    match engine.strq_online_with(*t, p, &mut ws) {
                        // Served entirely from frames admitted by the
                        // clean threads — a hit-only query does no I/O,
                        // so the schedule cannot fire on it.
                        Ok(out) => assert_strq_bit_identical(
                            std::slice::from_ref(&out),
                            std::slice::from_ref(&strq_base[i]),
                            &format!("faulty worker {worker} hit-only query {i}"),
                        ),
                        Err(e) => {
                            assert_typed(e, &format!("faulty worker {worker} query {i}"));
                            errors += 1;
                        }
                    }
                }
                let out = fault::disarm();
                assert_eq!(out.triggered, errors > 0, "error count vs fault trigger");
                // Recovery on this same thread: the full batch again,
                // clean this time.
                let strq = engine.strq_online_batch(qs).unwrap();
                assert_strq_bit_identical(
                    &strq,
                    strq_base,
                    &format!("faulty worker {worker} recovery"),
                );
            });
        }
    });

    let _ = std::fs::remove_dir_all(dir);
}

/// Table 4's live counter covers every engine: the same queries through
/// the in-memory and the disk engine over one summary advance
/// `ppq_query_candidates_refined` by the same amount, the summed
/// `visited` of their answers.
#[test]
fn candidates_refined_counts_disk_queries_like_memory_queries() {
    let _g = lock();
    let (dir, data, gc, sharded) = build_store_and_summary("refined");
    let repo = Repo::open(&dir, 64).unwrap();
    let qs = queries(&data);
    let refined = ppq_obs::counter("ppq_query_candidates_refined");

    let before = refined.get();
    let mem = ShardedQueryEngine::new(&sharded, &data, gc).strq_online_batch(&qs);
    let mem_delta = refined.get() - before;
    let before = refined.get();
    let disk = DiskQueryEngine::new(&repo, &data, gc)
        .strq_online_batch(&qs)
        .unwrap();
    let disk_delta = refined.get() - before;

    let visited = |outcomes: &[StrqOutcome]| outcomes.iter().map(|o| o.visited as u64).sum::<u64>();
    assert!(visited(&mem) > 0, "fixture queries must refine something");
    assert_eq!(mem_delta, visited(&mem), "memory engine");
    assert_eq!(disk_delta, visited(&disk), "disk engine");
    assert_eq!(disk_delta, mem_delta);
    let _ = std::fs::remove_dir_all(dir);
}
