//! The crash-anywhere property: kill the live-ingest process at *every
//! single* instrumented durable-I/O operation — WAL appends and group
//! commits, fold segment writes and fsyncs, checkpoint commits, WAL
//! truncations, manifest renames, compaction page reads and rewrites —
//! and prove that recovery plus client re-push converges to a state
//! **bit-identical** to a run that never crashed: same per-shard summary
//! bytes, same STRQ answers at every level, same TPQ payload bits.
//!
//! The client model is the contract a real ingester follows: it owns the
//! slice stream, treats a push error as a process death, recovers the
//! directory, and resumes from [`LiveRepo::next_t`] — re-pushing any
//! slice the crash un-acknowledged (group commit means the last
//! `group_commit - 1` acked-but-unsynced slices may legitimately need a
//! re-push; determinism makes the re-push converge instead of fork).
//!
//! `FaultMode::CrashAfter` models the death: the targeted operation
//! misbehaves (hard failure or torn write, alternating by injection
//! point) and every later operation fails, exactly like a killed
//! process. The injection point advances one operation per iteration
//! until a full run completes with no fault triggered, so the space is
//! covered exhaustively, not sampled. Because every durable operation
//! happens on the pushing thread (rayon only parallelizes compute), the
//! operation schedule — and so this whole test — is invariant under
//! `RAYON_NUM_THREADS`; CI runs it at both ends of the thread matrix.

use ppq_core::query::StrqOutcome;
use ppq_core::summary_io;
use ppq_core::{PpqConfig, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveRepo};
use ppq_repo::{DiskQueryEngine, Repo};
use ppq_storage::fault;
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::{Dataset, TrajId};
use std::path::{Path, PathBuf};

const PAGE: usize = 4096;

fn dataset() -> Dataset {
    // Tiny on purpose: every injection point replays the whole workload.
    porto_like(&PortoConfig {
        trajectories: 10,
        mean_len: 14,
        min_len: 10,
        start_spread: 4,
        seed: 0xC4A5,
    })
}

fn live_config() -> LiveConfig {
    let mut cfg = LiveConfig::new(PpqConfig::variant(Variant::PpqS, 0.1), 2);
    cfg.page_size = PAGE;
    cfg.group_commit = 3; // a real unacked tail, exercised by re-push
    cfg.fold_every = 4; // several folds inside the tiny workload
    cfg.compact_max_chain = 3; // auto-compaction fires mid-run
    cfg.compact_dead_frac = 2.0;
    cfg.max_backoff_shift = 1;
    cfg
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppq-crash-any-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn queries(data: &Dataset) -> Vec<(u32, Point)> {
    let mut qs: Vec<(u32, Point)> = data
        .iter_points()
        .step_by(9)
        .map(|(_, t, p)| (t, p))
        .collect();
    qs.push((0, Point::new(500.0, 500.0))); // guaranteed miss
    qs
}

/// Push every slice from `from_t` on; `Err(t)` reports where a crash cut
/// the run short.
fn run_client(
    live: &mut LiveRepo,
    slices: &[(u32, Vec<(TrajId, Point)>)],
    from_t: Option<u32>,
) -> Result<(), u32> {
    let start = match from_t {
        None => 0,
        // A crash after the last ack can leave next_t one past the end:
        // the whole stream is durable and there is nothing to re-push.
        Some(t) if t == slices.last().unwrap().0 + 1 => slices.len(),
        Some(t) => slices
            .iter()
            .position(|s| s.0 == t)
            .expect("recovery resumed outside the slice range"),
    };
    for (t, points) in &slices[start..] {
        if live.push_slice(*t, points).is_err() {
            return Err(*t);
        }
        live.maintain_if_due();
    }
    Ok(())
}

struct Golden {
    summary_bytes: Vec<Vec<u8>>,
    strq: Vec<StrqOutcome>,
    #[allow(clippy::type_complexity)]
    tpq: Vec<Vec<(u32, Vec<(u32, Point)>)>>,
}

/// Finish a run: final fold, then capture the on-disk answers.
fn finish_and_capture(live: &mut LiveRepo, dir: &Path, data: &Dataset, gc: f64) -> Golden {
    live.fold().expect("fault-free final fold");
    let snapshot = live.snapshot();
    let summary_bytes = snapshot.shards().iter().map(summary_io::to_bytes).collect();
    let repo = Repo::open(dir, 64).expect("folded chain must open");
    let engine = DiskQueryEngine::new(&repo, data, gc);
    let qs = queries(data);
    Golden {
        summary_bytes,
        strq: engine.strq_batch(&qs).expect("disk STRQ"),
        tpq: engine.tpq_batch(&qs, 8).expect("disk TPQ"),
    }
}

fn points_bit_eq(a: &Point, b: &Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

fn assert_matches_golden(probe: &Golden, golden: &Golden, n: u64) {
    assert_eq!(
        probe.summary_bytes, golden.summary_bytes,
        "crash at op {n}: recovered summary bytes diverge from the no-crash run"
    );
    assert_eq!(probe.strq.len(), golden.strq.len());
    for (i, (p, g)) in probe.strq.iter().zip(&golden.strq).enumerate() {
        assert_eq!(p.truth, g.truth, "crash at op {n}: STRQ truth, query {i}");
        assert_eq!(
            p.approx, g.approx,
            "crash at op {n}: STRQ approx, query {i}"
        );
        assert_eq!(
            p.candidates, g.candidates,
            "crash at op {n}: STRQ candidates, query {i}"
        );
        assert_eq!(p.exact, g.exact, "crash at op {n}: STRQ exact, query {i}");
        assert_eq!(
            p.visited, g.visited,
            "crash at op {n}: STRQ visited, query {i}"
        );
    }
    assert_eq!(probe.tpq.len(), golden.tpq.len());
    for (i, (p, g)) in probe.tpq.iter().zip(&golden.tpq).enumerate() {
        assert_eq!(p.len(), g.len(), "crash at op {n}: TPQ count, query {i}");
        for ((ip, sp), (ig, sg)) in p.iter().zip(g) {
            assert_eq!(ip, ig, "crash at op {n}: TPQ id, query {i}");
            assert_eq!(sp.len(), sg.len());
            for ((tp, pp), (tg, pg)) in sp.iter().zip(sg) {
                assert_eq!(tp, tg);
                assert!(
                    points_bit_eq(pp, pg),
                    "crash at op {n}: TPQ payload bits, query {i}, id {ip}, t {tp}"
                );
            }
        }
    }
}

#[test]
fn recovery_converges_bit_identically_from_a_crash_at_every_io_op() {
    let data = dataset();
    let cfg = live_config();
    let gc = cfg.ppq.tpi.pi.gc;
    let slices: Vec<(u32, Vec<(TrajId, Point)>)> = data
        .time_slices()
        .map(|s| (s.t, s.points.to_vec()))
        .collect();

    // Golden: the same workload with no crash.
    let golden_dir = tmp_dir("golden");
    let golden = {
        let mut live = LiveRepo::recover(&golden_dir, cfg.clone()).unwrap();
        run_client(&mut live, &slices, None).expect("fault-free run");
        finish_and_capture(&mut live, &golden_dir, &data, gc)
    };
    let _ = std::fs::remove_dir_all(&golden_dir);

    // Crash at operation n, for every n until a run completes with the
    // fault never triggering (= the whole op space is covered).
    let dir = tmp_dir("probe");
    let mut n = 0u64;
    let mut crashes = 0u64;
    loop {
        assert!(n < 100_000, "op space never exhausted");
        let _ = std::fs::remove_dir_all(&dir);
        let kind = if n.is_multiple_of(2) {
            fault::FaultKind::Fail
        } else {
            fault::FaultKind::Torn {
                keep: (n % 17) as usize,
            }
        };
        fault::arm(n, kind, fault::FaultMode::CrashAfter);

        // The dying incarnation. Its in-memory state is abandoned, like
        // a real dead process; only the directory survives.
        let crashed = match LiveRepo::recover(&dir, cfg.clone()) {
            Ok(mut live) => run_client(&mut live, &slices, None).is_err(),
            Err(_) => true, // died while initializing the WAL
        };
        let out = fault::disarm();
        if !out.triggered {
            assert!(!crashed, "untriggered run must not fail");
            break;
        }
        crashes += 1;

        // Recovery + resume, fault-free. The directory may hold a torn
        // WAL tail, a committed-but-untruncated fold, a half-written
        // generation, a crashed compaction — recover must take them all.
        let mut live = LiveRepo::recover(&dir, cfg.clone())
            .unwrap_or_else(|e| panic!("crash at op {n}: recovery failed: {e}"));
        let resume_t = live.next_t();
        run_client(&mut live, &slices, resume_t)
            .unwrap_or_else(|t| panic!("crash at op {n}: fault-free re-push died at t={t}"));
        let probe = finish_and_capture(&mut live, &dir, &data, gc);
        assert_matches_golden(&probe, &golden, n);
        n += 1;
    }
    assert!(
        crashes >= 50,
        "the harness must actually exercise a dense injection space (saw {crashes})"
    );
    eprintln!("crash-anywhere: {crashes} injection points, all bit-identical after recovery");
    let _ = std::fs::remove_dir_all(&dir);
}
